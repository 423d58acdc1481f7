"""Online shard rebalancing: plans, fencing, pipeline, recovery.

Unit tests drive :mod:`repro.storage.rebalance` directly (ring
stability, signed-plan round trips and tamper refusal, plan-epoch CAS
fencing of zombie rebalancers, dual-placement counters, rollback and
resume recovery, the ``migrated`` repair classification, seeded read
rotation); the sampled crash matrix runs the twin-stack differential
harness (:mod:`repro.tools.rebalancematrix`) at representative crash
points x all four recovery variants -- CI runs the full k = 1..T sweep
through ``repro matrix rebalance``.
"""

from __future__ import annotations

import json

import pytest

from repro.crypto import rsa
from repro.errors import (ClientCrashed, IntegrityError, StaleEpochError,
                          TransientStorageError)
from repro.storage.blobs import (BlobId, LEASE, data_blob, lease_blob,
                                 meta_blob, plan_blob)
from repro.storage.faults import CrashingRebalancer
from repro.storage.rebalance import (ABORTED, COPYING, DONE, FLIPPED,
                                     VERIFIED, RebalancePlan, Rebalancer,
                                     resolve_plan)
from repro.storage.shards import RingSpec, ShardedServer

#: module-wide signing identity (keygen is the slow part; signing is
#: deterministic, so sharing the pair across tests is safe).
KEY = rsa.generate_keypair(512)


def _loaded(shards: int = 4, replicas: int = 2, spares: int = 2,
            blobs: int = 18) -> tuple[ShardedServer, dict]:
    """A sharded store with data, metadata and lease blobs + spares."""
    server = ShardedServer(shards=shards, replicas=replicas)
    stored = {}
    for i in range(blobs):
        blob = data_blob(i) if i % 3 else meta_blob(i, "alice")
        stored[blob] = b"payload-%d" % i
        server.put(blob, stored[blob])
    lease = lease_blob(1)
    stored[lease] = (4).to_bytes(8, "big") + b"lease-body"
    server.put(lease, stored[lease])
    for _ in range(spares):
        server.add_shard()
    return server, stored


def _grown(server: ShardedServer) -> RingSpec:
    return RingSpec(tuple(range(len(server.shards))), 3)


# ---------------------------------------------------------------------------
# ring stability


class TestRingSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingSpec((), 1)
        with pytest.raises(ValueError):
            RingSpec((0, 0, 1), 1)
        with pytest.raises(ValueError):
            RingSpec((0, 1), 3)

    def test_targets_deterministic_distinct(self):
        ring = RingSpec((0, 1, 2, 3, 4), 3)
        for i in range(50):
            targets = ring.targets(data_blob(i))
            assert targets == RingSpec((0, 1, 2, 3, 4), 3) \
                .targets(data_blob(i))
            assert len(set(targets)) == 3
            assert set(targets) <= set(ring.members)

    def test_growth_keeps_surviving_primaries(self):
        # Vnodes hash on *global* shard indices, so growing the ring
        # never reshuffles blobs between surviving members: a blob's
        # new primary is either a brand-new member or its old primary.
        old = RingSpec((0, 1, 2, 3), 1)
        new = RingSpec((0, 1, 2, 3, 4, 5), 1)
        kept = 0
        for i in range(200):
            blob = data_blob(i)
            primary = new.targets(blob)[0]
            if primary in old.members:
                assert primary == old.targets(blob)[0]
                kept += 1
        assert kept >= 80  # ~2/3 expected; far above by construction

    def test_shrink_only_moves_evicted_members_blobs(self):
        old = RingSpec((0, 1, 2, 3), 2)
        new = RingSpec((0, 1, 2), 2)
        for i in range(100):
            blob = data_blob(i)
            before = old.targets(blob)
            if 3 not in before:
                assert new.targets(blob) == before


# ---------------------------------------------------------------------------
# signed plan blobs


def _plan(state: str = COPYING, epoch: int = 1) -> RebalancePlan:
    return RebalancePlan(
        epoch=epoch, state=state,
        old=RingSpec((0, 1, 2, 3), 2), new=RingSpec((0, 1, 2, 3, 4), 3),
        moves=(data_blob(1), meta_blob(2, "alice"), lease_blob(1)),
    ).sign(KEY.private)


class TestPlanBlob:
    def test_round_trip(self):
        plan = _plan()
        assert RebalancePlan.from_blob(plan.to_blob(),
                                       KEY.public) == plan

    def test_prefix_monotone_over_states_then_epochs(self):
        states = (COPYING, VERIFIED, FLIPPED, DONE, ABORTED)
        prefixes = [_plan(state=s).prefix for s in states]
        assert prefixes == sorted(prefixes)
        assert _plan(state=COPYING, epoch=2).prefix > \
            _plan(state=ABORTED, epoch=1).prefix

    def test_state_rides_outside_the_signature(self):
        # A keyless recovery process can advance the state: the new
        # blob still verifies under the original signature.
        import dataclasses
        flipped = dataclasses.replace(_plan(), state=FLIPPED)
        parsed = RebalancePlan.from_blob(flipped.to_blob(), KEY.public)
        assert parsed.state == FLIPPED
        assert parsed.flipped

    def test_tampered_body_refused(self):
        raw = bytearray(_plan().to_blob())
        raw[40] ^= 0x01  # inside the signed body JSON
        with pytest.raises(IntegrityError):
            RebalancePlan.from_blob(bytes(raw), KEY.public)

    def test_tampered_prefix_refused(self):
        plan = _plan()
        raw = (99 * 256 + 1).to_bytes(8, "big") + plan.to_blob()[8:]
        with pytest.raises(IntegrityError):
            RebalancePlan.from_blob(raw, KEY.public)

    def test_garbage_refused(self):
        with pytest.raises(IntegrityError):
            RebalancePlan.from_blob(b"\x00" * 7, KEY.public)
        with pytest.raises(IntegrityError):
            RebalancePlan.from_blob(b"\x00" * 8 + b"not json",
                                    KEY.public)

    def test_signed_body_missing_its_rings_refused(self):
        """A correctly signed body that is not a plan is refused, not a
        ``KeyError`` in every router that reads it."""
        body = b'{"epoch":1}'
        raw = (1 * 256 + 1).to_bytes(8, "big") + json.dumps({
            "body": body.decode(),
            "sig": rsa.sign(KEY.private, body).hex()}).encode()
        with pytest.raises(IntegrityError, match="malformed plan body"):
            RebalancePlan.from_blob(raw, KEY.public)

    def test_unknown_state_rank_refused(self):
        # The rank rides outside the signature: the SSP can write any.
        raw = (1 * 256 + 99).to_bytes(8, "big") + _plan().to_blob()[8:]
        with pytest.raises(IntegrityError, match="unknown plan state"):
            RebalancePlan.from_blob(raw, KEY.public)


# ---------------------------------------------------------------------------
# propose + fencing


class TestProposeFencing:
    def test_propose_signs_stores_and_adopts(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        plan = reb.propose(range(6), 3)
        assert plan.epoch == 1 and plan.state == COPYING
        assert server.plan is plan
        assert len(plan.moves) > 0
        stored = Rebalancer.load(server, KEY.public)
        assert stored == plan
        # The plan blob reached every member of *both* rings.
        holders = server.census()[plan_blob()]
        assert holders == set(range(6))

    def test_epochs_are_monotone_across_plans(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        reb.propose(range(6), 3)
        reb.execute()
        reb2 = Rebalancer(server, keypair=KEY)
        plan2 = reb2.propose(range(4), 2)  # shrink back
        assert plan2.epoch == 2

    def test_second_proposer_refused_while_plan_active(self):
        server, _ = _loaded()
        Rebalancer(server, keypair=KEY).propose(range(6), 3)
        with pytest.raises(ValueError):
            Rebalancer(server, keypair=KEY).propose(range(5), 2)

    def test_zombie_rebalancer_is_fenced(self):
        server, _ = _loaded()
        zombie = Rebalancer(server, keypair=KEY)
        zombie.propose(range(6), 3)
        stale = zombie.plan  # snapshot before another driver advances
        driver = Rebalancer(server, keypair=KEY)
        driver.plan = stale
        driver.execute(until=VERIFIED)
        # The zombie wakes up holding the stale COPYING plan: its next
        # CAS must be rejected mechanically.
        zombie.plan = stale
        with pytest.raises(StaleEpochError):
            zombie._advance(VERIFIED)
        # ...and so must its targeted data moves (per-shard fences).
        # Corrupt one staged copy so the zombie actually re-puts it
        # (idempotent skips would otherwise hide the fence).
        blob = next(b for b in stale.moves
                    if zombie._dsts(b, stale.old, stale.new))
        dst = zombie._dsts(blob, stale.old, stale.new)[0]
        server.shards[dst].backend.put(blob, b"corrupted-stage")
        with pytest.raises(StaleEpochError):
            zombie._copy(zombie.report)

    def test_tampered_stored_copy_is_ignored(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        plan = reb.propose(range(6), 3)
        raw = bytearray(server.shards[0].backend.raw_blobs()[plan_blob()])
        raw[40] ^= 0x01
        server.shards[0].backend.put(plan_blob(), bytes(raw))
        assert Rebalancer.load(server, KEY.public) == plan

    def test_all_copies_tampered_means_no_plan(self):
        # A malicious SSP fleet can *hide* a plan, never forge one:
        # with every copy tampered nothing loads, nothing executes.
        server, _ = _loaded()
        Rebalancer(server, keypair=KEY).propose(range(6), 3)
        for shard in server.shards:
            raw = shard.backend.raw_blobs().get(plan_blob())
            if raw is not None:
                bad = bytearray(raw)
                bad[40] ^= 0x01
                shard.backend.put(plan_blob(), bytes(bad))
        assert Rebalancer.load(server, KEY.public) is None
        recovered = Rebalancer.recover(server, KEY.public)
        assert recovered.plan is None
        assert server.plan is None


# ---------------------------------------------------------------------------
# the pipeline


class TestPipeline:
    def test_grow_and_rereplicate(self):
        server, stored = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        reb.propose(range(6), 3)
        report = reb.execute()
        assert report.state == DONE
        assert server.ring == RingSpec((0, 1, 2, 3, 4, 5), 3)
        assert server.plan is None
        for blob, payload in stored.items():
            assert server.get(blob) == payload
        assert not server.under_replicated()
        assert server.raw_blobs() == {
            b: p for b, p in stored.items()}

    def test_shrink_vacates_ex_members(self):
        server, stored = _loaded(spares=0)
        reb = Rebalancer(server, keypair=KEY)
        reb.propose((0, 1, 2), 2)
        reb.execute()
        assert server.ring == RingSpec((0, 1, 2), 2)
        # Ex-member 3 holds nothing at all -- not even control blobs.
        assert server.shards[3].backend.blob_count() == 0
        for blob, payload in stored.items():
            assert server.get(blob) == payload

    def test_counters_and_snapshot(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        reb.propose(range(6), 3)
        snap = server.shard_snapshot()
        assert snap["rebalance.active"] == 1.0
        assert snap["rebalance.plan_epoch"] == 1.0
        server.get(data_blob(1))
        server.put(data_blob(1), b"during")
        assert server.dual_reads >= 1
        assert server.dual_writes >= 1
        reb.execute()
        snap = server.shard_snapshot()
        assert snap["rebalance.active"] == 0.0
        assert snap["rebalance.moved"] > 0
        assert snap["rebalance.verified"] > 0
        assert snap["rebalance.dropped"] > 0

    def test_mutation_during_plan_fans_to_both_rings(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        plan = reb.propose(range(6), 3)
        blob = data_blob(1)
        server.put(blob, b"dual-written")
        holders = server.census()[blob]
        assert set(plan.old.targets(blob)) <= holders
        assert set(plan.new.targets(blob)) <= holders

    def test_deleted_blob_is_skipped(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        plan = reb.propose(range(6), 3)
        victim = next(b for b in plan.moves if b.kind != LEASE)
        server.delete(victim)
        report = reb.execute()
        assert report.skipped >= 1
        assert not server.exists(victim)


# ---------------------------------------------------------------------------
# crash recovery


def _crash_run(server: ShardedServer, members, replicas: int,
               crash_after: int) -> bool:
    """Propose + execute with a crash injector; True if it fired."""
    hook = CrashingRebalancer(crash_after=crash_after)
    reb = Rebalancer(server, keypair=KEY, hook=hook)
    try:
        reb.propose(members, replicas)
        reb.execute()
        return False
    except ClientCrashed:
        return True


class TestRecovery:
    def test_resume_from_sampled_crash_points(self):
        probe, _ = _loaded()
        counter = CrashingRebalancer()
        reb = Rebalancer(probe, keypair=KEY, hook=counter)
        reb.propose(range(6), 3)
        reb.execute()
        total = counter.actions
        for k in sorted({1, 2, total // 3, total // 2, total - 1,
                         total}):
            server, stored = _loaded()
            assert _crash_run(server, range(6), 3, k)
            recovered = Rebalancer.recover(server, KEY.public,
                                           keypair=KEY)
            recovered.resume()
            assert server.plan is None
            assert server.ring == RingSpec((0, 1, 2, 3, 4, 5), 3), k
            for blob, payload in stored.items():
                assert server.get(blob) == payload, k
            assert not server.under_replicated(), k

    def test_repair_rolls_back_unflipped_plan(self):
        server, stored = _loaded()
        assert _crash_run(server, range(6), 3, 3)  # mid-copy
        report = server.repair()
        assert report.plan_action == "rolled_back"
        assert server.plan is None
        assert server.ring == RingSpec((0, 1, 2, 3), 2)
        for blob, payload in stored.items():
            assert server.get(blob) == payload
        assert not server.under_replicated()
        # Spares hold nothing after the rollback swept them.
        assert server.shards[4].backend.blob_count() == 0
        assert server.shards[5].backend.blob_count() == 0

    def test_repair_resumes_flipped_plan(self):
        probe, _ = _loaded()
        counter = CrashingRebalancer()
        reb = Rebalancer(probe, keypair=KEY, hook=counter)
        reb.propose(range(6), 3)
        reb.execute()
        first_drop = next(i for i, (step, _) in enumerate(counter.log)
                          if step == "drop") + 1
        server, stored = _loaded()
        assert _crash_run(server, range(6), 3, first_drop + 2)
        report = server.repair()
        assert report.plan_action == "resumed"
        assert server.ring == RingSpec((0, 1, 2, 3, 4, 5), 3)
        for blob, payload in stored.items():
            assert server.get(blob) == payload
        assert not server.under_replicated()

    def test_rollback_preserves_write_that_raced_the_plan(self):
        # A dual write lands while the plan is staging; rollback must
        # keep the *newer* version even though it tears down the ring
        # the write also landed on.
        server, stored = _loaded()
        assert _crash_run(server, range(6), 3, 5)
        victim = next(iter(stored))
        server.put(victim, b"newer-during-plan")
        report = server.repair()
        assert report.plan_action == "rolled_back"
        assert server.get(victim) == b"newer-during-plan"
        assert not server.under_replicated()

    def test_done_plan_blob_survives_for_fencing(self):
        server, _ = _loaded()
        reb = Rebalancer(server, keypair=KEY)
        reb.propose(range(6), 3)
        reb.execute()
        stored = Rebalancer.load(server, KEY.public)
        assert stored is not None and stored.state == DONE
        # A later plan CAS'es past it: the epoch chain never resets.
        reb2 = Rebalancer(server, keypair=KEY)
        assert reb2.propose(range(4), 2).epoch == 2


# ---------------------------------------------------------------------------
# repair classification: migrated vs misplaced


class TestMigratedCounter:
    def test_plan_leftovers_count_as_migrated(self):
        server, _ = _loaded(spares=0)
        reb = Rebalancer(server, keypair=KEY)
        reb.propose((0, 1, 2), 2)
        reb.execute(until=FLIPPED)
        server.outage(3)  # the ex-member is down for the drop phase
        reb.execute()
        server.clear_wrappers()
        report = server.repair()
        assert report.migrated > 0
        assert report.dropped_misplaced == 0
        assert server.shards[3].backend.blob_count() == 0

    def test_stray_copies_still_count_as_misplaced(self):
        server = ShardedServer(shards=4, replicas=2)
        blob = data_blob(1)
        server.put(blob, b"x")
        stray = next(i for i in range(4)
                     if i not in server.placement(blob))
        server.shards[stray].backend.put(blob, b"x")
        report = server.repair()
        assert report.dropped_misplaced == 1
        assert report.migrated == 0


# ---------------------------------------------------------------------------
# hot-blob read rotation


class TestReadRotation:
    def test_single_copy_reads_spread_over_replicas(self):
        server = ShardedServer(shards=4, replicas=3, read_quorum=1)
        blob = data_blob(7)
        server.put(blob, b"hot")
        reads = 300
        for _ in range(reads):
            assert server.get(blob) == b"hot"
        shares = [server.shards[s].reads
                  for s in server.placement(blob)]
        assert sum(shares) == reads
        # Near-uniform: every replica takes a meaningful share.
        for share in shares:
            assert reads / 3 * 0.5 <= share <= reads / 3 * 1.5, shares

    def test_quorum_reads_keep_placement_order(self):
        server = ShardedServer(shards=4, replicas=3, read_quorum=2)
        blob = data_blob(7)
        server.put(blob, b"hot")
        first = server.placement(blob)[0]
        for _ in range(50):
            server.get(blob)
        assert server.shards[first].reads == 50

    def test_lease_reads_keep_placement_order(self):
        server = ShardedServer(shards=4, replicas=2, read_quorum=1)
        lease = lease_blob(3)
        server.put(lease, (2).to_bytes(8, "big") + b"l")
        for _ in range(40):
            server.get(lease)
        assert server.shards[server.placement(lease)[0]].reads == 40

    def test_read_share_exported(self):
        server = ShardedServer(shards=4, replicas=3, read_quorum=1)
        blob = data_blob(7)
        server.put(blob, b"hot")
        for _ in range(30):
            server.get(blob)
        snap = server.shard_snapshot()
        total = sum(snap[f"{i}.read_share"] for i in range(4))
        assert total == pytest.approx(1.0)

    def test_seed_changes_the_rotation(self):
        a = ShardedServer(shards=4, replicas=3, read_seed=1)
        b = ShardedServer(shards=4, replicas=3, read_seed=2)
        blob = data_blob(7)
        a.put(blob, b"x")
        b.put(blob, b"x")
        served_a, served_b = [], []
        for _ in range(12):
            a.get(blob)
            b.get(blob)
            served_a.append([s.reads for s in a.shards])
            served_b.append([s.reads for s in b.shards])
        assert served_a != served_b


# ---------------------------------------------------------------------------
# sampled crash matrix (CI runs the full sweep via the CLI)


@pytest.fixture(scope="module")
def matrix():
    from repro.tools.rebalancematrix import RebalanceMatrix
    m = RebalanceMatrix(seed=7)
    [m.case] = m.cases
    m.total = m.count(m.case)
    return m


@pytest.mark.parametrize("variant",
                         ("resume", "repair", "writes", "shard-down"))
def test_sampled_crash_matrix(matrix, variant):
    total = matrix.total
    ks = sorted({1, 2, total // 3, total // 2, total - 1, total})
    for k in ks:
        outcome = matrix.cell(matrix.case, variant, k, total)
        assert outcome.consistent, (variant, k, outcome)
