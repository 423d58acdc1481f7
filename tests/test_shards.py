"""Sharded multi-SSP backend: placement, quorum, failover, repair.

Unit tests drive :class:`~repro.storage.shards.ShardedServer` directly
(placement determinism, lease-everywhere, quorum outvoting, fencing
monotonicity across replicas, tombstoned deletes, anti-entropy); the
acceptance differential reruns the seeded postmark and andrew
workloads over ``shards=4, replicas=2`` with one shard hard-down from
mid-run and demands the visible filesystem tree stay **byte-identical**
to the unsharded single-SSP run, fsck stay clean, and one
``repair()`` pass restore full replication once the shard returns --
the ISSUE 8 acceptance criteria.
"""

from __future__ import annotations

import pytest

from repro.errors import (BlobNotFound, CasConflictError, StaleEpochError,
                          TransientStorageError)
from repro.sim.clock import SimClock
from repro.storage.blobs import (LEASE, BlobId, block_blob, data_blob,
                                 journal_blob, meta_blob)
from repro.storage.faults import RollbackServer, TamperingServer
from repro.storage.resilient import OutageServer
from repro.storage.server import BatchOp
from repro.storage.shards import ShardedServer, ShardOutageServer
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import pinned_entropy, visible_tree
from repro.workloads.runner import make_env
from tests.differential import SEED, run_workload


def _lease(inode: int) -> BlobId:
    return BlobId(LEASE, inode, "-")


def _epoch_payload(epoch: int, body: bytes = b"lease") -> bytes:
    return epoch.to_bytes(8, "big") + body


# ---------------------------------------------------------------------------
# placement


class TestPlacement:
    def test_deterministic_and_distinct(self):
        a = ShardedServer(shards=5, replicas=3)
        b = ShardedServer(shards=5, replicas=3)
        for i in range(50):
            blob = data_blob(i, 0)
            assert a.placement(blob) == b.placement(blob)
            assert len(set(a.placement(blob))) == 3

    def test_spread(self):
        server = ShardedServer(shards=4, replicas=2)
        primaries = {server.placement(data_blob(i, 0))[0]
                     for i in range(200)}
        assert primaries == {0, 1, 2, 3}

    def test_lease_blobs_on_every_shard(self):
        server = ShardedServer(shards=4, replicas=2)
        assert server.placement(_lease(7)) == (0, 1, 2, 3)

    def test_same_inode_selectors_not_necessarily_colocated(self):
        server = ShardedServer(shards=8, replicas=2)
        placements = {server.placement(data_blob(3, i))
                      for i in range(32)}
        assert len(placements) > 1  # selectors spread, not inode-sticky

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedServer(shards=2, replicas=3)
        with pytest.raises(ValueError):
            ShardedServer(shards=0)
        with pytest.raises(ValueError):
            ShardedServer(shards=4, replicas=2, read_quorum=3)


# ---------------------------------------------------------------------------
# replicated writes, failover reads


class TestReplicationFailover:
    def test_put_lands_on_every_replica(self):
        server = ShardedServer(shards=4, replicas=3)
        blob = meta_blob(1, "alice")
        server.put(blob, b"payload")
        holders = server.census()[blob]
        assert holders == set(server.placement(blob))

    def test_read_survives_any_single_shard_down(self):
        server = ShardedServer(shards=4, replicas=2)
        blobs = [data_blob(i, 0) for i in range(20)]
        for i, blob in enumerate(blobs):
            server.put(blob, b"v%d" % i)
        for down in range(4):
            server.outage(down)
            for i, blob in enumerate(blobs):
                assert server.get(blob) == b"v%d" % i
            server.clear_wrappers()

    def test_write_during_outage_flags_missed_replica(self):
        server = ShardedServer(shards=4, replicas=2)
        blob = next(b for b in (data_blob(i, 0) for i in range(100))
                    if 0 in server.placement(b))
        server.outage(0)
        server.put(blob, b"while-down")
        assert server.get(blob) == b"while-down"
        snap = server.shard_snapshot()
        assert snap["writes.partial"] >= 1
        assert server.under_replicated()[blob] == {0}

    def test_all_replicas_down_is_transient(self):
        server = ShardedServer(shards=2, replicas=2)
        blob = data_blob(1, 0)
        server.put(blob, b"x")
        server.outage(0)
        server.outage(1)
        with pytest.raises(TransientStorageError):
            server.get(blob)
        with pytest.raises(TransientStorageError):
            server.put(blob, b"y")

    def test_absent_blob_with_shard_down_is_not_found(self):
        # Regression: absence voted over the live trusted replicas is
        # authoritative -- a down shard cannot hide the only copy
        # (missed writes live in the suspect ledger, not this vote).
        server = ShardedServer(shards=4, replicas=2)
        server.outage(0)
        with pytest.raises(BlobNotFound):
            server.get(data_blob(9, 3))
        assert not server.exists(_lease(12))


# ---------------------------------------------------------------------------
# quorum divergence


class TestQuorumDivergence:
    def _first_on(self, server, shard: int) -> BlobId:
        # Within the read quorum's preference window, so plain reads
        # actually consult the adversarial replica.
        return next(b for b in (data_blob(i, 0) for i in range(500))
                    if shard in
                    server.placement(b)[:server.read_quorum])

    def test_rolled_back_replica_outvoted_never_served(self):
        server = ShardedServer(shards=4, replicas=3, read_quorum=2)
        blob = self._first_on(server, 2)
        server.wrap_shard(2, lambda b: RollbackServer(inner=b))
        server.put(blob, b"v1")
        server.put(blob, b"v2")  # shard 2 pretends this never happened
        for _ in range(5):
            assert server.get(blob) == b"v2"
        snap = server.shard_snapshot()
        assert snap["outvoted"] >= 1
        assert 2 in server._suspect[blob]
        # Flagged for repair; anti-entropy heals the divergent copy.
        server.clear_wrappers()
        report = server.repair()
        assert report.fully_replicated
        assert report.healed_divergent >= 1
        assert server.shards[2].backend.get(blob) == b"v2"

    def test_tampering_replica_outvoted_never_served(self):
        server = ShardedServer(shards=4, replicas=3, read_quorum=2)
        blob = self._first_on(server, 1)
        server.put(blob, b"\x00" * 64)
        server.wrap_shard(1, lambda b: TamperingServer(inner=b))
        for _ in range(5):
            assert server.get(blob) == b"\x00" * 64
        assert 1 in server._suspect[blob]
        server.clear_wrappers()
        assert server.repair().fully_replicated

    def test_two_way_tie_detected_not_arbitrated(self):
        # At even replication an adversary can split the vote 1-1.
        # The router must not guess: the tie is counted, nobody is
        # falsely suspected, and repair surfaces the blob instead of
        # overwriting either side (client verification arbitrates).
        server = ShardedServer(shards=4, replicas=2, read_quorum=2)
        blob = data_blob(1, 0)
        server.put(blob, b"honest")
        evil = server.placement(blob)[1]
        server.shards[evil].backend.put(blob, b"forged")
        served = server.get(blob)
        assert served in (b"honest", b"forged")
        snap = server.shard_snapshot()
        assert snap["ties"] == 1
        assert blob not in server._suspect
        report = server.repair()
        assert blob in report.remaining
        assert not report.fully_replicated


# ---------------------------------------------------------------------------
# fencing across replicas


class TestShardedFencing:
    def test_epoch_chain_monotone_across_outage(self):
        server = ShardedServer(shards=4, replicas=2)
        fence = _lease(5)
        blob = meta_blob(5, "alice")
        server.put(fence, _epoch_payload(1))
        server.put_fenced(blob, b"epoch1", fence, 1)
        # The holder advances the chain while one shard sleeps through
        # it; the zombie then replays its stale epoch.
        server.outage(3)
        server.put(fence, _epoch_payload(2))
        server.clear_wrappers()
        # Shard 3's lease copy still says epoch 1, but the live max
        # rules: a zombie write fenced at epoch 1 dies everywhere.
        with pytest.raises(StaleEpochError):
            server.put_fenced(blob, b"zombie", fence, 1)
        server.put_fenced(blob, b"epoch2", fence, 2)
        assert server.get(blob) == b"epoch2"

    def test_lease_read_serves_max_epoch(self):
        server = ShardedServer(shards=3, replicas=2)
        fence = _lease(9)
        server.put(fence, _epoch_payload(4))
        # One replica lags (manual surgery below the router).
        lagging = server.placement(fence)[0]
        server.shards[lagging].backend.put(fence, _epoch_payload(3))
        from repro.storage.server import fence_epoch
        assert fence_epoch(server.get(fence)) == 4

    def test_put_if_cas_over_quorum(self):
        server = ShardedServer(shards=4, replicas=3)
        blob = meta_blob(2, "alice")
        server.put_if(blob, b"first", None)
        with pytest.raises(CasConflictError) as exc:
            server.put_if(blob, b"racing", None)
        assert exc.value.current == b"first"
        server.put_if(blob, b"second", b"first")
        assert server.get(blob) == b"second"


# ---------------------------------------------------------------------------
# deletes, tombstones, repair


class TestTombstonesRepair:
    def test_delete_with_shard_down_tombstones(self):
        server = ShardedServer(shards=4, replicas=2)
        blob = next(b for b in (data_blob(i, 0) for i in range(100))
                    if 0 in server.placement(b))
        server.put(blob, b"doomed")
        server.outage(0)
        server.delete(blob)
        with pytest.raises(BlobNotFound):
            server.get(blob)
        assert not server.exists(blob)
        # The downed shard still physically holds it -- a resurrection
        # hazard the tombstone ledger guards until repair applies it.
        assert server.shards[0].backend.exists(blob)
        server.clear_wrappers()
        report = server.repair()
        assert report.deletes_applied >= 1
        assert not server.shards[0].backend.exists(blob)
        assert blob not in server.census()

    def test_repair_restores_full_replication_after_outage(self):
        server = ShardedServer(shards=4, replicas=2)
        blobs = [data_blob(i, 0) for i in range(30)]
        server.outage(2)
        for i, blob in enumerate(blobs):
            server.put(blob, b"p%d" % i)
        server.clear_wrappers()
        assert server.under_replicated()
        report = server.repair()
        assert report.fully_replicated
        assert not server.under_replicated()
        for blob in blobs:
            assert server.census()[blob] == set(server.placement(blob))

    def test_repair_while_still_down_reports_remaining(self):
        server = ShardedServer(shards=4, replicas=2)
        server.outage(1)
        touched = []
        for i in range(40):
            blob = data_blob(i, 0)
            server.put(blob, b"x%d" % i)
            if 1 in server.placement(blob):
                touched.append(blob)
        report = server.repair()  # shard 1 still out
        assert not report.fully_replicated
        assert report.unreachable >= 1
        assert set(report.remaining) >= set(touched[:1])
        server.clear_wrappers()
        assert server.repair().fully_replicated


# ---------------------------------------------------------------------------
# batch fan-out


class TestShardedBatch:
    def test_batch_scatter_merge(self):
        server = ShardedServer(shards=4, replicas=2)
        ops = [BatchOp.put(data_blob(i, 0), b"b%d" % i) for i in range(8)]
        ops.append(BatchOp.get(data_blob(3, 0)))
        ops.append(BatchOp.exists(data_blob(4, 0)))
        replies = server.batch(ops)
        assert [r.status for r in replies] == ["ok"] * 10
        assert replies[8].payload == b"b3"
        assert replies[9].payload == b"\x01"

    def test_batch_through_outage(self):
        server = ShardedServer(shards=4, replicas=2)
        server.outage(0)
        ops = [BatchOp.put(data_blob(i, 1), b"o%d" % i) for i in range(8)]
        replies = server.batch(ops)
        assert all(r.status == "ok" for r in replies)
        for i in range(8):
            assert server.get(data_blob(i, 1)) == b"o%d" % i

    def test_batch_fenced_rejection_wins_over_lagging_replica(self):
        server = ShardedServer(shards=4, replicas=2)
        fence = _lease(11)
        blob = meta_blob(11, "alice")
        server.put(fence, _epoch_payload(3))
        ops = [BatchOp.put_fenced(blob, b"stale", fence, 2)]
        replies = server.batch(ops)
        assert replies[0].status == "fenced"
        assert replies[0].epoch == 3

    def test_journal_writes_are_barriers(self):
        """Intent, apply, commit: an intent no replica took stops the
        frame before any apply sub-op scatters, and an apply sub-op no
        replica took keeps the commit out of the journal."""
        server = ShardedServer(shards=4, replicas=2)
        journal = journal_blob("alice")
        data = [data_blob(i, 2) for i in range(8)]
        frame = ([BatchOp.put(journal, b"intent")]
                 + [BatchOp.put(blob, b"x") for blob in data]
                 + [BatchOp.put(journal, b"commit")])
        for index in server.placement(journal):
            server.outage(index)
        replies = server.batch(frame)
        assert replies[0].status == "error"
        assert {r.status for r in replies[1:]} == {"unattempted"}
        assert not set(data) & set(server.census())

        server.clear_wrappers()
        lost = next(blob for blob in data
                    if not set(server.placement(blob))
                    & set(server.placement(journal)))
        for index in server.placement(lost):
            server.outage(index)
        replies = server.batch(frame)
        assert replies[0].status == "ok"
        assert replies[1 + data.index(lost)].status == "error"
        assert replies[-1].status == "unattempted"
        assert server.get(journal) == b"intent"

    @staticmethod
    def _tail_run(epoch: int | None) -> tuple[list, list, list, BlobId]:
        """Statuses, blocks left, backend gets and fence of one tail
        delete of a 6-block file (``epoch`` None: unfenced) whose fence
        is at 3."""
        server = ShardedServer(shards=4, replicas=2)
        fence = _lease(12)
        server.put(fence, _epoch_payload(3))
        blocks = [block_blob(12, i) for i in range(6)]
        for block in blocks:
            server.put(block, b"x")
        gets: list[BlobId] = []
        for shard in server.shards:
            def counted(blob_id, real=shard.backend.get):
                gets.append(blob_id)
                return real(blob_id)
            shard.backend.get = counted
        op = (BatchOp.delete_tail(blocks[0]) if epoch is None
              else BatchOp.delete_tail_fenced(blocks[0], fence, epoch))
        statuses = [reply.status for reply in server.batch([op])]
        ran = list(gets)
        left = [block for block in blocks if server.exists(block)]
        return statuses, left, ran, fence

    def test_a_fenced_tail_delete_reads_its_fence_once(self):
        """The run is gated on the fence's max live epoch, read once;
        each block's fenced delete rides that epoch (every replica still
        checks its own fence copy), so the run reads what an unfenced
        one does plus one read of each fence replica: 12 gets, 36 when
        every block re-read the fence everywhere."""
        statuses, left, plain, _ = self._tail_run(None)
        assert (statuses, left, len(plain)) == (["ok"], [], 8)
        statuses, left, gets, fence = self._tail_run(3)
        assert (statuses, left) == (["ok"], [])
        assert gets.count(fence) == len(ShardedServer(
            shards=4, replicas=2).placement(fence)) == 4
        assert len(gets) == len(plain) + 4 == 12

    def test_a_stale_tail_delete_is_refused_before_any_block_goes(self):
        statuses, left, gets, fence = self._tail_run(2)
        assert statuses == ["fenced"]
        assert len(left) == 6
        assert gets == [fence] * 4


# ---------------------------------------------------------------------------
# harness surfaces


class TestHarnessSurfaces:
    def test_outage_server_window(self):
        clock = SimClock()
        inner = ShardedServer(shards=1, replicas=1, clock=clock)
        wrapper = inner.outage(0, start_s=10.0, end_s=20.0)
        assert isinstance(wrapper, ShardOutageServer)
        assert isinstance(wrapper, OutageServer)
        blob = data_blob(1, 0)
        inner.put(blob, b"before")
        clock.advance(15.0)  # inside the window
        with pytest.raises(TransientStorageError):
            inner.get(blob)
        clock.advance(10.0)  # past it
        assert inner.get(blob) == b"before"

    def test_restore_blobs_round_trip(self):
        server = ShardedServer(shards=4, replicas=2)
        for i in range(10):
            server.put(data_blob(i, 0), b"s%d" % i)
        snapshot = server.snapshot_blobs()
        server.outage(1)
        server.put(data_blob(3, 0), b"mutated")
        server.delete(data_blob(4, 0))
        server.clear_wrappers()
        server.restore_blobs(snapshot)
        assert not server.under_replicated()
        for i in range(10):
            assert server.get(data_blob(i, 0)) == b"s%d" % i

    def test_shard_snapshot_shape(self):
        server = ShardedServer(shards=3, replicas=2)
        server.put(data_blob(1, 0), b"x")
        snap = server.shard_snapshot()
        assert snap["shards"] == 3.0
        assert snap["replicas"] == 2.0
        for i in range(3):
            assert f"{i}.breaker.state" in snap
            assert f"{i}.attempts" in snap
        assert snap["0.blobs"] + snap["1.blobs"] + snap["2.blobs"] == 2.0

    def test_logical_vs_physical_accounting(self):
        server = ShardedServer(shards=4, replicas=3)
        for i in range(12):
            server.put(data_blob(i, 0), b"y" * 32)
        for i in range(12):
            server.get(data_blob(i, 0))
        assert server.stats.puts == 12
        assert server.stats.gets == 12
        # Physical traffic carries the replication amplification.
        assert server.physical_requests() >= 12 * 3 + 12
        assert server.physical_bytes() == 12 * 3 * 32


# ---------------------------------------------------------------------------
# acceptance: seeded workloads, one shard killed mid-run


def _reference_run(workload: str):
    with pinned_entropy(SEED):
        env = make_env("sharoes", extra_users=("bob",))
        t0 = env.cost.clock.now
        run_workload(workload, env)
        return {"tree": visible_tree(env.fs),
                "blobs": env.server.raw_blobs(),
                "duration": env.cost.clock.now - t0,
                "volume": env._volume}


def _sharded_killed_run(workload: str, kill: int, duration: float):
    with pinned_entropy(SEED):
        env = make_env("sharoes", shards=4, replicas=2,
                       extra_users=("bob",))
        server = env.server
        # The shard dies mid-workload (40% through the reference run's
        # simulated timeline) and never comes back until repair time.
        server.outage(kill, start_s=env.cost.clock.now + 0.4 * duration)
        run_workload(workload, env)
        return {"tree": visible_tree(env.fs),
                "blobs": server.raw_blobs(),
                "server": server,
                "volume": env._volume}


@pytest.mark.parametrize("workload,kills", [("postmark", (0, 1, 2, 3)),
                                            ("andrew", (0, 2))])
def test_kill_any_shard_mid_workload(workload, kills):
    reference = _reference_run(workload)
    for kill in kills:
        sharded = _sharded_killed_run(workload, kill,
                                      reference["duration"])
        server = sharded["server"]
        # Zero data loss: the visible plaintext tree is byte-identical
        # to the unsharded single-SSP run...
        assert sharded["tree"] == reference["tree"], f"kill={kill}"
        # ...and so is the logical ciphertext state (union of winners).
        assert sharded["blobs"] == reference["blobs"], f"kill={kill}"
        # The volume audits clean even with the shard still down
        # (quorum serves every surviving copy).
        report = VolumeAuditor(sharded["volume"]).audit()
        assert report.clean, (kill, report.summary())
        assert not report.orphaned_blobs
        # The shard returns; one anti-entropy pass restores placement.
        server.clear_wrappers()
        repair = server.repair()
        assert repair.fully_replicated, (kill, repair.summary())
        assert not server.under_replicated()
        # Replication overhead is physical, never logical: the client
        # issued the same requests, the backends absorbed ~k copies.
        assert server.physical_requests() > server.stats.puts


def test_sharded_config_rejected_for_baselines():
    from repro.errors import SharoesError
    with pytest.raises(SharoesError):
        make_env("public", shards=4)


# ---------------------------------------------------------------------------
# acceptance: online rebalance fired mid-workload

#: signing identity for the acceptance rebalances -- generated OUTSIDE
#: the pinned-entropy scope so the sharded run consumes exactly the
#: same entropy stream as the unsharded reference (RSA signing itself
#: is deterministic, so the plan machinery draws nothing).
_REB_KEY = None


def _reb_key():
    global _REB_KEY
    if _REB_KEY is None:
        from repro.crypto import rsa
        _REB_KEY = rsa.generate_keypair(512)
    return _REB_KEY


def _sharded_rebalanced_run(workload: str, members, replicas: int,
                            spares: int):
    """Sharded run with a live rebalance spanning the workload.

    The plan is proposed + staged at the 40th client mutation and
    driven to DONE at the 80th, so a window of real workload writes
    lands under dual placement and the flip happens with clients live.
    """
    from repro.storage.rebalance import VERIFIED, Rebalancer
    from repro.storage.resilient import MutationTrigger
    key = _reb_key()
    with pinned_entropy(SEED):
        env = make_env("sharoes", shards=4, replicas=2,
                       extra_users=("bob",))
        server = env.server
        for _ in range(spares):
            server.add_shard()
        holder = {}

        def stage_plan():
            reb = Rebalancer(server, keypair=key)
            reb.propose(members, replicas)
            reb.execute(until=VERIFIED)
            holder["reb"] = reb

        def finish_plan():
            holder["reb"].execute()

        trigger = MutationTrigger(server, {40: stage_plan,
                                           80: finish_plan})
        env._client_server = trigger
        run_workload(workload, env)
        return {"tree": visible_tree(env.fs),
                "blobs": server.raw_blobs(),
                "server": server,
                "volume": env._volume,
                "trigger": trigger}


@pytest.mark.parametrize("name,members,replicas,spares", [
    ("grow", (0, 1, 2, 3, 4, 5), 2, 2),
    ("shrink", (0, 1, 2), 2, 0),
    ("re-replicate", (0, 1, 2, 3), 3, 0),
])
def test_online_rebalance_mid_workload(name, members, replicas, spares):
    from repro.storage.shards import RingSpec
    reference = _reference_run("postmark")
    sharded = _sharded_rebalanced_run("postmark", members, replicas,
                                      spares)
    server = sharded["server"]
    # Both stages really fired inside the workload window.
    assert not sharded["trigger"].actions, name
    assert server.ring == RingSpec(tuple(members), replicas), name
    assert server.plan is None, name
    # Zero data loss and zero divergence: the visible plaintext tree
    # and the logical ciphertext state are byte-identical to the
    # unsharded single-SSP reference run.
    assert sharded["tree"] == reference["tree"], name
    assert sharded["blobs"] == reference["blobs"], name
    report = VolumeAuditor(sharded["volume"]).audit()
    assert report.clean, (name, report.summary())
    assert not report.orphaned_blobs, name
    # Anti-entropy on the *new* ring: nothing is misplaced (stray
    # old-placement copies of mid-plan writes classify as migrated),
    # and the target replication factor holds everywhere.
    repair = server.repair()
    if not repair.fully_replicated:
        repair = server.repair()
    assert repair.fully_replicated, (name, repair.summary())
    assert repair.dropped_misplaced == 0, (name, repair.summary())
    assert not server.under_replicated(), name
    # The rebalance paid physical traffic, not logical requests.
    assert server.physical_requests() > server.stats.puts, name
    assert server.rebalance_moved > 0, name
