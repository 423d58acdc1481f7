"""Fork-consistency log (the paper's SUNDR integration, section VI)."""

from dataclasses import replace

import pytest

from repro.crypto import esign
from repro.crypto.provider import CryptoProvider
from repro.fs.consistency import (ConsistencyLog, ForkDetected,
                                  VersionStatement, statement_blob)
from repro.storage.server import StorageServer
from tests.conftest import FOREIGN_SIGNERS


def _log(registry, server, user_id: str) -> ConsistencyLog:
    """``user_id``'s log, talking to ``server`` directly."""
    return ConsistencyLog(user_id, registry.user(user_id).signing.signing,
                          registry.directory,
                          lambda label, ops: server.batch(ops))


@pytest.fixture
def logs(registry, server):
    """A ConsistencyLog per user over the ``server`` fixture, sharing
    the registry's directory."""
    return lambda user_id: _log(registry, server, user_id)


class TestStatements:
    def test_roundtrip(self, logs, server):
        log = logs("alice")
        log.observe(5, 3)
        log.observe(7, 1)
        statement = log.publish()
        restored = VersionStatement.from_bytes(
            server.get(statement_blob("alice")))
        assert restored == statement
        assert restored.observed(5) == 3
        assert restored.observed(99) is None

    def test_chain_digests(self, logs, server):
        log = logs("alice")
        first = log.publish()
        second = log.publish()
        assert second.previous_digest == first.digest()
        assert second.sequence == first.sequence + 1

    def test_seen_vector_grows(self, logs, server):
        alice, bob = logs("alice"), logs("bob")
        bob.publish()
        alice.sync(["bob"])
        statement = alice.publish()
        assert statement.seen_sequence("bob") == 1
        assert statement.seen_sequence("carol") == 0


class TestHonestOperation:
    def test_peers_exchange_cleanly(self, logs, server):
        alice, bob = logs("alice"), logs("bob")
        alice.observe(10, 4)
        alice.publish()
        accepted = bob.sync(["alice", "carol"])
        assert len(accepted) == 1
        assert bob.known_high[10] == 4  # learned from alice

    def test_lagging_peer_is_legal(self, logs, server):
        """bob publishes BEFORE seeing alice's newer version: no fork."""
        alice, bob = logs("alice"), logs("bob")
        bob.observe(10, 1)
        bob.publish()
        alice.observe(10, 9)
        alice.publish()
        alice.sync(["bob"])  # bob's older view: fine

    def test_multi_round_convergence(self, logs, server):
        alice, bob, carol = logs("alice"), logs("bob"), logs("carol")
        alice.observe(1, 5)
        alice.publish()
        for log in (bob, carol):
            log.sync(["alice", "bob", "carol"])
            log.publish()
        alice.sync(["bob", "carol"])
        assert bob.known_high[1] == 5
        assert carol.known_high[1] == 5


class TestForkDetection:
    def test_sequence_regression_detected(self, logs, server):
        alice, bob = logs("alice"), logs("bob")
        old_one = alice.publish()
        old_blob = server.get(statement_blob("alice"))
        alice.publish()
        bob.sync(["alice"])          # bob saw seq 2
        server.put(statement_blob("alice"), old_blob)  # SSP rolls back
        with pytest.raises(ForkDetected):
            bob.sync(["alice"])

    def test_equivocation_same_sequence_detected(self, logs, server,
                                                 registry):
        alice, bob = logs("alice"), logs("bob")
        alice.observe(3, 1)
        alice.publish()
        bob.sync(["alice"])
        # The SSP (or a compromised alice USK) crafts a DIFFERENT
        # statement with the same sequence number.
        forged = VersionStatement(
            user_id="alice", sequence=1,
            previous_digest=b"\x00" * 32,
            observations=((3, 99),), seen=())
        signature = esign.sign(registry.user("alice").signing.signing,
                               forged.signed_payload())
        forged = VersionStatement(
            user_id="alice", sequence=1,
            previous_digest=b"\x00" * 32,
            observations=((3, 99),), seen=(), signature=signature)
        server.put(statement_blob("alice"), forged.to_bytes())
        with pytest.raises(ForkDetected):
            bob.sync(["alice"])

    def test_unsigned_statement_rejected(self, logs, server):
        bob = logs("bob")
        fake = VersionStatement(
            user_id="alice", sequence=1, previous_digest=b"\x00" * 32,
            observations=(), seen=(), signature=b"\x01" * 64)
        server.put(statement_blob("alice"), fake.to_bytes())
        with pytest.raises(ForkDetected):
            bob.sync(["alice"])

    def test_wrong_slot_rejected(self, logs, server):
        alice, bob = logs("alice"), logs("bob")
        alice.publish()
        # SSP serves alice's (valid) statement in carol's slot.
        server.put(statement_blob("carol"),
                   server.get(statement_blob("alice")))
        with pytest.raises(ForkDetected):
            bob.sync(["carol"])

    def test_own_slot_claiming_another_author_detected_at_resume(
            self, logs, server):
        """At mount the SSP serves bob's valid statement in alice's own
        slot: alice refuses to resume another user's chain."""
        logs("bob").publish()
        server.put(statement_blob("alice"),
                   server.get(statement_blob("bob")))
        with pytest.raises(ForkDetected, match="claims author 'bob'"):
            logs("alice").resume_from()

    def test_own_slot_with_bad_signature_detected_at_resume(self, logs,
                                                             server):
        logs("alice").publish()
        forged = VersionStatement(
            user_id="alice", sequence=9, previous_digest=b"\x00" * 32,
            observations=(), seen=(), signature=b"\x01" * 64)
        server.put(statement_blob("alice"), forged.to_bytes())
        with pytest.raises(ForkDetected, match="on my own statement"):
            logs("alice").resume_from()

    def test_causal_contradiction_detected(self, logs, server):
        """The heart of fork consistency: bob acknowledges alice's chain
        but the SSP fed him a forked history of inode 7."""
        alice, bob = logs("alice"), logs("bob")
        alice.observe(7, 5)
        alice.publish()              # alice seq 1: inode7@v5
        bob.sync(["alice"])        # bob acks alice seq 1 + merges
        # The fork: bob's client is manipulated to believe inode7@v2,
        # overriding what the (forked) SSP let him learn.
        bob.known_high[7] = 2
        bob.publish()                # claims seen alice@1, 7@v2
        with pytest.raises(ForkDetected):
            alice.sync(["bob"])

    def test_fork_detected_even_after_delay(self, logs, server):
        """Statements keep history honest across multiple rounds."""
        alice, bob = logs("alice"), logs("bob")
        alice.observe(7, 5)
        alice.publish()
        bob.sync(["alice"])
        bob.publish()
        alice.sync(["bob"])        # round 1: clean
        bob.known_high[7] = 1              # forked view appears later
        bob.publish()
        with pytest.raises(ForkDetected):
            alice.sync(["bob"])


def _alice_statement(registry, sign) -> VersionStatement:
    """alice's first statement, its payload signed by
    ``sign(registry, payload)``."""
    unsigned = VersionStatement(
        user_id="alice", sequence=1, previous_digest=b"\x00" * 32,
        observations=((3, 1),), seen=())
    return replace(unsigned,
                   signature=sign(registry, unsigned.signed_payload()))


class TestOnlyTheAuthorsUskSigns:
    """A statement in alice's slot verifies under alice's UVK and
    nothing else -- not at a peer's sync, not at alice's own resume."""

    @pytest.fixture(params=sorted(FOREIGN_SIGNERS))
    def forged(self, request, registry) -> VersionStatement:
        return _alice_statement(registry, FOREIGN_SIGNERS[request.param])

    def test_alices_usk_signs_the_same_statement_validly(self, logs,
                                                         server, registry):
        statement = _alice_statement(registry, lambda reg, payload:
                                     esign.sign(reg.user("alice")
                                                .signing.signing, payload))
        server.put(statement_blob("alice"), statement.to_bytes())
        assert logs("bob").sync(["alice"]) == [statement]
        assert logs("alice").resume_from() == statement

    def test_a_peer_rejects_it(self, logs, server, forged):
        server.put(statement_blob("alice"), forged.to_bytes())
        with pytest.raises(ForkDetected, match="invalid statement signature"):
            logs("bob").sync(["alice"])

    def test_its_author_rejects_it_at_resume(self, logs, server, forged):
        server.put(statement_blob("alice"), forged.to_bytes())
        with pytest.raises(ForkDetected, match="on my own statement"):
            logs("alice").resume_from()


class TestFilesystemIntegration:
    def test_wired_to_real_volume(self, volume, registry, server,
                                  alice_fs, bob_fs):
        """Drive logs from actual client freshness observations."""
        alice_log = _log(registry, server, "alice")
        bob_log = _log(registry, server, "bob")
        alice_fs.create_file("/shared", b"v1", mode=0o664)
        stat = alice_fs.getattr("/shared")
        alice_log.observe(stat.inode, stat.version)
        alice_log.publish()

        bob_log.sync(["alice"])
        bob_stat = bob_fs.getattr("/shared")
        bob_log.observe(bob_stat.inode, bob_stat.version)
        bob_log.publish()
        alice_log.sync(["bob"])  # clean: same history

        # chmod bumps the version; alice publishes the new state.
        alice_fs.chmod("/shared", 0o660)
        stat = alice_fs.getattr("/shared")
        alice_log.observe(stat.inode, stat.version)
        alice_log.publish()
        # bob acknowledges it; if the SSP later hid the chmod from bob's
        # *statements*, alice would catch the contradiction.
        bob_log.sync(["alice"])
        bob_log.publish()
        alice_log.sync(["bob"])


class TestClientWiring:
    def test_enable_and_exchange(self, volume, registry, alice_fs,
                                 bob_fs):
        alice_log = alice_fs.enable_consistency_log()
        bob_log = bob_fs.enable_consistency_log()
        alice_fs.create_file("/wired", b"v1", mode=0o664)
        alice_fs.cache.clear()
        alice_fs.getattr("/wired")         # observation feeds the log
        assert alice_log.known_high        # something observed
        alice_fs.publish_statement()
        bob_fs.sync_statements(["alice"])
        bob_fs.getattr("/wired")
        bob_fs.publish_statement()
        alice_fs.sync_statements(["bob"])  # clean exchange

    def test_wired_fork_detected(self, volume, registry, server,
                                 alice_fs, bob_fs):
        from repro.fs.consistency import ForkDetected
        alice_fs.enable_consistency_log()
        bob_fs.enable_consistency_log()
        alice_fs.create_file("/forked", b"v1", mode=0o664)
        alice_fs.chmod("/forked", 0o660)   # version moves forward
        alice_fs.cache.clear()
        alice_fs.getattr("/forked")
        alice_fs.publish_statement()
        bob_fs.sync_statements(["alice"])
        # A forked SSP view makes bob believe an older version.
        inode = alice_fs.getattr("/forked").inode
        bob_fs.consistency.known_high[inode] = 1
        bob_fs.publish_statement()
        with pytest.raises(ForkDetected):
            alice_fs.sync_statements(["bob"])

    def test_statements_are_signed_and_verified_on_the_ledger(self,
                                                              make_fs):
        """A publish is one ESIGN signature and a sync one verification
        per statement it reads, each in ``client.crypto.ops.*`` and
        priced in the crypto column."""
        alice = make_fs("alice", with_costs=True)
        bob = make_fs("bob", with_costs=True)
        alice.enable_consistency_log()
        bob.enable_consistency_log()
        for fs, kind, step in ((alice, "sign", alice.publish_statement),
                               (bob, "verify",
                                lambda: bob.sync_statements(["alice"]))):
            ops = fs.provider.counters.total(kind)
            crypto_s = fs.cost.totals.seconds["crypto"]
            step()
            assert fs.provider.counters.total(kind) == ops + 1
            assert fs.metrics.snapshot()[f"client.crypto.ops.{kind}"] == (
                ops + 1)
            assert fs.cost.totals.seconds["crypto"] > crypto_s

    def test_not_enabled_raises(self, alice_fs):
        from repro.errors import SharoesError
        with pytest.raises(SharoesError):
            alice_fs.publish_statement()
        with pytest.raises(SharoesError):
            alice_fs.sync_statements(["bob"])


class TestForkEdges:
    """Boundary cases of the causal cross-check (robustness satellite)."""

    def test_fork_detected_on_first_cross_read_after_partition_heal(
            self, logs, server):
        # Alice asserts inode 7 at version 5; bob acknowledges her chain
        # before the SSP partitions them into divergent views.
        alice, bob = logs("alice"), logs("bob")
        alice.observe(7, 5)
        alice.publish()
        bob.sync(["alice"])  # bob now acks alice@1
        # Partition: the SSP feeds bob a forked history where inode 7
        # never went past version 2.  Bob's own chain stays perfectly
        # linear while he keeps working and publishing.
        bob.known_high[7] = 2
        bob.publish()
        bob.observe(11, 1)
        bob.publish()
        # Alice also keeps working during the partition.
        alice.observe(3, 1)
        alice.publish()
        # Heal: the very FIRST cross-read of bob's statements must expose
        # the fork -- bob acknowledged alice@1 (which asserted 7@5) yet
        # reports 7@2.
        with pytest.raises(ForkDetected):
            alice.sync(["bob"])

    def test_stale_but_linear_peer_is_legal(self, logs, server):
        # A peer that merely LAGS -- acknowledging an old statement and
        # reporting old versions consistent with it -- is not a fork.
        alice, bob = logs("alice"), logs("bob")
        alice.observe(7, 1)
        alice.publish()  # seq 1 asserts 7@1
        bob.sync(["alice"])  # bob acks alice@1
        # Alice advances to 7@9 in seq 2; bob never sees it (stale SSP
        # cache, slow replication -- all benign).
        alice.observe(7, 9)
        alice.publish()
        bob.publish()  # seen alice@1, observations {7: 1}
        accepted = alice.sync(["bob"])  # must NOT raise
        assert len(accepted) == 1
        assert accepted[0].observed(7) == 1
        # Bob keeps publishing stale-but-linear statements; still legal.
        bob.publish()
        assert alice.sync(["bob"])

    def test_stale_peer_becomes_fork_once_it_acks_the_new_chain(
            self, logs, server):
        # The moment the laggard acknowledges the NEWER statement while
        # still contradicting it, legality flips to fork.
        alice, bob = logs("alice"), logs("bob")
        alice.observe(7, 1)
        alice.publish()
        bob.sync(["alice"])
        alice.observe(7, 9)
        alice.publish()  # seq 2 asserts 7@9
        bob.sync(["alice"])  # bob acks alice@2 ...
        bob.known_high[7] = 1  # ... but the SSP forks his view back
        bob.publish()
        with pytest.raises(ForkDetected):
            alice.sync(["bob"])


class TestShardedReplicaDivergence:
    """A rolled-back or tampering *replica* (one shard of a sharded
    backend, not the whole SSP) is outvoted by quorum reads before the
    client ever sees its bytes: freshness monitoring and fork detection
    stay quiet, the divergent copy is flagged for repair, and one
    anti-entropy pass heals it.  Per-blob rollback of the *whole*
    quorum is still the client's to detect (TestForkEdges above)."""

    def _stack(self, registry, **kwargs):
        from repro.fs.client import ClientConfig, SharoesFilesystem
        from repro.fs.volume import SharoesVolume
        from repro.principals.groups import GroupKeyService
        from repro.storage.shards import ShardedServer
        server = ShardedServer(shards=4, replicas=3, read_quorum=2,
                               **kwargs)
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        # No client-side caching: every read re-fetches, so quorum
        # resolution runs on each access (what this class tests).
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig(cache_bytes=0,
                                                   mdcache=False))
        fs.mount()
        return server, volume, fs

    def _meta_primary(self, server, fs, path: str) -> int:
        """The shard consulted first for the file's owner metadata."""
        inode = fs.getattr(path).inode
        blob = next(b for b in server.census()
                    if b.inode == inode and b.kind == "meta"
                    and b.selector == "o")
        return server.placement(blob)[0]

    def test_rolled_back_replica_outvoted_and_healed(self, registry):
        from repro.storage.faults import RollbackServer
        server, volume, fs = self._stack(registry)
        # One replica rolls back: arm the shard that plain reads
        # consult first for /doc's data, so its stale copy is the one
        # quorum resolution must reject.
        fs.create_file("/doc", b"version one", mode=0o644)
        inode = fs.getattr("/doc").inode
        block = next(b for b in server.census()
                     if b.inode == inode and b.kind == "data")
        server.wrap_shard(server.placement(block)[0],
                          lambda b: RollbackServer(inner=b))
        fs.write_file("/doc", b"version two!")  # the wrapper's "first"
        fs.write_file("/doc", b"version three")
        # The armed replica keeps serving version two; the other two
        # replicas outvote it on every read -- the client only ever
        # sees fresh, verifiable bytes (no IntegrityError, no
        # StaleObjectError).
        assert fs.read_file("/doc") == b"version three"
        snap = server.shard_snapshot()
        assert snap["outvoted"] >= 1
        assert server._suspect  # flagged for repair, never served
        assert snap["reads.suspect_served"] == 0
        server.clear_wrappers()
        report = server.repair()
        assert report.fully_replicated
        assert report.healed_divergent >= 1
        assert fs.read_file("/doc") == b"version three"

    def test_tampering_replica_outvoted_and_healed(self, registry):
        from repro.storage.blobs import LEASE
        from repro.storage.faults import TamperingServer
        server, volume, fs = self._stack(registry)
        fs.create_file("/bits", bytes(range(256)), mode=0o644)
        evil = self._meta_primary(server, fs, "/bits")
        server.wrap_shard(
            evil, lambda b: TamperingServer(
                inner=b, should_tamper=lambda bid: bid.kind != LEASE))
        # Quorum reads mask the bit flips end-to-end: no IntegrityError
        # reaches the client's verification layer.
        assert fs.read_file("/bits") == bytes(range(256))
        assert server.shard_snapshot()["outvoted"] >= 1
        server.clear_wrappers()
        assert server.repair().fully_replicated

    def test_whole_quorum_rollback_still_caught_by_client(self, registry):
        # Quorum defends against a divergent *minority*; if every
        # replica rolls back in concert (the SSP operator, not a sick
        # disk), the router has nothing to vote with -- the client's
        # freshness monitor is the detector, exactly as unsharded.
        from repro.fs.freshness import StaleObjectError
        server, volume, fs = self._stack(registry)
        fs.create_file("/c", b"old", mode=0o644)
        inode = fs.getattr("/c").inode
        blob = next(b for b in server.census()
                    if b.inode == inode and b.kind == "meta"
                    and b.selector == "o")
        stale = {i: server.shards[i].backend.get(blob)
                 for i in server.placement(blob)}
        fs.chmod("/c", 0o600)  # bumps the signed metadata version
        # Observe the new version so the monitor's watermark advances.
        assert fs.getattr("/c").mode & 0o777 == 0o600
        for i, payload in stale.items():
            server.shards[i].backend.put(blob, payload)  # coordinated
        with pytest.raises(StaleObjectError):
            fs.getattr("/c")
