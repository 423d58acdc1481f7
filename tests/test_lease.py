"""Per-inode signed leases with fencing epochs: the unit contracts.

The full multi-client schedule sweep lives in test_interleave.py; this
file covers the lease subsystem's own guarantees -- the signed record
codec (tamper / prefix-contradiction rejection), the acquire / renew /
release / takeover state machine, CAS race handling, epoch-chain
rollback detection (an SSP re-serving an old lease never grants one),
roll-forward at takeover, fence supersession of stranded intents, the
end-to-end zombie fencing path, the VSL journal-sequence binding, and
cost parity for default (non-leased) clients.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crypto import esign
from repro.crypto.provider import CryptoProvider
from repro.errors import (CasConflictError, ClientCrashed, FileExists,
                          IntegrityError, LeaseHeldError, LeaseLostError,
                          StaleEpochError)
from repro.fs import journal, layout
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.consistency import ForkDetected
from repro.fs.filedata import OpenFile
from repro.fs.freshness import StaleObjectError
from repro.fs.lease import (HeadCasLost, LeaseManager, LeaseRecord,
                            break_record)
from repro.fs.mutation import LEASE_WAIT_BASE_S, LEASE_WAIT_MAX_S
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.clock import SimClock
from repro.storage.blobs import BlobId, journal_blob, lease_blob
from repro.storage.resilient import MutationTrigger, ServerWrapper, crash
from repro.storage.server import StorageServer, fence_epoch
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import VolumeAuditor
from tests.conftest import FOREIGN_SIGNERS
from tests.test_mutation_frames import FrameTap

_LEASE_S = 5.0

LCONF = ClientConfig(journal=True, lease=True, lease_duration_s=_LEASE_S,
                     cache_bytes=0)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def shared(registry, clock):
    """(server, volume) whose clock is shared by every leased client."""
    server = StorageServer()
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return server, volume


def make_manager(registry, server, clock, user_id="alice", escrow=None,
                 duration=_LEASE_S) -> LeaseManager:
    return LeaseManager(registry.user(user_id), registry.directory,
                        server, clock, duration_s=duration,
                        provider=CryptoProvider(), escrow=escrow)


def _direct(server):
    """``server`` as a frame channel: ``(label, ops) -> replies``."""
    return lambda _label, ops: server.batch(ops)


def make_leased(volume, registry, user_id="alice", server=None,
                consistency=False) -> SharoesFilesystem:
    fs = SharoesFilesystem(volume, registry.user(user_id),
                           config=LCONF, server=server)
    if consistency:
        fs.enable_consistency_log()
    fs.mount()
    return fs


# -- record codec -------------------------------------------------------------


class TestRecordCodec:
    def test_roundtrip_and_verify(self, registry, clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock)
        record = mgr.acquire(9)
        raw = server.get(lease_blob(9))
        back = LeaseRecord.from_bytes(raw, 9)
        assert back == record
        assert back.epoch == 1 and back.holder == "alice"
        back.verify(registry.directory)  # does not raise
        assert fence_epoch(raw) == 1

    def test_tampered_signature_rejected(self, registry, clock):
        server = StorageServer()
        make_manager(registry, server, clock).acquire(9)
        raw = bytearray(server.get(lease_blob(9)))
        raw[-1] ^= 1
        record = LeaseRecord.from_bytes(bytes(raw), 9)
        with pytest.raises(IntegrityError):
            record.verify(registry.directory)

    def test_prefix_contradicting_signed_epoch_rejected(self, registry,
                                                        clock):
        """The SSP acts on the plaintext prefix; a prefix that disagrees
        with the signed epoch is SSP tampering, caught at decode."""
        server = StorageServer()
        make_manager(registry, server, clock).acquire(9)
        raw = bytearray(server.get(lease_blob(9)))
        raw[7] ^= 0xFF  # bump the plaintext epoch prefix only
        with pytest.raises(IntegrityError, match="contradicts"):
            LeaseRecord.from_bytes(bytes(raw), 9)

    def test_truncated_blob_rejected(self):
        with pytest.raises(IntegrityError):
            LeaseRecord.from_bytes(b"\x00\x01", 9)

    def test_blob_without_domain_tag_rejected(self, registry, clock):
        server = StorageServer()
        make_manager(registry, server, clock).acquire(9)
        raw = server.get(lease_blob(9)).replace(b"sharoes/lease/",
                                                b"sharoes/other/")
        with pytest.raises(IntegrityError, match="domain tag"):
            LeaseRecord.from_bytes(raw, 9)

    def test_unparseable_body_rejected(self, registry, clock):
        server = StorageServer()
        make_manager(registry, server, clock).acquire(9)
        raw = server.get(lease_blob(9))
        with pytest.raises(IntegrityError, match="malformed lease blob"):
            LeaseRecord.from_bytes(raw[:-3], 9)


# -- the holder's USK is the only key a link verifies under -------------------


def _alice_link(registry, sign) -> bytes:
    """Wire bytes of an unexpired epoch-5 link of inode 9 naming holder
    alice, its payload signed by ``sign(registry, payload)``."""
    record = LeaseRecord(inode=9, epoch=5, holder="alice", acquired_us=0,
                         expires_us=3_600_000_000)
    return replace(record, signature=sign(
        registry, record.signed_payload())).to_bytes()


class TestOnlyTheHoldersUskSigns:
    """A link naming alice verifies under alice's UVK and nothing else."""

    @pytest.fixture(params=sorted(FOREIGN_SIGNERS))
    def forged(self, request, registry) -> bytes:
        return _alice_link(registry, FOREIGN_SIGNERS[request.param])

    def test_alices_usk_signs_the_same_link_validly(self, registry):
        raw = _alice_link(registry, lambda reg, payload: esign.sign(
            reg.user("alice").signing.signing, payload))
        LeaseRecord.from_bytes(raw, 9).verify(registry.directory)

    def test_the_holders_manager_rejects_it_on_read(self, registry, clock,
                                                    forged):
        server = StorageServer()
        server.put(lease_blob(9), forged)
        alice = make_manager(registry, server, clock)
        with pytest.raises(IntegrityError, match="ESIGN signature"):
            alice.acquire(9)
        assert alice.held_epoch(9) is None

    def test_another_manager_rejects_it_after_a_lost_cas(self, registry,
                                                         clock, forged):
        server = StorageServer()
        frames = []

        def exchange(label, ops):
            frames.append(label)
            return server.batch(ops)

        bob = LeaseManager(registry.user("bob"), registry.directory,
                           server, clock, duration_s=_LEASE_S,
                           provider=CryptoProvider(), exchange=exchange)
        bob.acquire(9)
        bob.release(9)
        server.put(lease_blob(9), forged)
        frames.clear()
        bob.acquire(9)  # planned over bob's released link, unsent
        with pytest.raises(HeadCasLost):
            bob.send_planned()
        # One unread CAS over bob's released link, lost: the bytes it
        # handed back are what the next acquire inspects, and they fail
        # verification there.
        with pytest.raises(IntegrityError, match="ESIGN signature"):
            bob.acquire(9)
        assert frames == ["lease.acquire"]
        assert bob.held_epoch(9) is None

    def test_fsck_reports_it(self, shared, registry, forged):
        server, volume = shared
        server.put(lease_blob(9), forged)
        errors = VolumeAuditor(volume).audit().integrity_errors
        assert any(error.startswith(f"{lease_blob(9)}: ESIGN signature")
                   for error in errors), errors


# -- state machine ------------------------------------------------------------


class TestStateMachine:
    def test_renewal_bumps_epoch(self, registry, clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock, duration=1.0)
        assert mgr.acquire(5).epoch == 1
        clock.advance(2.0)  # expired: re-acquire renews our own lease
        assert mgr.acquire(5).epoch == 2
        assert mgr.held_epoch(5) == 2

    def test_release_writes_released_record(self, registry, clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock)
        mgr.acquire(5)
        mgr.release(5)
        record = LeaseRecord.from_bytes(server.get(lease_blob(5)), 5)
        assert record.released and record.epoch == 2
        assert mgr.held_epoch(5) is None
        # Another client may take a released lease over immediately --
        # past epoch 3, which stays alice's (her next frame fences at it).
        bob = make_manager(registry, server, clock, "bob")
        assert bob.acquire(5).epoch == 4

    def test_unexpired_lease_blocks_peers(self, registry, clock):
        server = StorageServer()
        make_manager(registry, server, clock).acquire(5)
        bob = make_manager(registry, server, clock, "bob")
        with pytest.raises(LeaseHeldError) as err:
            bob.acquire(5)
        assert err.value.holder == "alice"

    def test_takeover_needs_escrow(self, registry, clock):
        """Without the enterprise key escrow, a dead client's journal
        cannot be rolled forward -- takeover is refused, not lossy."""
        server = StorageServer()
        make_manager(registry, server, clock, duration=1.0).acquire(5)
        clock.advance(2.0)
        bob = make_manager(registry, server, clock, "bob", escrow=None)
        with pytest.raises(LeaseHeldError, match="escrow"):
            bob.acquire(5)

    def test_takeover_rolls_dead_holders_journal_forward(self, registry,
                                                         clock):
        """Committed-but-unapplied work of the dead client lands before
        the epoch is bumped past it."""
        server = StorageServer()
        provider = CryptoProvider()
        alice = registry.user("alice")
        mgr = make_manager(registry, server, clock, duration=1.0)
        mgr.acquire(99)
        target = BlobId("data", 99, "b0")
        server.put(journal_blob("alice"), journal.seal_journal(
            provider, alice, [journal.IntentRecord(
                seq=1, op="x", blobs=((target, b"pending-payload"),))]))
        clock.advance(2.0)
        bob = make_manager(registry, server, clock, "bob",
                           escrow=registry.user)
        taken = bob.acquire(99)
        assert taken.epoch == 2 and taken.holder == "bob"
        assert server.get(target) == b"pending-payload"
        assert journal.open_journal(provider, alice,
                                    server.get(journal_blob("alice"))) == []

    def test_lost_lease_detected_at_reacquire(self, registry, clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock, duration=1.0)
        mgr.acquire(5)
        clock.advance(2.0)
        bob = make_manager(registry, server, clock, "bob",
                           escrow=registry.user)
        bob.acquire(5)
        with pytest.raises(LeaseLostError):
            mgr.acquire(5)
        assert mgr.held_epoch(5) is None

    def test_cas_race_is_reinspected(self, registry, clock):
        """Losing the acquire CAS re-inspects the winner's record (and
        yields LeaseHeldError while it is unexpired), no re-fetch."""
        server = StorageServer()
        bob = make_manager(registry, server, clock, "bob")

        class RaceOnce(ServerWrapper):
            def __init__(self, inner):
                super().__init__(inner)
                self.racer = lambda: bob.acquire(5)

            def put_if(self, blob_id, payload, expected):
                if self.racer is not None:
                    racer, self.racer = self.racer, None
                    racer()
                self.inner.put_if(blob_id, payload, expected)

        alice = make_manager(registry, RaceOnce(server), clock)
        with pytest.raises(LeaseHeldError) as err:
            alice.acquire(5)
        assert err.value.holder == "bob"

    def test_break_record_is_verifiable_released_successor(self, registry,
                                                           clock):
        server = StorageServer()
        make_manager(registry, server, clock).acquire(5)
        prior = LeaseRecord.from_bytes(server.get(lease_blob(5)), 5)
        broken = break_record(prior, registry.user("alice"))
        assert broken.released and broken.epoch == prior.epoch + 1
        broken.verify(registry.directory)


# -- epoch-chain rollback (satellite: stale lease never granted) --------------


class TestChainRollback:
    def test_rolled_back_lease_blob_never_grants(self, registry, clock):
        """An SSP re-serving an older, validly-signed lease record is a
        chain rollback: StaleObjectError, never a stale grant."""
        server = StorageServer()
        mgr = make_manager(registry, server, clock)
        mgr.acquire(7)
        old_raw = server.get(lease_blob(7))  # epoch 1, valid signature
        mgr.release(7)                       # chain advances to epoch 2
        server.put(lease_blob(7), old_raw)   # the SSP rolls back
        mgr.acquire(7)                       # planned over epoch 2
        with pytest.raises(HeadCasLost):
            mgr.send_planned()               # lost: epoch 1 came back
        with pytest.raises(StaleObjectError):
            mgr.acquire(7)
        assert mgr.held_epoch(7) is None

    def test_equivocating_lease_blob_detected(self, registry, clock):
        """Two different validly-signed byte-strings claiming the same
        epoch: the SSP cannot show one chain link to one client and a
        different one to another without being caught."""
        server = StorageServer()
        mgr = make_manager(registry, server, clock, duration=1.0)
        mgr.acquire(7)
        prior = LeaseRecord.from_bytes(server.get(lease_blob(7)), 7)
        clock.advance(2.0)
        bob = make_manager(registry, server, clock, "bob",
                           escrow=registry.user, duration=1.0)
        bob.acquire(7)  # epoch 2, bob's record, observed by bob
        # A second, different epoch-2 record with a valid signature
        # (the escrow-built released successor of epoch 1).
        forged = break_record(prior, registry.user("alice"))
        assert forged.epoch == 2
        server.put(lease_blob(7), forged.to_bytes())
        clock.advance(2.0)  # bob's hold lapses; he must re-read
        with pytest.raises(StaleObjectError):
            bob.acquire(7)

    def test_lease_blob_relocated_from_another_inode_never_grants(
            self, shared, registry, clock):
        """A validly signed, fresh link of inode 7 copied into inode 1's
        slot is not inode 1's chain: the read rejects it, and so does
        fsck's lease audit."""
        server, volume = shared
        alice = make_manager(registry, server, clock)
        alice.acquire(1)
        alice.release(1)
        bob = make_manager(registry, server, clock, "bob")
        for _ in range(5):
            bob.acquire(7)
            bob.send_planned()
            bob.release(7)
        server.put(lease_blob(1), server.get(lease_blob(7)))
        alice.acquire(1)
        with pytest.raises(HeadCasLost):
            alice.send_planned()
        with pytest.raises(IntegrityError, match="relocated"):
            alice.acquire(1)
        assert alice.held_epoch(1) is None
        errors = VolumeAuditor(volume).audit().integrity_errors
        assert any("relocated" in error for error in errors), errors


# -- fence supersession (stranded intents vs. takeover) ----------------------


class TestFenceSupersession:
    def test_stale_fenced_intent_is_skipped(self, registry, clock):
        """A journaled intent whose recorded fences lag the lease chain
        was superseded by a takeover: roll_forward drops it instead of
        resurrecting the lost update."""
        server = StorageServer()
        provider = CryptoProvider()
        alice = registry.user("alice")
        make_manager(registry, server, clock).acquire(50)  # chain at 1
        target = BlobId("data", 50, "b0")
        server.put(journal_blob("alice"), journal.seal_journal(
            provider, alice, [journal.IntentRecord(
                seq=3, op="x", blobs=((target, b"superseded"),),
                fences=((50, 0),))]))  # epoch 0 < current epoch 1
        replayed = journal.roll_forward(_direct(server), provider, alice)
        assert replayed == []
        assert not server.exists(target)
        assert journal.open_journal(provider, alice,
                                    server.get(journal_blob("alice"))) == []

    def test_current_fenced_intent_is_replayed(self, registry, clock):
        server = StorageServer()
        provider = CryptoProvider()
        alice = registry.user("alice")
        make_manager(registry, server, clock).acquire(50)
        target = BlobId("data", 50, "b0")
        record = journal.IntentRecord(
            seq=3, op="x", blobs=((target, b"live"),),
            fences=((50, 1),))
        server.put(journal_blob("alice"),
                   journal.seal_journal(provider, alice, [record]))
        assert journal.roll_forward(_direct(server), provider,
                                    alice) == [record]
        assert server.get(target) == b"live"


    @staticmethod
    def _chains(registry, server, clock) -> None:
        """Lease 50 at epoch 1; lease 51 released past its epoch 1."""
        make_manager(registry, server, clock).acquire(50)
        bob = make_manager(registry, server, clock, "bob")
        bob.acquire(51)
        bob.release(51)

    @pytest.mark.parametrize("path", ["roll_forward", "mount"])
    def test_an_intent_stale_on_any_fence_applies_nothing(
            self, shared, registry, clock, path):
        """Every fence is checked before the first staged call: a record
        current on one lease and stale on another writes none of its
        blobs, whichever path replays it."""
        server, volume = shared
        provider = CryptoProvider()
        alice = registry.user("alice")
        self._chains(registry, server, clock)
        live, gone = BlobId("data", 50, "b0"), BlobId("data", 51, "b0")
        server.put(journal_blob("alice"), journal.seal_journal(
            provider, alice, [journal.IntentRecord(
                seq=3, op="x", blobs=((live, b"a"), (gone, b"b")),
                fences=((50, 1), (51, 1)))]))
        if path == "mount":
            fs = make_leased(volume, registry)
            assert fs.metrics.snapshot()["journal.fenced_replays"] == 1
        else:
            assert journal.roll_forward(_direct(server), provider,
                                        alice) == []
        assert not server.exists(live) and not server.exists(gone)
        assert journal.open_journal(provider, alice,
                                    server.get(journal_blob("alice"))) == []

    @pytest.mark.parametrize("stale_last", [False, True])
    def test_one_frame_per_record_and_a_stale_one_is_dropped(
            self, registry, clock, stale_last):
        """Each record is one frame whose commit is the journal of the
        records behind it; a superseded record's frame stops at its
        check, and if it was the last, one more frame commits."""
        server = StorageServer()
        provider = CryptoProvider()
        alice = registry.user("alice")
        self._chains(registry, server, clock)
        ok, stale, plain = (journal.IntentRecord(
            seq=seq, op="x", blobs=((BlobId("data", inode, "b0"), b"p"),),
            fences=fences) for seq, inode, fences in (
                (1, 50, ((50, 1),)), (2, 51, ((51, 1),)), (3, 52, ())))
        records = [ok, plain, stale] if stale_last else [ok, stale, plain]
        server.put(journal_blob("alice"),
                   journal.seal_journal(provider, alice, records))
        frames = []
        replayed = journal.roll_forward(
            lambda label, ops: (frames.append(label), server.batch(ops))[1],
            provider, alice)
        assert replayed == [ok, plain]
        assert frames == ["journal.read"] + ["journal.replay"] * 3 + (
            ["journal.commit"] if stale_last else [])
        assert not server.exists(BlobId("data", 51, "b0"))
        assert journal.open_journal(provider, alice,
                                    server.get(journal_blob("alice"))) == []


# -- fenced writes at the SSP and over the wire -------------------------------


class TestSspPrimitives:
    def test_put_if_create_and_conflict(self):
        server = StorageServer()
        bid = lease_blob(1)
        server.put_if(bid, b"\x00" * 8 + b"a", expected=None)
        with pytest.raises(CasConflictError) as err:
            server.put_if(bid, b"\x00" * 8 + b"b", expected=b"wrong")
        assert err.value.current == b"\x00" * 8 + b"a"

    def test_fenced_write_below_epoch_rejected(self):
        server = StorageServer()
        fence = lease_blob(1)
        server.put(fence, (5).to_bytes(8, "big") + b"rec")
        target = BlobId("data", 1, "b0")
        with pytest.raises(StaleEpochError):
            server.put_fenced(target, b"x", fence, epoch=4)
        server.put_fenced(target, b"x", fence, epoch=5)
        assert server.get(target) == b"x"
        with pytest.raises(StaleEpochError):
            server.delete_fenced(target, fence, epoch=3)
        server.delete_fenced(target, fence, epoch=6)
        assert not server.exists(target)

    def test_cas_and_fenced_ops_cross_the_wire(self):
        """put_if / put_fenced / delete_fenced survive the TCP proxy,
        conflicts and fence rejections included."""
        backend = StorageServer()
        ssp = SspServer(backend).start()
        host, port = ssp.address
        client = RemoteStorageClient(host, port)
        try:
            bid = lease_blob(3)
            payload = (1).to_bytes(8, "big") + b"r1"
            client.put_if(bid, payload, expected=None)
            with pytest.raises(CasConflictError) as err:
                client.put_if(bid, payload, expected=b"nope")
            assert err.value.current == payload
            nxt = (2).to_bytes(8, "big") + b"r2"
            client.put_if(bid, nxt, expected=payload)
            assert backend.get(bid) == nxt
            target = BlobId("data", 3, "b0")
            with pytest.raises(StaleEpochError):
                client.put_fenced(target, b"x", bid, epoch=1)
            client.put_fenced(target, b"x", bid, epoch=2)
            with pytest.raises(StaleEpochError):
                client.delete_fenced(target, bid, epoch=0)
            client.delete_fenced(target, bid, epoch=2)
            assert not backend.exists(target)
        finally:
            client.close()
            ssp.stop()


# -- the zombie path, end to end ----------------------------------------------


class TestZombie:
    def test_zombie_write_is_fenced_out_and_rolls_back(self, shared,
                                                       registry, clock):
        """The deterministic zombie: alice pauses mid-create, her lease
        expires and bob takes it over; on resume her fenced writes are
        rejected (LeaseLostError), her op rolls back cleanly, bob's
        survives, and a retry by the no-longer-zombie succeeds."""
        server, volume = shared
        prep = make_leased(volume, registry, "alice")
        prep.mkdir("/d", mode=0o775)
        prep.unmount()
        bob = make_leased(volume, registry, "bob")

        def hook() -> None:
            clock.advance(_LEASE_S + 1.0)
            bob.create_file("/d/zb", b"bob-wins")

        pauser = MutationTrigger(server, {3: hook})
        alice = make_leased(volume, registry, "alice", server=pauser)
        with pytest.raises(LeaseLostError):
            alice.create_file("/d/za", b"alice-zombie")

        probe = SharoesFilesystem(volume, registry.user("alice"),
                                  config=ClientConfig(cache_bytes=0))
        probe.mount()
        assert probe.read_file("/d/zb") == b"bob-wins"
        assert "za" not in probe.readdir("/d")
        report = VolumeAuditor(volume).audit()
        assert report.clean and not report.orphaned_blobs
        assert alice.metrics.snapshot()["lease.lost"] >= 1

        # The zombie is just a slow client: its retry re-serializes.
        alice.create_file("/d/za", b"alice-retry")
        assert alice.read_file("/d/za") == b"alice-retry"
        assert probe.read_file("/d/zb") == b"bob-wins"

    def test_crashed_holder_is_taken_over_with_roll_forward(
            self, shared, registry, clock):
        """A client dying mid-create strands a journaled intent; the
        next writer waits out the lease, replays it, and both effects
        land -- no lost update, no orphans."""
        server, volume = shared
        prep = make_leased(volume, registry, "alice")
        prep.mkdir("/d", mode=0o775)
        prep.unmount()
        # mutations: the acquire of /d; the frame's head CASes of /d and
        # of the new inode and its check of /d; the intent; the apply.
        crasher = MutationTrigger(server, {6: crash})
        dying = make_leased(volume, registry, "alice", server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/d/dead", b"committed-before-crash")

        clock.advance(_LEASE_S + 1.0)
        bob = make_leased(volume, registry, "bob")
        bob.create_file("/d/bob", b"successor")

        probe = SharoesFilesystem(volume, registry.user("alice"),
                                  config=ClientConfig(cache_bytes=0))
        probe.mount()
        assert probe.read_file("/d/bob") == b"successor"
        assert probe.read_file("/d/dead") == b"committed-before-crash"
        report = VolumeAuditor(volume).audit()
        assert report.clean and not report.orphaned_blobs


# -- VSL journal binding (satellite: stale committed journal) -----------------


class _JournalTap(ServerWrapper):
    """Records every version of one user's journal blob as it is put
    (a leased intent is a fenced put)."""

    def __init__(self, inner, user_id: str):
        super().__init__(inner)
        self.jid = journal_blob(user_id)
        self.history: list[bytes] = []

    def _forward(self, op):
        if op.blob_id == self.jid and op.payload is not None:
            self.history.append(op.payload)
        return op.call(self.inner)


class TestVslJournalBinding:
    def test_reserved_committed_journal_forks(self, shared, registry):
        """An SSP re-serving an old committed journal (to resurrect an
        undone mutation) is caught at mount: the version statement's
        journal watermark says those intents already committed."""
        server, volume = shared
        tap = _JournalTap(server, "alice")
        fs = make_leased(volume, registry, "alice", server=tap,
                         consistency=True)
        fs.create_file("/a", b"created")   # journal append captured
        fs.unlink("/a")                    # then undone
        fs.publish_statement()             # watermark covers both
        fs.unmount()

        # The attack: serve the create's pending journal again.
        pending = tap.history[0]
        server.put(journal_blob("alice"), pending)
        with pytest.raises(ForkDetected, match="journal"):
            make_leased(volume, registry, "alice", consistency=True)

        # Nothing was replayed: /a stays deleted.
        probe = SharoesFilesystem(volume, registry.user("alice"),
                                  config=ClientConfig(cache_bytes=0))
        probe.mount()
        assert "a" not in probe.readdir("/")

    def test_fresh_pending_journal_still_recovers(self, shared, registry):
        """The binding only rejects journals at-or-below the committed
        watermark; a genuinely newer pending intent replays normally."""
        server, volume = shared
        fs = make_leased(volume, registry, "alice", consistency=True)
        fs.create_file("/keep", b"x")
        fs.publish_statement()
        fs.unmount()
        crasher = MutationTrigger(server, {8: crash})
        dying = make_leased(volume, registry, "alice", server=crasher,
                            consistency=True)
        with pytest.raises(ClientCrashed):
            dying.create_file("/recovered", b"later-intent")
        fs2 = make_leased(volume, registry, "alice", consistency=True)
        assert fs2.read_file("/recovered") == b"later-intent"


# -- cost parity (leases off by default) --------------------------------------


class TestCostParity:
    def test_default_client_issues_no_lease_or_journal_traffic(
            self, volume, registry):
        """ClientConfig() keeps the paper's Figure 8/9 cost model
        byte-identical: no lease or journal blobs, no CAS ops, no
        lease metrics -- the subsystem is invisible until opted into."""
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig())
        fs.mount()
        fs.mkdir("/plain")
        fs.create_file("/plain/f", b"y" * 300)
        fs.rename("/plain/f", "/plain/g")
        fs.read_file("/plain/g")
        fs.unlink("/plain/g")
        assert fs.lease is None
        kinds = {blob_id.kind for blob_id in volume.server.raw_blobs()}
        assert "lease" not in kinds
        assert "journal" not in kinds
        snapshot = fs.metrics.snapshot()
        assert not any(name.startswith("lease.") for name in snapshot)

    def test_leased_traffic_is_confined_to_new_blob_kinds(
            self, shared, registry):
        """Leases add lease/journal blobs but never change what object
        blobs an op writes -- the cost deltas are additive, auditable
        kinds, not perturbations of the paper's object layout."""
        server, volume = shared
        fs = make_leased(volume, registry, "alice")
        fs.create_file("/f", b"z" * 300)
        fs.unmount()
        kinds = {blob_id.kind for blob_id in server.raw_blobs()}
        assert "lease" in kinds and "journal" in kinds


class _OpTap(ServerWrapper):
    """Records every op (batch sub-ops included) in arrival order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.ops = []

    def _forward(self, op):
        self.ops.append(op)
        return op.call(self.inner)


def test_leased_revocation_leases_before_it_reads_the_blocks(shared,
                                                             registry):
    """A revoking chmod re-keys the file's blocks: the content it
    re-sends must be read under the lease, or a peer's write between the
    read and the lease is overwritten.  A mount with no link of its own
    on the inode acquires before it reads; one whose own released link
    is the tip reads first and sends the blocks behind the head CAS
    that proves nobody wrote since."""
    server, volume = shared
    fs = make_leased(volume, registry, "alice")
    inode = fs.create_file("/f", b"z" * 300, mode=0o664).inode
    fs.unmount()
    tap = _OpTap(server)
    fs = make_leased(volume, registry, "alice", server=tap)
    fs.chmod("/f", 0o660)  # o-r: a revocation
    ids = [op.blob_id for op in tap.ops]
    first_block = next(at for at, blob_id in enumerate(ids)
                       if (blob_id.kind, blob_id.inode) == ("data", inode))
    assert ids.index(lease_blob(inode)) < first_block
    del tap.ops[:]
    fs.chmod("/f", 0o600)  # g-rw: another revocation, over our own link
    block_puts = [at for at, op in enumerate(tap.ops)
                  if op.kind == "put_fenced"
                  and (op.blob_id.kind, op.blob_id.inode) == ("data", inode)]
    head = next(at for at, op in enumerate(tap.ops)
                if op.kind == "put_if" and op.blob_id == lease_blob(inode))
    assert block_puts and head < block_puts[0]


# -- lease contention backoff (ClientConfig surface) --------------------------


def _waiting_config(**overrides) -> ClientConfig:
    return ClientConfig(journal=True, lease=True,
                        lease_duration_s=_LEASE_S, cache_bytes=0,
                        **overrides)


def _backoff_until(held_s: float, attempts: int) -> list[float]:
    """The waits a client spends on a lease that stays held for
    ``held_s``: the constants' doubling schedule, cut where the lease
    has expired or the attempt budget ran out."""
    waits, delay = [], LEASE_WAIT_BASE_S
    while len(waits) < attempts and sum(waits) < held_s:
        waits.append(delay)
        delay = min(delay * 2, LEASE_WAIT_MAX_S)
    return waits


class TestLeaseWaitRetry:
    def test_default_is_fail_fast(self, shared, registry, clock):
        """lease_wait_attempts=0 preserves the original contract: a
        held lease surfaces LeaseHeldError on the first acquire."""
        server, volume = shared
        fs = make_leased(volume, registry)
        fs.create_file("/f", b"v1")
        inode = fs.getattr("/f").inode
        make_manager(registry, server, clock, "bob").acquire(inode)
        with pytest.raises(LeaseHeldError) as err:
            fs.write_file("/f", b"v2")
        assert err.value.holder == "bob"
        assert fs.metrics.counter("lease.waits").value == 0

    def test_backoff_waits_out_expiring_holder(self, shared, registry,
                                               clock):
        """With lease_wait_attempts set, the client backs off on the
        simulated clock until the holder's lease expires, then takes
        over (rolling any stranded journal forward) and writes."""
        server, volume = shared
        config = _waiting_config(lease_wait_attempts=6)
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=config)
        fs.mount()
        fs.create_file("/f", b"v1")
        inode = fs.getattr("/f").inode
        # A short-lived peer grabs the lease and then goes silent.
        make_manager(registry, server, clock, "bob",
                     duration=1.0).acquire(inode)
        before = clock.now
        fs.write_file("/f", b"v2")  # 0.05+0.1+0.2+0.4+0.8 s, then takes over
        assert fs.read_file("/f") == b"v2"
        expected = _backoff_until(1.0, attempts=6)
        waits = fs.metrics.counter("lease.waits").value
        assert waits == len(expected)
        assert waits >= 2  # genuinely backed off more than once
        assert clock.now - before == pytest.approx(sum(expected))
        assert clock.now - before >= 1.0  # the holder's term elapsed
        report = VolumeAuditor(volume).audit()
        assert report.clean, report.summary()

    def test_exhausted_attempts_reraise(self, shared, registry, clock):
        """A holder that outlives every backoff window still wins: the
        waiter re-raises the typed error after its attempt budget."""
        server, volume = shared
        config = _waiting_config(lease_wait_attempts=2)
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=config)
        fs.mount()
        fs.create_file("/f", b"v1")
        inode = fs.getattr("/f").inode
        make_manager(registry, server, clock, "bob",
                     duration=3600.0).acquire(inode)
        before = clock.now
        with pytest.raises(LeaseHeldError):
            fs.write_file("/f", b"v2")
        assert fs.metrics.counter("lease.waits").value == 2
        assert clock.now - before == pytest.approx(
            sum(_backoff_until(3600.0, attempts=2)))

    def test_shared_clock_charges_wait_as_other(self, shared, registry,
                                                clock):
        """When the cost model shares the lease clock, backoff is
        charged (OTHER bucket) instead of silently advancing time."""
        from repro.sim.costmodel import CostModel
        from repro.sim.profiles import FREE
        server, volume = shared
        cost = CostModel(FREE, clock=clock)
        config = _waiting_config(lease_wait_attempts=6)
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               cost_model=cost, config=config)
        fs.mount()
        fs.create_file("/f", b"v1")
        inode = fs.getattr("/f").inode
        make_manager(registry, server, clock, "bob",
                     duration=1.0).acquire(inode)
        other_before = cost.totals.other
        fs.write_file("/f", b"v2")
        assert cost.totals.other - other_before >= sum(
            _backoff_until(1.0, attempts=6)) >= 1.0


# -- batched lease renewal ----------------------------------------------------


class TestBatchedRenewal:
    def test_renew_all_bumps_every_epoch_in_one_frame(self, registry,
                                                      clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock)
        before = {}
        for inode in (3, 4, 5):
            before[inode] = mgr.acquire(inode).epoch
        batches = []
        mgr._exchange = lambda label, ops: (batches.append(ops)
                                            or server.batch(ops))
        renewed, lost = mgr.renew_all()
        assert renewed == [3, 4, 5] and lost == []
        assert [len(ops) for ops in batches] == [3]  # one frame
        for inode in (3, 4, 5):
            assert mgr.held_epoch(inode) == before[inode] + 1
            # the mechanical fence prefix on the SSP moved with it
            assert fence_epoch(server.get(lease_blob(inode))) == \
                before[inode] + 1

    def test_renew_all_with_nothing_held_is_free(self, registry, clock):
        server = StorageServer()
        mgr = make_manager(registry, server, clock)
        assert mgr.renew_all() == ([], [])
        assert not server.raw_blobs()  # nothing crossed the wire

    def test_renew_all_reports_stolen_lease_lost(self, registry, clock):
        """Per-lease conflicts are independent: the inode a successor
        advanced past is dropped and reported; the rest renew."""
        server = StorageServer()
        mgr = make_manager(registry, server, clock, duration=1.0)
        for inode in (7, 8):
            mgr.acquire(inode)
        clock.advance(2.0)  # both expired; bob takes over only one
        bob = make_manager(registry, server, clock, "bob",
                           escrow=registry.user)
        bob.acquire(8)
        renewed, lost = mgr.renew_all()
        assert renewed == [7] and lost == [8]
        assert mgr.held_epoch(8) is None
        assert mgr.held_epoch(7) is not None

    def test_fs_renew_leases_is_one_round_trip(self, shared, registry):
        """A long-running client renews N held leases for the price of
        one request, observed as one batch frame of N sub-ops."""
        server, volume = shared
        fs = make_leased(volume, registry)
        fs.create_file("/f", b"v1")
        fs.create_file("/g", b"v2")
        inodes = [fs.getattr(p).inode for p in ("/f", "/g")]
        for inode in inodes:
            fs.lease.acquire(inode)
        fs.lease.send_planned()
        before = {i: fs.lease.held_epoch(i) for i in inodes}
        hist = fs.metrics.histogram("client.batch.size")
        frames, subops = hist.count, hist.total
        requests = fs.request_count
        renewed = fs.renew_leases()
        assert sorted(renewed) == sorted(inodes)
        assert fs.request_count - requests == 1
        assert hist.count == frames + 1
        assert hist.total == subops + len(inodes)
        for inode in inodes:
            assert fs.lease.held_epoch(inode) == before[inode] + 1

    def test_fs_renew_leases_drops_a_stolen_lease(self, shared, registry,
                                                  clock):
        """A lease a peer took over meanwhile is lost at renewal: the
        client forgets it and its cached state, and reads afresh."""
        server, volume = shared
        fs = make_leased(volume, registry)
        fs.create_file("/f", b"v1", mode=0o664)
        inode = fs.getattr("/f").inode
        fs.lease.acquire(inode)
        fs.lease.send_planned()
        clock.advance(2 * _LEASE_S)
        make_manager(registry, server, clock, "bob",
                     escrow=registry.user).acquire(inode)
        assert fs.renew_leases() == []
        assert fs.lease.held_epoch(inode) is None
        assert fs.read_file("/f") == b"v1"

    def test_fs_renew_leases_none_held_is_free(self, shared, registry):
        server, volume = shared
        fs = make_leased(volume, registry)
        requests = fs.request_count
        assert fs.renew_leases() == []
        assert fs.request_count == requests


# -- a split directory table under two writers --------------------------------


def test_alternating_creates_across_folds_keep_every_row(shared, registry,
                                                         monkeypatch):
    """A writer that missed a fold must not re-ship a head over a base
    that is gone: the lease a create takes on the parent drops what the
    client cached of it, so each writer edits the heads (and bases) the
    other one left -- warm caches, folds in between and all."""
    monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", 256)
    server, volume = shared
    config = ClientConfig(journal=True, lease=True,
                          lease_duration_s=_LEASE_S)
    writers = []
    for user_id in ("alice", "bob"):
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               config=config)
        fs.mount()
        writers.append(fs)
    writers[0].mkdir("/shared", mode=0o770)
    inode = writers[0].getattr("/shared").inode
    names = [f"n{i:02d}" for i in range(12)]
    generations = set()
    for i, name in enumerate(names):
        writers[i % 2].mknod(f"/shared/{name}", mode=0o664)
        generations |= {blob_id.selector for blob_id in server.raw_blobs()
                        if blob_id.inode == inode
                        and blob_id.selector.startswith("t:o@")}
    assert len(generations) >= 3
    for user_id in ("alice", "bob"):
        reader = SharoesFilesystem(volume, registry.user(user_id))
        reader.mount()
        assert reader.readdir("/shared") == names
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


# -- lost updates on shared files (ROADMAP item 1(b)) -------------------------


def _cached_leased_pair(volume, registry) -> dict:
    config = ClientConfig(journal=True, lease=True, data_cache=True,
                          lease_duration_s=_LEASE_S)
    writers = {}
    for user_id in ("alice", "bob"):
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               config=config)
        fs.mount()
        writers[user_id[0]] = fs
    return writers


def test_create_judges_the_name_from_a_table_read_under_the_lease(shared,
                                                                 registry):
    """Both writers listed ``/shared`` while it was empty.  ``_create``
    used to decide "is the name free" from that cached table and only
    then take the parent's lease: bob's create of the name alice had
    just created succeeded, a fresh mount read bob's bytes and alice's
    object was left orphaned (4 blobs)."""
    server, volume = shared
    writers = _cached_leased_pair(volume, registry)
    writers["a"].mkdir("/shared", mode=0o775)
    for fs in writers.values():
        assert fs.readdir("/shared") == []
    writers["a"].create_file("/shared/x", b"from alice", mode=0o664)
    with pytest.raises(FileExists):
        writers["b"].create_file("/shared/x", b"from bob", mode=0o664)
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.read_file("/shared/x") == b"from alice"
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


def _handle_append(fs, path: str, record: bytes) -> None:
    with fs.open(path, "a") as handle:
        handle.write(record)


def test_alternating_shared_appends_keep_every_record(shared, registry):
    """``append_file`` takes the lease *before* it reads its base: a
    fresh acquisition invalidates the inode, so with the data cache on
    each writer extends the file as it is, not as it last saw it (it
    used to leave ``<0:a><1:b><3:b><5:b>``).  An append-mode handle
    reads its base first, but logs its ``write`` as an append: re-based
    at close, it lands at the end the other writer left."""
    server, volume = shared
    writers = _cached_leased_pair(volume, registry)
    records = [f"<{i}:{'ab'[i % 2]}>".encode() for i in range(6)]
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    writers["a"].create_file("/log", b"", mode=0o664)
    writers["a"].create_file("/handle-log", b"", mode=0o664)
    for path, append in (("/log", SharoesFilesystem.append_file),
                         ("/handle-log", _handle_append)):
        for i, record in enumerate(records):
            append(writers["ab"[i % 2]], path, record)
        assert reader.read_file(path) == b"".join(records)


def test_alternating_handle_patches_keep_every_byte(shared, registry):
    """The sibling the audit found: a writable handle loads its blocks
    through the data cache and only ``close`` takes the lease, so each
    writer used to patch the file as it last saw it
    (``ab.b.b.b........``).  A close that takes the lease over a chain
    the other writer moved re-bases the handle: its edits replay over
    blocks loaded under the lease (ROADMAP item 1(b))."""
    server, volume = shared
    writers = _cached_leased_pair(volume, registry)
    writers["a"].create_file("/f", b"." * 16, mode=0o664)
    for i in range(8):
        with writers["ab"[i % 2]].open("/f", "rw") as handle:
            handle.pwrite(b"ab"[i % 2:i % 2 + 1], i)
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.read_file("/f") == b"abababab" + b"." * 8


def test_a_truncate_re_bases_over_the_other_writers_bytes(shared,
                                                          registry):
    """alice's cached base predates bob's patch: her truncate replays
    over the bytes bob left, so his patch below the cut survives."""
    server, volume = shared
    writers = _cached_leased_pair(volume, registry)
    alice, bob = writers["a"], writers["b"]
    alice.create_file("/f", b"." * 16, mode=0o664)
    assert alice.read_file("/f") == b"." * 16
    with bob.open("/f", "rw") as handle:
        handle.pwrite(b"b", 3)
    with alice.open("/f", "rw") as handle:
        handle.truncate(8)
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.read_file("/f") == b"...b...."


def test_an_unbroken_chain_re_bases_nothing(shared, registry,
                                            monkeypatch):
    """Alone on the chain, every close predicts its own released link
    at the frame's head: nothing is replayed or loaded again, so a
    pwrite, an append and a truncate each cost the one mutation frame,
    as they did before handles re-based."""
    server, volume = shared
    tap = FrameTap(server)
    alice = SharoesFilesystem(
        volume, registry.user("alice"), server=tap,
        config=ClientConfig(journal=True, lease=True, data_cache=True,
                            lease_duration_s=_LEASE_S))
    alice.mount()
    alice.create_file("/f", b"." * 16, mode=0o664)
    tap.names[alice.getattr("/f").inode] = "f"
    rebased = []
    monkeypatch.setattr(OpenFile, "_rebase",
                        lambda handle: rebased.append(handle.path))
    frame = ("put_if lease/f/-", "put_fenced journal",
             "put_fenced data/f/b0", "put journal", "put_if lease/f/-")
    for edit in (lambda handle: handle.pwrite(b"a", 0),
                 lambda handle: handle.write(b"tail"),
                 lambda handle: handle.truncate(8)):
        tap.frames.clear()
        with alice.open("/f", "rw") as handle:
            edit(handle)
        assert tap.frames == [frame]
    assert rebased == []
    assert alice.read_file("/f") == b"a......."
