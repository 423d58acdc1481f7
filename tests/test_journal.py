"""Write-ahead intent journal: sealing, atomicity, crash recovery.

The crash-point sweep across every op lives in test_crash_matrix.py;
this file covers the journal's own contracts -- the record codec, the
crypto envelope (tamper/forge rejection, the clear payload section
under the MAC), batch staging semantics, partial-write surfacing, and
recovery idempotence.
"""

from __future__ import annotations

import sys

import pytest

from repro.crypto import rsa
from repro.crypto.provider import CryptoProvider
from repro.errors import (ClientCrashed, FileExists, IntegrityError,
                          PartialWriteError, TransientPartialWriteError,
                          TransientStorageError)
from repro.fs import journal
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.lease import LeaseManager
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.serialize import SerializationError, Writer
from repro.sim.clock import SimClock
from repro.storage.blobs import BlobId, journal_blob, superblock_blob
from repro.storage.resilient import MutationTrigger, ServerWrapper, crash
from repro.storage.server import StorageServer
from repro.tools.fsck import VolumeAuditor

JCONF = ClientConfig(journal=True, cache_bytes=0)


def make_journaled(volume, registry, user_id="alice", server=None,
                   config=JCONF):
    fs = SharoesFilesystem(volume, registry.user(user_id),
                           config=config, server=server)
    fs.mount()
    return fs


# -- record codec -------------------------------------------------------------


class TestCodec:
    def _record(self) -> journal.IntentRecord:
        return journal.IntentRecord(seq=7, op="rename", blobs=(
            (BlobId("meta", 3, "u"), b"sealed-meta"),
            (BlobId("data", 3, "t:u"), b"sealed-table"),
            (BlobId("data", 4, "b0"), None),
        ), fences=((3, 5),))

    def test_roundtrip(self):
        """The header carries no payload byte; the payloads decode from
        their own section, in order."""
        record = self._record()
        header = journal.encode_records([record])
        assert b"sealed" not in header
        [back] = journal.decode_records(header, b"sealed-metasealed-table")
        assert back == record
        assert back.inodes() == {3, 4}

    def test_empty_list_roundtrip(self):
        assert journal.decode_records(journal.encode_records([]), b"") == []

    def test_unknown_call_kind_rejected(self):
        """A staged blob is a put (its payload length follows), a
        delete or a tail delete; any other kind flag does not decode."""
        writer = Writer().put_int(1).put_int(1).put_str("x").put_int(1)
        writer.put_str("data").put_int(4).put_str("b0")
        writer.put_bytes(b"\x03").put_int(0)
        with pytest.raises(SerializationError):
            journal.decode_records(writer.getvalue(), b"")

    @pytest.mark.parametrize("payloads", [b"sealed-meta",
                                          b"sealed-metasealed-table!"])
    def test_payload_section_is_used_up_exactly(self, payloads):
        with pytest.raises(SerializationError):
            journal.decode_records(
                journal.encode_records([self._record()]), payloads)


# -- crypto envelope ----------------------------------------------------------


class TestEnvelope:
    def test_seal_open_roundtrip(self, registry):
        provider = CryptoProvider()
        alice = registry.user("alice")
        records = [journal.IntentRecord(seq=1, op="mkdir", blobs=())]
        blob = journal.seal_journal(provider, alice, records)
        assert journal.open_journal(provider, alice, blob) == records

    def test_tampered_journal_rejected(self, registry):
        provider = CryptoProvider()
        alice = registry.user("alice")
        blob = bytearray(journal.seal_journal(
            provider, alice,
            [journal.IntentRecord(seq=1, op="mkdir", blobs=())]))
        blob[len(blob) // 2] ^= 1
        with pytest.raises(IntegrityError):
            journal.open_journal(provider, alice, bytes(blob))

    def test_forged_journal_rejected(self, registry):
        """The SSP holds no user private key: a journal it seals under
        any key it *does* have fails alice's verification."""
        provider = CryptoProvider()
        forged = journal.seal_journal(
            provider, registry.user("bob"),
            [journal.IntentRecord(seq=9, op="unlink", blobs=())])
        with pytest.raises(IntegrityError):
            journal.open_journal(provider, registry.user("alice"),
                                 forged)

    def test_journal_blob_is_ciphertext(self, volume, registry):
        """The SSP sees no blob ids or op names in a stored journal, and
        a pending one shows it in the clear only the sealed objects its
        apply stores anyway."""
        fs = make_journaled(volume, registry)
        crasher = MutationTrigger(volume.server, {3: crash})
        dying = make_journaled(volume, registry, server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/secret-name", b"secret-payload")
        raw = volume.server.get(journal_blob("alice"))
        assert b"secret-name" not in raw
        assert b"secret-payload" not in raw
        assert b"create" not in raw
        assert b"meta" not in raw
        [record] = journal.open_journal(CryptoProvider(),
                                        registry.user("alice"), raw)
        staged = [payload for _, payload in record.blobs
                  if isinstance(payload, bytes)]
        assert _clear_section(raw) == b"".join(staged)
        fs = make_journaled(volume, registry)  # mount rolls it forward
        stored = set(volume.server.raw_blobs().values())
        assert all(payload in stored for payload in staged)
        assert fs.read_file("/secret-name") == b"secret-payload"


def _clear_section(blob: bytes) -> bytes:
    """What follows the sealed header of a journal blob."""
    return blob[4 + int.from_bytes(blob[:4], "big"):]


# -- recovery rejects bad journals -------------------------------------------


class TestRecoveryRejection:
    def _strand_intent(self, volume, registry) -> None:
        crasher = MutationTrigger(volume.server, {3: crash})
        dying = make_journaled(volume, registry, server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/f", b"x" * 100)

    def test_tampered_intent_never_replayed(self, volume, registry):
        self._strand_intent(volume, registry)
        jid = journal_blob("alice")
        blob = bytearray(volume.server.get(jid))
        blob[len(blob) // 2] ^= 1
        volume.server.put(jid, bytes(blob))
        census = volume.server.blob_count()
        with pytest.raises(IntegrityError):
            make_journaled(volume, registry)  # mount -> recovery
        # nothing was applied: the half-open op stays half-open until
        # fsck quarantines the journal, but no forged blob landed.
        assert volume.server.blob_count() == census

    def test_ssp_forged_intent_never_replayed(self, volume, registry):
        """An SSP that fabricates a whole journal (sealed under keys it
        controls) is caught at mount: IntegrityError, zero replays."""
        self._strand_intent(volume, registry)
        provider = CryptoProvider()
        forged = journal.seal_journal(
            provider, registry.user("bob"),
            [journal.IntentRecord(seq=1, op="unlink", blobs=(
                (journal_blob("alice"), None),))])
        volume.server.put(journal_blob("alice"), forged)
        census = volume.server.blob_count()
        with pytest.raises(IntegrityError):
            make_journaled(volume, registry)
        assert volume.server.blob_count() == census

    def test_fsck_quarantines_unverifiable_journal(self, volume,
                                                   registry):
        self._strand_intent(volume, registry)
        jid = journal_blob("alice")
        blob = bytearray(volume.server.get(jid))
        blob[-1] ^= 0xFF
        volume.server.put(jid, bytes(blob))
        auditor = VolumeAuditor(volume)
        assert not auditor.audit().clean
        report = auditor.repair()
        assert report.rejected_journals == ["alice"]
        assert report.audit.clean


# -- every journal that does not open is one IntegrityError -------------------


def _stranded(volume, registry, user_id: str, path: str) -> bytes:
    """The journal ``user_id`` leaves at the SSP dying mid-create."""
    crasher = MutationTrigger(volume.server, {3: crash})
    dying = make_journaled(volume, registry, user_id, server=crasher)
    with pytest.raises(ClientCrashed):
        dying.create_file(path, b"x" * 100)
    return volume.server.get(journal_blob(user_id))


def _resealed(blob: bytes, key: bytes, header: bytes) -> bytes:
    """``blob`` with its header sealed anew, over its own payloads."""
    payloads = _clear_section(blob)
    sealed = CryptoProvider().sym_encrypt(key, header, associated=payloads)
    return Writer().put_bytes(sealed).getvalue() + payloads


_UNOPENABLE = ("truncated", "empty", "bobs_journal_in_alices_slot",
               "alices_key_bobs_context")


@pytest.fixture(params=_UNOPENABLE)
def unopenable(request, volume, registry) -> bytes:
    """A volume where bob and alice each left a pending intent, and
    alice's journal slot now holds a journal she must not open."""
    make_journaled(volume, registry).mkdir("/d", mode=0o775)
    bobs = _stranded(volume, registry, "bob", "/d/from-bob")
    alices = _stranded(volume, registry, "alice", "/from-alice")
    alice = registry.user("alice")
    provider = CryptoProvider()
    blob = {
        "truncated": alices[:40],
        "empty": b"",
        "bobs_journal_in_alices_slot": bobs,
        "alices_key_bobs_context": _resealed(
            alices, journal.journal_key(alice),
            journal.journal_context("bob") + journal.encode_records(
                journal.open_journal(provider, alice, alices))),
    }[request.param]
    volume.server.put(journal_blob("alice"), blob)
    return blob


class TestOneExceptionOnOpen:
    def test_open_raises_integrity_error(self, unopenable, registry):
        with pytest.raises(IntegrityError):
            journal.open_journal(CryptoProvider(), registry.user("alice"),
                                 unopenable)

    def test_mount_replays_nothing(self, unopenable, volume, registry):
        before = volume.server.raw_blobs()
        with pytest.raises(IntegrityError):
            make_journaled(volume, registry)
        assert volume.server.raw_blobs() == before

    def test_takeover_replays_nothing(self, unopenable, volume, registry):
        clock = SimClock()

        def manager(user_id, escrow=None):
            return LeaseManager(registry.user(user_id), registry.directory,
                                volume.server, clock, duration_s=1.0,
                                provider=CryptoProvider(), escrow=escrow)

        manager("alice").acquire(999)
        clock.advance(2.0)
        before = volume.server.raw_blobs()
        with pytest.raises(IntegrityError):
            manager("bob", escrow=registry.user).acquire(999)
        assert volume.server.raw_blobs() == before

    def test_fsck_quarantines(self, unopenable, volume, registry):
        auditor = VolumeAuditor(volume)
        assert any(error.startswith("journal[alice]")
                   for error in auditor.audit().integrity_errors)
        report = auditor.repair()
        assert report.rejected_journals == ["alice"]
        assert not any(intent.startswith("alice ")
                       for intent in report.completed_intents)
        assert not volume.server.exists(journal_blob("alice"))


# -- the clear payload section is under the MAC --------------------------------


def _swap_first_payloads(blob: bytes, user) -> bytes:
    [record] = journal.open_journal(CryptoProvider(), user, blob)
    first, second = [payload for _, payload in record.blobs if payload][:2]
    clear = _clear_section(blob)
    assert clear.startswith(first + second) and first != second
    return blob[:len(blob) - len(clear)] + second + first + clear[
        len(first) + len(second):]


_DEFECTS = {
    "flipped_payload_byte": lambda blob, user: (
        blob[:-7] + bytes([blob[-7] ^ 1]) + blob[-6:]),
    "swapped_payloads": _swap_first_payloads,
    "truncated_payloads": lambda blob, user: blob[:-1],
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_a_defective_payload_section_is_never_replayed(volume, registry,
                                                       defect):
    """The payloads travel in the clear, but under the journal MAC: a
    changed byte, a reordering or a cut is one IntegrityError at open,
    and mount, fsck and takeover replay nothing."""
    blob = _stranded(volume, registry, "alice", "/f")
    broken = _DEFECTS[defect](blob, registry.user("alice"))
    volume.server.put(journal_blob("alice"), broken)
    before = volume.server.raw_blobs()
    with pytest.raises(IntegrityError):
        journal.open_journal(CryptoProvider(), registry.user("alice"),
                             broken)
    with pytest.raises(IntegrityError):
        make_journaled(volume, registry)
    with pytest.raises(IntegrityError):
        journal.roll_forward(lambda _label, ops: volume.server.batch(ops),
                             CryptoProvider(), registry.user("alice"))
    assert volume.server.raw_blobs() == before
    report = VolumeAuditor(volume).repair()
    assert report.rejected_journals == ["alice"]
    assert not any(intent.startswith("alice ")
                   for intent in report.completed_intents)


def _recover_by_mount(volume, registry) -> None:
    make_journaled(volume, registry)


def _recover_by_takeover(volume, registry) -> None:
    clock = SimClock()

    def manager(user_id, escrow=None):
        return LeaseManager(registry.user(user_id), registry.directory,
                            volume.server, clock, duration_s=1.0,
                            provider=CryptoProvider(), escrow=escrow)

    manager("alice").acquire(999)
    clock.advance(2.0)
    manager("bob", escrow=registry.user).acquire(999)


def _recover_by_fsck(volume, registry) -> None:
    report = VolumeAuditor(volume).repair()
    assert any(intent.startswith("alice ")
               for intent in report.completed_intents)


@pytest.mark.parametrize("recover", [_recover_by_mount,
                                     _recover_by_takeover,
                                     _recover_by_fsck],
                         ids=["mount", "takeover", "fsck"])
def test_a_client_crashed_before_commit_is_rolled_forward(volume, registry,
                                                          recover):
    """Each recovery path replays the intent's payloads from the clear
    section: the create lands whole and the journal is committed."""
    blob = _stranded(volume, registry, "alice", "/f")
    assert _clear_section(blob)
    recover(volume, registry)
    assert journal.open_journal(
        CryptoProvider(), registry.user("alice"),
        volume.server.get(journal_blob("alice"))) == []
    fs = SharoesFilesystem(volume, registry.user("alice"))
    fs.mount()
    assert fs.read_file("/f") == b"x" * 100
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


# -- a root change's superblocks travel in its frame --------------------------

#: the root attribute changes that rewrite every user's superblock: a
#: key rotation, and a chmod that revokes the world's read and traverse.
ROOT_CHANGES = {
    "rekey": lambda fs: fs.rekey("/"),
    "chmod-revoke": lambda fs: fs.chmod("/", 0o750),
}


def _both_read(volume, registry, journaled: bool = False) -> None:
    """alice (owner) and bob (group eng) mount and read ``/f``."""
    config = JCONF if journaled else ClientConfig()
    for user_id in ("alice", "bob"):
        fs = make_journaled(volume, registry, user_id, config=config)
        assert fs.read_file("/f") == b"root file"


@pytest.mark.parametrize("change", sorted(ROOT_CHANGES))
def test_a_root_change_that_dies_before_its_frame_changes_nothing(
        volume, registry, change):
    make_journaled(volume, registry).create_file("/f", b"root file",
                                                 mode=0o644)
    before = volume.server.raw_blobs()
    crasher = MutationTrigger(volume.server, {1: crash})
    dying = make_journaled(volume, registry, server=crasher)
    with pytest.raises(ClientCrashed):
        ROOT_CHANGES[change](dying)
    assert volume.server.raw_blobs() == before
    _both_read(volume, registry)


@pytest.mark.parametrize("change", sorted(ROOT_CHANGES))
def test_a_root_change_that_dies_mid_apply_is_replayed_with_its_superblocks(
        volume, registry, change):
    make_journaled(volume, registry).create_file("/f", b"root file",
                                                 mode=0o644)
    crasher = MutationTrigger(volume.server, {2: crash})  # after the intent
    dying = make_journaled(volume, registry, server=crasher)
    with pytest.raises(ClientCrashed):
        ROOT_CHANGES[change](dying)
    [record] = journal.open_journal(
        CryptoProvider(), registry.user("alice"),
        volume.server.get(journal_blob("alice")))
    staged = {blob_id for blob_id, _ in record.blobs}
    assert {superblock_blob(user.user_id)
            for user in registry.users()} <= staged
    _both_read(volume, registry, journaled=True)  # alice's mount replays
    assert journal.open_journal(
        CryptoProvider(), registry.user("alice"),
        volume.server.get(journal_blob("alice"))) == []
    report = VolumeAuditor(volume).audit()
    assert report.clean, report.summary()


class _RefuseOneFrame(ServerWrapper):
    """Refuses the first frame that writes anything, whole and
    transiently, before it reaches the store."""

    refused = False

    def batch(self, ops):
        if not self.refused and any(op.kind != "get" for op in ops):
            self.refused = True
            raise TransientStorageError("frame refused")
        return self.inner.batch(ops)


@pytest.mark.parametrize("change", sorted(ROOT_CHANGES))
def test_a_root_change_whose_frame_is_refused_keeps_the_old_root(
        volume, registry, change):
    """The client adopts a root change's superblock only once its frame
    lands: refused, the SSP and the client both keep the old root, and
    the same client goes on reading -- then lands the change."""
    make_journaled(volume, registry).create_file("/f", b"root file",
                                                 mode=0o644)
    before, root = volume.server.raw_blobs(), volume._root_record
    refusing = _RefuseOneFrame(volume.server)
    fs = make_journaled(volume, registry, server=refusing)
    with pytest.raises(TransientStorageError):
        ROOT_CHANGES[change](fs)
    assert refusing.refused
    assert volume.server.raw_blobs() == before
    assert fs.read_file("/f") == b"root file"
    assert volume._root_record is root
    ROOT_CHANGES[change](fs)
    assert volume._root_record is not root
    assert fs.read_file("/f") == b"root file"
    _both_read(volume, registry)


# -- a journaled mutation pays no public-key operation ------------------------


def _op_crypto(registry, config: ClientConfig,
               monkeypatch) -> dict[str, dict]:
    """Provider event counts and RSA private-key operations of a mount
    and of one steady-state create, append and unlink.

    ``rsa_private`` counts every ``rsa.PrivateKey._private_op``, the
    ones that never reach the provider included (a lease link or a
    version statement signed with the RSA identity key would);
    ``rsa_decrypt_blocks`` those of them that decrypt an RSA block."""
    private_ops = []
    private_op = rsa.PrivateKey._private_op

    def counted(key, value):
        private_ops.append(sys._getframe(1).f_code.co_name)
        return private_op(key, value)

    monkeypatch.setattr(rsa.PrivateKey, "_private_op", counted)
    server = StorageServer()
    volume = SharoesVolume(server, registry, clock=SimClock())
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"), config=config)
    counts = {}
    for name, op in (("mount", fs.mount),
                     ("mkdir", lambda: fs.mkdir("/d")),
                     ("warm-up", lambda: fs.create_file("/d/f", b"x" * 300)),
                     ("create", lambda: fs.create_file("/d/g", b"y" * 300)),
                     ("append", lambda: fs.append_file("/d/f", b"+" * 40)),
                     ("unlink", lambda: fs.unlink("/d/g"))):
        before = dict(fs.provider.counters.ops)
        private_before = len(private_ops)
        op()
        counts[name] = {kind: fs.provider.counters.total(kind)
                        - before.get(kind, 0)
                        for kind in ("sign_rsa", "verify_rsa",
                                     "sym_encrypt", "pk_decrypt")}
        ran = private_ops[private_before:]
        counts[name]["rsa_private"] = len(ran)
        counts[name]["rsa_decrypt_blocks"] = ran.count(rsa.decrypt.__name__)
    return counts


def test_a_journaled_leased_mutation_seals_twice_and_signs_nothing(
        registry, monkeypatch):
    """Intent and commit are two symmetric seals each; no RSA sign or
    verify reaches the provider on the journal path, and no RSA
    private-key operation runs at all: lease links are signed with the
    user's ESIGN key.  A mount still opens the superblock and the group
    key: two RSA decryptions, and no other private-key operation."""
    leased = _op_crypto(registry, ClientConfig(journal=True, lease=True,
                                               data_cache=False),
                        monkeypatch)
    plain = _op_crypto(registry, ClientConfig(data_cache=False),
                       monkeypatch)
    for op in ("create", "append", "unlink"):
        assert leased[op]["sign_rsa"] == leased[op]["verify_rsa"] == 0
        assert leased[op]["rsa_private"] == 0
    for op in ("create", "append"):
        assert leased[op]["sym_encrypt"] == plain[op]["sym_encrypt"] + 2
    mount = leased["mount"]
    assert mount["pk_decrypt"] == 2
    assert mount["rsa_private"] == mount["rsa_decrypt_blocks"] > 0


# -- batch semantics ----------------------------------------------------------


class TestBatchAtomicity:
    def test_failed_op_sends_nothing(self, volume, registry):
        """An op that raises during staging leaves the SSP untouched."""
        fs = make_journaled(volume, registry)
        fs.create_file("/f", b"x")
        before = volume.server.raw_blobs()
        with pytest.raises(FileExists):
            fs.mknod("/f")
        assert volume.server.raw_blobs() == before

    def test_journal_truncated_after_commit(self, volume, registry):
        fs = make_journaled(volume, registry)
        fs.create_file("/f", b"x" * 50)
        provider = CryptoProvider()
        blob = volume.server.get(journal_blob("alice"))
        assert journal.open_journal(provider, registry.user("alice"),
                                    blob) == []
        assert fs.metrics.snapshot()["journal.pending"] == 0

    def test_symlink_reads_its_own_staged_writes(self, volume,
                                                 registry):
        """symlink re-resolves its fresh entry inside the batch; with
        caching off that read must hit the overlay, not the SSP."""
        fs = make_journaled(volume, registry)
        fs.create_file("/target", b"t")
        fs.symlink("/target", "/ln")
        assert fs.readlink("/ln") == "/target"

    def test_read_only_ops_do_not_journal(self, volume, registry):
        fs = make_journaled(volume, registry)
        fs.create_file("/f", b"data")
        puts_before = volume.server.stats.puts
        fs.read_file("/f")
        fs.getattr("/f")
        fs.readdir("/")
        assert volume.server.stats.puts == puts_before

    def test_pending_intent_replayed_before_next_mutation(
            self, volume, registry):
        """A same-session apply failure is healed by the next op, not
        left for the next mount."""

        class OneShotOutage(ServerWrapper):
            def __init__(self, inner):
                super().__init__(inner)
                self.fail_at: int | None = None
                self.puts = 0

            def put(self, blob_id, payload):
                self.puts += 1
                if self.fail_at is not None and \
                        self.puts == self.fail_at:
                    self.fail_at = None
                    raise TransientStorageError("blip")
                self.inner.put(blob_id, payload)

        wrapper = OneShotOutage(volume.server)
        fs = make_journaled(volume, registry, server=wrapper)
        wrapper.fail_at = wrapper.puts + 3  # die mid-apply
        with pytest.raises(TransientStorageError):
            fs.mkdir("/d")
        assert len(fs.mutation.pending) == 1
        fs.create_file("/other", b"x")  # replays /d's intent first
        assert fs.mutation.pending == []
        assert fs.readdir("/d") == []
        assert fs.metrics.snapshot()["journal.replays"] == 1


# -- recovery idempotence ----------------------------------------------------


class TestRecoveryIdempotence:
    def test_crash_during_recovery_recovers(self, volume, registry):
        """Recovery itself is a replay of overwrite-puts: a second
        crash mid-recovery changes nothing about the final state."""
        crasher = MutationTrigger(volume.server, {4: crash})
        dying = make_journaled(volume, registry, server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/f", b"y" * 200)

        crasher2 = MutationTrigger(volume.server, {2: crash})
        with pytest.raises(ClientCrashed):
            make_journaled(volume, registry, server=crasher2)

        fs = make_journaled(volume, registry)  # third client wins
        assert fs.read_file("/f") == b"y" * 200
        report = VolumeAuditor(volume).audit()
        assert report.clean and not report.orphaned_blobs
        assert report.pending_intents == []

    def test_double_mount_recovery_is_noop(self, volume, registry):
        crasher = MutationTrigger(volume.server, {4: crash})
        dying = make_journaled(volume, registry, server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/f", b"z" * 200)
        first = make_journaled(volume, registry)
        assert first.metrics.snapshot()["journal.recovered"] == 1
        second = make_journaled(volume, registry)
        assert "journal.recovered" not in second.metrics.snapshot() or \
            second.metrics.snapshot()["journal.recovered"] == 0
        assert second.read_file("/f") == b"z" * 200


# -- partial-write surfacing --------------------------------------------------


class _FailNthPut(ServerWrapper):
    def __init__(self, inner, fail_at: int, transient: bool = True):
        super().__init__(inner)
        self.fail_at = fail_at
        self.transient = transient
        self.puts = 0

    def put(self, blob_id, payload):
        self.puts += 1
        if self.puts == self.fail_at:
            if self.transient:
                raise TransientStorageError(f"dropped {blob_id}")
            raise OSError  # never: placeholder


class TestPartialWrite:
    def test_put_many_names_the_split(self, volume, registry):
        wrapper = _FailNthPut(volume.server, fail_at=2)
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               server=wrapper)
        blobs = [(BlobId("data", 99, f"b{i}"), b"p%d" % i)
                 for i in range(4)]
        with pytest.raises(TransientPartialWriteError) as err:
            fs.blobs.send(blobs, grouped=True)
        assert err.value.applied == (blobs[0][0],)
        assert err.value.failed == blobs[1][0]
        assert err.value.remaining == (blobs[2][0], blobs[3][0])
        assert fs.metrics.snapshot()["transport.partial_writes"] == 1

    def test_partial_write_is_still_transient(self, volume, registry):
        """except TransientStorageError contracts keep working."""
        wrapper = _FailNthPut(volume.server, fail_at=1)
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               server=wrapper)
        with pytest.raises(TransientStorageError):
            fs.blobs.send([(BlobId("data", 99, "b0"), b"p")], grouped=True)
        assert issubclass(TransientPartialWriteError, PartialWriteError)
