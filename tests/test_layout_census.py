"""What is stored under an inode is exactly what its attributes call for.

An object *is* its blob set, and access control is which replicas and
keys exist (paper sections III-IV).  Three drifts between the four
owner-side ops used to break that -- (a) ``set_acl`` kept the replica
(and table view) of a revoked ACL entry, (b) an ACL downgrade rw -> r
did not rotate DSK/DVK, (c) a directory ``chmod`` kept the table views of
classes that lost them -- one test each, then a Hypothesis invariant
over arbitrary op sequences on both replication schemes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caps.model import supported_bits
from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError, PermissionDenied
from repro.fs import layout
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.permissions import EXEC, READ, WRITE, AclEntry
from repro.fs.tableio import fetch_table
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.storage.blobs import meta_blob
from repro.storage.resilient import ServerWrapper
from repro.storage.server import StorageServer
from repro.tools.fsck import VolumeAuditor
from tests.conftest import USER_NAMES


def fresh(volume, user_id: str) -> SharoesFilesystem:
    fs = SharoesFilesystem(volume, volume.registry.user(user_id))
    fs.mount()
    return fs


def stored(volume, inode: int) -> set:
    """The metadata-replica and table-view ids the SSP holds for an inode."""
    return {blob_id for blob_id in volume.server.raw_blobs()
            if blob_id.inode == inode and layout.in_census(blob_id)}


def called_for(volume, owner_fs, path: str) -> set:
    return set(layout.replica_ids(volume.scheme,
                                  owner_fs._resolve(path).attrs))


def orphans(volume) -> list[str]:
    return VolumeAuditor(volume).audit().orphaned_blobs


# -- (a) a revoked ACL entry takes its replica and table view with it --------------

@pytest.mark.parametrize("make", ["create_file", "mkdir"])
def test_acl_revoke_leaves_nothing_behind(alice_fs, volume, make):
    getattr(alice_fs, make)("/x", mode=0o700)
    inode = alice_fs.getattr("/x").inode
    alice_fs.set_acl("/x", (AclEntry("dave", 0o5),))
    granted = stored(volume, inode)
    assert granted == called_for(volume, alice_fs, "/x")
    alice_fs.set_acl("/x", ())
    assert stored(volume, inode) == called_for(volume, alice_fs, "/x")
    assert stored(volume, inode) < granted
    assert orphans(volume) == []
    (alice_fs.unlink if make == "create_file" else alice_fs.rmdir)("/x")
    assert [b for b in volume.server.raw_blobs() if b.inode == inode] == []
    assert orphans(volume) == []


# -- (b) an ACL downgrade is a revocation --------------------------------------------

def _forge_block0(volume, node, content: bytes) -> None:
    """Overwrite block 0 the way a holder of ``node``'s keys would."""
    blob_id, blob = layout.seal_block(
        CryptoProvider(), node.view.require_dek(),
        node.view.require_dsk(), node.inode, 0,
        layout.block_payload([content], 0))
    volume.server.put(blob_id, blob)


def test_acl_downgrade_rekeys_immediately(alice_fs, volume):
    alice_fs.create_file("/payroll", b"payroll", mode=0o600)
    alice_fs.set_acl("/payroll", (AclEntry("dave", 0o6),))
    held = fresh(volume, "dave")._resolve("/payroll")
    alice_fs.set_acl("/payroll", (AclEntry("dave", 0o4),))
    now = fresh(volume, "alice")._resolve("/payroll")
    assert now.view.require_dvk() != held.view.require_dvk()
    assert now.view.require_dek() != held.view.require_dek()
    dave = fresh(volume, "dave")
    assert dave.read_file("/payroll") == b"payroll"
    with pytest.raises(PermissionDenied):
        dave.write_file("/payroll", b"mine")
    _forge_block0(volume, held, b"payroll FORGED")
    with pytest.raises(IntegrityError):
        fresh(volume, "alice").read_file("/payroll")


def test_acl_downgrade_rekeys_on_next_owner_write_when_lazy(
        make_fs, volume):
    alice = make_fs("alice", config=ClientConfig(
        immediate_revocation=False))
    alice.create_file("/payroll", b"payroll", mode=0o600)
    alice.set_acl("/payroll", (AclEntry("dave", 0o6),))
    held = fresh(volume, "dave")._resolve("/payroll")
    alice.set_acl("/payroll", (AclEntry("dave", 0o4),))
    # The documented lazy window: old keys work until the owner writes.
    alice.write_file("/payroll", b"payroll v2")
    now = fresh(volume, "alice")._resolve("/payroll")
    assert now.view.require_dvk() != held.view.require_dvk()
    _forge_block0(volume, held, b"payroll FORGED")
    with pytest.raises(IntegrityError):
        fresh(volume, "alice").read_file("/payroll")


# -- (c) a directory chmod deletes the views of classes that lost them ---------------

def test_directory_chmod_keeps_exactly_the_called_for_views(
        alice_fs, volume):
    alice_fs.mkdir("/d", mode=0o755)
    alice_fs.create_file("/d/f", b"x", mode=0o644)
    inode = alice_fs.getattr("/d").inode
    for mode, bob_lists, carol_lists in ((0o750, True, False),
                                         (0o700, False, False),
                                         (0o755, True, True)):
        alice_fs.chmod("/d", mode)
        assert stored(volume, inode) == called_for(volume, alice_fs, "/d")
        for user, lists in (("bob", bob_lists), ("carol", carol_lists)):
            fs = fresh(volume, user)  # bob: group eng; carol: other
            if lists:
                assert fs.readdir("/d") == ["f"]
                assert fs.read_file("/d/f") == b"x"
            else:
                with pytest.raises(PermissionDenied):
                    fs.readdir("/d")
                with pytest.raises(PermissionDenied):
                    fs.read_file("/d/f")
        assert orphans(volume) == []


def test_chmod_on_a_split_directory_deletes_the_revoked_base_unread(
        alice_fs, volume, monkeypatch):
    """``chmod o-rx`` drops the world view: its head *and* the base the
    head named go, found from the attributes plus the generation any one
    head carries -- neither blob is fetched to learn what to delete."""
    monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", 256)
    alice_fs.mkdir("/d", mode=0o755)
    for i in range(6):
        alice_fs.mknod(f"/d/f{i}", mode=0o644)
    inode = alice_fs.getattr("/d").inode

    def generation() -> int:
        fs = fresh(volume, "alice")
        return fetch_table(fs, fs._resolve("/d")).base_gen

    old_gen = generation()
    world = {layout.table_blob_id(inode, "w"),
             layout.table_base_id(inode, "w", old_gen)}
    assert old_gen and world < stored(volume, inode)

    class Reads(ServerWrapper):
        fetched: set = set()

        def _forward(self, op):
            if op.kind == "get":
                self.fetched.add(op.blob_id)
            return op.call(self.inner)

    owner = SharoesFilesystem(volume, volume.registry.user("alice"),
                              server=Reads(volume.server))
    owner.mount()
    owner.chmod("/d", 0o750)
    assert not world & Reads.fetched
    assert layout.table_blob_id(inode, "o") in Reads.fetched
    attrs = fresh(volume, "alice")._resolve("/d").attrs
    assert stored(volume, inode) == set(layout.replica_ids(
        volume.scheme, attrs, generation()))
    assert not world & stored(volume, inode)
    assert orphans(volume) == []
    assert fresh(volume, "bob").readdir("/d") == [f"f{i}" for i in range(6)]
    with pytest.raises(PermissionDenied):
        fresh(volume, "carol").readdir("/d")


# -- fsck sees a stale replica of a live inode ---------------------------------------

def test_fsck_reports_and_reclaims_a_planted_stale_replica(
        alice_fs, volume, server):
    alice_fs.mkdir("/d", mode=0o755)
    inode = alice_fs.getattr("/d").inode
    planted = {meta_blob(inode, "a:0123456789abcdef"),
               layout.table_blob_id(inode, "a:0123456789abcdef")}
    for blob_id in planted:
        server.put(blob_id, b"left behind by a revoked CAP")
    auditor = VolumeAuditor(volume)
    assert set(auditor.audit().orphaned_blobs) == {str(b) for b in planted}
    repair = auditor.repair()
    assert set(repair.reclaimed_blobs) == {str(b) for b in planted}
    assert repair.audit.orphaned_blobs == []
    assert not planted & set(server.raw_blobs())


# -- the invariant, over op sequences -----------------------------------------------

DIR_BITS = [b for b in range(8) if supported_bits(b, "dir")]
FILE_BITS = [b for b in range(8) if supported_bits(b, "file")]
# Under a world-writable parent: an owner-side change refreshes the
# parent's rows, which takes the parent's write CAP whoever the owner is.
FILE, DIR = "/pub/f", "/pub/d"
TARGETS = {FILE: FILE_BITS, DIR: DIR_BITS}
_pick = st.integers(min_value=0, max_value=7)

ops = st.lists(st.one_of(
    st.tuples(st.just("chmod"), st.sampled_from(sorted(TARGETS)),
              _pick, _pick),
    # grant, downgrade or revoke (bits None) one user's ACL entry
    st.tuples(st.just("acl"), st.sampled_from(sorted(TARGETS)),
              st.sampled_from(["carol", "dave"]), st.none() | _pick),
    # Only the file changes hands: a directory whose children belong to
    # someone else re-derives new views as SPLIT rows (documented).
    st.tuples(st.just("chown"), st.just(FILE),
              st.sampled_from(["alice", "bob"])),
    st.tuples(st.just("rekey"), st.sampled_from(sorted(TARGETS))),
), min_size=1, max_size=5)


@pytest.fixture(scope="module")
def census_registry(session_keypairs):
    reg = PrincipalRegistry()
    for name in USER_NAMES:
        reg.add_user(User(user_id=name, keypair=session_keypairs[name]))
    reg.create_group("eng", {"alice", "bob"}, key_bits=512)
    reg.create_group("hr", {"carol"}, key_bits=512)
    return reg


def _apply(volume, owner_fs, op) -> None:
    kind, path, *args = op
    pool = TARGETS[path]
    attrs = owner_fs._resolve(path).attrs
    if kind == "chmod":
        group, other = (pool[i % len(pool)] for i in args)
        owner_fs.chmod(path, (attrs.mode & 0o700) | group << 3 | other)
    elif kind == "acl":
        user, bits = args
        acl = [e for e in attrs.acl if e.user_id != user]
        if bits is not None:
            acl.append(AclEntry(user, pool[bits % len(pool)]))
        owner_fs.set_acl(path, tuple(acl))
    elif kind == "chown":
        owner_fs.chown(path, args[0])
    else:
        owner_fs.rekey(path)


def _check_verdicts(volume, path: str, attrs) -> None:
    """A second principal's fresh mount agrees with fs/permissions.py."""
    for user_id in ("bob", "carol", "dave"):
        user = volume.registry.user(user_id)
        bits = attrs.perms().bits_for(user_id, user.groups)
        fs = fresh(volume, user_id)
        if path == FILE:
            checks = ((bits & READ, lambda: fs.read_file(FILE)),
                      (bits & READ and bits & WRITE,
                       lambda: fs.open(FILE, "a").close()))
        else:
            checks = ((bits & READ, lambda: fs.readdir(DIR)),
                      (bits & EXEC, lambda: fs.read_file(DIR + "/inner")))
        for allowed, attempt in checks:
            if allowed:
                attempt()
            else:
                with pytest.raises(PermissionDenied):
                    attempt()


# derandomize: this gates CI next to the fixed-seed matrices.
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=ops, scheme=st.sampled_from(["scheme1", "scheme2"]))
def test_stored_replicas_track_attributes(census_registry, script, scheme):
    volume = SharoesVolume(StorageServer(), census_registry, scheme=scheme)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(census_registry, volume.server,
                    CryptoProvider()).publish_all()
    alice = fresh(volume, "alice")
    alice.mkdir("/pub", mode=0o777)
    alice.create_file(FILE, b"file content", mode=0o640)
    alice.mkdir(DIR, mode=0o750)
    alice.create_file(DIR + "/inner", b"inner", mode=0o644)
    for op in script:
        path = op[1]
        owner = fresh(volume, "alice")._resolve(path).attrs.owner
        _apply(volume, fresh(volume, owner), op)
        attrs = fresh(volume, owner)._resolve(path).attrs
        assert stored(volume, attrs.inode) == set(
            layout.replica_ids(volume.scheme, attrs)), op
    assert orphans(volume) == []
    for path in TARGETS:
        _check_verdicts(volume, path,
                        fresh(volume, "alice")._resolve(path).attrs)
