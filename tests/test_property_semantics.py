"""Property-based equivalence: SHAROES enforcement == *nix semantics.

The paper's central claim is that CAPs replicate the *nix access control
model over untrusted storage.  This suite generates random trees with
random ownership and modes, then checks that what each user can actually
do through the cryptographic client matches the plain reference evaluator
from :mod:`repro.fs.permissions` -- for listing, traversal+read, and
write -- across both replication schemes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (FileNotFound, PermissionDenied, SharoesError,
                          UnsupportedPermission)
from repro.caps.model import supported_bits
from repro.fs import path as fspath
from repro.fs.client import SharoesFilesystem
from repro.fs.permissions import ObjectPerms, ReferenceEvaluator
from repro.fs.volume import SharoesVolume
from repro.migration.localfs import LocalTree
from repro.migration.migrate import MigrationTool
from repro.principals.groups import GroupKeyService
from repro.crypto.provider import CryptoProvider

USERS = ("alice", "bob", "carol", "dave")
GROUPS = ("eng", "hr")

# Supported mode pools (strict SHAROES permissions).
DIR_BITS = [b for b in range(8) if supported_bits(b, "dir")]
FILE_BITS = [b for b in range(8) if supported_bits(b, "file")]


def mode_strategy(bits_pool):
    return st.tuples(st.sampled_from(bits_pool), st.sampled_from(bits_pool),
                     st.sampled_from(bits_pool)).map(
        lambda t: (t[0] << 6) | (t[1] << 3) | t[2])


tree_spec = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # parent dir index
        st.sampled_from(USERS),                    # owner
        st.sampled_from(GROUPS),                   # group
        mode_strategy(DIR_BITS),                   # dir mode
        mode_strategy(FILE_BITS),                  # file mode
    ),
    min_size=1, max_size=4)


def _build_tree(spec) -> LocalTree:
    tree = LocalTree("alice", "eng", root_mode=0o755)
    dirs = ["/"]
    for i, (parent_idx, owner, group, dmode, fmode) in enumerate(spec):
        parent = dirs[parent_idx % len(dirs)]
        dpath = (parent.rstrip("/") + f"/d{i}")
        tree.add_dir(dpath, owner=owner, group=group, mode=dmode)
        dirs.append(dpath)
        tree.add_file(dpath + f"/f{i}", f"content-{i}".encode(),
                      owner=owner, group=group, mode=fmode)
    return tree


def _groups_of(user: str) -> set[str]:
    return {"eng"} if user in ("alice", "bob") else (
        {"hr"} if user == "carol" else set())


REFERENCE = ReferenceEvaluator(_groups_of)


def _perms(node) -> ObjectPerms:
    return ObjectPerms(owner=node.owner, group=node.group, mode=node.mode,
                       ftype=node.ftype)


def _expected_rights(tree: LocalTree, path: str, user: str):
    """(can_reach, can_list_or_read, can_write) per the reference
    evaluator."""
    node = tree.root
    ancestors = []
    for name in fspath.split_path(path):
        ancestors.append(_perms(node))
        node = node.children[name]
    if not REFERENCE.can_traverse_to(ancestors, user):
        return False, False, False
    perms = _perms(node)
    if node.is_dir():
        return (True, REFERENCE.can_list(perms, user),
                REFERENCE.can_modify_dir(perms, user))
    return (True, REFERENCE.can_read_file(perms, user),
            REFERENCE.can_write_file(perms, user))


@pytest.fixture(scope="module")
def prop_registry(session_keypairs):
    from repro.principals.registry import PrincipalRegistry
    from repro.principals.users import User
    reg = PrincipalRegistry()
    for name in USERS:
        reg.add_user(User(user_id=name, keypair=session_keypairs[name]))
    reg.create_group("eng", {"alice", "bob"}, key_bits=512)
    reg.create_group("hr", {"carol"}, key_bits=512)
    return reg


class TestNixEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=tree_spec, scheme=st.sampled_from(["scheme1", "scheme2"]))
    def test_access_matches_reference(self, prop_registry, spec, scheme):
        from repro.storage.server import StorageServer
        tree = _build_tree(spec)
        server = StorageServer()
        volume = SharoesVolume(server, prop_registry, scheme=scheme)
        MigrationTool(volume).migrate(tree)
        GroupKeyService(prop_registry, server,
                        CryptoProvider()).publish_all()

        all_paths = [p for p, _ in tree.walk() if p != "/"]
        for user in USERS:
            fs = SharoesFilesystem(volume, prop_registry.user(user))
            fs.mount()
            for path in all_paths:
                node = tree.get(path)
                reachable, readable, writable = _expected_rights(
                    tree, path, user)
                self._check_path(fs, path, node, reachable, readable,
                                 writable)

    def _check_path(self, fs, path, node, reachable, readable, writable):
        if not reachable:
            with pytest.raises((PermissionDenied, FileNotFound)):
                fs.getattr(path)
            return
        # Reachable: stat must succeed (zero CAP still allows stat).
        stat = fs.getattr(path)
        assert stat.owner == node.owner

        if node.is_dir():
            if readable:
                assert set(fs.readdir(path)) == set(node.children)
            else:
                with pytest.raises(PermissionDenied):
                    fs.readdir(path)
            if writable:
                fs.mknod(path + "/___probe", mode=0o600)
                fs.unlink(path + "/___probe")
            else:
                with pytest.raises(PermissionDenied):
                    fs.mknod(path + "/___probe", mode=0o600)
        else:
            if readable:
                assert fs.read_file(path) == node.content
            else:
                with pytest.raises(PermissionDenied):
                    fs.read_file(path)
            if writable:
                fs.write_file(path, node.content)  # idempotent rewrite
            else:
                with pytest.raises(PermissionDenied):
                    fs.write_file(path, b"denied")
