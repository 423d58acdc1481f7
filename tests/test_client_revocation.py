"""Revocation (immediate + lazy), chown, ACLs, rekey, group revocation."""

import dataclasses

import pytest

from repro.errors import IntegrityError, PermissionDenied
from repro.principals.registry import UnknownPrincipal
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.permissions import AclEntry
from repro.storage.blobs import meta_blob
from repro.tools.fsck import VolumeAuditor


def fresh(volume, registry, user_id, **config_kwargs):
    fs = SharoesFilesystem(volume, registry.user(user_id),
                           config=ClientConfig(**config_kwargs))
    fs.mount()
    return fs


class TestImmediateRevocation:
    def test_revoked_reader_denied(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"secret", mode=0o644)
        carol = fresh(volume, registry, "carol")
        assert carol.read_file("/f") == b"secret"
        alice_fs.chmod("/f", 0o600)
        carol2 = fresh(volume, registry, "carol")
        with pytest.raises(PermissionDenied):
            carol2.read_file("/f")

    def test_revocation_rotates_data_keys(self, alice_fs, volume,
                                          registry, server):
        """Immediate revocation re-encrypts: a revoked reader replaying
        their cached DEK against current blobs gets nothing."""
        alice_fs.create_file("/f", b"secret", mode=0o644)
        carol = fresh(volume, registry, "carol")
        node = carol._resolve("/f")
        cached_dek = node.view.require_dek()
        alice_fs.chmod("/f", 0o600)
        from repro.fs.volume import block_blob_id
        from repro.crypto.provider import CryptoProvider
        from repro.fs.sealed import open_unverified
        blob = server.get(block_blob_id(node.inode, 0))
        with pytest.raises(Exception):
            open_unverified(CryptoProvider(), cached_dek, blob)

    def test_revoked_writer_loses_dsk(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"x", mode=0o666)
        dave = fresh(volume, registry, "dave")
        dave.write_file("/f", b"dave was here")
        alice_fs.cache.clear()
        alice_fs.chmod("/f", 0o644)
        dave2 = fresh(volume, registry, "dave")
        with pytest.raises(PermissionDenied):
            dave2.write_file("/f", b"still here?")
        assert dave2.read_file("/f") == b"dave was here"

    def test_group_loss_via_mode(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"eng", mode=0o640)
        bob = fresh(volume, registry, "bob")
        assert bob.read_file("/f") == b"eng"
        alice_fs.chmod("/f", 0o600)
        bob2 = fresh(volume, registry, "bob")
        with pytest.raises(PermissionDenied):
            bob2.read_file("/f")

    def test_regrant_after_revoke(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"v1", mode=0o644)
        alice_fs.chmod("/f", 0o600)
        alice_fs.write_file("/f", b"v2")
        alice_fs.chmod("/f", 0o644)
        carol = fresh(volume, registry, "carol")
        assert carol.read_file("/f") == b"v2"

    def test_directory_revocation(self, alice_fs, volume, registry):
        alice_fs.mkdir("/d", mode=0o755)
        alice_fs.create_file("/d/f", b"x", mode=0o644)
        alice_fs.chmod("/d", 0o700)
        carol = fresh(volume, registry, "carol")
        with pytest.raises(PermissionDenied):
            carol.readdir("/d")
        with pytest.raises(PermissionDenied):
            carol.read_file("/d/f")


class TestLazyRevocation:
    def test_lazy_defers_rekey_until_write(self, volume, registry):
        alice = fresh(volume, registry, "alice",
                      immediate_revocation=False)
        alice.create_file("/f", b"secret", mode=0o644)
        carol = fresh(volume, registry, "carol")
        node = carol._resolve("/f")
        old_dek = node.view.require_dek()

        alice.chmod("/f", 0o600)
        # Pre-write: the content is still under the old key (lazy).
        from repro.fs.volume import block_blob_id
        from repro.crypto.provider import CryptoProvider
        from repro.fs.sealed import open_unverified
        blob = volume.server.get(block_blob_id(node.inode, 0))
        payload = open_unverified(CryptoProvider(), old_dek, blob)
        assert payload.endswith(b"secret")

        # The owner's next write triggers the rekey.
        alice.cache.clear()
        alice.write_file("/f", b"fresh content")
        blob = volume.server.get(block_blob_id(node.inode, 0))
        with pytest.raises(Exception):
            open_unverified(CryptoProvider(), old_dek, blob)
        alice.cache.clear()
        assert alice.read_file("/f") == b"fresh content"

    def test_lazy_still_blocks_new_fetches(self, volume, registry):
        """Even before rekey, the revoked user's replica is gone."""
        alice = fresh(volume, registry, "alice",
                      immediate_revocation=False)
        alice.create_file("/f", b"secret", mode=0o644)
        alice.chmod("/f", 0o600)
        carol = fresh(volume, registry, "carol")
        with pytest.raises(PermissionDenied):
            carol.read_file("/f")


    def test_lazy_directory_revocation(self, volume, registry):
        """A directory revoked lazily keeps its table base until the
        owner's next change in it; the revoked reader is denied at
        once, and the deferred rekey leaves a consistent tree."""
        alice = fresh(volume, registry, "alice",
                      immediate_revocation=False)
        alice.mkdir("/d", mode=0o755)
        alice.create_file("/d/f", b"x", mode=0o644)
        alice.chmod("/d", 0o700)
        with pytest.raises(PermissionDenied):
            fresh(volume, registry, "carol").readdir("/d")
        alice.create_file("/d/g", b"y", mode=0o600)
        assert fresh(volume, registry, "alice").readdir("/d") == ["f", "g"]
        assert VolumeAuditor(volume).audit().clean


class TestChown:
    def test_ownership_transfer(self, alice_fs, volume, registry):
        alice_fs.create_file("/gift", b"present", mode=0o600)
        alice_fs.chown("/gift", "bob")
        bob = fresh(volume, registry, "bob")
        assert bob.read_file("/gift") == b"present"
        bob.write_file("/gift", b"mine now")
        bob.chmod("/gift", 0o640)

    def test_old_owner_fully_revoked(self, alice_fs, volume, registry):
        alice_fs.create_file("/gift", b"present", mode=0o600)
        alice_fs.chown("/gift", "bob")
        alice2 = fresh(volume, registry, "alice")
        with pytest.raises(PermissionDenied):
            alice2.read_file("/gift")

    def test_chown_unknown_user_rejected(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(UnknownPrincipal):
            alice_fs.chown("/f", "mallory")

    def test_chown_with_group_change(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"x", mode=0o640, group="eng")
        alice_fs.chown("/f", "carol", new_group="hr")
        stat = fresh(volume, registry, "carol").getattr("/f")
        assert (stat.owner, stat.group) == ("carol", "hr")

    def test_chown_directory(self, alice_fs, volume, registry):
        alice_fs.mkdir("/d", mode=0o750)
        alice_fs.create_file("/d/f", b"inside", mode=0o644)
        alice_fs.chown("/d", "bob")
        bob = fresh(volume, registry, "bob")
        assert bob.readdir("/d") == ["f"]
        assert bob.read_file("/d/f") == b"inside"


class TestAcl:
    def test_acl_grants_outsider_read(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"for dave", mode=0o600)
        alice_fs.set_acl("/f", (AclEntry("dave", 0o4),))
        dave = fresh(volume, registry, "dave")
        assert dave.read_file("/f") == b"for dave"
        with pytest.raises(PermissionDenied):
            dave.write_file("/f", b"nope")

    def test_acl_grants_write(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"x", mode=0o600)
        alice_fs.set_acl("/f", (AclEntry("dave", 0o6),))
        dave = fresh(volume, registry, "dave")
        dave.write_file("/f", b"dave writes")
        alice_fs.cache.clear()
        assert alice_fs.read_file("/f") == b"dave writes"

    def test_acl_removal_revokes(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"x", mode=0o600)
        alice_fs.set_acl("/f", (AclEntry("dave", 0o4),))
        assert fresh(volume, registry, "dave").read_file("/f") == b"x"
        alice_fs.set_acl("/f", ())
        dave = fresh(volume, registry, "dave")
        with pytest.raises(PermissionDenied):
            dave.read_file("/f")

    def test_acl_beats_group_class(self, alice_fs, volume, registry):
        """An ACL entry for bob overrides his group-class bits."""
        alice_fs.create_file("/f", b"x", mode=0o640)
        alice_fs.set_acl("/f", (AclEntry("bob", 0o0),))
        bob = fresh(volume, registry, "bob")
        with pytest.raises(PermissionDenied):
            bob.read_file("/f")

    def test_acl_unknown_user_rejected(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(UnknownPrincipal):
            alice_fs.set_acl("/f", (AclEntry("mallory", 0o4),))

    def test_hard_link_keeps_the_acl_readers_lockbox(self, alice_fs,
                                                     volume, registry):
        """A link adds no view but must re-issue the ACL user's
        lockboxes: dave reads through the new name too."""
        alice_fs.create_file("/f", b"for dave", mode=0o600)
        alice_fs.set_acl("/f", (AclEntry("dave", 0o4),))
        alice_fs.link("/f", "/g")
        dave = fresh(volume, registry, "dave")
        assert dave.read_file("/g") == b"for dave"

    def test_a_vanished_selector_that_carried_keys_is_a_revocation(
            self, alice_fs):
        """Losing a replica that held keys revokes; losing a zero-CAP
        one does not.  (Through ``set_acl`` the vanished entry's user is
        named first, and chown rotates everything, so the rule is
        checked on the attributes directly.)"""
        alice_fs.create_file("/f", b"x", mode=0o600)
        bare = alice_fs._resolve("/f").attrs
        reader = dataclasses.replace(bare, acl=(AclEntry("dave", 0o4),))
        nobody = dataclasses.replace(bare, acl=(AclEntry("dave", 0o0),))
        assert alice_fs._is_revocation(reader, bare)
        assert not alice_fs._is_revocation(nobody, bare)

    def test_acl_on_directory(self, alice_fs, volume, registry):
        alice_fs.mkdir("/d", mode=0o700)
        alice_fs.create_file("/d/f", b"deep", mode=0o604)
        alice_fs.set_acl("/d", (AclEntry("dave", 0o5),))
        dave = fresh(volume, registry, "dave")
        assert dave.readdir("/d") == ["f"]
        assert dave.read_file("/d/f") == b"deep"


class TestRekey:
    def test_rekey_keeps_owner_access(self, alice_fs):
        alice_fs.create_file("/f", b"stable", mode=0o640)
        alice_fs.rekey("/f")
        alice_fs.cache.clear()
        assert alice_fs.read_file("/f") == b"stable"

    def test_rekey_keeps_group_access(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"stable", mode=0o640)
        alice_fs.rekey("/f")
        bob = fresh(volume, registry, "bob")
        assert bob.read_file("/f") == b"stable"

    def test_rekey_rotates_all_keys(self, alice_fs):
        node = None
        alice_fs.create_file("/f", b"x", mode=0o640)
        node = alice_fs._resolve("/f")
        old_mek, old_dek = node.mek, node.view.require_dek()
        alice_fs.rekey("/f")
        alice_fs.cache.clear()
        node2 = alice_fs._resolve("/f")
        assert node2.mek != old_mek
        assert node2.view.require_dek() != old_dek

    def test_rekey_directory(self, alice_fs, volume, registry):
        alice_fs.mkdir("/d", mode=0o750)
        alice_fs.create_file("/d/f", b"kid", mode=0o644)
        alice_fs.rekey("/d")
        bob = fresh(volume, registry, "bob")
        assert bob.readdir("/d") == ["f"]
        assert bob.read_file("/d/f") == b"kid"

    def test_group_member_departure_flow(self, alice_fs, volume,
                                          registry, server):
        """The full paper flow: member leaves group -> group key rotated
        -> owners rekey every object the group could access, including
        ancestor directories (the departed member still knows their
        MEKs), which also reissues the superblocks."""
        from repro.crypto.provider import CryptoProvider
        from repro.principals.groups import GroupKeyService
        alice_fs.create_file("/f", b"eng data", mode=0o640)
        service = GroupKeyService(registry, server, CryptoProvider())
        service.revoke_member("eng", "bob")
        alice_fs.rekey("/f")
        alice_fs.rekey("/")  # the root was group-traversable too
        bob = fresh(volume, registry, "bob")
        with pytest.raises(PermissionDenied):
            bob.read_file("/f")
        # bob's reissued superblock now maps him to the world class:
        # stat still works (zero CAP), data access does not.
        assert bob.getattr("/f").owner == "alice"


class TestRootRekeyByAnotherMount:
    """Another mount's ``rekey("/")`` rewrites every user's superblock
    with the root's new keys.  A mounted client whose walk no longer
    verifies the root re-reads its own superblock once and walks again;
    a root replica that fails under an unchanged superblock is still a
    tamper alarm."""

    def test_the_rekeyed_root_reads(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"shared", mode=0o644)
        bob = fresh(volume, registry, "bob", mdcache=False)
        assert bob.read_file("/f") == b"shared"
        old = bob._superblock
        alice_fs.rekey("/")
        bob.revalidate()
        assert bob.read_file("/f") == b"shared"
        assert bob._superblock != old
        assert bob.metrics.get("client.integrity_failures") is None

    def test_a_tampered_root_replica_still_raises(self, alice_fs, volume,
                                                  registry, server):
        alice_fs.create_file("/f", b"shared", mode=0o644)
        bob = fresh(volume, registry, "bob", mdcache=False)
        old = bob._superblock
        blob_id = meta_blob(old.root_inode, old.root_selector)
        stored = server.get(blob_id)
        server.put(blob_id, stored[:-1] + bytes([stored[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            bob.read_file("/f")
        assert bob._superblock == old
        assert bob.metrics.get("client.integrity_failures").value == 1
