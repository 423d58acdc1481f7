"""Adversarial tests: the SSP and malicious principals.

The paper's threat model (section VII): the SSP faithfully stores bytes
but is trusted with neither confidentiality nor access control; users may
misbehave within the keys they hold.  Every attack here must be either
impossible (missing key) or detected (signature/MAC failure).
"""

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import (CryptoError, IntegrityError, KeyAccessError,
                          PermissionDenied)
from repro.fs import layout
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.sealed import open_unverified, replace_ciphertext
from repro.fs.tableio import fetch_table
from repro.fs.volume import SharoesVolume, block_blob_id, table_blob_id
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.storage.blobs import meta_blob
from repro.storage.faults import RollbackServer, TamperingServer


def _fresh(volume, registry, user_id, config=None):
    fs = SharoesFilesystem(volume, registry.user(user_id), config=config)
    fs.mount()
    return fs


class TestCuriousSsp:
    """Honest-but-curious SSP: scan everything it stores for plaintext."""

    def test_no_plaintext_content_at_ssp(self, alice_fs, server):
        secrets = [b"TOP-SECRET-PAYLOAD-ALPHA", b"TOP-SECRET-PAYLOAD-BETA"]
        alice_fs.mkdir("/vault", mode=0o700)
        for i, secret in enumerate(secrets):
            alice_fs.create_file(f"/vault/doc{i}", secret, mode=0o600)
        everything = b"".join(server.raw_blobs().values())
        for secret in secrets:
            assert secret not in everything

    def test_no_plaintext_names_in_tables(self, alice_fs, server):
        """Directory tables are encrypted: names never appear raw."""
        alice_fs.mkdir("/dir", mode=0o755)
        alice_fs.mknod("/dir/super-distinctive-filename.doc")
        everything = b"".join(
            payload for blob_id, payload in server.raw_blobs().items()
            if blob_id.kind == "data")
        assert b"super-distinctive-filename" not in everything

    def test_no_raw_user_ids_in_blob_index(self, alice_fs, server):
        alice_fs.mknod("/f")
        for blob_id in server.raw_blobs():
            assert "alice" not in str(blob_id)

    def test_keys_never_stored_raw(self, alice_fs, server):
        """The DEK of a file never appears unencrypted in any blob."""
        alice_fs.create_file("/f", b"x", mode=0o600)
        node = alice_fs._resolve("/f")
        dek = node.view.require_dek()
        for payload in server.raw_blobs().values():
            assert dek not in payload


class TestTamperingSsp:
    def _tampering_stack(self, registry, tamper_kind):
        server = TamperingServer(
            should_tamper=lambda bid: bid.kind == tamper_kind)
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        return server, volume

    def test_data_tamper_detected(self, registry):
        server, volume = self._tampering_stack(registry, "nothing-yet")
        fs = _fresh(volume, registry, "alice")
        fs.create_file("/f", b"integrity matters", mode=0o600)
        server._should_tamper = lambda bid: bid.kind == "data"
        fs.cache.clear()
        with pytest.raises(IntegrityError):
            fs.read_file("/f")

    def test_metadata_tamper_detected(self, registry):
        server, volume = self._tampering_stack(registry, "nothing-yet")
        fs = _fresh(volume, registry, "alice")
        fs.mknod("/f")
        server._should_tamper = lambda bid: bid.kind == "meta"
        fs.cache.clear()
        with pytest.raises(IntegrityError):
            fs.getattr("/f")

    def test_blob_swap_detected(self, volume, registry, server):
        """SSP serving file A's (validly signed) block for file B."""
        fs = _fresh(volume, registry, "alice")
        fs.create_file("/a", b"contents of A", mode=0o600)
        fs.create_file("/b", b"contents of B", mode=0o600)
        ia = fs.getattr("/a").inode
        ib = fs.getattr("/b").inode
        # Both files share the same DEK? No -- distinct; swap within one
        # file's namespace instead: move /a's block to /b's slot.
        server.put(block_blob_id(ib, 0), server.get(block_blob_id(ia, 0)))
        fs.cache.clear()
        with pytest.raises((IntegrityError, CryptoError)):
            fs.read_file("/b")

    def test_block_index_swap_detected(self, volume, registry, server):
        """Reordering blocks within one file is caught by context binding."""
        fs = _fresh(volume, registry, "alice")
        big = bytes(range(256)) * 600  # > 2 blocks at 64 KiB
        fs.create_file("/big", big, mode=0o600)
        inode = fs.getattr("/big").inode
        b0 = server.get(block_blob_id(inode, 0))
        b1 = server.get(block_blob_id(inode, 1))
        server.put(block_blob_id(inode, 0), b1)
        server.put(block_blob_id(inode, 1), b0)
        fs.cache.clear()
        with pytest.raises((IntegrityError, CryptoError)):
            fs.read_file("/big")

    def test_truncation_attack_detected(self, volume, registry, server):
        """Dropping trailing blocks is caught (block 0 carries the count)."""
        fs = _fresh(volume, registry, "alice")
        big = b"z" * (65536 * 2 + 10)
        fs.create_file("/big", big, mode=0o600)
        inode = fs.getattr("/big").inode
        server.delete(block_blob_id(inode, 2))
        fs.cache.clear()
        with pytest.raises(IntegrityError):
            fs.read_file("/big")

    # -- partial loads: a handle fetches block 0 plus the blocks an access
    # touches, and must verify every one of them under its own index.

    BLOCK = 65536
    #: the client the partial-load rows mount (a sequential loader).
    CONFIG = None

    def _four_block_file(self, volume, registry):
        fs = _fresh(volume, registry, "alice", self.CONFIG)
        content = b"".join(bytes([i]) * self.BLOCK for i in range(1, 5))
        fs.create_file("/big", content, mode=0o600)
        fs.create_file("/other", b"o" * (self.BLOCK * 3), mode=0o600)
        fs.flush_staged()
        fs.cache.clear()
        return fs, content, fs.getattr("/big").inode

    def _read_block_two(self, fs):
        with fs.open("/big", "r") as handle:
            return handle.read(16, offset=2 * self.BLOCK)

    def test_partial_load_detects_index_swap(self, volume, registry,
                                             server):
        fs, _, inode = self._four_block_file(volume, registry)
        b1 = server.get(block_blob_id(inode, 1))
        b2 = server.get(block_blob_id(inode, 2))
        server.put(block_blob_id(inode, 1), b2)
        server.put(block_blob_id(inode, 2), b1)
        with pytest.raises(IntegrityError):
            self._read_block_two(fs)

    def test_partial_load_detects_foreign_block(self, volume, registry,
                                                server):
        fs, _, inode = self._four_block_file(volume, registry)
        other = fs.getattr("/other").inode
        server.put(block_blob_id(inode, 2),
                   server.get(block_blob_id(other, 2)))
        with pytest.raises(IntegrityError):
            self._read_block_two(fs)

    def test_partial_load_detects_deleted_touched_block(self, volume,
                                                        registry, server):
        fs, _, inode = self._four_block_file(volume, registry)
        server.delete(block_blob_id(inode, 2))
        with pytest.raises(IntegrityError):
            self._read_block_two(fs)
        with pytest.raises(IntegrityError):
            with fs.open("/big", "rw") as handle:
                handle.pwrite(b"patch", 2 * self.BLOCK + 9)

    def test_append_detects_deleted_last_block(self, volume, registry,
                                               server):
        fs, _, inode = self._four_block_file(volume, registry)
        server.delete(block_blob_id(inode, 3))
        with pytest.raises(IntegrityError):
            fs.append_file("/big", b"tail")

    def test_partial_load_does_not_attest_untouched_blocks(
            self, volume, registry, server):
        """The scope, pinned: a partial load verifies every byte it
        returns and the count it trusts -- not blocks it never fetched
        (docs/THREAT_MODEL.md).  The whole-file read still notices."""
        fs, content, inode = self._four_block_file(volume, registry)
        server.delete(block_blob_id(inode, 1))
        assert self._read_block_two(fs) == content[
            2 * self.BLOCK:2 * self.BLOCK + 16]
        with pytest.raises(IntegrityError):
            fs.read_file("/big")

    # -- a split table: an immutable base under a re-shipped head ----------

    def _two_generations(self, volume, registry, server, monkeypatch):
        """/d grown through two folds -> (its inode, the owner-view head
        and base as stored at generation 1 with the names they held, the
        names now)."""
        monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", 256)
        fs = _fresh(volume, registry, "alice")
        fs.mkdir("/d", mode=0o755)
        inode = fs.getattr("/d").inode
        names, old = [], None
        while layout.table_base_id(inode, "o", 2) not in server.raw_blobs():
            base_id = layout.table_base_id(inode, "o", 1)
            if base_id in server.raw_blobs():
                old = (server.get(table_blob_id(inode, "o")),
                       server.get(base_id), list(names))
            names.append(f"f{len(names)}")
            fs.mknod("/d/" + names[-1])
        assert old is not None and len(old[2]) < len(names)
        return inode, old, names

    def test_older_base_under_a_newer_head_detected(
            self, volume, registry, server, monkeypatch):
        inode, (_, old_base, _), _ = self._two_generations(
            volume, registry, server, monkeypatch)
        server.put(layout.table_base_id(inode, "o", 2), old_base)
        with pytest.raises(IntegrityError):
            _fresh(volume, registry, "alice").readdir("/d")

    def test_another_selector_s_base_detected(
            self, volume, registry, server, monkeypatch):
        inode, _, _ = self._two_generations(volume, registry, server,
                                            monkeypatch)
        server.put(layout.table_base_id(inode, "o", 2),
                   server.get(layout.table_base_id(inode, "g", 2)))
        with pytest.raises(IntegrityError):
            _fresh(volume, registry, "alice").readdir("/d")
        # bob reads the group view, which nobody touched.
        assert _fresh(volume, registry, "bob").readdir("/d")

    def test_deleted_base_is_an_integrity_error(
            self, volume, registry, server, monkeypatch):
        inode, _, _ = self._two_generations(volume, registry, server,
                                            monkeypatch)
        server.delete(layout.table_base_id(inode, "o", 2))
        with pytest.raises(IntegrityError):
            _fresh(volume, registry, "alice").readdir("/d")

    def test_older_head_with_its_own_base_is_the_whole_view_rollback(
            self, volume, registry, server, monkeypatch):
        """The scope, pinned: the head's digest ties a base to its head;
        nothing ties the head to *now*.  Serving an older head together
        with the base it named is the same-epoch rollback of a whole
        view the unsplit table always allowed (TestRollback below,
        docs/THREAT_MODEL.md)."""
        inode, (old_head, old_base, old_names), names = \
            self._two_generations(volume, registry, server, monkeypatch)
        server.put(table_blob_id(inode, "o"), old_head)
        server.put(layout.table_base_id(inode, "o", 1), old_base)
        assert _fresh(volume, registry, "alice").readdir("/d") \
            == sorted(old_names) != sorted(names)


class TestTamperingSspInFlight:
    """The partial-load rows again, with a scheduler whose remembered
    count widens block 0's flight: speculated blocks are verified under
    their own index before use, or discarded."""

    CONFIG = ClientConfig(concurrency=8)
    BLOCK = TestTamperingSsp.BLOCK
    _four_block_file = TestTamperingSsp._four_block_file
    _read_block_two = TestTamperingSsp._read_block_two
    test_partial_load_detects_index_swap = \
        TestTamperingSsp.test_partial_load_detects_index_swap
    test_partial_load_detects_foreign_block = \
        TestTamperingSsp.test_partial_load_detects_foreign_block
    test_partial_load_detects_deleted_touched_block = \
        TestTamperingSsp.test_partial_load_detects_deleted_touched_block
    test_append_detects_deleted_last_block = \
        TestTamperingSsp.test_append_detects_deleted_last_block
    test_partial_load_does_not_attest_untouched_blocks = \
        TestTamperingSsp.test_partial_load_does_not_attest_untouched_blocks

    def test_the_count_is_remembered(self, volume, registry):
        fs, _, inode = self._four_block_file(volume, registry)
        assert fs.mdcache.block_count(inode) == 4
        assert fs.scheduler is not None


class TestMaliciousWriters:
    def test_reader_forgery_detected(self, volume, registry, server):
        """A reader holds the DEK, so they *can* encrypt -- but without
        the DSK their write fails verification (paper section II-B)."""
        alice = _fresh(volume, registry, "alice")
        alice.create_file("/f", b"original", mode=0o644)
        carol = _fresh(volume, registry, "carol")
        node = carol._resolve("/f")
        dek = node.view.require_dek()
        with pytest.raises(KeyAccessError):
            node.view.require_dsk()  # the CAP really lacks it
        # Carol forges anyway: encrypts with the DEK, splices the old
        # signature (the SSP accepts anything).
        forged_cipher = carol.provider.sym_encrypt(
            dek, (1).to_bytes(4, "big") + b"FORGED!!")
        old_blob = server.get(block_blob_id(node.inode, 0))
        server.put(block_blob_id(node.inode, 0),
                   replace_ciphertext(old_blob, forged_cipher))
        alice.cache.clear()
        with pytest.raises(IntegrityError):
            alice.read_file("/f")

    def test_reader_cannot_forge_table(self, volume, registry, server):
        """r-x CAP on a directory: can read the table, cannot rewrite it."""
        alice = _fresh(volume, registry, "alice")
        alice.mkdir("/d", mode=0o755)
        alice.mknod("/d/real")
        carol = _fresh(volume, registry, "carol")
        node = carol._resolve("/d")
        table = fetch_table(carol, node)
        with pytest.raises(KeyAccessError):
            node.view.require_dsk()
        forged = carol.provider.sym_encrypt(node.view.require_dek(),
                                            table.to_bytes())
        old_blob = server.get(table_blob_id(node.inode, node.selector))
        server.put(table_blob_id(node.inode, node.selector),
                   replace_ciphertext(old_blob, forged))
        alice2 = _fresh(volume, registry, "alice")
        # alice reads her own ("o") view -- untouched; carol's own view
        # now fails verification for *other* w-class readers:
        dave = _fresh(volume, registry, "dave")
        with pytest.raises(IntegrityError):
            dave.readdir("/d")

    def test_rebuild_never_leaks_owner_keys(self, volume, registry,
                                            server):
        """Regression: rekeying a directory must not copy the owner's
        canonical rows (with owner MEKs) into world-readable views."""
        alice = _fresh(volume, registry, "alice")
        alice.mkdir("/d", mode=0o755)
        alice.create_file("/d/f", b"x", mode=0o600)
        alice.rekey("/d")
        dave = _fresh(volume, registry, "dave")
        node = dave._resolve("/d")
        entry = fetch_table(dave, node).lookup(
            "f", provider=dave.provider,
            table_dek=node.view.require_dek())
        if entry.kind == "d":
            assert entry.pointer.selector != "o"
        # And functionally: dave still cannot read the 600 file.
        with pytest.raises(PermissionDenied):
            dave.read_file("/d/f")


class TestRollback:
    def test_rekeyed_object_rollback_detected(self, registry):
        """After a rekey, serving the pre-rekey blob fails decryption:
        the old blob cannot satisfy the new keys."""
        server = RollbackServer(should_rollback=lambda bid: False)
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        fs = _fresh(volume, registry, "alice")
        fs.create_file("/f", b"version 1", mode=0o600)
        fs.rekey("/f")
        fs.cache.clear()
        inode = fs.getattr("/f").inode
        server._should_rollback = (
            lambda bid: bid.kind == "data" and bid.inode == inode)
        fs.cache.clear()
        with pytest.raises((IntegrityError, CryptoError)):
            fs.read_file("/f")

    def test_same_epoch_rollback_undetected_documented(self, registry):
        """Within one key epoch, rollback of a whole object is NOT
        detected -- the paper defers this to SUNDR-style fork
        consistency (section VI).  This test documents the boundary."""
        server = RollbackServer(should_rollback=lambda bid: False)
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        fs = _fresh(volume, registry, "alice")
        fs.create_file("/f", b"version 1", mode=0o600)
        fs.write_file("/f", b"version 2")
        inode = fs.getattr("/f").inode
        server._should_rollback = (
            lambda bid: bid.kind == "data" and bid.inode == inode)
        fs.cache.clear()
        assert fs.read_file("/f") == b"version 1"  # silently rolled back


class TestKeyIsolation:
    def test_wrong_superblock_unusable(self, volume, registry, server):
        """carol cannot decrypt alice's superblock blob."""
        from repro.storage.blobs import superblock_blob
        blob = server.get(superblock_blob("alice"))
        carol = registry.user("carol")
        provider = CryptoProvider()
        with pytest.raises(Exception):
            provider.pk_decrypt(carol.private_key, blob)

    def test_unprovisioned_user_cannot_mount(self, volume, registry):
        mallory = User.create("mallory", key_bits=512)
        fs = SharoesFilesystem(volume, mallory)
        with pytest.raises(Exception):
            fs.mount()

    def test_open_unverified_still_needs_key(self, alice_fs, server):
        alice_fs.create_file("/f", b"secret", mode=0o600)
        inode = alice_fs.getattr("/f").inode
        blob = server.get(block_blob_id(inode, 0))
        with pytest.raises((IntegrityError, CryptoError)):
            open_unverified(CryptoProvider(), b"0" * 16, blob)
