"""Client edge cases: root operations, volume lifecycle, caching modes,
chmod corner cases, SP 800-38A multi-block AES vectors."""

import pytest

from repro.crypto import aes
from repro.errors import (FileExists, PermissionDenied, SharoesError,
                          UnsupportedPermission)
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.path import InvalidPath
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.crypto.provider import CryptoProvider


class TestSp80038aVectors:
    """Full four-block NIST SP 800-38A vectors for CBC and CTR."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    PLAIN = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710")

    def test_cbc_f21(self):
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7")
        sealed = aes.encrypt_cbc(self.KEY, self.PLAIN, iv=iv)
        # our format prepends the IV and pads; compare the raw blocks
        assert sealed[16:16 + 64] == expected
        assert aes.decrypt_cbc(self.KEY, sealed) == self.PLAIN

    def test_ctr_f51_keystream(self):
        """CTR with the NIST initial counter block: we emulate by using
        the raw block cipher on successive counters (our CTR format uses
        its own nonce layout, so the vector is checked at block level)."""
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        expected_first = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
        cipher = aes.AES(self.KEY)
        keystream = cipher.encrypt_block(counter)
        first = bytes(a ^ b for a, b in
                      zip(self.PLAIN[:16], keystream))
        assert first == expected_first


class TestRootOperations:
    def test_chmod_root_updates_superblocks(self, alice_fs, volume,
                                            registry):
        alice_fs.chmod("/", 0o750)
        dave = SharoesFilesystem(volume, registry.user("dave"))
        dave.mount()
        with pytest.raises(PermissionDenied):
            dave.readdir("/")
        # restore for other tests sharing the fixture volume
        alice_fs.chmod("/", 0o755)

    def test_rekey_root(self, alice_fs, volume, registry):
        alice_fs.create_file("/f", b"x", mode=0o644)
        alice_fs.rekey("/")
        bob = SharoesFilesystem(volume, registry.user("bob"))
        bob.mount()
        assert bob.read_file("/f") == b"x"

    def test_cannot_unlink_root(self, alice_fs):
        with pytest.raises(InvalidPath):
            alice_fs.unlink("/")

    def test_cannot_create_root(self, alice_fs):
        with pytest.raises(InvalidPath):
            alice_fs.mkdir("/")


class TestVolumeLifecycle:
    def test_double_format_rejected(self, server, registry):
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        with pytest.raises(SharoesError):
            volume.format(root_owner="alice", root_group="eng")

    def test_provision_before_format_rejected(self, server, registry):
        volume = SharoesVolume(server, registry)
        with pytest.raises(SharoesError):
            volume.provision_user("alice")

    def test_user_with_zero_root_access_gets_no_superblock(self, server,
                                                           registry):
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng",
                      root_mode=0o750)
        dave = SharoesFilesystem(volume, registry.user("dave"))
        dave.mount()  # zero CAP on root still yields a stat-able replica
        with pytest.raises(PermissionDenied):
            dave.readdir("/")

    def test_unknown_scheme_rejected(self, server, registry):
        with pytest.raises(SharoesError):
            SharoesVolume(server, registry, scheme="scheme9")


class TestChmodCorners:
    def test_chmod_to_unsupported_rejected(self, alice_fs):
        alice_fs.mknod("/f", mode=0o644)
        with pytest.raises(UnsupportedPermission):
            alice_fs.chmod("/f", 0o642)  # other -w-
        assert alice_fs.getattr("/f").mode == 0o644  # unchanged

    def test_chmod_identity_is_cheap(self, alice_fs, server):
        alice_fs.mknod("/f", mode=0o644)
        server.stats.reset()
        alice_fs.chmod("/f", 0o644)
        assert server.stats.puts_by_kind.get("data", 0) == 0

    def test_chmod_dir_grants_listing(self, alice_fs, volume, registry):
        alice_fs.mkdir("/d", mode=0o711)
        alice_fs.mknod("/d/f", mode=0o644)
        alice_fs.chmod("/d", 0o755)
        carol = SharoesFilesystem(volume, registry.user("carol"))
        carol.mount()
        assert carol.readdir("/d") == ["f"]

    def test_chmod_file_then_dir_interplay(self, alice_fs, volume,
                                           registry):
        """Opening the dir but closing the file leaves stat-only."""
        alice_fs.mkdir("/d", mode=0o700)
        alice_fs.create_file("/d/f", b"inner", mode=0o644)
        alice_fs.chmod("/d", 0o755)
        alice_fs.chmod("/d/f", 0o600)
        carol = SharoesFilesystem(volume, registry.user("carol"))
        carol.mount()
        assert carol.getattr("/d/f").mode == 0o600
        with pytest.raises(PermissionDenied):
            carol.read_file("/d/f")


class TestCacheModes:
    def test_metadata_cache_off_refetches(self, volume, registry,
                                          server):
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig(cache_bytes=0))
        fs.mount()
        fs.mknod("/nocache")
        server.stats.reset()
        fs.getattr("/nocache")
        fs.getattr("/nocache")
        assert server.stats.gets_by_kind["meta"] >= 4  # 2 per stat walk

    def test_data_cache_off_refetches(self, volume, registry, server):
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig(data_cache=False))
        fs.mount()
        fs.create_file("/nc", b"data" * 50)
        server.stats.reset()
        fs.read_file("/nc")
        fs.read_file("/nc")
        data_gets = [k for k in range(2)]
        assert server.stats.gets_by_kind.get("data", 0) >= 2

    def test_zero_budget_cache(self, volume, registry):
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig(cache_bytes=0))
        fs.mount()
        fs.create_file("/zb", b"works without any cache")
        assert fs.read_file("/zb") == b"works without any cache"


class TestCreateEdges:
    def test_many_children_one_directory(self, alice_fs):
        alice_fs.mkdir("/wide", mode=0o755)
        for i in range(60):
            alice_fs.mknod(f"/wide/f{i:03d}")
        names = alice_fs.readdir("/wide")
        assert len(names) == 60
        assert names == sorted(names)

    def test_sibling_name_reuse_after_rename(self, alice_fs):
        alice_fs.create_file("/a", b"first")
        alice_fs.rename("/a", "/b")
        alice_fs.create_file("/a", b"second")
        assert alice_fs.read_file("/a") == b"second"
        assert alice_fs.read_file("/b") == b"first"

    def test_case_only_rename(self, alice_fs):
        alice_fs.create_file("/name", b"x")
        alice_fs.rename("/name", "/Name")
        assert alice_fs.read_file("/Name") == b"x"

    def test_create_in_renamed_directory(self, alice_fs):
        alice_fs.mkdir("/old", mode=0o755)
        alice_fs.rename("/old", "/new")
        alice_fs.create_file("/new/child", b"y")
        assert alice_fs.read_file("/new/child") == b"y"

    def test_exec_only_rename_rederives_row_keys(self, alice_fs,
                                                 carol_fs):
        """Hidden-view row keys derive from the *name*: a rename must
        re-key the row or the new name would be unfindable."""
        alice_fs.mkdir("/drop", mode=0o711)
        alice_fs.create_file("/drop/old-name", b"payload", mode=0o644)
        alice_fs.rename("/drop/old-name", "/drop/new-name")
        assert carol_fs.read_file("/drop/new-name") == b"payload"
        from repro.errors import FileNotFound
        with pytest.raises(FileNotFound):
            carol_fs.read_file("/drop/old-name")
