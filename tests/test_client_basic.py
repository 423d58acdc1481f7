"""SHAROES client: mount, basic operations, error paths."""

import pytest

from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          FilesystemError, IsADirectory, NotADirectory,
                          PermissionDenied, UnsupportedPermission)
from repro.fs.client import ClientConfig, SharoesFilesystem


class TestMount:
    def test_mount_unlocks_root(self, alice_fs):
        stat = alice_fs.getattr("/")
        assert stat.ftype == "dir"
        assert stat.owner == "alice"

    def test_unmounted_client_refuses(self, volume, registry):
        fs = SharoesFilesystem(volume, registry.user("alice"))
        with pytest.raises(FilesystemError):
            fs.getattr("/")

    def test_unmount_clears_state(self, alice_fs):
        alice_fs.unmount()
        assert not alice_fs.mounted
        with pytest.raises(FilesystemError):
            alice_fs.getattr("/")

    def test_mount_loads_group_keys(self, alice_fs):
        assert "eng" in alice_fs.agent.group_keys

    def test_mount_single_pk_decrypt(self, volume, registry):
        """Section III-C: one public-key operation at mount time."""
        fs = SharoesFilesystem(volume, registry.user("dave"))
        fs.mount()
        assert fs.provider.counters.total("pk_decrypt") == 1


class TestCreateAndRead:
    def test_create_read_roundtrip(self, alice_fs):
        alice_fs.create_file("/hello.txt", b"world")
        assert alice_fs.read_file("/hello.txt") == b"world"

    def test_create_empty_file(self, alice_fs):
        alice_fs.mknod("/empty")
        assert alice_fs.read_file("/empty") == b""

    def test_create_sets_attrs(self, alice_fs):
        stat = alice_fs.mknod("/f", mode=0o640)
        assert stat.owner == "alice"
        assert stat.group == "eng"   # inherited from parent
        assert stat.mode == 0o640
        assert stat.ftype == "file"

    def test_custom_group(self, alice_fs):
        stat = alice_fs.mknod("/f", mode=0o640, group="hr")
        assert stat.group == "hr"

    def test_duplicate_rejected(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(FileExists):
            alice_fs.mknod("/f")

    def test_missing_file(self, alice_fs):
        with pytest.raises(FileNotFound):
            alice_fs.read_file("/nope")

    def test_missing_parent(self, alice_fs):
        with pytest.raises(FileNotFound):
            alice_fs.mknod("/no/such/dir/f")

    def test_file_as_directory(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(NotADirectory):
            alice_fs.mknod("/f/child")

    def test_read_directory_rejected(self, alice_fs):
        alice_fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            alice_fs.read_file("/d")

    def test_unsupported_mode_rejected(self, alice_fs):
        with pytest.raises(UnsupportedPermission):
            alice_fs.mknod("/wonly", mode=0o200)
        with pytest.raises(UnsupportedPermission):
            alice_fs.mkdir("/wx", mode=0o730)

    def test_deep_nesting(self, alice_fs):
        alice_fs.mkdir("/a")
        alice_fs.mkdir("/a/b")
        alice_fs.mkdir("/a/b/c")
        alice_fs.create_file("/a/b/c/deep.txt", b"deep")
        assert alice_fs.read_file("/a/b/c/deep.txt") == b"deep"

    def test_size_stale_by_default(self, alice_fs):
        """Paper Fig. 8: close sends data only -- stat size goes stale."""
        alice_fs.create_file("/f", b"12345")
        assert alice_fs.getattr("/f").size == 0
        assert alice_fs.read_file("/f") == b"12345"


class TestReaddir:
    def test_lists_sorted(self, alice_fs):
        alice_fs.mkdir("/d")
        for name in ("zeta", "alpha", "mid"):
            alice_fs.mknod(f"/d/{name}")
        assert alice_fs.readdir("/d") == ["alpha", "mid", "zeta"]

    def test_empty_dir(self, alice_fs):
        alice_fs.mkdir("/d")
        assert alice_fs.readdir("/d") == []

    def test_readdir_file_rejected(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(NotADirectory):
            alice_fs.readdir("/f")


class TestWrite:
    def test_overwrite(self, alice_fs):
        alice_fs.create_file("/f", b"one")
        alice_fs.write_file("/f", b"two!")
        assert alice_fs.read_file("/f") == b"two!"

    def test_append(self, alice_fs):
        alice_fs.create_file("/f", b"one")
        alice_fs.append_file("/f", b"+two")
        assert alice_fs.read_file("/f") == b"one+two"

    def test_truncating_write_shrinks(self, alice_fs):
        alice_fs.create_file("/f", b"a much longer original content here")
        alice_fs.write_file("/f", b"tiny")
        assert alice_fs.read_file("/f") == b"tiny"

    def test_write_to_empty(self, alice_fs):
        alice_fs.create_file("/f", b"data")
        alice_fs.write_file("/f", b"")
        assert alice_fs.read_file("/f") == b""

    def test_handle_pwrite(self, alice_fs):
        alice_fs.create_file("/f", b"0123456789")
        with alice_fs.open("/f", "rw") as handle:
            handle.pwrite(b"XY", 3)
        assert alice_fs.read_file("/f") == b"012XY56789"

    def test_pwrite_past_end_zero_fills(self, alice_fs):
        alice_fs.create_file("/f", b"ab")
        with alice_fs.open("/f", "rw") as handle:
            handle.pwrite(b"Z", 5)
        assert alice_fs.read_file("/f") == b"ab\x00\x00\x00Z"

    def test_handle_read_modes(self, alice_fs):
        alice_fs.create_file("/f", b"content")
        with alice_fs.open("/f", "r") as handle:
            assert handle.read() == b"content"
            assert handle.read(3, offset=1) == b"ont"
            with pytest.raises(PermissionDenied):
                handle.write(b"x")

    def test_write_handle_cannot_read(self, alice_fs):
        alice_fs.create_file("/f", b"content")
        with alice_fs.open("/f", "w") as handle:
            with pytest.raises(PermissionDenied):
                handle.read()

    def test_truncate_via_handle(self, alice_fs):
        alice_fs.create_file("/f", b"0123456789")
        with alice_fs.open("/f", "rw") as handle:
            handle.truncate(4)
        assert alice_fs.read_file("/f") == b"0123"

    def test_truncate_past_end_zero_extends(self, alice_fs):
        """Like ftruncate(2) and like pwrite past EOF; it used to be a
        no-op that still paid a flush."""
        alice_fs.create_file("/f", b"ab")
        with alice_fs.open("/f", "rw") as handle:
            handle.truncate(5)
            assert handle.read() == b"ab\x00\x00\x00"
        assert alice_fs.read_file("/f") == b"ab\x00\x00\x00"

    def test_truncate_is_traced(self, alice_fs):
        alice_fs.tracer.record()
        alice_fs.create_file("/f", b"0123456789")
        with alice_fs.open("/f", "rw") as handle:
            handle.truncate(4)
        assert "truncate" in [span.name
                              for span in alice_fs.tracer.finished]

    def test_writes_flush_only_on_close(self, alice_fs, volume):
        alice_fs.create_file("/f", b"old")
        handle = alice_fs.open("/f", "w")
        handle.pwrite(b"new", 0)
        other = SharoesFilesystem(volume, alice_fs.agent.user)
        other.mount()
        assert other.read_file("/f") == b"old"  # not yet flushed
        handle.close()
        other.cache.clear()
        assert other.read_file("/f") == b"new"

    def test_double_close_harmless(self, alice_fs):
        alice_fs.create_file("/f", b"x")
        handle = alice_fs.open("/f", "w")
        handle.pwrite(b"y", 0)
        handle.close()
        handle.close()
        assert alice_fs.read_file("/f") == b"y"

    def test_closed_handle_refuses(self, alice_fs):
        alice_fs.create_file("/f", b"x")
        handle = alice_fs.open("/f", "r")
        handle.close()
        with pytest.raises(FilesystemError):
            handle.read()

    def test_closed_handle_refuses_truncate(self, alice_fs):
        """A truncate after close used to be accepted and dropped."""
        alice_fs.create_file("/f", b"0123456789")
        handle = alice_fs.open("/f", "rw")
        handle.close()
        with pytest.raises(FilesystemError, match="closed handle"):
            handle.truncate(4)
        assert alice_fs.read_file("/f") == b"0123456789"

    def test_bad_open_mode(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(FilesystemError):
            alice_fs.open("/f", "rx")

    def test_open_directory_rejected(self, alice_fs):
        alice_fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            alice_fs.open("/d", "r")


class TestRemove:
    def test_unlink(self, alice_fs):
        alice_fs.create_file("/f", b"x")
        alice_fs.unlink("/f")
        with pytest.raises(FileNotFound):
            alice_fs.read_file("/f")
        assert alice_fs.readdir("/") == []

    def test_unlink_directory_rejected(self, alice_fs):
        alice_fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            alice_fs.unlink("/d")

    def test_rmdir_empty(self, alice_fs):
        alice_fs.mkdir("/d")
        alice_fs.rmdir("/d")
        assert alice_fs.readdir("/") == []

    def test_rmdir_nonempty_rejected(self, alice_fs):
        alice_fs.mkdir("/d")
        alice_fs.mknod("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            alice_fs.rmdir("/d")

    def test_rmdir_file_rejected(self, alice_fs):
        alice_fs.mknod("/f")
        with pytest.raises(NotADirectory):
            alice_fs.rmdir("/f")

    def test_unlink_frees_ssp_blobs(self, alice_fs, server):
        alice_fs.create_file("/f", b"data" * 100)
        before = server.blob_count()
        alice_fs.unlink("/f")
        assert server.blob_count() < before

    def test_recreate_after_unlink(self, alice_fs):
        alice_fs.create_file("/f", b"one")
        alice_fs.unlink("/f")
        alice_fs.create_file("/f", b"two")
        assert alice_fs.read_file("/f") == b"two"


class TestRename:
    def test_rename_same_dir(self, alice_fs):
        alice_fs.create_file("/old", b"data")
        alice_fs.rename("/old", "/new")
        assert alice_fs.read_file("/new") == b"data"
        with pytest.raises(FileNotFound):
            alice_fs.getattr("/old")

    def test_rename_across_dirs(self, alice_fs):
        alice_fs.mkdir("/a")
        alice_fs.mkdir("/b")
        alice_fs.create_file("/a/f", b"data")
        alice_fs.rename("/a/f", "/b/g")
        assert alice_fs.read_file("/b/g") == b"data"
        assert alice_fs.readdir("/a") == []

    def test_rename_directory_with_contents(self, alice_fs):
        alice_fs.mkdir("/a")
        alice_fs.create_file("/a/f", b"inside")
        alice_fs.rename("/a", "/renamed")
        assert alice_fs.read_file("/renamed/f") == b"inside"

    def test_rename_target_exists(self, alice_fs):
        alice_fs.mknod("/a")
        alice_fs.mknod("/b")
        with pytest.raises(FileExists):
            alice_fs.rename("/a", "/b")


class TestAccess:
    def test_owner_access(self, alice_fs):
        alice_fs.mknod("/f", mode=0o640)
        assert alice_fs.access("/f", "r")
        assert alice_fs.access("/f", "w")
        assert alice_fs.access("/f", "rw")
        assert not alice_fs.access("/f", "x")

    def test_access_missing_path(self, alice_fs):
        assert not alice_fs.access("/nope", "r")

    def test_getattr_does_not_require_read(self, alice_fs, bob_fs):
        """stat works through the CAP even without read permission
        (like *nix: stat needs only path traversal)."""
        alice_fs.mknod("/f", mode=0o600)
        stat = bob_fs.getattr("/f")
        assert stat.mode == 0o600
