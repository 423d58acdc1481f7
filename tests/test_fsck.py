"""The volume auditor (fsck)."""

import pytest

from repro.errors import SharoesError
from repro.fs.volume import block_blob_id, table_blob_id
from repro.storage.blobs import data_blob, meta_blob
from repro.tools.fsck import VolumeAuditor


@pytest.fixture
def populated(alice_fs, bob_fs):
    alice_fs.mkdir("/docs", mode=0o755)
    alice_fs.create_file("/docs/shared.txt", b"everyone", mode=0o644)
    alice_fs.create_file("/docs/private.txt", b"mine", mode=0o600)
    alice_fs.mkdir("/drop", mode=0o711)
    alice_fs.create_file("/drop/hidden.txt", b"by name", mode=0o644)
    alice_fs.symlink("/docs/shared.txt", "/docs/link")
    return alice_fs


class TestCleanVolume:
    def test_clean_report(self, populated, volume):
        report = VolumeAuditor(volume).audit()
        assert report.clean
        assert report.users_mounted == 4
        assert report.files_verified >= 3
        assert report.directories_verified >= 3
        assert report.symlinks_verified == 1
        assert report.orphaned_blobs == []
        assert "CLEAN" in report.summary()

    def test_exec_only_content_not_flagged(self, populated, volume):
        """The auditor cannot list /drop as non-owners, but the owner
        pass covers it; no structural errors result."""
        report = VolumeAuditor(volume).audit()
        assert report.structural_errors == []

    def test_audit_is_read_only(self, populated, volume, server):
        before = server.stats.puts
        VolumeAuditor(volume).audit()
        assert server.stats.puts == before


class TestDetection:
    def test_corrupt_data_block_found(self, populated, volume, server):
        inode = populated.getattr("/docs/shared.txt").inode
        blob = bytearray(server.get(block_blob_id(inode, 0)))
        blob[12] ^= 0xFF
        server.put(block_blob_id(inode, 0), bytes(blob))
        report = VolumeAuditor(volume).audit()
        assert not report.clean
        assert any("shared.txt" in err for err in report.integrity_errors)

    def test_corrupt_metadata_found(self, populated, volume, server):
        inode = populated.getattr("/docs/private.txt").inode
        blob = bytearray(server.get(meta_blob(inode, "o")))
        blob[8] ^= 1
        server.put(meta_blob(inode, "o"), bytes(blob))
        report = VolumeAuditor(volume).audit()
        assert not report.clean

    def test_corrupt_table_found(self, populated, volume, server):
        inode = populated.getattr("/docs").inode
        blob = bytearray(server.get(table_blob_id(inode, "o")))
        blob[16] ^= 1
        server.put(table_blob_id(inode, "o"), bytes(blob))
        report = VolumeAuditor(volume).audit()
        assert not report.clean

    def test_orphan_blob_found(self, populated, volume, server):
        server.put(data_blob(9999, "b0"), b"abandoned ciphertext")
        report = VolumeAuditor(volume).audit()
        assert "data/9999/b0" in report.orphaned_blobs
        assert report.clean  # orphans are waste, not corruption

    def test_missing_replica_reported_not_fatal(self, populated, volume,
                                                server):
        """Deleting one user's replica breaks that user's view only."""
        inode = populated.getattr("/docs/shared.txt").inode
        server.delete(meta_blob(inode, "w"))
        report = VolumeAuditor(volume).audit()
        # Owner and group still verify the object; the file itself is
        # still counted, and no integrity error is raised (a missing
        # replica reads as PermissionDenied for that chain).
        assert report.files_verified >= 3

    def test_summary_mentions_errors(self, populated, volume, server):
        inode = populated.getattr("/docs/shared.txt").inode
        blob = bytearray(server.get(block_blob_id(inode, 0)))
        blob[12] ^= 0xFF
        server.put(block_blob_id(inode, 0), bytes(blob))
        report = VolumeAuditor(volume).audit()
        assert "ERRORS FOUND" in report.summary()


class TestStrayBlocks:
    """A read file's blocks at or past the count its block 0 carries are
    orphans: what a shrink or an unlink left behind."""

    def test_blocks_past_the_count_are_the_orphans(self, populated, volume,
                                                   server):
        inode = populated.getattr("/docs/shared.txt").inode  # one block
        strays = [block_blob_id(inode, 2), block_blob_id(inode, 3)]
        for blob_id in strays:
            server.put(blob_id, b"stray ciphertext")
        report = VolumeAuditor(volume).audit()
        assert sorted(report.orphaned_blobs) == sorted(map(str, strays))
        assert report.clean  # orphans are waste, not corruption
        repaired = VolumeAuditor(volume).repair()
        assert sorted(repaired.reclaimed_blobs) == sorted(map(str, strays))
        audit = VolumeAuditor(volume).audit()
        assert audit.clean and audit.orphaned_blobs == []
        assert not set(strays) & set(server.raw_blobs())
        assert populated.read_file("/docs/shared.txt") == b"everyone"

    def test_a_healthy_file_and_symlink_report_none(self, alice_fs, volume,
                                                    server):
        alice_fs.create_file("/big", b"x" * (2 * volume.block_size + 100),
                             mode=0o644)
        alice_fs.symlink("/big", "/link")
        for path, count in (("/big", 3), ("/link", 1)):
            inode = alice_fs.lstat(path).inode
            assert sorted(blob_id for blob_id in server.raw_blobs()
                          if blob_id.inode == inode
                          and blob_id.selector.startswith("b")) == [
                block_blob_id(inode, index) for index in range(count)]
        report = VolumeAuditor(volume).audit()
        assert report.clean and report.orphaned_blobs == []

    def test_a_file_no_user_can_read_is_not_judged(self, alice_fs, volume,
                                                   server):
        alice_fs.create_file("/sealed", b"nobody reads", mode=0o600)
        alice_fs.chmod("/sealed", 0o000)
        inode = alice_fs.getattr("/sealed").inode
        server.put(block_blob_id(inode, 5), b"stray ciphertext")
        report = VolumeAuditor(volume).audit()
        assert report.orphaned_blobs == []
