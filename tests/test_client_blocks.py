"""Block-level file layout: partial updates re-encrypt only touched blocks
(paper section II-B: 'larger files are divided into multiple blocks and
each block is encrypted separately... accommodates updates efficiently').
"""

import pytest

from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume, block_blob_id
from repro.principals.groups import GroupKeyService
from repro.crypto.provider import CryptoProvider

BLOCK = 1024  # small blocks so tests exercise multi-block files cheaply


@pytest.fixture
def small_block_volume(server, registry):
    vol = SharoesVolume(server, registry, block_size=BLOCK)
    vol.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return vol


@pytest.fixture
def fs(small_block_volume, registry):
    client = SharoesFilesystem(small_block_volume, registry.user("alice"))
    client.mount()
    return client


class TestBlockLayout:
    def test_multiblock_roundtrip(self, fs):
        content = bytes(range(256)) * 20  # 5120 B = 5 blocks
        fs.create_file("/big", content)
        fs.cache.clear()
        assert fs.read_file("/big") == content

    def test_block_count_on_server(self, fs, server):
        fs.create_file("/big", b"z" * (BLOCK * 3 + 1))
        inode = fs.getattr("/big").inode
        assert server.exists(block_blob_id(inode, 3))
        assert not server.exists(block_blob_id(inode, 4))

    def test_exact_block_boundary(self, fs):
        content = b"q" * (BLOCK * 2)
        fs.create_file("/b", content)
        fs.cache.clear()
        assert fs.read_file("/b") == content

    def test_single_byte_file(self, fs):
        fs.create_file("/tiny", b"x")
        fs.cache.clear()
        assert fs.read_file("/tiny") == b"x"

    def test_empty_after_shrink_to_zero(self, fs, server):
        fs.create_file("/f", b"z" * (BLOCK * 2))
        inode = fs.getattr("/f").inode
        fs.write_file("/f", b"")
        assert not server.exists(block_blob_id(inode, 0))
        fs.cache.clear()
        assert fs.read_file("/f") == b""


class TestPartialUpdates:
    def test_middle_block_update_touches_one_blob(self, fs, server):
        content = bytearray(b"a" * (BLOCK * 5))
        fs.create_file("/big", bytes(content))
        server.stats.reset()
        with fs.open("/big", "rw") as handle:
            handle.pwrite(b"XYZ", BLOCK * 2 + 7)  # inside block 2
        assert server.stats.puts == 1
        assert server.stats.puts_by_kind == {"data": 1}
        fs.cache.clear()
        expected = bytes(content[:BLOCK * 2 + 7]) + b"XYZ" + bytes(
            content[BLOCK * 2 + 10:])
        assert fs.read_file("/big") == expected

    def test_first_block_update(self, fs, server):
        fs.create_file("/big", b"a" * (BLOCK * 3))
        server.stats.reset()
        with fs.open("/big", "rw") as handle:
            handle.pwrite(b"HEAD", 0)
        assert server.stats.puts == 1

    def test_append_writes_tail_and_block0(self, fs, server):
        """Appending grows the count, which lives in block 0."""
        fs.create_file("/big", b"a" * (BLOCK * 3))
        server.stats.reset()
        with fs.open("/big", "a") as handle:
            handle.write(b"tail")
        # block 0 (count) + block 3 (new tail) = 2 blobs
        assert server.stats.puts_by_kind["data"] == 2
        fs.cache.clear()
        assert fs.read_file("/big") == b"a" * (BLOCK * 3) + b"tail"

    def test_append_within_last_block(self, fs, server):
        """Append that doesn't grow the block count: block 0 + last."""
        fs.create_file("/f", b"a" * (BLOCK + 10))
        server.stats.reset()
        with fs.open("/f", "a") as handle:
            handle.write(b"b")
        assert server.stats.puts_by_kind["data"] <= 2
        fs.cache.clear()
        assert fs.read_file("/f") == b"a" * (BLOCK + 10) + b"b"

    def test_shrink_deletes_tail_blocks(self, fs, server):
        fs.create_file("/f", b"a" * (BLOCK * 5))
        inode = fs.getattr("/f").inode
        fs.write_file("/f", b"b" * (BLOCK * 2))
        assert server.exists(block_blob_id(inode, 1))
        assert not server.exists(block_blob_id(inode, 2))
        assert not server.exists(block_blob_id(inode, 4))
        fs.cache.clear()
        assert fs.read_file("/f") == b"b" * (BLOCK * 2)

    def test_rewrite_identical_content_uploads_nothing(self, fs, server):
        content = b"stable" * 300
        fs.create_file("/f", content)
        server.stats.reset()
        with fs.open("/f", "rw") as handle:
            handle.pwrite(content, 0)
        assert server.stats.puts == 0

    def test_unchanged_blocks_skipped_on_big_rewrite(self, fs, server):
        blocks = [bytes([i]) * BLOCK for i in range(6)]
        fs.create_file("/f", b"".join(blocks))
        server.stats.reset()
        blocks[4] = b"\xff" * BLOCK
        with fs.open("/f", "rw") as handle:
            handle.pwrite(b"".join(blocks), 0)
        assert server.stats.puts_by_kind["data"] == 1


class TestBlockCaching:
    def test_read_after_write_hits_cache(self, fs, server):
        fs.create_file("/f", b"cached" * 100)
        server.stats.reset()
        assert fs.read_file("/f") == b"cached" * 100
        assert server.stats.gets_by_kind.get("data", 0) == 0

    def test_cold_read_fetches_all_blocks(self, fs, server):
        fs.create_file("/f", b"y" * (BLOCK * 3))
        fs.cache.clear()
        server.stats.reset()
        fs.read_file("/f")
        # 3 data blocks + the root directory table (tables are directory
        # *data* blocks, hence the same blob kind).
        assert server.stats.gets_by_kind["data"] == 4

    @pytest.mark.parametrize("warm", [True, False])
    def test_one_cache_lookup_per_block_per_load(self, small_block_volume,
                                                 registry, warm):
        """With a scheduler mounted the loader asks which tail blocks are
        cold before the flight; that probe used to be a second counted
        ``get_block`` per block, so ``cache.hit_rate`` read high."""
        fs = SharoesFilesystem(small_block_volume, registry.user("alice"),
                               config=ClientConfig(concurrency=8))
        fs.mount()
        fs.create_file("/f", b"y" * (BLOCK * 5))  # written through
        if not warm:
            fs.flush_staged()
            fs.cache.clear()
        looked_up = []
        real = fs.mdcache.get_block
        fs.mdcache.get_block = lambda inode, index: (
            looked_up.append(index) or real(inode, index))
        assert fs.read_file("/f") == b"y" * (BLOCK * 5)
        assert looked_up == [0, 1, 2, 3, 4]
        # ...and a partial load looks up what it touches, nothing more.
        del looked_up[:]
        with fs.open("/f", "r") as handle:
            assert handle.read(2, offset=BLOCK * 3 - 1) == b"yy"
        assert looked_up == [0, 2, 3]
