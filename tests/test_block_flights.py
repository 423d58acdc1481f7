"""Block 0 rides the first flight.

A file's block 0 carries its block count, so a loader that must see the
count before it can name the other blocks pays two serialized waves.
The client remembers the count it last verified for each file (a block
0 load or its own close, dropped with the rest of the inode's cache
entries) and, with a scheduler, fetches block 0 together with the
blocks that count names: every block of a whole-file read, the last
block of an append.  This file pins, through the frame spy of
``test_mutation_frames``,

* a whole-file read whose count held is one fetch flight, and an append
  fetches block 0 and the last block in one;
* a count too small (a peer appended) costs the missing tail a second
  flight, and a count too large (a peer truncated) discards what was
  fetched past the real end -- a block planted there is never served,
  not even after the file grows back over its index;
* a client without a scheduler sends exactly the requests it sent
  before the count was remembered, in the same order.
"""

from __future__ import annotations

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume, block_blob_id
from repro.principals.groups import GroupKeyService
from repro.storage.server import StorageServer
from tests.test_mutation_frames import FrameTap

BLOCK = 512
SCHEDULED = ClientConfig(concurrency=8, data_cache=False)
SEQUENTIAL = ClientConfig(data_cache=False)


@pytest.fixture
def stack(registry):
    """(server, volume) with a group-writable ``/d``."""
    server = StorageServer()
    volume = SharoesVolume(server, registry, block_size=BLOCK)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    admin = SharoesFilesystem(volume, registry.user("alice"))
    admin.mount()
    admin.mkdir("/d", mode=0o775)
    return server, volume


def _mount(stack, registry, user_id, config=SCHEDULED):
    server, volume = stack
    tap = FrameTap(server)
    fs = SharoesFilesystem(volume, registry.user(user_id), config=config,
                           server=tap)
    fs.mount()
    return fs, tap


def _content(blocks: int, fill: bytes = b"x", tail: int = 100) -> bytes:
    return fill * (blocks * BLOCK + tail)


def _block_frames(tap: FrameTap) -> list[tuple[str, ...]]:
    """The frames that fetch ``F``'s blocks."""
    return [frame for frame in tap.take()
            if any(op.startswith("get data/F/b") for op in frame)]


def _gets(*indices: int) -> tuple[str, ...]:
    return tuple(f"get data/F/b{index}" for index in indices)


def _own_file(stack, registry, content: bytes, config=SCHEDULED):
    """alice's ``/d/f`` (inode F), created by her own close."""
    fs, tap = _mount(stack, registry, "alice", config)
    inode = fs.create_file("/d/f", content, mode=0o664).inode
    fs.flush_staged()  # write-behind: the file reaches the SSP
    tap.names = {inode: "F"}
    tap.take()
    return fs, tap, inode


def test_a_known_count_reads_the_whole_file_in_one_flight(stack, registry):
    content = _content(3)
    fs, tap, inode = _own_file(stack, registry, content)
    assert fs.mdcache.block_count(inode) == 4  # from her own close
    assert fs.read_file("/d/f") == content
    assert _block_frames(tap) == [_gets(0, 1, 2, 3)]
    with fs.open("/d/f") as handle:
        assert handle.read() == content
    assert _block_frames(tap) == [_gets(0, 1, 2, 3)]


def test_an_append_fetches_block_zero_and_the_last_block_together(
        stack, registry):
    content = _content(3)
    fs, tap, _ = _own_file(stack, registry, content)
    fs.append_file("/d/f", b"+" * 40)
    assert _block_frames(tap) == [_gets(0, 3)]
    assert fs.read_file("/d/f") == content + b"+" * 40


def test_a_count_too_small_fetches_only_the_missing_tail_again(
        stack, registry):
    """bob appended two blocks: alice's guess covered blocks 0 and 1."""
    content = _content(1)
    alice, tap, _ = _own_file(stack, registry, content)
    bob, _ = _mount(stack, registry, "bob")
    bob.append_file("/d/f", b"b" * (2 * BLOCK))
    bob.flush_staged()
    expected = content + b"b" * (2 * BLOCK)
    assert alice.read_file("/d/f") == expected
    assert _block_frames(tap) == [_gets(0, 1), _gets(2, 3)]


def test_a_count_too_large_never_serves_a_block_past_the_end(
        stack, registry):
    """bob cut the file to one block; the SSP keeps (or replays) the
    old block 2.  alice's guess fetches it; block 0's count rules it
    out, so it is dropped unread -- and when bob grows the file back
    over index 2, alice reads his block, not the planted one."""
    server, _ = stack
    alice, tap, inode = _own_file(stack, registry, _content(3))
    planted = server.get(block_blob_id(inode, 2))
    bob, _ = _mount(stack, registry, "bob")
    bob.write_file("/d/f", b"short")
    bob.flush_staged()
    server.put(block_blob_id(inode, 2), planted)
    assert alice.read_file("/d/f") == b"short"
    assert _block_frames(tap) == [_gets(0, 1, 2, 3)]
    assert alice.metrics.get("client.readahead.dropped").value == 1
    assert alice.mdcache.block_count(inode) == 1
    grown = b"short" + _content(3, b"g")
    bob.append_file("/d/f", grown[5:])
    bob.flush_staged()
    assert alice.read_file("/d/f") == grown
    assert _block_frames(tap) == [_gets(0), _gets(1, 2, 3)]


#: what the sequential loader sent for the script below before it
#: remembered counts: one request per block, block 0 first.
STREAM = ([_gets(index) for index in range(4)]      # alice reads
          + [_gets(index) for index in range(5)]    # after bob's append
          + [_gets(0)]                              # after bob's cut
          + [_gets(0), ("put data/F/b0",)]          # alice appends
          + [_gets(0)])                             # a handle's read()


def test_without_a_scheduler_the_request_stream_is_unchanged(
        stack, registry):
    """No flight to widen: every op sends the requests -- ids and order
    -- the loader sent before it remembered counts."""
    alice, tap, _ = _own_file(stack, registry, _content(3),
                              config=SEQUENTIAL)
    bob, _ = _mount(stack, registry, "bob", SEQUENTIAL)
    alice.read_file("/d/f")
    bob.append_file("/d/f", _content(1, b"b"))
    alice.read_file("/d/f")
    bob.write_file("/d/f", b"short")
    alice.read_file("/d/f")
    alice.append_file("/d/f", b"+" * 40)
    with alice.open("/d/f") as handle:
        handle.read()
    assert tap.take() == STREAM
