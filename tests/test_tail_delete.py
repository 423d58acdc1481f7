"""A file's block tail leaves in one sub-op: ``delete_tail``.

A close does not rewrite metadata (paper Figure 8), so a stored block
count may be stale, and a second unleased writer may have extended the
file past what a handle loaded.  The blocks past the known end are
removed by one ``delete_tail`` sub-op riding the close's or the
unlink's own frame, not found by probing.  Pinned here, each case
against the stack that would strand blocks without it:

* a run of blocks past a stale count is gone after an unlink and after a
  shrinking close, plain and journaled+leased, and fsck is clean;
* a staged tail hides the blocks it covers from reads, in the one
  overlay under both its users: the write-behind queue and the journal
  batch;
* the resilient transport never serves a covered block from its
  degraded-read fallback;
* a crash at the tail sub-op replays to fully applied.
"""

from __future__ import annotations

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import BlobNotFound, ClientCrashed, TransientStorageError
from repro.fs import journal
from repro.fs.blobio import BlobIO
from repro.fs.cache import LruCache
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.principals.groups import GroupKeyService
from repro.storage.blobs import block_blob, block_index
from repro.storage.resilient import (FlakyServer, MutationTrigger,
                                     ResilientTransport, RetryPolicy,
                                     ServerWrapper, crash)
from repro.storage.server import (MUTATION_KINDS, TAIL_KINDS, BatchOp,
                                  StorageServer)
from repro.tools.fsck import VolumeAuditor

BLOCK = 1024

STACKS = {
    "plain": ClientConfig(),
    "journal_lease": ClientConfig(journal=True, lease=True,
                                  data_cache=False, concurrency=8),
}


def _format(server, registry) -> SharoesVolume:
    vol = SharoesVolume(server, registry, block_size=BLOCK)
    vol.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return vol


@pytest.fixture
def volume(server, registry):
    return _format(server, registry)


def _mount(volume, registry, user_id, config, server=None):
    fs = SharoesFilesystem(volume, registry.user(user_id), config=config,
                           server=server)
    fs.mount()
    return fs


def _stored(volume, inode: int) -> list[int]:
    """The indices of ``inode``'s blocks the SSP holds."""
    return sorted(index for index in (
        block_index(blob_id) for blob_id in volume.server.raw_blobs()
        if blob_id.inode == inode) if index is not None)


def _clean(volume) -> None:
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


def _stale(volume, registry, config, source: str):
    """alice's file /f of three blocks, and how its stored count went
    stale: ``close`` -- the metadata still says the create's 0;
    ``writer`` -- also, bob (unleased) extended it to five blocks after
    alice's handle loaded it (returned open, or None)."""
    alice = _mount(volume, registry, "alice", config)
    alice.create_file("/f", b"a" * (3 * BLOCK), mode=0o664)
    inode = alice.getattr("/f").inode
    handle = None
    if source == "writer":
        handle = alice.open("/f", "rw")
        assert handle.read() == b"a" * (3 * BLOCK)
        bob = _mount(volume, registry, "bob", ClientConfig())
        bob.append_file("/f", b"b" * (2 * BLOCK))
        assert _stored(volume, inode) == [0, 1, 2, 3, 4]
    return alice, inode, handle


@pytest.mark.parametrize("source", ["close", "writer"])
@pytest.mark.parametrize("stack", STACKS)
def test_unlink_removes_the_run_past_a_stale_count(volume, registry, stack,
                                                   source):
    alice, inode, handle = _stale(volume, registry, STACKS[stack], source)
    if handle is not None:
        handle.close()  # read-only use: sends nothing
    assert alice.getattr("/f").size == 0  # the create's metadata
    alice.unlink("/f")
    assert _stored(volume, inode) == []
    _clean(volume)


@pytest.mark.parametrize("source", ["close", "writer"])
@pytest.mark.parametrize("stack", STACKS)
def test_a_shrinking_close_removes_the_run_past_a_stale_count(
        volume, registry, stack, source):
    alice, inode, handle = _stale(volume, registry, STACKS[stack], source)
    if handle is None:
        # "w" never reads the stored end: only the metadata's 0.
        alice.write_file("/f", b"c" * BLOCK)
        expected = b"c" * BLOCK
    else:
        handle.truncate(BLOCK)  # the handle still believes in 3 blocks
        handle.close()
        expected = b"a" * BLOCK
    assert _stored(volume, inode) == [0]
    assert _mount(volume, registry, "bob", ClientConfig()).read_file(
        "/f") == expected
    _clean(volume)


# -- the read-your-writes overlays ---------------------------------------------


def _io(**kwargs):
    server = StorageServer()
    for index in range(4):
        server.put(block_blob(5, index), b"ssp%d" % index)
    server.put(block_blob(6, 2), b"other inode")
    io = BlobIO(server, LruCache(), tracer=Tracer(),
                metrics=MetricsRegistry(), **kwargs)
    return io, server


@pytest.mark.parametrize("overlay", ["write_behind_queue", "journal_batch"])
def test_a_staged_tail_hides_its_blocks(overlay):
    """The one overlay (``journal.StagedWrites``) under both its users:
    a put, a tail, a delete after it and a second tail below the first
    hide what they cover from reads, and ship as staged."""
    if overlay == "write_behind_queue":
        io, server = _io(window=8, write_behind=True)
    else:
        io, server = _io()
        io.batch = journal.MutationBatch("op")
    io.cache.put(("raw", block_blob(5, 3)), b"parked", 6)
    io.send([(block_blob(5, 0), b"new0"), (block_blob(5, 2), journal.TAIL),
             (block_blob(5, 3), None), (block_blob(5, 1), journal.TAIL)],
            grouped=True)
    staged = io.batch or io.scheduler.queue
    assert len(staged.blobs) == 4
    if io.scheduler is not None:
        assert io.scheduler.queue_depth == 4
    assert ("raw", block_blob(5, 3)) not in io.cache  # no stale slot
    gets = server.stats.gets
    assert io.get(block_blob(5, 0)) == b"new0"
    for index in (1, 2, 3):
        with pytest.raises(BlobNotFound):
            io.get(block_blob(5, index))
    assert server.stats.gets == gets  # the overlay answered
    assert io.get(block_blob(6, 2)) == b"other inode"
    io.send([(block_blob(5, 2), b"again")], grouped=True)
    assert io.get(block_blob(5, 2)) == b"again"  # a put after the tails
    with pytest.raises(BlobNotFound):
        io.get(block_blob(5, 1))  # still under the second tail
    ops = journal.write_ops(staged.blobs)
    assert [op.kind for op in ops] == [
        "put", "delete_tail", "delete", "delete_tail", "put"]
    if io.batch is not None:
        io.batch = None
        assert all(reply.ok for reply in io.exchange("apply", ops))
    else:
        io.flush()
        assert io.scheduler.queue_depth == 0
    assert sorted(server.raw_blobs()) == [
        block_blob(5, 0), block_blob(5, 2), block_blob(6, 2)]
    assert server.get(block_blob(5, 2)) == b"again"


# -- the degraded-read fallback -------------------------------------------------


@pytest.mark.parametrize("fenced", [False, True], ids=["plain", "fenced"])
def test_the_fallback_never_serves_a_block_a_tail_covered(fenced):
    flaky = FlakyServer(StorageServer(), failure_rate=0.0)
    transport = ResilientTransport(
        flaky, RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=False))
    for index in range(4):
        transport.put(block_blob(5, index), b"b%d" % index)
    transport.put(block_blob(6, 2), b"other inode")
    for index in range(4):
        transport.get(block_blob(5, index))  # fresh copies, cached
    tail = (BatchOp.delete_tail_fenced(block_blob(5, 2),
                                       block_blob(9, 0), 0)
            if fenced else BatchOp.delete_tail(block_blob(5, 2)))
    assert transport.batch([tail])[0].ok
    flaky.rates["get"] = 1.0  # every read now fails
    assert transport.get(block_blob(5, 1)) == b"b1"  # degraded, stale
    assert transport.get(block_blob(6, 2)) == b"other inode"
    for index in (2, 3):
        with pytest.raises(TransientStorageError):
            transport.get(block_blob(5, index))
    assert transport.degraded_reads == 2


# -- a crash at the tail -------------------------------------------------------


class Kinds(ServerWrapper):
    """Logs the kind of every op that reaches the store."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log: list[str] = []

    def _forward(self, op):
        self.log.append(op.kind)
        return op.call(self.inner)


def _unlink_with(volume, registry, actions) -> list[str]:
    """alice unlinks her three-block /f through a trigger armed with
    ``actions``; returns the kinds of the mutations that reached the
    store."""
    kinds = Kinds(volume.server)
    trigger = MutationTrigger(kinds)
    alice = _mount(volume, registry, "alice", STACKS["journal_lease"],
                   server=trigger)
    alice.create_file("/f", b"a" * (3 * BLOCK), mode=0o664)
    trigger.arm(actions)
    kinds.log.clear()
    alice.unlink("/f")
    return [kind for kind in kinds.log if kind in MUTATION_KINDS]


def test_a_crash_at_the_tail_replays_to_fully_applied(registry, volume):
    mutations = _unlink_with(volume, registry, {})
    # One mutation, however many blocks its run holds.
    assert sum(kind in TAIL_KINDS for kind in mutations) == 1
    k = next(i for i, kind in enumerate(mutations, 1) if kind in TAIL_KINDS)

    fresh = StorageServer()
    fresh_volume = _format(fresh, registry)
    with pytest.raises(ClientCrashed):
        _unlink_with(fresh_volume, registry, {k: crash})
    inode = max(blob_id.inode for blob_id in fresh.raw_blobs()
                if block_index(blob_id) is not None)
    assert _stored(fresh_volume, inode) == [0, 1, 2]  # the tail never ran
    survivor = _mount(fresh_volume, registry, "alice",
                      STACKS["journal_lease"])  # mount rolls it forward
    assert survivor.readdir("/") == []
    assert _stored(fresh_volume, inode) == []
    _clean(fresh_volume)
