"""Pipelined request scheduling for one mounted client (PR 10).

The sequential client pays one full WAN round trip per wire frame, even
when consecutive frames are independent -- ``BENCH_9`` shows postmark
spending ~77% of its wall-clock in exactly those back-to-back RTTs.  A
real asynchronous client keeps a *window* of K requests in flight: their
latencies overlap while their payload bytes still serialize on the one
shared link (see :meth:`repro.sim.network.NetworkLink.flight_time` for
the honest math).

:class:`RequestScheduler` brings that window to the simulated client:

* **write-behind staging** -- independent mutations (plain puts,
  deletes and tail deletes; never fenced, CAS, journal or lease
  traffic) queue up to ``window`` sub-ops and ship together as one
  *wave*, charged ``ceil(N / window)`` RTTs plus full serialized
  transfer.  A
  read-your-writes **overlay** answers reads of staged blobs locally,
  so ordering is preserved: a mutation is never reordered past a read
  that depends on it, and queue order is FIFO per blob and per inode.
* **fetch flights** -- independent reads (the block tail of a multi-
  block file) ship in waves of ``window`` instead of one RTT each,
  with in-flight dedup (duplicate ids ride one fetch and every waiter
  gets the same bytes) and generation-based cancellation (a fetch that
  raced an invalidation is dropped, never served into a cache).

The scheduler deliberately stays below the client's crypto layer: it
sees sealed blobs only, so enabling it cannot change what bytes are
written -- just when they cross the wire.  The concurrent-vs-sequential
differential suite (tests/test_concurrency_differential.py) proves the
final SSP state byte-identical.

The scheduler keeps the queue (a :class:`~repro.fs.journal.StagedWrites`,
like the journal batch), dedup and generation cancellation -- nothing of
the wire.  It ships each flush or fetch flight through the owning
:class:`~repro.fs.blobio.BlobIO`, which opens its ``network`` span
(:meth:`~repro.fs.blobio.BlobIO.flight`), counts and prices each wave
as a flight of overlapped requests
(:meth:`~repro.fs.blobio.BlobIO.wave`) under the frame's stop rule
(:func:`~repro.storage.server.in_order`), and maps a failed flush by the
grouped send's rule (:meth:`~repro.fs.blobio.BlobIO.raise_failure`).

Ordering and flush rules (see docs/CONCURRENCY.md):

* staged blobs are flushed, in order, as soon as the queue reaches
  ``window`` sub-ops, or at any *barrier*: an explicit
  ``flush_staged()``, ``unmount()``, ``revalidate()`` (close-to-open
  visibility), consistency-log publishes, and before any frame that
  must order against the SSP (protocol frames, oversized groups);
* errors keep the single-op exception taxonomy, surfaced at flush time
  with the applied/failed/remaining contract of ``PartialWriteError``
  over the whole drained queue.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Callable, Iterable, Sequence

from ..errors import StorageError
from ..storage.blobs import BlobId
from ..storage.server import BatchOp, BatchReply, in_order
from . import journal


class RequestScheduler:
    """A window of K overlapped SSP requests for one client.

    Parameters
    ----------
    blobs:
        The owning :class:`~repro.fs.blobio.BlobIO`, which ships each
        wave (over the client's transport, possibly a
        ``ResilientTransport`` -- waves ride its ``batch`` partial-retry
        path, so flaky backends reconcile exactly like sequential runs).
    window:
        Requests kept in flight concurrently (the ``ClientConfig``
        ``concurrency`` knob); at least 2.
    write_behind:
        Allow mutation staging.  The owning client disables it when the
        intent journal is on -- journal append/apply/commit ordering is
        a durability contract the write-behind queue must not reorder --
        while fetch flights stay available.
    """

    def __init__(self, blobs, window: int, write_behind: bool = True):
        if window < 2:
            raise ValueError("scheduler window must be >= 2")
        self.blobs = blobs
        self.window = window
        self.write_behind = write_behind
        #: called once per inode whose staged writes a failed
        #: :meth:`flush` dropped; the owning client sets it to stop
        #: trusting what it cached of them.
        self.on_drop: Callable[[int], None] = lambda inode: None
        #: staged mutations in arrival order (puts, deletes and tail
        #: deletes) with their read-your-writes overlay; a fresh one
        #: when the queue drains.
        self.queue = journal.StagedWrites()
        #: bumped by the owning client's invalidations; a fetch flight
        #: that observes a bump mid-flight is stale and drops its
        #: results instead of serving them into any cache.
        self.generation = 0
        # counters (exported as the ``client.scheduler`` metrics source)
        self.staged_ops = 0
        self.overlay_reads = 0
        self.flushes = 0
        self.autoflushes = 0
        self.flush_waves = 0
        self.flushed_ops = 0
        self.fetch_flights = 0
        self.fetch_waves = 0
        self.fetched_ops = 0
        self.dedup_hits = 0
        self.stale_drops = 0
        self.max_queue = 0

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Pull-based metrics source (``client.scheduler.*``)."""
        return {
            "window": float(self.window),
            "queue_depth": float(self.queue_depth),
            "max_queue": float(self.max_queue),
            "staged_ops": float(self.staged_ops),
            "overlay_reads": float(self.overlay_reads),
            "flushes": float(self.flushes),
            "autoflushes": float(self.autoflushes),
            "flush_waves": float(self.flush_waves),
            "flushed_ops": float(self.flushed_ops),
            "fetch_flights": float(self.fetch_flights),
            "fetch_waves": float(self.fetch_waves),
            "fetched_ops": float(self.fetched_ops),
            "dedup_hits": float(self.dedup_hits),
            "stale_drops": float(self.stale_drops),
        }

    @property
    def queue_depth(self) -> int:
        return len(self.queue.blobs)

    # -- read-your-writes overlay -------------------------------------------

    def staged_read(self, blob_id: BlobId) -> tuple[bool, bytes | None]:
        """(covered, payload or None if deleted) from the queue's
        overlay.  Serving it locally is what keeps mutations ordered
        before their dependent reads without forcing a flush.
        """
        covered, payload = self.queue.read(blob_id)
        if covered:
            self.overlay_reads += 1
        return covered, payload

    def staged_exists(self, blob_id: BlobId) -> bool | None:
        """Tri-state existence: True/False if staged state decides it."""
        return self.queue.exists(blob_id)

    def covers(self, blob_id: BlobId) -> bool:
        """Queue holds staged state for this blob (no counter bump) --
        used by speculative paths to skip ids whose server copy would
        be stale the moment the queue flushes."""
        return self.staged_exists(blob_id) is not None

    def note_invalidation(self) -> None:
        """The client invalidated cached state (lease takeover, fresh
        lease, revalidation miss): any fetch currently in flight is
        stale and must not land in a cache."""
        self.generation += 1

    # -- write-behind staging ------------------------------------------------

    def stage_put(self, blob_id: BlobId, payload: bytes) -> None:
        self.stage_put_many([(blob_id, payload)])

    def stage_put_many(
            self, blobs: Sequence[tuple[BlobId, "bytes | None"]]) -> None:
        """Queue uploads (a ``None`` payload in the group: that blob's
        delete; :data:`journal.TAIL`: its tail delete); auto-flush once
        the window fills.

        The whole group is staged before the flush check so its sub-ops
        stay contiguous in queue order (a flush may still split a group
        across waves -- waves apply in order, so per-blob ordering
        holds regardless).
        """
        if not self.write_behind:
            raise StorageError("scheduler write-behind is disabled")
        self.queue.stage(blobs)
        self.staged_ops += len(blobs)
        self.max_queue = max(self.max_queue, self.queue_depth)
        self._maybe_autoflush()

    def stage_delete(self, blob_id: BlobId) -> None:
        self.stage_delete_many([blob_id])

    def stage_delete_many(self, blob_ids: Sequence[BlobId]) -> None:
        self.stage_put_many([(blob_id, None) for blob_id in blob_ids])

    def _maybe_autoflush(self) -> None:
        if self.queue_depth >= self.window:
            self.autoflushes += 1
            self.flush()

    # -- shipping ------------------------------------------------------------

    def flush(self) -> int:
        """Drain the staged queue in waves of ``window`` sub-ops.

        Each wave is one :meth:`BlobIO.wave` (window-many pipelined
        requests whose RTTs overlap); waves apply strictly in order, so
        the SSP observes the exact sequential mutation order.  Returns
        the number of sub-ops shipped.

        The first wave with a failed sub-op ends the flush, and the
        queue is gone: it raises what a grouped send of the whole
        drained queue would (:meth:`BlobIO.raise_failure` --
        ``PartialWriteError`` naming applied/failed/remaining, a
        transient cause keeping its retryable type).  The failed and
        remaining sub-ops (of this or of earlier, already returned
        client ops) never reached the SSP: each of their inodes is
        reported through ``on_drop`` before the error surfaces.
        """
        blobs, self.queue = self.queue.blobs, journal.StagedWrites()
        if not blobs:
            return 0
        self.flushes += 1
        ops = journal.write_ops(blobs)
        shipped = self.flushed_ops
        try:
            with self.blobs.flight("flush", len(ops)):
                self.blobs.raise_failure(blobs, in_order(
                    [ops[base:base + self.window]
                     for base in range(0, len(ops), self.window)],
                    self._flush_wave))
        finally:
            applied = self.flushed_ops - shipped
            for inode in {op.blob_id.inode for op in ops[applied:]}:
                self.on_drop(inode)
        return len(ops)

    def _flush_wave(self, ops: list[BatchOp]) -> list[BatchReply]:
        """Ship one wave of a flush; ``flushed_ops`` counts the sub-ops
        it applied (a wave the transport refuses whole applied none)."""
        self.flush_waves += 1
        replies = self.blobs.wave(ops)
        self.flushed_ops += len(list(takewhile(lambda reply: reply.ok,
                                               replies)))
        return replies

    # -- fetch flights -------------------------------------------------------

    def fetch_many(self, blob_ids: Iterable[BlobId]
                   ) -> dict[BlobId, bytes | None]:
        """Fetch independent blobs in waves of ``window`` requests.

        Returns ``{blob_id: payload}`` with ``None`` for absent blobs.
        Duplicate ids dedup onto a single in-flight fetch (every caller
        position still resolves -- one fetch's bytes answer all
        waiters); blobs with staged state are answered from the overlay
        without touching the wire.

        If an invalidation lands while the flight is in progress (the
        ``generation`` bump from :meth:`note_invalidation`), the
        results fetched so far are **dropped**, not returned: a stale
        speculative payload must never reach the caller's caches.  A
        storage error likewise voids the remainder silently -- callers
        treat a missing entry as "fetch it on demand".
        """
        results: dict[BlobId, bytes | None] = {}
        wanted: list[BlobId] = []
        seen: set[BlobId] = set()
        for blob_id in blob_ids:
            if blob_id in seen:
                self.dedup_hits += 1
                continue
            seen.add(blob_id)
            covered, payload = self.staged_read(blob_id)
            if covered:
                results[blob_id] = payload
                continue
            wanted.append(blob_id)
        if not wanted:
            return results
        generation = self.generation
        self.fetch_flights += 1
        fetched: dict[BlobId, bytes | None] = {}
        with self.blobs.flight("fetch_flight", len(wanted)):
            for base in range(0, len(wanted), self.window):
                wave = wanted[base:base + self.window]
                self.fetch_waves += 1
                try:
                    replies = self.blobs.wave(
                        [BatchOp.get(blob_id) for blob_id in wave])
                except StorageError:
                    break
                for blob_id, reply in zip(wave, replies):
                    if reply.ok and reply.payload is not None:
                        fetched[blob_id] = reply.payload
                        self.fetched_ops += 1
                    else:
                        fetched[blob_id] = None
        if self.generation != generation:
            # The flight raced an invalidation: everything it carried
            # is suspect.  Serve nothing; demand paths re-fetch fresh.
            self.stale_drops += len(fetched)
            return results
        results.update(fetched)
        return results
