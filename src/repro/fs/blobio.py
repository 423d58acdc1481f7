"""The client's one blob channel to the SSP.

The SSP only does ``put/get/delete`` on opaque blobs; everything about
*how* a sealed blob travels lives here, below the filesystem class,
which is left with paths, CAPs and keys:

* the **read-your-writes overlay** -- the active journal batch, then the
  write-behind queue (both a :class:`~repro.fs.journal.StagedWrites`),
  then the consume-once readahead slots -- consulted by every read and
  speculation through one walk;
* **mutation routing** -- one :meth:`BlobIO.send` decides whether a put,
  delete or tail delete is deferred into the journal batch, staged
  write-behind, or shipped now (as one ``OP_BATCH`` frame or as single
  ops);
* **the frame ledger** -- every frame is counted (``request_count``),
  spanned (``network``), priced and, failed, mapped to the single-op
  exception taxonomy here and nowhere else, the scheduler's flights
  (:meth:`BlobIO.flight`, :meth:`BlobIO.wave`) included;
* **protocol frames** -- :meth:`BlobIO.exchange` ships an ordered list of
  sub-ops as one counted, charged frame (:meth:`BlobIO.ship` splits a
  longer list only at the wire's sub-op cap; both keep the frame's one
  stop rule, :func:`~repro.storage.server.in_order`).  The journaled
  mutation is one of them -- lease head, intent, apply, commit, lease
  tail -- as are lease reads, CAS, batched renewal, intent replay,
  version statements and the grouped sends above.  Its apply puts name their
  payloads inside the intent, and a frame is charged what the codec
  sends (``wire.payload_bytes``);
* **the lease head** -- a lease CAS the mutation pipeline planned rides
  the head of the next frame sent here, whatever it carries (a get, a
  flight's first wave, a readahead, a protocol frame), with its fence
  check behind it; the lease manager books the head's replies, and a CAS
  that lost raises before anything behind it is handed out.

Stack, assembled once by ``SharoesFilesystem.__init__``::

    filesystem -> BlobIO (its RequestScheduler queues) -> ResilientTransport
               -> TracedServer -> wire / SSP
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterable, Sequence

from ..errors import (BlobNotFound, PartialWriteError, StaleEpochError,
                      StorageError, TransientPartialWriteError,
                      TransientStorageError)
from ..storage.blobs import BlobId, in_tail
from ..storage.server import BatchOp, BatchReply, execute, in_order
from ..storage.wire import MAX_BATCH_OPS, payload_bytes
from . import journal

#: simulated framing overhead of one wire exchange, charged on top of
#: the payload bytes (the only definition; the baselines and migration
#: price their frames with the same two numbers).
_REQUEST_HEADER_BYTES = 64
_RESPONSE_HEADER_BYTES = 16

#: explicit sub-op-count buckets for the ``client.batch.size`` histogram
#: (the default latency buckets top out below real batch sizes).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                       32.0, 48.0, 64.0, 128.0, 256.0, 1024.0)

#: hard cap on sub-ops per speculative readahead frame, mirroring the
#: wire protocol's MAX_BATCH_OPS so a huge directory cannot build an
#: unsendable frame.
_MAX_PREFETCH = 1024


class BlobIO:
    """Every object-blob exchange of one mounted client.

    Parameters
    ----------
    server:
        What the client talks to (the ``ResilientTransport`` when a
        retry policy is set).
    cache:
        The client's ``LruCache``: readahead parks sealed bytes in its
        ``("raw", blob_id)`` slots, under the same byte budget as the
        decrypted objects.  None (baselines) means no readahead slots.
    batching:
        Ship grouped sends as one ``OP_BATCH`` frame; False (tests only)
        is the one-round-trip-per-blob differential reference execution.
    window / write_behind:
        ``window >= 2`` attaches a ``RequestScheduler`` of that many
        overlapped requests; ``write_behind`` lets plain mutations
        stage in its queue (the client turns it off under the journal,
        whose append/apply/commit order is a durability contract).
    """

    def __init__(self, server, cache, *, tracer, metrics, cost=None,
                 batching: bool = True, window: int = 0,
                 write_behind: bool = False):
        self.server = server
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.cost = cost
        self.batching = batching
        #: SSP requests issued by this client (a batch counts once).
        self.request_count = 0
        #: of those, demand ``get`` frames: a path-walk step that moved
        #: this count missed the cache (readahead batches, flights and
        #: raw-slot reuse do not move it).
        self.get_frames = 0
        #: the active mutation's journal batch (None outside one): sends
        #: are deferred into it and reads see its staged state first.
        self.batch: journal.MutationBatch | None = None
        #: the client's lease manager (None unleased): the CASes it
        #: planned ride the head of the next frame (:meth:`_ride`).
        self.leases = None
        self.scheduler = None
        if window:
            from .scheduler import RequestScheduler
            self.scheduler = RequestScheduler(self, window,
                                              write_behind=write_behind)
            metrics.register_source(
                "client.scheduler", self.scheduler.snapshot,
                help="pipelined request scheduler: write-behind "
                     "staging, fetch flights, dedup and stale drops")

    # -- frame accounting ----------------------------------------------------

    def charge(self, up: int = 0, down: int = 0) -> None:
        """Bill one exchange: payload bytes plus the frame headers."""
        if self.cost is not None:
            self.cost.charge_request(up + _REQUEST_HEADER_BYTES,
                                     down + _RESPONSE_HEADER_BYTES)

    def _count(self, op: str, count: int | None = None) -> None:
        """Count one frame (``count``: the sub-ops of an ``OP_BATCH``)."""
        self.request_count += 1
        if op == "get":
            self.get_frames += 1
        if count is not None:
            self.metrics.histogram(
                "client.batch.size", help="sub-ops per OP_BATCH frame",
                buckets=_BATCH_SIZE_BUCKETS).observe(float(count))

    @contextmanager
    def frame(self, op: str, **attrs):
        """One counted wire exchange inside its ``network`` span.

        ``count=N`` marks an ``OP_BATCH`` frame of N sub-ops.  The body
        calls :meth:`charge` itself: single ops charge before the call,
        batches after it (only what the replies show crossed the wire).
        """
        self._count(op, attrs.get("count"))
        with self.tracer.span("network", op=op, **attrs):
            yield

    def exchange(self, label: str,
                 ops: Sequence[BatchOp]) -> list[BatchReply]:
        """One protocol frame: ordered sub-ops out, a reply per sub-op.

        Sub-ops apply in order under the frame's stop rule
        (:func:`~repro.storage.server.in_order`); ``missing`` and
        ``conflict`` are answers the caller reads.  The
        frame is counted once, inside one ``network`` span, and charged
        what the replies show crossed: the attempted sub-ops' bytes up,
        the returned payloads down.  With ``batching=False`` every
        sub-op is its own counted round trip under the same stop rule.
        """
        self.flush()  # a direct frame orders after everything staged
        return self._ridden(self._ride(), ops, functools.partial(
            self._framed, label))

    def _framed(self, label: str, sent: list[BatchOp]) -> list[BatchReply]:
        """``sent`` as one counted, charged frame (unbatched: a round
        trip per sub-op)."""
        if not self.batching:
            return in_order(sent, self._exchange_one)
        with self.frame(label, count=len(sent)):
            replies = self.server.batch(sent)
            self._charge_replies(sent, replies)
        return replies

    # -- the lease head --------------------------------------------------------

    def _ride(self):
        """Take the lease CASes planned for the next frame's head (None:
        none)."""
        return self.leases.ride() if self.leases is not None else None

    def _ridden(self, plan, ops: Sequence[BatchOp], send):
        """Send ``ops`` as one frame behind ``plan``'s lease head (None:
        none); the replies to ``ops``.

        ``send(sent)`` ships and prices the frame; refused, it raises or
        returns None (handed back).  A frame that fails whole plans the
        head's CASes again, for the next frame.  Else the lease manager
        books the head's replies: a CAS that lost raises, and nothing
        the frame read behind it is handed out.
        """
        if plan is None:
            return send(list(ops))
        replies = None
        try:
            replies = send(plan.ops + list(ops))
        finally:
            if replies is None:
                self.leases.unride(plan)
        if replies is None:
            return None
        self.leases.settle(plan, replies)
        return replies[len(plan.ops):]

    def _exchange_one(self, op: BatchOp) -> BatchReply:
        """One sub-op as its own counted, charged round trip."""
        with self.frame(op.kind, kind=op.blob_id.kind):
            reply = execute(self.server, op)
            self._charge_replies((op,), (reply,))
        return reply

    def ship(self, label: str,
             ops: Sequence[BatchOp]) -> list[BatchReply]:
        """One logical frame: :meth:`exchange` frames of at most the
        wire's ``MAX_BATCH_OPS`` sub-ops, in order.

        Only the first part raises: a later part's storage
        failure reads as an ``error`` at its first sub-op, so the caller
        still sees what the earlier parts applied.
        """
        parts = [list(ops[start:start + MAX_BATCH_OPS])
                 for start in range(0, len(ops), MAX_BATCH_OPS)]

        def send(part: list[BatchOp]) -> list[BatchReply]:
            try:
                return self.exchange(label, part)
            except StorageError as exc:
                if part is parts[0]:
                    raise
                return [BatchReply(
                    "error", message=str(exc),
                    transient=isinstance(exc, TransientStorageError))
                ] + [BatchReply("unattempted")] * (len(part) - 1)

        return in_order(parts, send)

    def flight(self, label: str, count: int):
        """The one ``network`` span of a scheduler flush or fetch flight
        of ``count`` sub-ops; its waves (:meth:`wave`) ship inside it."""
        return self.tracer.span("network", op=label, count=count,
                                window=self.scheduler.window)

    def wave(self, ops: Sequence[BatchOp]) -> list[BatchReply]:
        """One wave of the scheduler's window: ``ops`` as overlapped
        requests, inside the open :meth:`flight`.

        Counted once, like any frame, but priced as a flight
        (``cost.charge_flight``): every attempted sub-op is its own
        pipelined request -- a header and its bytes up, a header and any
        payload down -- whose RTTs overlap within the window while the
        bytes serialize.  A wave the transport refuses raises: a write
        wave unpriced, as a refused :meth:`exchange`; a read wave at its
        headers, as a refused :meth:`prefetch`.
        """
        def send(sent: list[BatchOp]) -> list[BatchReply]:
            self._count("wave", len(sent))
            try:
                replies = self.server.batch(sent)
            except StorageError:
                if ops[0].kind == "get":
                    self._charge_wave(sent,
                                      [BatchReply("error")] * len(sent))
                raise
            self._charge_wave(sent, replies)
            return replies

        return self._ridden(self._ride(), ops, send)

    def _charge_wave(self, ops, replies) -> None:
        if self.cost is not None:
            self.cost.charge_flight(
                [(op.sent_bytes() + _REQUEST_HEADER_BYTES,
                  len(reply.payload or b"") + _RESPONSE_HEADER_BYTES)
                 for op, reply in zip(ops, replies)
                 if reply.status != "unattempted"],
                parallel=self.scheduler.window)

    def _charge_replies(self, ops, replies) -> None:
        # One request header for the frame (blob ids ride in its
        # payload), and only what crossed the wire: on a partial failure
        # the unattempted tail never left the client, and a payload sent
        # as a reference costs the reference.
        self.charge(
            up=sum(sent + len(op.expected or b"")
                   for op, sent, reply in zip(ops, payload_bytes(ops),
                                              replies)
                   if reply.status != "unattempted"),
            down=sum(len(reply.payload) for reply in replies
                     if reply.payload))

    # -- read-your-writes overlay ---------------------------------------------

    def _staged(self, blob_id: BlobId,
                speculative: bool = False) -> tuple[bool, "bytes | None"]:
        """(covered, payload or None if deleted) from the journal batch,
        then the queue.

        Staged state is newer than both the SSP copy and any raw slot;
        serving it locally is what keeps a mutation ordered before its
        dependent reads.  ``speculative`` asks only whether it is
        covered, without an overlay-read counter bump.
        """
        if self.batch is not None:
            hit = self.batch.read(blob_id)
            if hit[0]:
                return hit
        if self.scheduler is None:
            return False, None
        if speculative:
            return self.scheduler.covers(blob_id), None
        return self.scheduler.staged_read(blob_id)

    def get(self, blob_id: BlobId) -> bytes:
        covered, payload = self._staged(blob_id)
        if covered:
            if payload is None:
                raise BlobNotFound(str(blob_id))
            return payload
        if self.cache is not None:
            raw = self.cache.get(("raw", blob_id))
            if raw is not None:
                # Speculatively fetched by an earlier readahead frame
                # (already paid for there).  Single-shot: the buffered
                # bytes are only as fresh as that fetch, so consume them
                # once and let any re-read go back to the SSP.
                self.cache.invalidate(("raw", blob_id))
                self.metrics.counter(
                    "client.readahead.hits",
                    help="gets served from the speculative read "
                         "buffer").inc()
                return raw
        plan = self._ride()
        if plan is not None:
            reply, = self._ridden(plan, [BatchOp.get(blob_id)],
                                  functools.partial(self._framed, "get"))
            if reply.status == "missing":
                raise BlobNotFound(str(blob_id))
            reply.raise_for_status()
            return reply.payload
        with self.frame("get", kind=blob_id.kind):
            try:
                payload = self.server.get(blob_id)
            except BlobNotFound:
                self.charge()
                raise
            self.charge(down=len(payload))
            return payload

    # -- mutations -----------------------------------------------------------

    def flush(self) -> int:
        """Ship every staged write-behind mutation; sub-ops shipped."""
        return self.scheduler.flush() if self.scheduler is not None else 0

    def send(self, blobs: Sequence[tuple[BlobId, "bytes | None"]], *,
             grouped: bool) -> None:
        """Upload (payload), delete (``None``) or delete the block tail
        from (:data:`journal.TAIL`) blobs.

        ``grouped`` sends are one request: the paper's Figure 8 prices a
        create as one "metadata send" and one "parent-dir send" however
        many CAP replicas ride along (the per-CAP multiplier applies to
        the crypto column, not the network column).  Its sub-ops apply
        in order, and a group of puts may end in deletes (a table fold's
        old bases); it is a ``put_many`` all the same.  Ungrouped blobs
        are one wire call each.
        """
        if not blobs:
            return
        if not grouped and len(blobs) > 1:
            for blob in blobs:
                self.send((blob,), grouped=False)
            return
        deleting = not isinstance(blobs[0][1], bytes)
        if self.cache is not None:
            for blob_id, payload in blobs:
                if payload is journal.TAIL:
                    self.cache.invalidate_prefix(
                        ("raw",), where=lambda key: in_tail(blob_id, key[1]))
                else:
                    self.cache.invalidate(("raw", blob_id))
        if self.batch is not None:
            self.batch.stage(blobs)
            return
        scheduler = self.scheduler
        if (scheduler is not None and scheduler.write_behind
                and len(blobs) <= scheduler.window):
            # Small independent groups ride the write-behind queue and
            # merge with neighbouring ops into shared RTT waves.  A
            # group larger than the window would *lose* by staging (its
            # single OP_BATCH frame costs one RTT; waves cost several),
            # so it flushes the queue and ships the classic way.
            scheduler.stage_put_many(blobs)
            return
        ops = journal.write_ops(blobs)
        if not (grouped and self.batching):
            # A direct write must order after everything staged.
            self.flush()
            for op in ops:
                self._send_one(op)
            return
        self.raise_failure(blobs, self.exchange(
            "delete_many" if deleting else "put_many", ops))

    def raise_failure(self, blobs, replies) -> None:
        """Raise what the first failed reply to the
        :func:`journal.write_ops` of ``blobs`` means: the one rule for a
        grouped send, a journaled apply and a write-behind flush."""
        for index, reply in enumerate(replies):
            if reply.status == "ok":
                continue
            if not isinstance(blobs[index][1], bytes):
                # Deletes never wrapped errors in PartialWriteError;
                # re-raise each sub-op failure as the single-op
                # exception (fenced -> StaleEpochError, and so on).
                reply.raise_for_status()
                continue
            self._raise_put_failure(blobs, index, reply)

    def _send_one(self, op: BatchOp) -> None:
        with self.frame(op.kind, kind=op.blob_id.kind):
            self.charge(up=op.sent_bytes())
            op.call(self.server)

    def _raise_put_failure(self, blobs, index: int, reply) -> None:
        blob_id = blobs[index][0]
        if reply.status == "fenced":
            # A fenced-out write is not a half-applied batch to retry:
            # the lease moved on.  Surface it untouched so the mutation
            # pipeline converts it to LeaseLostError.
            raise StaleEpochError(
                f"batched upload fenced out at {blob_id}",
                current_epoch=reply.epoch or 0)
        # Surface the exact shape of the half-applied batch instead of
        # a bare StorageError; transient causes keep their
        # retry-eligible type.
        self.metrics.counter(
            "transport.partial_writes",
            help="batched uploads that failed part-way").inc()
        cls = (TransientPartialWriteError if reply.transient
               else PartialWriteError)
        raise cls(
            f"batched upload failed at {blob_id} "
            f"({index}/{len(blobs)} blobs applied): {reply.message}",
            applied=[bid for bid, _ in blobs[:index]],
            failed=blob_id,
            remaining=[bid for bid, _ in blobs[index + 1:]])

    # -- speculation ---------------------------------------------------------

    def _cold(self, blob_ids: Iterable[BlobId]) -> list[BlobId]:
        """The ids worth a speculative fetch (none if fewer than two).

        Skips blobs already parked in a raw slot and blobs with staged
        state: that is newer than the SSP copy, so fetching the server
        bytes now would plant a stale raw slot that outlives the flush
        (the overlay serves these reads).
        """
        wanted = [blob_id for blob_id in blob_ids
                  if self.cache.get(("raw", blob_id)) is None
                  and not self._staged(blob_id, speculative=True)[0]]
        if len(wanted) < 2:
            return []  # nothing to amortize: the demand path pays 1 RTT
        return wanted[:_MAX_PREFETCH]

    def _park(self, blob_id: BlobId, payload: bytes) -> None:
        self.cache.put(("raw", blob_id), payload, len(payload))
        self.metrics.counter(
            "client.readahead.prefetched",
            help="blobs fetched speculatively").inc()

    def discard(self, blob_ids: Iterable[BlobId]) -> None:
        """Drop the parked bytes of speculated blobs their load ruled
        out unread: a slot that outlived the load could serve a stale
        copy to a later one."""
        for blob_id in blob_ids:
            if ("raw", blob_id) in self.cache:
                self.cache.invalidate(("raw", blob_id))
                self.metrics.counter(
                    "client.readahead.dropped",
                    help="speculated blobs discarded unread").inc()

    def prefetch(self, blob_ids: Iterable[BlobId]) -> None:
        """Speculatively fetch blobs in one ``OP_BATCH`` round trip.

        Fetched bytes land in the ``("raw", blob_id)`` slots and are
        consumed (once) by the next :meth:`get` of that blob.  A cold or
        already-deleted candidate answers as a per-sub-op miss, which
        costs nothing beyond its id on the wire; a storage error voids
        the whole speculation silently -- the demand path re-fetches
        with its own non-speculative error semantics.
        """
        wanted = self._cold(blob_ids)
        if not wanted:
            return
        def send(sent: list[BatchOp]) -> list[BatchReply] | None:
            with self.frame("get_many", count=len(sent)):
                try:
                    replies = self.server.batch(sent)
                except StorageError:
                    self.charge()
                    return None
                self._charge_replies(sent, replies)
            return replies

        replies = self._ridden(self._ride(), [BatchOp.get(blob_id)
                                              for blob_id in wanted], send)
        for blob_id, reply in zip(wanted, replies or ()):
            if reply.status == "ok" and reply.payload is not None:
                self._park(blob_id, reply.payload)

    def fetch_tail(self, blob_ids: Iterable[BlobId]) -> None:
        """Overlap independent reads as one scheduler flight.

        Waves of ``window`` requests share RTTs (each a :meth:`wave`);
        the sealed bytes park in the raw slots the sequential loop's
        :meth:`get` drains -- same bytes, same verification, fewer
        serialized round trips.  A missing blob
        stays unfetched and the demand path surfaces the usual error.
        A no-op without a scheduler.
        """
        if self.scheduler is None:
            return
        wanted = self._cold(blob_ids)
        if not wanted:
            return
        for blob_id, payload in self.scheduler.fetch_many(wanted).items():
            if payload is not None:
                self._park(blob_id, payload)
