"""The SSP data-serving component.

Per the paper (section IV): "There is no computation involved on the data
at the SSP and it simply maintains a large hashtable for encrypted metadata
objects and encrypted data blocks."  The server therefore exposes nothing
but put/get/delete/list on opaque byte strings keyed by
:class:`~repro.storage.blobs.BlobId`, plus one ranged delete: the run of
a file's blocks from one on (``delete_tail``), which it finds by id
alone.

The server is *untrusted*: it stores whatever bytes arrive and returns
them verbatim.  Confidentiality and integrity live entirely in the client
(encryption before upload, signature verification after download).  The
test suite includes an "honest-but-curious audit" that scans everything a
server has ever stored for plaintext leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import (BlobNotFound, CasConflictError, StaleEpochError,
                      StorageError, TransientStorageError)
from .accounting import ServerStats
from .blobs import BlobId, block_blob, block_index

#: Width of the plaintext big-endian epoch prefix on fence (lease) blobs.
EPOCH_PREFIX_BYTES = 8


def fence_epoch(raw: bytes | None) -> int:
    """Mechanically read the epoch prefix of a fence blob.

    The SSP performs no crypto: the first 8 bytes of a lease blob are a
    plaintext big-endian fencing epoch, put there exactly so an untrusted
    store can enforce "no writes below the current epoch" without keys.
    An absent or short blob reads as epoch 0 (fail open: no lease, no
    fencing).
    """
    if raw is None or len(raw) < EPOCH_PREFIX_BYTES:
        return 0
    return int.from_bytes(raw[:EPOCH_PREFIX_BYTES], "big")


#: Each sub-op kind's fields in wire order: the one statement of its
#: shape, which the wire codec and the kind sets below read.
SUB_FIELDS = {
    "put": ("blob_id", "payload"),
    "get": ("blob_id",),
    "delete": ("blob_id",),
    "exists": ("blob_id",),
    "put_if": ("blob_id", "expected", "payload"),
    "put_fenced": ("blob_id", "fence", "epoch", "payload"),
    "delete_fenced": ("blob_id", "fence", "epoch"),
    "delete_tail": ("blob_id",),
    "delete_tail_fenced": ("blob_id", "fence", "epoch"),
}

#: Sub-operation kinds a batch frame may carry (no nested batches).
BATCH_KINDS = tuple(SUB_FIELDS)

#: The kinds that only read.
READ_KINDS = frozenset({"get", "exists"})
#: The kinds that change SSP state.  Crash, pause and mid-run rebalance
#: injectors all count exactly this set, so their sweeps share one k.
MUTATION_KINDS = frozenset(BATCH_KINDS) - READ_KINDS
#: The kinds that store a payload.
PUT_KINDS = frozenset(k for k, f in SUB_FIELDS.items() if "payload" in f)
#: The kinds that delete what they name (a tail: and the run after it).
DELETE_KINDS = MUTATION_KINDS - PUT_KINDS
#: The kinds checked against a fence blob's epoch.
FENCED_KINDS = frozenset(k for k, f in SUB_FIELDS.items() if "fence" in f)
#: The kinds that delete a run of blocks (:meth:`StorageServer.delete_tail`).
TAIL_KINDS = frozenset({"delete_tail", "delete_tail_fenced"})

#: Sub-reply statuses.  ``unattempted`` marks the tail after the batch
#: stopped at a failed or fenced sub-op -- those ops never reached the
#: store and are safe to re-send verbatim.
REPLY_STATUSES = ("ok", "missing", "conflict", "fenced", "error",
                  "unattempted")
#: The statuses that stop a frame (:func:`in_order`).
STOPS = frozenset({"fenced", "error"})


@dataclass(frozen=True)
class BatchOp:
    """One storage request as a value.

    The one request value of the storage stack: a sub-operation inside
    an ``OP_BATCH`` frame, and what every decorator's ``_forward`` hook
    receives for a single named-method call (see :class:`OpMethods`).
    """

    kind: str
    blob_id: BlobId
    payload: bytes | None = None
    expected: bytes | None = None  # put_if only
    fence: BlobId | None = None    # fenced ops only
    epoch: int | None = None       # fenced ops only
    #: Put kinds only, a hint to the wire codec: the payload sits
    #: verbatim inside the payload of the nearest earlier put of blob
    #: ``ref`` in the same frame, so it may be sent as a reference to
    #: that slice (``wire.payload_refs``).  Every other layer ignores it.
    ref: BlobId | None = None

    @classmethod
    def put(cls, blob_id: BlobId, payload: bytes,
            ref: BlobId | None = None) -> "BatchOp":
        return cls("put", blob_id, payload=payload, ref=ref)

    @classmethod
    def get(cls, blob_id: BlobId) -> "BatchOp":
        return cls("get", blob_id)

    @classmethod
    def delete(cls, blob_id: BlobId) -> "BatchOp":
        return cls("delete", blob_id)

    @classmethod
    def exists(cls, blob_id: BlobId) -> "BatchOp":
        return cls("exists", blob_id)

    @classmethod
    def put_if(cls, blob_id: BlobId, payload: bytes,
               expected: bytes | None) -> "BatchOp":
        return cls("put_if", blob_id, payload=payload, expected=expected)

    @classmethod
    def put_fenced(cls, blob_id: BlobId, payload: bytes,
                   fence: BlobId, epoch: int,
                   ref: BlobId | None = None) -> "BatchOp":
        return cls("put_fenced", blob_id, payload=payload,
                   fence=fence, epoch=epoch, ref=ref)

    @classmethod
    def delete_fenced(cls, blob_id: BlobId,
                      fence: BlobId, epoch: int) -> "BatchOp":
        return cls("delete_fenced", blob_id, fence=fence, epoch=epoch)

    @classmethod
    def delete_tail(cls, blob_id: BlobId) -> "BatchOp":
        return cls("delete_tail", blob_id)

    @classmethod
    def delete_tail_fenced(cls, blob_id: BlobId,
                           fence: BlobId, epoch: int) -> "BatchOp":
        return cls("delete_tail_fenced", blob_id, fence=fence, epoch=epoch)

    def sent_bytes(self) -> int:
        """Uplink payload bytes this sub-op carries inline (for cost
        parity; ``wire.payload_bytes`` prices a frame's references)."""
        return len(self.payload) if self.payload is not None else 0

    def call(self, server):
        """Invoke this op as ``server``'s named method; return its result.

        The only place a kind becomes a method call.  Layers forward
        with ``op.call(self.inner)``, so the named methods stay the
        protocol *between* layers and a subclass that overrides one of
        them is still honoured by the layer above.
        """
        kind = self.kind
        if kind == "put":
            return server.put(self.blob_id, self.payload or b"")
        if kind == "get":
            return server.get(self.blob_id)
        if kind == "delete":
            return server.delete(self.blob_id)
        if kind == "exists":
            return server.exists(self.blob_id)
        if kind == "put_if":
            return server.put_if(self.blob_id, self.payload or b"",
                                 self.expected)
        if kind == "put_fenced":
            return server.put_fenced(self.blob_id, self.payload or b"",
                                     self.fence, self.epoch or 0)
        if kind == "delete_fenced":
            return server.delete_fenced(self.blob_id, self.fence,
                                        self.epoch or 0)
        if kind == "delete_tail":
            return server.delete_tail(self.blob_id)
        if kind == "delete_tail_fenced":
            return server.delete_tail_fenced(self.blob_id, self.fence,
                                             self.epoch or 0)
        raise StorageError(f"unknown batch sub-op kind {kind!r}")


@dataclass
class BatchReply:
    """Per-sub-op outcome of a batch.

    ``missing`` (get of an absent blob) and ``conflict`` (put_if lost the
    CAS; ``payload`` carries the current bytes, None = absent) are
    *terminal per-sub-op* outcomes: the batch keeps going.  ``fenced``
    and ``error`` stop the batch -- everything after them is
    ``unattempted``.
    """

    status: str
    payload: bytes | None = None  # get result / conflict current bytes
    epoch: int | None = None      # fenced: the store's current epoch
    message: str = ""             # error: human-readable cause
    transient: bool = False       # error: retryable per the taxonomy

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> None:
        """Re-raise this reply as the exception a single op would raise."""
        if self.status in ("ok", "unattempted"):
            return
        if self.status == "missing":
            raise BlobNotFound("batched get: blob missing")
        if self.status == "conflict":
            raise CasConflictError("batched cas conflict",
                                   current=self.payload)
        if self.status == "fenced":
            raise StaleEpochError("batched fenced write rejected",
                                  current_epoch=self.epoch or 0)
        if self.transient:
            raise TransientStorageError(self.message or "batched op failed")
        raise StorageError(self.message or "batched op failed")


def ok_reply(op: BatchOp, result) -> BatchReply:
    """The ``ok`` reply carrying a named method's return value."""
    if op.kind == "exists":
        result = b"\x01" if result else b"\x00"
    return BatchReply("ok", payload=result)


def reply_value(op: BatchOp, reply: BatchReply):
    """What the named method returns for an ``ok`` reply (the inverse of
    :func:`ok_reply`): a mutation returns None, whatever its payload."""
    if op.kind == "exists":
        return reply.payload == b"\x01"
    return reply.payload if op.kind == "get" else None


def failure_reply(exc: Exception) -> BatchReply:
    """The reply a named method's exception stands for.

    The only exception -> status mapping.  ``missing`` and ``conflict``
    are answers; ``fenced`` and ``error`` are what stop a batch.
    """
    if isinstance(exc, BlobNotFound):
        return BatchReply("missing")
    if isinstance(exc, CasConflictError):
        return BatchReply("conflict", payload=exc.current)
    if isinstance(exc, StaleEpochError):
        return BatchReply("fenced", epoch=exc.current_epoch)
    return BatchReply("error", message=str(exc),
                      transient=isinstance(exc, TransientStorageError))


def execute(server: "StorageServer", op: BatchOp) -> BatchReply:
    """Run one op through ``server``'s named method; outcome as a reply.

    ``ClientCrashed`` (and anything else that is not a storage outcome)
    propagates.
    """
    try:
        return ok_reply(op, op.call(server))
    except StorageError as exc:
        return failure_reply(exc)


def in_order(parts, run) -> list["BatchReply"]:
    """The one stop rule: apply a frame's ``parts`` in order through
    ``run``; the first ``fenced`` or ``error`` reply stops the frame, and
    every sub-op after it reads ``unattempted``.  A part is a sub-op
    (``run`` returns its reply) or a list of them (their replies).
    """
    replies: list[BatchReply] = []
    stopped = False
    for part in parts:
        together = isinstance(part, list)
        if stopped:
            replies += [BatchReply("unattempted")] * (
                len(part) if together else 1)
        elif together:
            got = run(part)
            replies += got
            stopped = any(reply.status in STOPS for reply in got)
        else:
            reply = run(part)
            replies.append(reply)
            stopped = reply.status in STOPS
    return replies


def apply_batch(server: "StorageServer",
                ops: Sequence[BatchOp]) -> list["BatchReply"]:
    """Apply sub-ops in order through ``server``'s own single-op methods.

    Dispatching through the instance keeps every interception layer
    honest: fault injectors, tampering wrappers, and per-blob stats all
    see the sub-ops exactly as they would single requests.  Application
    follows :func:`in_order`; ``missing`` and ``conflict`` are answers,
    not failures, and do not stop the batch.
    """
    for op in ops:
        if op.kind not in SUB_FIELDS:
            raise StorageError(f"unknown batch sub-op kind {op.kind!r}")
    return in_order(ops, lambda op: execute(server, op))


def tail_start(blob_id: BlobId) -> int:
    """The block index a ``delete_tail`` starts at; any other id is a
    malformed request."""
    index = block_index(blob_id)
    if index is None:
        raise StorageError(f"delete_tail of {blob_id}: not a block id")
    return index


class OpMethods:
    """The nine named storage methods, written once.

    Each builds the :class:`BatchOp` for its arguments and hands it to
    ``self._forward(op)``, which returns what the named method returns
    (``bytes`` for get, ``bool`` for exists, ``None`` otherwise) or
    raises what it raises.  A layer that mixes this in implements its
    rule once, in ``_forward``, for single calls and -- through
    :func:`apply_batch` -- for every sub-op of a batch.
    """

    def put(self, blob_id: BlobId, payload: bytes) -> None:
        return self._forward(BatchOp.put(blob_id, payload))

    def get(self, blob_id: BlobId) -> bytes:
        return self._forward(BatchOp.get(blob_id))

    def delete(self, blob_id: BlobId) -> None:
        return self._forward(BatchOp.delete(blob_id))

    def exists(self, blob_id: BlobId) -> bool:
        return self._forward(BatchOp.exists(blob_id))

    def put_if(self, blob_id: BlobId, payload: bytes,
               expected: bytes | None) -> None:
        return self._forward(BatchOp.put_if(blob_id, payload, expected))

    def put_fenced(self, blob_id: BlobId, payload: bytes,
                   fence: BlobId, epoch: int) -> None:
        return self._forward(
            BatchOp.put_fenced(blob_id, payload, fence, epoch))

    def delete_fenced(self, blob_id: BlobId,
                      fence: BlobId, epoch: int) -> None:
        return self._forward(BatchOp.delete_fenced(blob_id, fence, epoch))

    def delete_tail(self, blob_id: BlobId) -> None:
        return self._forward(BatchOp.delete_tail(blob_id))

    def delete_tail_fenced(self, blob_id: BlobId,
                           fence: BlobId, epoch: int) -> None:
        return self._forward(
            BatchOp.delete_tail_fenced(blob_id, fence, epoch))


class StorageServer:
    """In-memory SSP: a hashtable of encrypted blobs."""

    def __init__(self, name: str = "ssp"):
        self.name = name
        self.stats = ServerStats()
        self._blobs: dict[BlobId, bytes] = {}

    # -- the wire protocol ---------------------------------------------------

    def put(self, blob_id: BlobId, payload: bytes) -> None:
        """Store (or overwrite) a blob."""
        self.stats.record_put(blob_id.kind, len(payload))
        self._blobs[blob_id] = bytes(payload)

    def get(self, blob_id: BlobId) -> bytes:
        """Fetch a blob; raises :class:`BlobNotFound` if absent."""
        try:
            payload = self._blobs[blob_id]
        except KeyError:
            self.stats.record_miss()
            raise BlobNotFound(str(blob_id)) from None
        self.stats.record_get(blob_id.kind, len(payload))
        return payload

    def delete(self, blob_id: BlobId) -> None:
        """Remove a blob; absent ids are ignored (idempotent delete)."""
        removed = self._blobs.pop(blob_id, None)
        self.stats.record_delete(blob_id.kind,
                                 len(removed) if removed else 0)

    def exists(self, blob_id: BlobId) -> bool:
        return blob_id in self._blobs

    # -- coordination primitives (CAS + epoch fencing) -----------------------

    def _peek(self, blob_id: BlobId) -> bytes | None:
        """Current bytes of a blob without stats side effects (or None).

        Internal primitive behind :meth:`put_if` and the fence checks;
        backends with their own storage (disk, remote) override it.
        """
        return self._blobs.get(blob_id)

    def put_if(self, blob_id: BlobId, payload: bytes,
               expected: bytes | None) -> None:
        """Compare-and-swap: store ``payload`` only if the blob's current
        bytes equal ``expected`` (``None`` = must be absent).

        On mismatch raises the *terminal* :class:`CasConflictError`
        carrying the current bytes, so the loser can re-inspect at the
        protocol level instead of blind-retrying.
        """
        current = self._peek(blob_id)
        if current != expected:
            raise CasConflictError(f"cas conflict on {blob_id}",
                                   current=current)
        self.put(blob_id, payload)

    def _check_fence(self, fence: BlobId, epoch: int) -> None:
        current = fence_epoch(self._peek(fence))
        if epoch < current:
            raise StaleEpochError(
                f"fenced write at epoch {epoch} rejected: "
                f"{fence} is at epoch {current}",
                current_epoch=current)

    def put_fenced(self, blob_id: BlobId, payload: bytes,
                   fence: BlobId, epoch: int) -> None:
        """Store a blob only if ``fence`` has not advanced past ``epoch``.

        The epoch check is mechanical (plaintext prefix); a zombie writer
        whose lease was taken over earns a terminal
        :class:`StaleEpochError` instead of clobbering its successor.
        """
        self._check_fence(fence, epoch)
        self.put(blob_id, payload)

    def delete_fenced(self, blob_id: BlobId,
                      fence: BlobId, epoch: int) -> None:
        """Fenced counterpart of :meth:`delete` (idempotent on absence)."""
        self._check_fence(fence, epoch)
        self.delete(blob_id)

    def delete_tail(self, blob_id: BlobId) -> None:
        """Delete the file block ``blob_id`` names and each next block
        of its inode, for as long as one is stored (a file's blocks are
        a contiguous run, so this is its tail from there on).

        The id alone says which blobs those are: the store learns
        nothing it could not read off the ids it already holds.
        """
        index = tail_start(blob_id)
        while self._peek(block_blob(blob_id.inode, index)) is not None:
            self.delete(block_blob(blob_id.inode, index))
            index += 1

    def delete_tail_fenced(self, blob_id: BlobId,
                           fence: BlobId, epoch: int) -> None:
        """Fenced :meth:`delete_tail`: a stale fence refuses the whole
        run, before any block of it goes."""
        tail_start(blob_id)
        self._check_fence(fence, epoch)
        self.delete_tail(blob_id)

    # -- batched sub-ops (one round trip on the wire) ------------------------

    def batch(self, ops: Sequence[BatchOp]) -> list[BatchReply]:
        """Apply a sequence of sub-ops; one wire round trip per call.

        In-process backends apply sequentially via :func:`apply_batch`;
        the remote proxy ships a single ``OP_BATCH`` frame instead.
        """
        return apply_batch(self, ops)

    def list_kind(self, kind: str) -> Iterator[BlobId]:
        """Enumerate stored ids of one kind (used by audits and ablations)."""
        return (bid for bid in self._blobs if bid.kind == kind)

    # -- capacity / audit helpers ------------------------------------------------

    def blob_count(self) -> int:
        return len(self._blobs)

    def stored_bytes(self, kind: str | None = None) -> int:
        """Total stored payload bytes, optionally for one blob kind."""
        return sum(len(payload) for bid, payload in self._blobs.items()
                   if kind is None or bid.kind == kind)

    def raw_blobs(self) -> dict[BlobId, bytes]:
        """Everything the (curious) SSP can see. For audits and attacks."""
        return dict(self._blobs)

    def snapshot_blobs(self) -> dict[BlobId, bytes]:
        """Point-in-time copy of the store (crash-harness checkpoints)."""
        return dict(self._blobs)

    def restore_blobs(self, snapshot: dict[BlobId, bytes]) -> None:
        """Reset the store to a prior :meth:`snapshot_blobs` state."""
        self._blobs = dict(snapshot)
