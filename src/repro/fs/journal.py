"""Per-user write-ahead intent journal (crash-consistent mutations).

Every SHAROES mutation is a *multi-blob* update: ``create_file`` writes
data blocks, metadata replicas and the parent directory table;
``rename`` touches two parents; ``unlink`` rewrites tables and deletes
object blobs.  The SSP applies blobs one at a time, so a client crash
mid-mutation strands half-applied state that an audit can detect but
not explain.  This module supplies the redo log that makes those
mutations atomic:

* the full set of a mutation's staged wire calls (puts with their
  sealed payloads, deletes) is serialized into an :class:`IntentRecord`
  and ships as the first write of the mutation's one frame, a put of
  the user's journal blob at the SSP;
* behind it in the same frame the mutation *applies* (the staged calls
  for real, in order) and *commits* (a put of the emptied journal).
  Each apply put names its payload as a slice of the intent's (wire
  ``REF_FLAG``), so a payload crosses the link once;
* the SSP applies a frame's sub-ops in order and stops at the first
  that fails (a sharded SSP resolves journal writes as barriers to keep
  that order), so a crash or refusal at any point leaves either no
  intent (nothing of the op was written: it rolled back by
  construction) or a sealed intent whose replay is idempotent (every
  staged action is an overwrite-put or an idempotent delete), so
  recovery always converges on *fully applied*.  A frame whose reply
  is lost is settled by reading the journal back (fs/mutation.py): it
  holds the intent's exact bytes exactly while a redo is owed;
* a pending intent is replayed by one function, :func:`roll_forward`,
  wherever it is found -- in session, at mount, at lease takeover and
  by ``fsck --repair`` -- as one frame per record, fenced at the
  record's leases, through the caller's channel.

The SSP is untrusted, so the journal is **sealed** (encrypt-then-MAC)
under a **journal key** derived from the user's private identity key
(the user-scope MEK analogue -- it never exists outside the enterprise),
its slot's context inside the MAC.  The seal encrypts the slot context,
seq, op, blob ids, fences and payload lengths; the staged payloads
follow it verbatim under the same MAC -- they are already ciphertext,
and the SSP receives exactly these bytes in the apply, so it learns
nothing from them it does not learn there.  It is not signed: whoever
can open it (the user's mounts, the escrow behind fsck and takeover) can
derive the key, so the MAC already rejects all the SSP could forge
(docs/THREAT_MODEL.md).  A tampered, forged or misplaced intent raises
:class:`~repro.errors.IntegrityError` and is never replayed.

Known gap, shared with the rest of the design: an SSP serving a stale
*committed* journal uniformly on first contact is a rollback the client
cannot see (SUNDR's fork-consistency gap; ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import hashes
from ..crypto.provider import CryptoProvider
from ..errors import CryptoError, IntegrityError
from ..serialize import Reader, SerializationError, Writer
from ..storage.blobs import (LEASE, BlobId, in_tail, journal_blob,
                             lease_blob, principal_hash)
from ..storage.server import BatchOp
from .sealed import bind_context


class _Tail:
    """The type of :data:`TAIL`."""

    def __repr__(self) -> str:
        return "TAIL"


#: A staged blob's payload slot that deletes a *run*: the file block its
#: id names and each next block of that inode the SSP holds -- one
#: ``delete_tail`` sub-op (``None`` deletes one blob, bytes put one).
TAIL = _Tail()

#: How encode_records marks each blob's action (0/1 encode as the
#: booleans the format used before tails, byte for byte).
_DELETE, _PUT, _DELETE_TAIL = 0, 1, 2


def journal_key(user) -> bytes:
    """Journal encryption key: derived, never stored, never leaves.

    Deterministic in the user's private identity key, so any mount by
    the same user (or the enterprise fsck holding the key escrow) can
    open the journal, while the SSP -- which only ever sees the public
    half -- cannot read or forge records.
    """
    return hashes.digest(b"sharoes/journal-key/"
                         + user.private_key.to_bytes())


def journal_context(user_id: str) -> bytes:
    """Context binding a journal blob to its owner's slot (fixed length)."""
    return bind_context("journal", 0, principal_hash(user_id))


@dataclass(frozen=True)
class IntentRecord:
    """One journaled mutation: op name, sequence number, staged blobs.

    ``blobs`` is the op's wire calls in order: each :class:`BlobId` with
    its sealed payload (a put), ``None`` (a delete) or :data:`TAIL` (a
    tail delete).  Payloads are
    stored exactly as they hit the wire -- already encrypted and signed
    under object keys -- so replay needs no cryptography beyond opening
    the journal itself.

    ``fences`` lists the ``(inode, fencing epoch)`` pairs of the leases
    this mutation held when it was journaled (empty without the lease
    subsystem).  The apply phase fences each write on the corresponding
    lease blob, so a zombie whose lease was taken over is rejected by
    the SSP mechanically; every replay is fenced the same way, each
    fence checked before the first write (:func:`roll_forward`), so a
    record a successor superseded is never replayed -- whoever replays
    it, the owner or a successor.
    """

    seq: int
    op: str
    blobs: tuple[tuple[BlobId, bytes | None], ...]
    fences: tuple[tuple[int, int], ...] = ()

    def inodes(self) -> set[int]:
        """The inodes whose blobs this intent (re)writes or deletes."""
        return {blob_id.inode for blob_id, _ in self.blobs}


def encode_records(records: list[IntentRecord]) -> bytes:
    """The records without their payloads: seq, op, fences and, per
    blob, its id, its action and its payload's length (puts only)."""
    writer = Writer()
    writer.put_int(len(records))
    for record in records:
        writer.put_int(record.seq)
        writer.put_str(record.op)
        writer.put_int(len(record.blobs))
        for blob_id, payload in record.blobs:
            writer.put_str(blob_id.kind)
            writer.put_int(blob_id.inode)
            writer.put_str(blob_id.selector)
            if isinstance(payload, bytes):
                writer.put_int(_PUT).put_int(len(payload))
            else:
                writer.put_int(_DELETE if payload is None else _DELETE_TAIL)
        writer.put_int(len(record.fences))
        for inode, epoch in record.fences:
            writer.put_int(inode)
            writer.put_int(epoch)
    return writer.getvalue()


def decode_records(raw: bytes, payloads: bytes) -> list[IntentRecord]:
    """Inverse of :func:`encode_records`: each put takes its payload, in
    order, from ``payloads``, which the records must use up exactly."""
    reader = Reader(raw)
    offset = 0
    records = []
    for _ in range(reader.get_int()):
        seq = reader.get_int()
        op = reader.get_str()
        blobs = []
        for _ in range(reader.get_int()):
            blob_id = BlobId(kind=reader.get_str(), inode=reader.get_int(),
                             selector=reader.get_str())
            action = reader.get_int()
            payload = {_DELETE: None, _DELETE_TAIL: TAIL}.get(action)
            if action == _PUT:
                end = offset + reader.get_int()
                if end > len(payloads):
                    raise SerializationError("payload section too short")
                payload, offset = payloads[offset:end], end
            elif payload is None and action != _DELETE:
                raise SerializationError(f"unknown blob action {action}")
            blobs.append((blob_id, payload))
        fences = tuple((reader.get_int(), reader.get_int())
                       for _ in range(reader.get_int()))
        records.append(IntentRecord(seq=seq, op=op, blobs=tuple(blobs),
                                    fences=fences))
    reader.expect_end()
    if offset != len(payloads):
        raise SerializationError(
            f"{len(payloads) - offset} trailing payload bytes")
    return records


def seal_journal(provider: CryptoProvider, user,
                 records: list[IntentRecord],
                 holder: str | None = None) -> bytes:
    """The journal blob: ``u32 n | sealed header (n bytes) | payloads``.

    The header -- the context of ``holder``'s slot (``user``'s by
    default), then :func:`encode_records` -- is encrypted; the staged
    payloads follow verbatim, in record order.  They are ciphertext
    under object keys already, and the apply sends the SSP these very
    bytes, so they are authenticated (one MAC with the header, under
    ``user``'s :func:`journal_key`), not encrypted again.
    """
    payloads = b"".join(payload for record in records
                        for _, payload in record.blobs
                        if isinstance(payload, bytes))
    sealed = provider.sym_encrypt(
        journal_key(user),
        journal_context(holder or user.user_id) + encode_records(records),
        associated=payloads)
    return Writer().put_bytes(sealed).getvalue() + payloads


def open_journal(provider: CryptoProvider, user, blob: bytes,
                 holder: str | None = None) -> list[IntentRecord]:
    """Authenticate, decrypt and decode a journal blob.

    Every failure is one :class:`IntegrityError`: too short to open, a
    failed MAC (tampering with either part, payloads swapped or cut, or
    an SSP forgery -- the SSP cannot derive :func:`journal_key`), another
    slot's context than ``holder``'s (``user``'s by default), corrupt
    records.
    """
    holder = holder or user.user_id
    context = journal_context(holder)
    try:
        sealed = Reader(blob).get_bytes()
        payloads = blob[4 + len(sealed):]
        header = provider.sym_decrypt(journal_key(user), sealed,
                                      associated=payloads)
        if not header.startswith(context):
            raise IntegrityError("sealed for another journal slot")
        return decode_records(header[len(context):], payloads)
    except (CryptoError, SerializationError) as exc:
        raise IntegrityError(
            f"journal for {holder} does not open: {exc}") from exc


class StagedWrites:
    """Staged wire calls in order (:func:`write_ops` input), plus the
    one read-your-writes overlay, so an op that re-reads a blob it just
    wrote (``symlink`` resolving its fresh entry with caching disabled)
    observes its own staged state: the newest staged put or delete of a
    blob decides it, and a staged :data:`TAIL` covers every block of its
    inode at or past its own, as deleted, until a later put of one of
    them.  A :class:`MutationBatch` is one; so is the write-behind queue.
    """

    def __init__(self):
        self.blobs: list[tuple[BlobId, "bytes | None"]] = []
        #: blob id -> newest staged payload (None = a staged delete).
        self._overlay: dict[BlobId, bytes | None] = {}
        self._tails: list[BlobId] = []

    def stage(self, blobs: list[tuple[BlobId, "bytes | None"]]) -> None:
        self.blobs.extend(blobs)
        for blob_id, payload in blobs:
            if payload is TAIL:
                self._tails.append(blob_id)
                for covered in [b for b in self._overlay
                                if in_tail(blob_id, b)]:
                    del self._overlay[covered]
            else:
                self._overlay[blob_id] = payload

    def read(self, blob_id: BlobId) -> tuple[bool, bytes | None]:
        """Overlay lookup: (covered?, payload-or-None-if-deleted)."""
        known = self.exists(blob_id)
        return known is not None, self._overlay.get(blob_id)

    def exists(self, blob_id: BlobId) -> bool | None:
        """Overlay existence: True/False if covered, None to fall through."""
        if blob_id in self._overlay:
            return self._overlay[blob_id] is not None
        if self._tails and any(in_tail(tail, blob_id)
                               for tail in self._tails):
            return False
        return None


class MutationBatch(StagedWrites):
    """One op's staged writes (the client defers every put and delete
    here while the op runs), sealed into its :class:`IntentRecord`."""

    def __init__(self, op: str):
        super().__init__()
        self.op = op

    def record(self, seq: int,
               fences: tuple[tuple[int, int], ...] = ()) -> IntentRecord:
        return IntentRecord(seq=seq, op=self.op, blobs=tuple(self.blobs),
                            fences=fences)


def write_ops(blobs, fences: "dict[int, int] | None" = None,
              ref: BlobId | None = None) -> list[BatchOp]:
    """The sub-ops that upload (payload), delete (``None``) or delete
    the tail from (:data:`TAIL`) ``blobs``, in order, each fenced on its
    inode's lease at that inode's epoch in ``fences``; a put whose
    payload an earlier put of ``ref`` in the same frame carries may go
    as a reference to it (``wire.payload_refs``)."""
    epoch_of = (fences or {}).get
    ops = []
    for blob_id, payload in blobs:
        epoch = epoch_of(blob_id.inode)
        fence = lease_blob(blob_id.inode)
        if payload is None:
            ops.append(BatchOp.delete(blob_id) if epoch is None
                       else BatchOp.delete_fenced(blob_id, fence, epoch))
        elif payload is TAIL:
            ops.append(BatchOp.delete_tail(blob_id) if epoch is None
                       else BatchOp.delete_tail_fenced(blob_id, fence,
                                                       epoch))
        else:
            ops.append(BatchOp.put(blob_id, payload, ref) if epoch is None
                       else BatchOp.put_fenced(blob_id, payload, fence,
                                               epoch, ref))
    return ops


def fence_checks(fences) -> list[BatchOp]:
    """One sub-op per ``(inode, epoch)`` that changes nothing but stops
    its frame unless that inode's lease is still at or below ``epoch``:
    a fenced delete of ``lease/<inode>/check``, an id nothing writes."""
    return [BatchOp.delete_fenced(BlobId(LEASE, inode, "check"),
                                  lease_blob(inode), epoch)
            for inode, epoch in fences]


def fences_stale(replies) -> bool:
    """Did the SSP stop a replay frame at a fence?

    A record whose fences lag the lease chain was *superseded*: a
    successor took a lease over (rolling the journal forward first), so
    whatever is still journaled at an older epoch predates the
    successor's writes and must be dropped, not replayed -- replaying it
    would resurrect the lost update the fencing exists to prevent.  The
    SSP judges it (an absent lease blob reads as epoch 0, fail open);
    any other failure of the frame is raised.
    """
    for reply in replies:
        if reply.status == "fenced":
            return True
        if reply.status == "error":
            reply.raise_for_status()
    return False


def pending(exchange, provider: CryptoProvider, user,
            holder: str | None = None) -> list[IntentRecord]:
    """The intents journaled in ``holder``'s slot (``user``'s by
    default), read through ``exchange`` and opened with ``user``'s key
    (none for an absent journal).  Raises
    :class:`~repro.errors.IntegrityError` for a journal that does not
    open (:func:`open_journal`)."""
    holder = holder or user.user_id
    reply, = exchange("journal.read", [BatchOp.get(journal_blob(holder))])
    if reply.status == "missing":
        return []
    reply.raise_for_status()
    return open_journal(provider, user, reply.payload or b"", holder)


def roll_forward(exchange, provider: CryptoProvider, user,
                 records: list[IntentRecord] | None = None,
                 holder: str | None = None) -> list[IntentRecord]:
    """Replay ``user``'s pending intents: the one replayer.

    Every pending intent is replayed this way -- in session (a frame
    whose apply stopped part-way), at mount, at lease takeover and by
    ``fsck --repair`` -- through the caller's ``exchange(label, ops) ->
    replies`` channel (a client's counted, charged ``BlobIO.ship``, a
    lease manager's, fsck's server).  ``records`` defaults to the
    journal in ``holder``'s slot (``user``'s by default) read through
    that channel (:func:`pending`; the caller supplies the key material
    -- the user's own at mount, the enterprise escrow everywhere else).

    Each record is one frame: a :func:`fence_checks` sub-op per fence
    it was journaled under, its staged calls in order (fenced the same
    way), then the journal sealed over the records behind it.  Replay is
    idempotent (overwrite-puts and idempotent deletes), so a frame that
    stops part-way leaves a journal whose replay still converges.  A
    record whose fences lag the chain is stopped by the SSP before any
    of it applies and dropped (:func:`fences_stale`); if it was the
    last, one more frame commits the empty journal.

    Returns the replayed records.  Raises
    :class:`~repro.errors.IntegrityError` if the journal fails
    verification -- the caller decides whether to quarantine; nothing is
    ever replayed from untrusted bytes -- and whatever a frame's first
    failed sub-op means.
    """
    holder = holder or user.user_id
    if records is None:
        records = pending(exchange, provider, user, holder)
    jid = journal_blob(holder)
    replayed, committed = [], True
    for index, record in enumerate(records):
        rest = seal_journal(provider, user, records[index + 1:], holder)
        committed = not fences_stale(exchange(
            "journal.replay", fence_checks(record.fences)
            + write_ops(record.blobs, dict(record.fences))
            + [BatchOp.put(jid, rest)]))
        if committed:
            replayed.append(record)
    if not committed:
        reply, = exchange("journal.commit", [
            BatchOp.put(jid, seal_journal(provider, user, [], holder))])
        reply.raise_for_status()
    return replayed
