"""Per-inode signed leases with fencing epochs (multi-client safety).

SHAROES clients do not trust the SSP to arbitrate anything, yet many
honest enterprise clients mount the same volume.  Without coordination,
two clients rewriting the same directory table interleave their
multi-blob commits and silently lose updates.  This module supplies the
coordination primitive that fixes it while keeping the SSP untrusted:

* **Lease blobs** (``lease/<inode>``): a signed :class:`LeaseRecord`
  naming the holder and a sim-clock expiry, prefixed by a *plaintext*
  8-byte big-endian **fencing epoch**.  The prefix is the one field the
  SSP is allowed to act on: it needs no keys to compare two integers.
* **Monotone epochs**: every lease write -- acquire, renewal, release,
  takeover -- bumps the epoch through a ``put_if`` compare-and-swap, so
  exactly one writer wins each transition and the epoch chain never
  regresses.  A second :class:`~repro.fs.freshness.FreshnessMonitor`
  watches the chain, so an SSP serving a rolled-back lease (older
  epoch, valid signature) raises ``StaleObjectError`` instead of ever
  granting a stale lease.
* **Fenced writes**: the client tags every blob write of a mutation
  with the epoch of the lease it holds; the SSP mechanically rejects
  writes below the current epoch (:class:`~repro.errors.
  StaleEpochError`).  A zombie -- a paused client whose lease expired
  and was taken over -- can therefore never clobber its successor, no
  matter when it wakes up.
* **Roll-forward takeover**: before bumping the epoch past a dead
  client, the new holder verifies and replays the dead client's pending
  intent journal (the same code path as ``fsck --repair``, via
  :func:`repro.fs.journal.roll_forward`), so committed-but-unapplied
  work is never lost.  Takeover needs the enterprise key escrow (the
  registry's private keys) -- the same trust fsck already requires.

What the untrusted SSP can and cannot do to a lease:

* it **cannot forge** a lease (records are RSA-signed by the holder);
* it **cannot roll back** the chain against a client that has seen a
  newer epoch (freshness monitor);
* it **can** drop or hide lease blobs -- that denies service (as can
  dropping any blob) but never grants two writers the same epoch, and
  fenced writes keep mutations atomic regardless.

**Optimistic acquire.**  A manager remembers the exact bytes of the last
chain link it wrote per inode -- its own *released* record included --
and CASes the next link straight against them, without reading the
blob first.  The CAS succeeding proves the chain moved only through
this client since that link (every link is signed over a fresh
timestamp and a larger epoch, so no other writer can reproduce the
bytes); :attr:`LeaseManager.unbroken` reports it, and the filesystem
keeps its cache for the inode on the strength of it.  A lost CAS hands
back the current bytes and falls into the inspect-and-advance loop
below, exactly as a read would have.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..crypto import rsa
from ..errors import (CasConflictError, IntegrityError, LeaseHeldError,
                      LeaseLostError)
from ..serialize import Reader, SerializationError, Writer
from ..storage.blobs import BlobId, lease_blob
from ..storage.server import EPOCH_PREFIX_BYTES, BatchOp
from .freshness import FreshnessMonitor
from .journal import roll_forward

#: CAS re-inspection rounds before acquire() reports the lease as held.
#: These are *protocol* retries (losing a race and looking again), not
#: transport retries; each round re-reads the current record.
_ACQUIRE_ROUNDS = 4

_SIGN_DOMAIN = b"sharoes/lease/"


@dataclass(frozen=True)
class LeaseRecord:
    """One link in an inode's lease chain.

    Timestamps are integer simulated microseconds (floats do not
    round-trip through the serializer).  ``released`` marks a
    voluntarily surrendered lease: any client may take it over
    immediately, no expiry wait, no journal to roll forward beyond the
    holder's own (which the holder already drained before releasing).
    """

    inode: int
    epoch: int
    holder: str
    acquired_us: int
    expires_us: int
    released: bool = False
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        writer = Writer()
        writer.put_bytes(_SIGN_DOMAIN)
        writer.put_int(self.inode)
        writer.put_int(self.epoch)
        writer.put_str(self.holder)
        writer.put_int(self.acquired_us)
        writer.put_int(self.expires_us)
        writer.put_bool(self.released)
        return writer.getvalue()

    def to_bytes(self) -> bytes:
        """Epoch prefix (plaintext, for the SSP) + signed record."""
        writer = Writer()
        writer.put_bytes(self.signed_payload())
        writer.put_bytes(self.signature)
        return (self.epoch.to_bytes(EPOCH_PREFIX_BYTES, "big")
                + writer.getvalue())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "LeaseRecord":
        if len(raw) < EPOCH_PREFIX_BYTES:
            raise IntegrityError("lease blob shorter than epoch prefix")
        prefix = int.from_bytes(raw[:EPOCH_PREFIX_BYTES], "big")
        try:
            outer = Reader(raw[EPOCH_PREFIX_BYTES:])
            payload = outer.get_bytes()
            signature = outer.get_bytes()
            outer.expect_end()
            reader = Reader(payload)
            if reader.get_bytes() != _SIGN_DOMAIN:
                raise IntegrityError("lease blob lacks domain tag")
            record = cls(inode=reader.get_int(), epoch=reader.get_int(),
                         holder=reader.get_str(),
                         acquired_us=reader.get_int(),
                         expires_us=reader.get_int(),
                         released=reader.get_bool(),
                         signature=signature)
            reader.expect_end()
        except SerializationError as exc:
            raise IntegrityError(f"malformed lease blob: {exc}") from exc
        if record.epoch != prefix:
            # The plaintext prefix is SSP-enforced, the signed epoch is
            # client-enforced; disagreement means the SSP tampered.
            raise IntegrityError(
                f"lease prefix epoch {prefix} contradicts signed epoch "
                f"{record.epoch}")
        return record

    def signed(self, private_key) -> "LeaseRecord":
        """This record, signed by its holder's ``private_key``."""
        return replace(self, signature=rsa.sign(private_key,
                                                self.signed_payload()))

    def verify(self, directory) -> None:
        """Check the holder's signature against the PKI directory."""
        rsa.verify(directory.user_key(self.holder),
                   self.signed_payload(), self.signature)

    def expired(self, now_us: int) -> bool:
        return self.released or now_us >= self.expires_us


def break_record(prior: LeaseRecord, holder_user) -> LeaseRecord:
    """A signed *released* successor of ``prior`` (epoch + 1).

    Built with the holder's escrowed private key: after rolling a dead
    client's journal forward, the enterprise (``fsck --repair`` /
    ``--stranded``) marks the client's lease released so successors can
    take over immediately instead of waiting out the expiry -- while
    the epoch chain stays monotone and verifiable.
    """
    return replace(prior, epoch=prior.epoch + 1,
                   released=True).signed(holder_user.private_key)


class LeaseManager:
    """One client's view of the volume's lease space.

    Wired by :class:`~repro.fs.client.SharoesFilesystem` when
    ``ClientConfig(lease=True)``; usable standalone in tests.  The
    ``server`` handed in is whatever the client itself talks through
    (including a :class:`~repro.storage.resilient.ResilientTransport`),
    so lease traffic inherits the same retry/fault behaviour as data
    traffic.  ``escrow`` maps a user id to key material able to open
    that user's journal (the registry's :meth:`user` -- enterprise
    trust, exactly what fsck already holds); without it, takeover of a
    *dead* client's lease is refused rather than performed lossily.
    ``exchange(label, ops) -> replies`` ships one frame of sub-ops; the
    filesystem passes :meth:`BlobIO.exchange` so every lease frame is
    counted and charged, standalone it is ``server.batch``.
    """

    def __init__(self, user, directory, server, clock,
                 duration_s: float = 30.0, provider=None, escrow=None,
                 tracer=None, metrics=None, exchange=None):
        self.user = user
        self.directory = directory
        self.server = server
        self._exchange = exchange or (lambda label, ops: server.batch(ops))
        self.clock = clock
        self.duration_s = float(duration_s)
        self.provider = provider
        self.escrow = escrow
        self._tracer = tracer
        self._metrics = metrics
        #: inode -> (record we hold, its exact wire bytes for CAS)
        self._held: dict[int, tuple[LeaseRecord, bytes]] = {}
        #: inode -> the last chain link this client wrote (held or
        #: released): what the next acquire CASes against unread.
        self._last: dict[int, tuple[LeaseRecord, bytes]] = {}
        #: did the last :meth:`acquire` prove the chain moved only
        #: through this client since its previous link?
        self.unbroken = False
        #: rollback/equivocation watch over the epoch chain.
        self.freshness = FreshnessMonitor()

    # -- plumbing ------------------------------------------------------------

    def _count(self, name: str, help: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help=help).inc()

    def _span(self, name: str, **tags):
        if self._tracer is not None:
            return self._tracer.span(name, **tags)
        from ..storage.resilient import _NULL_SCOPE
        return _NULL_SCOPE

    def _now_us(self) -> int:
        return int(self.clock.now * 1_000_000)

    def _observe(self, inode: int, raw: bytes,
                 record: LeaseRecord) -> None:
        record.verify(self.directory)
        self.freshness.observe_metadata(inode, record.epoch, raw)

    def _make(self, inode: int, epoch: int,
              released: bool = False) -> LeaseRecord:
        now = self._now_us()
        return LeaseRecord(
            inode=inode, epoch=epoch, holder=self.user.user_id,
            acquired_us=now,
            expires_us=now + int(self.duration_s * 1_000_000),
            released=released).signed(self.user.private_key)

    # -- queries -------------------------------------------------------------

    def held_epoch(self, inode: int) -> int | None:
        """The fencing epoch of a lease this client currently holds."""
        held = self._held.get(inode)
        return held[0].epoch if held is not None else None

    def held_inodes(self) -> list[int]:
        return sorted(self._held)

    # -- the state machine ---------------------------------------------------

    def acquire(self, inode: int, new: bool = False) -> LeaseRecord:
        """Hold (or keep holding) the lease on ``inode``.

        Outcomes: a fresh acquisition (absent/released/expired lease,
        CAS-won), a renewal of our own lease, a **takeover** (expired
        lease of a dead client: verify + roll their journal forward,
        then bump past their epoch), :class:`LeaseHeldError` (someone
        else holds it, unexpired), or :class:`LeaseLostError` (we
        thought we held it but a successor's epoch proves otherwise).

        The first CAS goes out unread against the last link this client
        wrote (``new``: against an absent blob -- the caller allocated
        the inode in this very op); only a client with neither reads the
        blob first.  :attr:`unbroken` is set when that first CAS won
        over our own link.
        """
        held = self._held.get(inode)
        if held is not None and not held[0].expired(self._now_us()):
            self.unbroken = True
            return held[0]

        blob_id = lease_blob(inode)
        last = self._last.get(inode)
        if (last is not None and last[0].epoch
                != self.freshness.high_watermark(inode)):
            last = None  # the chain was seen past it: not the tip
        raw: bytes | None = None
        fetched = new  # a new inode's blob is absent: nothing to read
        if last is not None:
            verb, help = (
                ("lease.acquires", "fresh lease acquisitions")
                if last[0].released
                else ("lease.renewals", "renewals of held leases"))
            try:
                record = self._swap(
                    inode, blob_id, self._make(inode, last[0].epoch + 1),
                    expected=last[1], verb=verb, help=help)
                self.unbroken = True
                return record
            except CasConflictError as exc:
                self._count("lease.conflicts",
                            "CAS races lost while acquiring leases")
                raw = exc.current
                fetched = True
        self.unbroken = False
        for _ in range(_ACQUIRE_ROUNDS):
            if not fetched:
                raw = self._read(blob_id)
            fetched = False
            try:
                return self._advance(inode, blob_id, raw)
            except CasConflictError as exc:
                # Lost the race: somebody else advanced the chain.
                # Re-inspect what they wrote instead of re-fetching.
                self._count("lease.conflicts",
                            "CAS races lost while acquiring leases")
                raw = exc.current
                fetched = True
        record = LeaseRecord.from_bytes(raw) if raw else None
        raise LeaseHeldError(
            f"inode {inode}: lease contended beyond "
            f"{_ACQUIRE_ROUNDS} CAS rounds",
            holder=record.holder if record else "",
            expires_at_s=(record.expires_us / 1e6) if record else 0.0)

    def _read(self, blob_id: BlobId) -> bytes | None:
        reply, = self._exchange("lease.read", [BatchOp.get(blob_id)])
        if reply.status == "missing":
            return None
        reply.raise_for_status()
        return reply.payload

    def _advance(self, inode: int, blob_id: BlobId,
                 raw: bytes | None) -> LeaseRecord:
        """One CAS attempt at the next link of the lease chain."""
        held = self._held.get(inode)
        if raw is None:
            high = self.freshness.high_watermark(inode) or 0
            return self._swap(inode, blob_id, self._make(inode, high + 1),
                              expected=None, verb="lease.acquires",
                              help="fresh lease acquisitions")

        record = LeaseRecord.from_bytes(raw)
        self._observe(inode, raw, record)
        now_us = self._now_us()

        if record.holder == self.user.user_id:
            # Ours (this session's, or a previous incarnation's -- that
            # one's journal is replayed by our own mount): renew.
            return self._swap(inode, blob_id,
                              self._make(inode, record.epoch + 1),
                              expected=raw, verb="lease.renewals",
                              help="renewals of held leases")

        self._last.pop(inode, None)  # the tip is somebody else's link
        if held is not None:
            # We believed we held this lease; the chain moved past us.
            self._drop(inode)
            self._count("lease.lost",
                        "leases discovered lost at acquire time")
            raise LeaseLostError(
                f"inode {inode}: lease taken over by {record.holder} "
                f"at epoch {record.epoch} (we held epoch "
                f"{held[0].epoch})")

        if not record.expired(now_us):
            raise LeaseHeldError(
                f"inode {inode}: leased by {record.holder} until "
                f"t={record.expires_us / 1e6:g}s "
                f"(now {now_us / 1e6:g}s)",
                holder=record.holder,
                expires_at_s=record.expires_us / 1e6)

        # Expired or released lease of another client: take over.  A
        # *released* record needs no repair (the holder drained its own
        # journal before releasing); an *expired* one belongs to a
        # presumed-dead client whose pending intents must be rolled
        # forward first so no committed work is lost.
        with self._span("lease.takeover", inode=inode,
                        prior_holder=record.holder,
                        prior_epoch=record.epoch):
            if not record.released:
                self._roll_forward_holder(record.holder)
            taken = self._swap(inode, blob_id,
                               self._make(inode, record.epoch + 1),
                               expected=raw, verb="lease.takeovers",
                               help="takeovers of expired/released "
                                    "leases")
        return taken

    def _roll_forward_holder(self, holder: str) -> None:
        if self.escrow is None:
            raise LeaseHeldError(
                f"lease of {holder} expired but no key escrow is "
                f"available to roll its journal forward; refusing a "
                f"lossy takeover", holder=holder)
        replayed = roll_forward(self.server, self.provider,
                                self.escrow(holder))
        for _ in replayed:
            self._count("lease.takeover_replays",
                        "dead clients' intents replayed at takeover")

    def _swap(self, inode: int, blob_id: BlobId, record: LeaseRecord,
              expected: bytes | None, verb: str,
              help: str) -> LeaseRecord:
        raw = record.to_bytes()
        reply, = self._exchange(
            "lease.acquire", [BatchOp.put_if(blob_id, raw, expected)])
        reply.raise_for_status()
        self.freshness.observe_metadata(inode, record.epoch, raw)
        self._held[inode] = self._last[inode] = (record, raw)
        self._count(verb, help)
        return record

    def renew_all(self) -> tuple[list[int], list[int]]:
        """Renew every held lease with one batched CAS round trip.

        Each renewal is the usual epoch+1 ``put_if`` against the exact
        bytes we last wrote, shipped together as one ``OP_BATCH`` frame
        of ``put_if`` sub-ops.  Per-lease conflicts are independent: a
        chain another client advanced past means *that* lease is lost
        (dropped locally, counted) while the rest renew normally.

        Returns ``(renewed_inodes, lost_inodes)``.
        """
        inodes = self.held_inodes()
        if not inodes:
            return [], []
        successors = [self._make(inode, self._held[inode][0].epoch + 1)
                      for inode in inodes]
        ops = [BatchOp.put_if(lease_blob(inode), successor.to_bytes(),
                              expected=self._held[inode][1])
               for inode, successor in zip(inodes, successors)]
        with self._span("lease.renew_all", count=len(ops)):
            replies = self._exchange("lease.renew", ops)
        renewed: list[int] = []
        lost: list[int] = []
        for inode, successor, op, reply in zip(inodes, successors, ops,
                                               replies):
            if reply.status == "ok":
                raw = op.payload or b""
                self.freshness.observe_metadata(inode, successor.epoch,
                                                raw)
                self._held[inode] = self._last[inode] = (successor, raw)
                self._count("lease.renewals", "renewals of held leases")
                renewed.append(inode)
            elif reply.status == "conflict":
                self.forget(inode)
                self._count("lease.lost",
                            "leases discovered lost at renewal time")
                lost.append(inode)
            else:
                reply.raise_for_status()
        return renewed, lost

    # -- release -------------------------------------------------------------

    def _drop(self, inode: int) -> None:
        self._held.pop(inode, None)

    def release(self, *inodes: int, lead=()) -> list:
        """Surrender held leases with one frame of *released* records.

        The chain stays monotone (release bumps the epoch, never
        deletes the blob), so freshness monitoring keeps working across
        release/re-acquire cycles, and the released record is the link
        the next :meth:`acquire` CASes against.  Losing a release CAS is
        benign: a successor already took the lease over.  A release the
        frame never reached (it stopped at a failed sub-op) only costs
        peers a takeover after expiry.

        ``lead`` sub-ops ride in front -- a mutation's journal commit,
        so the release costs it no frame of its own; their replies are
        returned for the caller to judge.
        """
        lead = list(lead)
        released = []
        for inode in inodes:
            held = self._held.pop(inode, None)
            if held is not None:
                record = self._make(inode, held[0].epoch + 1, released=True)
                released.append((record, BatchOp.put_if(
                    lease_blob(inode), record.to_bytes(),
                    expected=held[1])))
        if not (lead or released):
            return []
        replies = self._exchange("lease.release",
                                 lead + [op for _, op in released])
        for (record, op), reply in zip(released, replies[len(lead):]):
            if reply.status == "ok":
                self.freshness.observe_metadata(record.inode, record.epoch,
                                                op.payload)
                self._last[record.inode] = (record, op.payload)
                self._count("lease.releases", "voluntary lease releases")
            elif reply.status == "conflict":
                self._last.pop(record.inode, None)
        return replies[:len(lead)]

    def release_all(self) -> None:
        self.release(*self.held_inodes())

    def forget(self, inode: int) -> None:
        """Drop one lease's local state without touching the SSP.

        Used when the lease was *lost* (taken over): writing a release
        record would be both futile (our epoch is stale, the CAS loses)
        and wrong (the lease is not ours to release) -- and when the
        inode itself is gone (unlinked).
        """
        self._drop(inode)
        self._last.pop(inode, None)

    def forget_all(self) -> None:
        """Drop local lease state without touching the SSP (crash sim,
        unmount)."""
        self._held.clear()
        self._last.clear()
