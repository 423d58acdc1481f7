"""Per-inode signed leases with fencing epochs (multi-client safety).

SHAROES clients do not trust the SSP to arbitrate anything, yet many
honest enterprise clients mount the same volume.  Without coordination,
two clients rewriting the same directory table interleave their
multi-blob updates and silently lose some of them.  This module supplies
the coordination primitive that fixes it while keeping the SSP
untrusted:

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
  client, the new holder verifies and replays the dead client's
  journal through its own frame channel (the one replayer,
  :func:`repro.fs.journal.roll_forward`, as at mount and in ``fsck
  --repair``), so journaled-but-unapplied work is never lost.  Takeover
  needs the enterprise key escrow (the registry's private keys) -- the
  same trust fsck already requires.

What the untrusted SSP can and cannot do to a lease:

* it **cannot forge** a lease (records are ESIGN-signed with the
  holder's user signature key, USK, and checked against its UVK in the
  PKI directory);
* it **cannot roll back** the chain against a client that has seen a
  newer epoch (freshness monitor);
* it **can** drop or hide lease blobs -- that denies service (as can
  dropping any blob) but never grants two writers the same epoch, and
  fenced writes keep mutations atomic regardless.

**One route per tip.**  A manager remembers the exact bytes of the last
chain link it wrote per inode.  Over its own *released* link, a new
inode's absent blob or the released link a lost CAS handed back (the
*seed*), :meth:`acquire` builds the CAS and sends nothing: the op's
first frame carries it at its head (:meth:`ride`), a fence check at its
epoch behind a CAS over our own link.  That check bites because a
released link's next epoch belongs to its writer: anyone else advancing
the chain past it skips that epoch (:func:`successor_epoch`), so a CAS
that lost leaves the chain past the fence and the SSP stops the frame
before the reads or writes behind it run.  One that wins proves the
chain moved only through this client since its link (every link is
signed over a fresh timestamp and a larger epoch), which
:attr:`LeaseManager.unbroken` predicts and the filesystem keeps its
cache on.  :meth:`settle` books the head's replies: one that lost raises
:class:`HeadCasLost` and keeps the link it met as the seed, whose
successor epoch is anyone's, so its takeover rides unchecked and only
the reads in its own frame are trusted.  Every other tip goes through
one inspect-and-CAS loop, each CAS alone in its frame.  An op that sends
no frame before its mutation frame has its CAS there (:meth:`links`
plans the sub-ops a mutation frame carries around its body -- the CASes
and compared held links (the *head*) and the released links (the
*tail*) -- and names the links another writer could have moved, whose
fences the frame must carry; fs/mutation.py composes the frame);
:meth:`book` takes the head's and the tail's replies back.  A planned
CAS no frame carried goes alone only from :meth:`send_planned`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..crypto import esign
from ..errors import (CasConflictError, IntegrityError, LeaseHeldError,
                      LeaseLostError)
from ..obs.tracing import Tracer
from ..serialize import Reader, SerializationError, Writer
from ..storage.blobs import BlobId, lease_blob
from ..storage.server import EPOCH_PREFIX_BYTES, BatchOp, BatchReply
from . import journal
from .freshness import FreshnessMonitor

#: CAS re-inspection rounds before acquire() reports the lease as held.
#: These are *protocol* retries (losing a race and looking again), not
#: transport retries; each round re-reads the current record.
_ACQUIRE_ROUNDS = 4

_SIGN_DOMAIN = b"sharoes/lease/"


class HeadCasLost(LeaseLostError):
    """A planned lease CAS lost at the head of the frame it rode.

    The link it was built over was no longer the tip: another writer
    advanced the chain since.  The SSP fenced the frame out (or the
    client discarded its reads unread) before anything of the mutation
    was written; the filesystem runs the op once more, over the link
    the CAS met.  ``inode`` names the lease.
    """

    def __init__(self, message: str, inode: int):
        super().__init__(message)
        self.inode = inode


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
    def from_bytes(cls, raw: bytes, inode: int) -> "LeaseRecord":
        """Decode the lease blob read at ``inode``'s slot.

        The signed inode must name that slot: a signature over another
        inode's link is a blob the SSP relocated.
        """
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
        if record.inode != inode:
            raise IntegrityError(
                f"lease blob of inode {inode} carries signed inode "
                f"{record.inode}: relocated by the SSP")
        return record

    def signed(self, key: esign.SigningKey) -> "LeaseRecord":
        """This record, signed with its holder's USK ``key``."""
        return replace(self, signature=esign.sign(key,
                                                  self.signed_payload()))

    def verify(self, directory) -> None:
        """Check the holder's signature against its UVK in the PKI
        directory."""
        esign.verify(directory.signature_key(self.holder),
                     self.signed_payload(), self.signature)

    def expired(self, now_us: int) -> bool:
        return self.released or now_us >= self.expires_us


def successor_epoch(prior: LeaseRecord) -> int:
    """The epoch of a link written over ``prior`` after reading it.

    A released link's next epoch is reserved for the mount that wrote
    it, whose next mutation CASes over it unread and fences that
    mutation's frame at ``epoch + 1``; anyone who found the link by
    reading it -- another client, fsck, another mount of the same user
    -- skips that epoch, so that frame stops before anything is written.
    """
    return prior.epoch + (2 if prior.released else 1)


@dataclass
class FrameLinks:
    """The lease sub-ops around a frame (:meth:`LeaseManager.links`,
    :meth:`LeaseManager.ride`): ``(inode, link, put_if)`` triples -- the
    head's link a planned CAS's, or None for a held lease compared
    against its own bytes; the tail's its released successor -- and, for
    each head link another writer could have moved, ``(inode, epoch its
    fence names)``.
    """

    head: list = field(default_factory=list)
    tail: list = field(default_factory=list)
    checks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ops(self) -> list[BatchOp]:
        """A ridden head as sub-ops: the CASes, then their checks."""
        return ([op for *_, op in self.head]
                + journal.fence_checks(self.checks))


def break_record(prior: LeaseRecord, holder_user) -> LeaseRecord:
    """A signed *released* successor of ``prior``.

    Built with the holder's escrowed USK: after rolling a dead
    client's journal forward, the enterprise (``fsck --repair`` /
    ``--stranded``) marks the client's lease released so successors can
    take over immediately instead of waiting out the expiry -- while
    the epoch chain stays monotone and verifiable.
    """
    return replace(prior, epoch=successor_epoch(prior),
                   released=True).signed(holder_user.signing.signing)


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
    filesystem passes :meth:`BlobIO.ship` so every lease frame is
    counted and charged, standalone it is ``server.batch``.  ``holder``
    is the name the links are written under (the mutation pipeline's,
    fs/mutation.py; the user id by default); ``user`` signs them.
    """

    def __init__(self, user, directory, server, clock,
                 duration_s: float = 30.0, provider=None, escrow=None,
                 tracer=None, metrics=None, exchange=None,
                 holder: str | None = None):
        self.user = user
        self.holder = holder or user.user_id
        self.directory = directory
        self.server = server
        self._exchange = exchange or (lambda label, ops: server.batch(ops))
        self.clock = clock
        self.duration_s = float(duration_s)
        self.provider = provider
        self.escrow = escrow
        self._tracer = tracer if tracer is not None else Tracer()
        self._metrics = metrics
        #: inode -> (record we hold, its exact wire bytes for CAS)
        self._held: dict[int, tuple[LeaseRecord, bytes]] = {}
        #: inode -> the last chain link this client wrote (held or
        #: released): what the next acquire CASes against unread.
        self._last: dict[int, tuple[LeaseRecord, bytes]] = {}
        #: inode -> (link, its bytes, the bytes it CASes over, whether a
        #: fence check follows it): a planned acquire, sent at the head
        #: of the op's next frame.
        self._planned: dict[int, tuple[LeaseRecord, bytes,
                                       bytes | None, bool]] = {}
        #: inode -> the bytes a lost head CAS handed back: what the next
        #: acquire inspects instead of reading the blob.
        self._seeds: dict[int, bytes | None] = {}
        #: did the last :meth:`acquire` prove the chain moved only
        #: through this client since its previous link?
        self.unbroken = False
        #: rollback/equivocation watch over the epoch chain.
        self.freshness = FreshnessMonitor()

    # -- plumbing ------------------------------------------------------------

    def _count(self, name: str, help: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help=help).inc()

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
            inode=inode, epoch=epoch, holder=self.holder,
            acquired_us=now,
            expires_us=now + int(self.duration_s * 1_000_000),
            released=released).signed(self.user.signing.signing)

    # -- queries -------------------------------------------------------------

    def held_epoch(self, inode: int) -> int | None:
        """The fencing epoch of a lease this client currently holds."""
        held = self._held.get(inode)
        return held[0].epoch if held is not None else None

    def held_inodes(self) -> list[int]:
        return sorted(self._held)

    def planned(self, inode: int) -> bool:
        """Is a CAS on ``inode`` waiting for the head of a frame?"""
        return inode in self._planned

    def unproven(self, inode: int) -> bool:
        """Is a CAS over this client's own link on ``inode`` -- one the
        cache was kept on -- waiting for the head of a frame?"""
        planned = self._planned.get(inode)
        return planned is not None and planned[3]

    # -- the state machine ---------------------------------------------------

    def acquire(self, inode: int, new: bool = False) -> LeaseRecord:
        """Hold (or keep holding) the lease on ``inode``; the chain's tip
        picks the one route.

        * Our unexpired link, held: kept.
        * Our own released link (while its epoch is the freshness
          monitor's high watermark), a new inode (``new``: allocated in
          this very op, its blob absent) or a released seed: the CAS is
          built, not sent, and the returned link is the one the op's
          next frame CASes in (:meth:`ride`).
        * Any other tip goes through the inspect-and-CAS loop
          (:meth:`_advance`), our own unreleased link and any other seed
          inspected unread, else the blob read first: a fresh
          acquisition, a renewal of our own link, a **takeover** (an
          expired lease of a dead client: verify and roll its journal
          forward, then bump past its epoch), :class:`LeaseHeldError`
          (someone else holds it, unexpired), or :class:`LeaseLostError`
          (we held it but a successor's epoch proves otherwise).

        :attr:`unbroken` is set when the CAS goes over our own link
        (planned: when it predicts the CAS wins), never for a seed.
        """
        held = self._held.get(inode)
        if held is not None and not held[0].expired(self._now_us()):
            self.unbroken = True
            return held[0]

        last = self._last.get(inode)
        if (last is not None and last[0].epoch
                != self.freshness.high_watermark(inode)):
            last = None  # the chain was seen past it: not the tip
        if new or (last is not None and last[0].released):
            base = (last[0].epoch if last is not None
                    else self.freshness.high_watermark(inode) or 0)
            self.unbroken = last is not None
            return self._plan(inode, base + 1,
                              last[1] if last is not None else None,
                              checked=self.unbroken)
        own = last[1] if last is not None else None
        raw, fetched = own, own is not None
        if inode in self._seeds:
            raw, fetched, own = self._seeds.pop(inode), True, None
            seed = self._released_seed(inode, raw)
            if seed is not None:
                self.unbroken = False
                return self._plan(inode, successor_epoch(seed), raw,
                                  checked=False)
        blob_id = lease_blob(inode)
        self.unbroken = False
        for _ in range(_ACQUIRE_ROUNDS):
            if not fetched:
                raw = self._read(blob_id)
            fetched = False
            try:
                record = self._advance(inode, blob_id, raw)
            except CasConflictError as exc:
                # Lost the race: somebody else advanced the chain.
                # Re-inspect what they wrote instead of re-fetching.
                self._count("lease.conflicts",
                            "CAS races lost while acquiring leases")
                raw = exc.current
                fetched = True
                continue
            self.unbroken = own is not None and raw == own
            return record
        record = LeaseRecord.from_bytes(raw, inode) if raw else None
        raise LeaseHeldError(
            f"inode {inode}: lease contended beyond "
            f"{_ACQUIRE_ROUNDS} CAS rounds",
            holder=record.holder if record else "",
            expires_at_s=(record.expires_us / 1e6) if record else 0.0)

    def _plan(self, inode: int, epoch: int, expected: bytes | None,
              checked: bool) -> LeaseRecord:
        record = self._make(inode, epoch)
        self._planned[inode] = (record, record.to_bytes(), expected,
                                checked)
        return record

    def _released_seed(self, inode: int,
                       raw: bytes | None) -> LeaseRecord | None:
        """The verified link a lost CAS handed back, if it is a released
        one: taking it over needs no roll-forward."""
        if raw is None:
            return None
        record = LeaseRecord.from_bytes(raw, inode)
        if not record.released:
            return None
        self._observe(inode, raw, record)
        self._last.pop(inode, None)
        return record

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

        record = LeaseRecord.from_bytes(raw, inode)
        self._observe(inode, raw, record)
        now_us = self._now_us()

        if record.holder == self.holder:
            # Ours (this session's, or a previous incarnation's -- that
            # one's journal is replayed by our own mount): renew.
            return self._swap(inode, blob_id,
                              self._make(inode, successor_epoch(record)),
                              expected=raw, verb="lease.renewals",
                              help="renewals of held leases")

        self._last.pop(inode, None)  # the tip is somebody else's link
        if held is not None:
            # We believed we held this lease; the chain moved past us.
            self._held.pop(inode, None)
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
        # presumed-dead client whose journal must be rolled forward
        # first so no journaled work is lost.
        with self._tracer.span("lease.takeover", inode=inode,
                               prior_holder=record.holder,
                               prior_epoch=record.epoch):
            if not record.released:
                self._roll_forward_holder(record.holder)
            taken = self._swap(inode, blob_id,
                               self._make(inode, successor_epoch(record)),
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
        replayed = journal.roll_forward(self._exchange, self.provider,
                                        self.escrow(holder), holder=holder)
        for _ in replayed:
            self._count("lease.takeover_replays",
                        "dead clients' journal records replayed at "
                        "takeover")

    def _swap(self, inode: int, blob_id: BlobId, record: LeaseRecord,
              expected: bytes | None, verb: str,
              help: str) -> LeaseRecord:
        raw = record.to_bytes()
        reply, = self._exchange(
            "lease.acquire", [BatchOp.put_if(blob_id, raw, expected)])
        reply.raise_for_status()
        self._won(inode, record, raw, verb, help)
        return record

    def _won(self, inode: int, record: LeaseRecord, raw: bytes, verb: str,
             help: str) -> None:
        """Book a link this client's CAS wrote: the chain's tip, held
        unless it is a release; counted as ``verb``."""
        self.freshness.observe_metadata(inode, record.epoch, raw)
        self._last[inode] = (record, raw)
        if record.released:
            self._held.pop(inode, None)
        else:
            self._held[inode] = self._last[inode]
        self._count(verb, help)

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
        with self._tracer.span("lease.renew_all", count=len(ops)):
            replies = self._exchange("lease.renew", ops)
        renewed: list[int] = []
        lost: list[int] = []
        for inode, successor, op, reply in zip(inodes, successors, ops,
                                               replies):
            if reply.status == "ok":
                self._won(inode, successor, op.payload, "lease.renewals",
                          "renewals of held leases")
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

    def release(self, *inodes: int) -> None:
        """Surrender leases with one frame of *released* records.

        The chain stays monotone (release bumps the epoch, never
        deletes the blob), so freshness monitoring keeps working across
        release/re-acquire cycles, and the released record is the link
        the next :meth:`acquire` CASes against.  Losing a release CAS is
        benign: a successor already took the lease over.  Planned CASes
        are dropped unsent.
        """
        for inode in inodes:
            self._planned.pop(inode, None)
        plan = FrameLinks(tail=self._released(
            {inode: self._held[inode] for inode in inodes
             if inode in self._held}))
        if plan.tail:
            self.book(plan, [], self._exchange(
                "lease.release", [op for *_, op in plan.tail]))

    def _released(self, links: dict) -> list:
        """The tail: a released successor CASed over each link."""
        tail = []
        for inode, (record, raw) in links.items():
            released = self._make(inode, record.epoch + 1, released=True)
            tail.append((inode, released, BatchOp.put_if(
                lease_blob(inode), released.to_bytes(), expected=raw)))
        return tail

    def links(self, *inodes: int) -> FrameLinks:
        """Plan the head and the tail of a mutation frame over the
        leases of ``inodes``: each planned CAS no earlier frame carried,
        or a held lease's bytes against themselves, then its released
        successor.

        A seeded takeover no frame carried goes first
        (:meth:`send_planned`): its epoch is the one any reader of the
        seed would write, so no fence in the mutation frame could stop
        on its loss.
        """
        if any(expected is not None and not checked
               for *_, expected, checked in self._planned.values()):
            self.send_planned()
        self._seeds = {}
        plan, links = FrameLinks(), {}
        for inode in inodes:
            planned = self._planned.pop(inode, None)
            if planned is not None:
                record, raw, expected, checked = planned
                plan.head.append((inode, record, BatchOp.put_if(
                    lease_blob(inode), raw, expected)))
                links[inode] = (record, raw)
                if checked:
                    plan.checks.append((inode, record.epoch))
            elif inode in self._held:
                record, raw = links[inode] = self._held[inode]
                plan.head.append((inode, None, BatchOp.put_if(
                    lease_blob(inode), raw, raw)))
                plan.checks.append((inode, record.epoch))
        plan.tail = self._released(links)
        return plan

    def send_planned(self) -> None:
        """Send every CAS :meth:`ride` would take, with its checks, in a
        frame of its own, and book the replies (:meth:`settle`: one that
        lost raises :class:`HeadCasLost`, its link kept as the seed the
        next :meth:`acquire` inspects).  The one lone send of a planned
        CAS: a seeded takeover ahead of the mutation frame, or a
        standalone caller that needs the lease held now."""
        head = self.ride()
        if head is None:
            return
        try:
            replies = self._exchange("lease.acquire", head.ops)
        except BaseException:
            self.unride(head)
            raise
        self.settle(head, replies)

    def ride(self) -> FrameLinks | None:
        """Take every planned CAS over a link out of the plan, for the
        head of the frame about to be sent (None: none planned; a new
        inode's CAS stays for the mutation frame: no other writer can
        hold its lease).  Each link another writer could have moved gets
        a fence check at its epoch behind the CASes, so a CAS that lost
        stops the frame there."""
        if not self._planned:
            return None
        plan = FrameLinks()
        for inode, (record, raw, expected, checked) in list(
                self._planned.items()):
            if expected is None:
                continue
            del self._planned[inode]
            plan.head.append((inode, record, BatchOp.put_if(
                lease_blob(inode), raw, expected)))
            if checked:
                plan.checks.append((inode, record.epoch))
        return plan if plan.head else None

    def unride(self, plan: FrameLinks, inodes=None) -> None:
        """The frame carrying ``plan`` failed (only at ``inodes``, if
        given): plan those CASes again, for the next frame.  One that
        landed after all meets its own link there, which :meth:`settle`
        books as won."""
        checked = {inode for inode, _ in plan.checks}
        for inode, record, op in plan.head:
            if inodes is None or inode in inodes:
                self._planned.setdefault(inode, (
                    record, op.payload, op.expected, inode in checked))

    def settle(self, plan: FrameLinks, replies) -> None:
        """Book the replies to a ridden head (``replies`` may run on into
        the frame's own).  A CAS that met its own link -- a copy of the
        frame the transport sent again -- won; one the frame did not
        apply is planned again and its error raised; one that lost
        raises :class:`HeadCasLost` once the link it met is kept as the
        seed, so whatever the frame read behind it goes unread."""
        head = [BatchReply("ok") if reply.status == "conflict"
                and reply.payload == op.payload else reply
                for (*_, op), reply in zip(plan.head, replies)]
        self.unride(plan, {inode for (inode, *_), reply
                           in zip(plan.head, head)
                           if reply.status in ("error", "unattempted")})
        self.book(plan, head, [])
        for (inode, *_), reply in zip(plan.head, head):
            if reply.status == "error":
                reply.raise_for_status()
            if reply.status == "conflict":
                raise HeadCasLost(f"inode {inode}: the chain moved past "
                                  f"the link this client's CAS expected",
                                  inode)

    def book(self, plan: FrameLinks, head_replies, tail_replies) -> None:
        """Take the replies to a frame's head and tail back."""
        for (inode, record, op), reply in zip(plan.head, head_replies):
            if record is None:
                continue  # a held lease, compared: its fence judges it
            if reply.status == "ok":
                self._won(inode, record, op.payload, "lease.acquires",
                          "fresh lease acquisitions")
                continue
            self._last.pop(inode, None)  # not the tip (or unknown)
            if reply.status == "conflict":
                self._seeds[inode] = reply.payload
                self._count("lease.conflicts",
                            "CAS races lost while acquiring leases")
        for (inode, record, op), reply in zip(plan.tail, tail_replies):
            if reply.status == "ok":
                self._won(inode, record, op.payload, "lease.releases",
                          "voluntary lease releases")
            elif reply.status == "conflict":
                self.forget(inode)

    def landed(self, plan: FrameLinks, head_replies) -> None:
        """Book a frame whose first copy landed whole, from the head
        replies of a copy the transport sent again: an inode whose CAS
        conflicted with the released link the tail built is booked as
        acquired and released; any other is forgotten (its next acquire
        reads the chain)."""
        built = [op.payload for *_, op in plan.tail]
        replies = [BatchReply("ok" if reply.status == "conflict"
                              and reply.payload == payload
                              else "unattempted")
                   for reply, payload in zip(head_replies, built)]
        for (inode, *_), reply in zip(plan.head, replies):
            if reply.status != "ok":
                self.forget(inode)
        self.book(plan, replies, replies)

    def fenced_out(self, inode: int) -> None:
        """Raise what a mutation frame stopped at ``inode``'s fence
        means: :class:`HeadCasLost` if the link was a planned CAS's
        that lost, else :class:`LeaseLostError` (taken over)."""
        if inode in self._seeds:
            raise HeadCasLost(f"inode {inode}: the chain moved past this "
                              f"client's last link", inode)
        self.forget(inode)
        self._count("lease.lost",
                    "leases found taken over by a mutation frame's head")
        raise LeaseLostError(f"inode {inode}: lease taken over before "
                             f"the mutation frame")

    def release_all(self) -> None:
        self.release(*self.held_inodes())

    def forget(self, inode: int) -> None:
        """Drop one lease's local state without touching the SSP.

        Used when the lease was *lost* (taken over): writing a release
        record would be both futile (our epoch is stale, the CAS loses)
        and wrong (the lease is not ours to release) -- and when the
        inode itself is gone (unlinked).
        """
        self._held.pop(inode, None)
        self._last.pop(inode, None)
        self._planned.pop(inode, None)
        self._seeds.pop(inode, None)

    def forget_all(self) -> None:
        """Drop local lease state without touching the SSP (crash sim,
        unmount)."""
        self._held.clear()
        self._last.clear()
        self._planned.clear()
        self._seeds.clear()
