"""One client's mutation pipeline: crash-safe, multi-client-safe writes.

The client (fs/client.py) speaks in paths, CAPs and keys: a mutating op
calls :meth:`MutationPipeline.touch` before it reads or writes an inode
and sends its edits through the blob channel, which stages them while
the op is open.  The rest is here: the scope and its failure rule, the
re-run rule, leases and fences, the one frame a journaled op ships
(head CASes, fenced intent and checks, apply, commit, released tail),
the settling of a frame whose outcome is unknown, and replay.

One ``holder`` -- the user id -- names the pipeline's principal wherever
the SSP or a peer sees it: the journal slot and the context sealed into
it, the lease holder (and the "ours" test on a chain link), the version
statement's slot.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable

from ..errors import (CircuitOpenError, FileNotFound, FilesystemError,
                      LeaseError, LeaseHeldError, LeaseLostError,
                      StaleEpochError, StorageError, TransientStorageError)
from ..storage.blobs import journal_blob, lease_blob
from ..storage.server import BatchOp, BatchReply
from . import journal
from .lease import HeadCasLost

#: backoff while waiting out a held lease (``lease_wait_attempts``):
#: first wait and the cap its doubling stops at, in simulated seconds.
LEASE_WAIT_BASE_S = 0.05
LEASE_WAIT_MAX_S = 2.0

#: runs of an op after the first whose planned lease CAS lost (a third
#: writer can beat the re-run's takeover too).
LEASE_RERUNS = 4

#: what the journal holds of a frame whose outcome is unknown.
COMMIT, INTENT, OTHER, UNREADABLE = "commit", "intent", "other", "unreadable"


def mutating(op: str):
    """Run a client method as the mutation ``op``
    (:meth:`MutationPipeline.run`); inside ``@traced``, the span covers
    the whole frame."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(fs, *args, **kwargs):
            return fs.mutation.run(
                op, functools.partial(fn, fs, *args, **kwargs))
        return inner
    return wrap


class MutationPipeline:
    """Scope, leases, journal frame and replay of one mounted client.

    ``blobs`` is the client's blob channel and ``invalidate(inode)`` its
    cache's; ``journaled`` turns the frame and replay on.  The client
    sets :attr:`lease` (a :class:`~repro.fs.lease.LeaseManager` writing
    links under :attr:`holder`) and :attr:`consistency` (its
    fork-consistency log) when it has them.
    """

    def __init__(self, user, provider, blobs, *, metrics, tracer,
                 invalidate, journaled: bool, cost=None,
                 wait_attempts: int = 0):
        self.user = user
        self.holder = user.user_id
        self.provider = provider
        self.blobs = blobs
        self.metrics = metrics
        self.tracer = tracer
        self.invalidate = invalidate
        self.journaled = journaled
        self.cost = cost
        self.wait_attempts = max(0, wait_attempts)
        self.lease = None
        self.consistency = None
        #: intents journaled at the SSP but not yet committed.
        self.pending: list[journal.IntentRecord] = []
        #: intent seq -> what to run once its writes land (on_landed).
        self._landing: dict[int, list[Callable[[], None]]] = {}
        self._seq = 0
        #: inode -> the lease epoch the current mutation is fenced at.
        self._fences: dict[int, int] = {}
        #: inodes it deletes: their links are forgotten after the frame.
        self._unlinked: set[int] = set()
        #: inodes the outermost mutation touched (None outside one).
        self._touched: set[int] | None = None
        #: did the failed op decide on a cache whose CAS never went out?
        self._unproven = False
        #: directories whose cached tables a leased mutation resolved
        #: through: no lease proves them.
        self._cached_dirs: set[int] = set()
        if journaled:
            metrics.gauge(
                "journal.pending",
                help="intents journaled at the SSP but not yet committed",
                fn=lambda: len(self.pending))

    def _count(self, name: str, help: str, amount: int = 1) -> None:
        if amount:
            self.metrics.counter(name, help=help).inc(amount)

    # -- the scope -----------------------------------------------------------

    def run(self, op: str, call):
        """Run ``call`` as the mutation ``op``: the re-run rule.

        The outermost call runs the op once more when nothing was
        written and its outcome rests on what no lease proved: a planned
        CAS lost (:class:`~repro.fs.lease.HeadCasLost`), or the first run
        refused on a cache whose CAS never went out or on cached tables
        no lease proves.  The failed scope invalidated every inode the op
        touched and the tables it resolved through are dropped, so the
        re-run reads from the SSP, its planned CAS riding those reads.
        While a third writer beats the CAS over the link a lost one met,
        the op runs again (:data:`LEASE_RERUNS`).
        """
        outermost = self._touched is None
        for rerun in range(LEASE_RERUNS + 1):
            try:
                with self.scope(op):
                    return call()
            except HeadCasLost:
                if not outermost or rerun == LEASE_RERUNS:
                    raise
            except FilesystemError as exc:
                unseen = (self._cached_dirs
                          if isinstance(exc, FileNotFound) else ())
                if not (outermost and not rerun and (
                        unseen or (self._unproven
                                   and not isinstance(exc, LeaseError)))):
                    raise
                for inode in unseen:
                    self.invalidate(inode)

    @contextmanager
    def scope(self, op: str):
        """Scope one op (nested scopes join it): the cache's one failure
        rule.  What a mutation writes through to the cache is trusted
        only if it returns: any exception leaving the outermost scope
        invalidates every inode the op touched.  Journaled, the op is
        one frame (:meth:`_journaled`).  A lost CAS keeps its inode's
        remembered block count: a hint that only widens the re-run's
        first flight.
        """
        if self._touched is not None:
            yield
            return
        self._touched = set()
        self._unproven = False
        self._cached_dirs = set()
        try:
            if self.journaled:
                with self._journaled(op):
                    yield
            else:
                yield
        except BaseException as exc:
            lost = exc.inode if isinstance(exc, HeadCasLost) else None
            for inode in self._touched:
                self.invalidate(inode, keep_count=inode == lost)
            raise
        finally:
            self._touched = None

    def note_cached_table(self, inode: int) -> None:
        """The op resolved through directory ``inode``'s cached table."""
        if self._touched is not None and self.lease is not None:
            self._cached_dirs.add(inode)

    def deleted(self, inode: int) -> None:
        """The op deletes ``inode``: forget its lease link once the
        frame has released it."""
        if self.lease is not None:
            self._unlinked.add(inode)

    def on_landed(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the current op's writes are on the SSP: now,
        unjournaled (they were sent); journaled, when its frame's apply
        lands -- or its replay's, for an intent left pending.  An op
        that rolls back never runs it."""
        if self.blobs.batch is None:
            fn()
        else:
            self._landing.setdefault(self._seq + 1, []).append(fn)

    def _landed(self, record: journal.IntentRecord) -> None:
        for fn in self._landing.pop(record.seq, ()):
            fn()

    # -- leases --------------------------------------------------------------

    def touch(self, inode: int, new: bool = False) -> bool:
        """The current mutation is about to write ``inode``: called
        before the op's first write of it and the first read its
        decision rests on.

        Leased, the inode's lease is taken here (``new``: allocated by
        this op, no lease blob yet) by ``LeaseManager.acquire``, whose
        chain tip picks the route: over this client's own released link,
        an absent blob or the released link a lost CAS met, the CAS is
        planned and rides the head of the op's next frame (``BlobIO``'s
        reads, or the mutation frame if the op reads nothing), which
        reads and writes nothing unless the CAS wins; any other tip is
        inspected and CASed now.  The cache for the inode stays warm
        exactly when the chain provably moved only through this client
        since its last link (``LeaseManager.unbroken``).  Returns
        whether this call took the lease.
        """
        self._touched.add(inode)
        if (self.lease is None or self.blobs.batch is None
                or inode in self._fences):
            return False
        delay = LEASE_WAIT_BASE_S
        for attempt in range(self.wait_attempts + 1):
            try:
                record = self.lease.acquire(inode, new=new)
                break
            except LeaseHeldError:
                if attempt >= self.wait_attempts:
                    raise
                # Wait the holder out: the backoff advances the lease
                # clock, so a crashed holder's lease expires and the
                # next acquire() takes it over.
                self._count("lease.waits",
                            "backoffs spent waiting out held leases")
                if (self.cost is not None
                        and self.cost.clock is self.lease.clock):
                    self.cost.charge_wait(delay)
                else:
                    self.lease.clock.advance(delay)
                delay = min(delay * 2, LEASE_WAIT_MAX_S)
        self._fences[inode] = record.epoch
        if not self.lease.unbroken:
            self.invalidate(inode, keep_count=self.lease.planned(inode))
        return True

    def _release_fences(self) -> None:
        """Release the mutation's held leases in one frame (best effort:
        an unreleased lease only costs peers a takeover after expiry).
        Planned CASes go unsent."""
        fences, self._fences = self._fences, {}
        if self.lease is not None and fences:
            try:
                self.lease.release(*fences)
            except StorageError:
                pass

    def renew(self) -> list[int]:
        """Renew every held lease in one frame; a lease another client
        advanced past is lost: dropped, its inode's cache invalidated.
        Returns the inodes renewed."""
        if self.lease is None:
            return []
        renewed, lost = self.lease.renew_all()
        for inode in lost:
            self.invalidate(inode)
        return renewed

    def close(self) -> None:
        """Unmount: release every held lease (best effort: peers take
        over after expiry), then forget them."""
        if self.lease is not None:
            try:
                self.lease.release_all()
            except StorageError:
                pass
            self.lease.forget_all()

    # -- the frame -----------------------------------------------------------

    @contextmanager
    def _journaled(self, op: str):
        """One crash-consistent mutation (fs/journal.py): one frame.

        Every put/delete the body issues is deferred into a
        :class:`~repro.fs.journal.MutationBatch`, sealed into an intent
        on clean exit and shipped (:meth:`_land`).  If the body raises,
        nothing was sent; if the frame stops before the intent, nothing
        was written: the op rolls back by construction.  If the apply
        stops part-way, the intent stays pending and is replayed
        (idempotently) before the next mutation or at mount.
        """
        self._replay_pending()
        batch = journal.MutationBatch(op)
        self.blobs.batch = batch
        self._fences = {}
        self._unlinked = set()
        try:
            yield
        except BaseException:
            self.blobs.batch = None
            self._landing.pop(self._seq + 1, None)
            self._unproven = any(map(self.lease.unproven, self._fences)
                                 ) if self.lease is not None else False
            self._release_fences()
            raise
        self.blobs.batch = None
        if not batch.blobs:
            self._landing.pop(self._seq + 1, None)
            self._release_fences()
            return
        self._seq += 1
        self._land(batch.record(self._seq,
                                fences=tuple(sorted(self._fences.items()))))

    def _land(self, record: journal.IntentRecord) -> None:
        """Ship ``record``'s frame (the apply names its payloads inside
        the intent) and judge its replies.

        A frame that raised before its apply keeps the redo and its
        leases exactly when its outcome is unknown and the journal may
        hold its intent.  Leased, a copy the transport sent again after
        the first landed stops at the fences the first copy's tail
        moved past, as if a peer had taken the lease; the journal tells
        the two apart.
        """
        jid = journal_blob(self.holder)
        intent = self._journal_put(self.pending + [record])
        apply = journal.write_ops(record.blobs, self._fences, ref=jid)
        commit = self._journal_put(self.pending)
        self.pending.append(record)
        holds = None
        try:
            with self.tracer.span("journal", phase="mutation",
                                  pending=len(self.pending)):
                if self.lease is None:
                    replies = self.blobs.ship("mutation",
                                              [intent, *apply, commit])
                else:
                    links = self.lease.links(*self._fences)
                    ops, guards, at = self._frame(links, intent, apply,
                                                  commit)
                    retries = getattr(self.blobs.server, "retries", 0)
                    replies = self.blobs.ship("mutation", ops)
                    if (getattr(self.blobs.server, "retries", 0) != retries
                            and any(reply.status == "fenced"
                                    for reply in replies)):
                        holds = self._journal_holds(intent, commit)
                        if holds == UNREADABLE:
                            raise TransientStorageError(
                                "a frame sent again stopped at a fence "
                                "and the journal is unreadable")
                    replies = self._judge(links, guards, at, replies,
                                          landed=holds == COMMIT)
            replies[0].raise_for_status()
        except BaseException as exc:
            # A transport failure hides where the frame stopped (an open
            # breaker sent nothing; any other failure shows the stop).
            if (isinstance(exc, TransientStorageError)
                    and not isinstance(exc, CircuitOpenError)
                    and (holds or self._journal_holds(intent, commit))
                    in (INTENT, UNREADABLE)):
                raise
            self.pending.remove(record)
            self._landing.pop(record.seq, None)
            self._release_fences()
            raise
        self._count("journal.appends", "intents journaled")
        try:
            self.blobs.raise_failure(record.blobs, replies[1:-1])
        except StaleEpochError as exc:
            # A successor took our lease over mid-frame and rolled our
            # intent forward before bumping the epoch: the op is applied
            # -- by them.  Drop the record, forget the stale leases and
            # surface the loss (the scope invalidates what the op
            # touched: the successor may have kept writing).
            self.pending.remove(record)
            self._landed(record)
            for inode in self._fences:
                self.lease.forget(inode)
            self._fences = {}
            self._count("lease.lost",
                        "mutations fenced out by a lease takeover")
            raise LeaseLostError(
                f"{record.op}: lease taken over mid-mutation "
                f"({exc})") from exc
        self._landed(record)
        # A commit that failed stays pending: the next mutation replays
        # the (idempotent) intent and commits it.
        replies[-1].raise_for_status()
        self.pending.remove(record)
        self._fences = {}
        self._count("journal.commits", "intents committed")
        if self.consistency is not None:
            self.consistency.observe_journal(record.seq)
        for inode in self._unlinked:
            self.lease.forget(inode)

    @staticmethod
    def _frame(links, intent: BatchOp, apply: list[BatchOp],
               commit: BatchOp) -> tuple[list[BatchOp], list, int]:
        """The leased frame's sub-ops, the inode whose fence guards each
        sub-op ahead of the apply, and where the intent is.

        Conflicts do not stop a frame, fences do: the intent is fenced
        at the first link another writer could have taken, every other
        such link checked right before and behind it.  A lost CAS leaves
        the chain past the epoch its fence names, so the SSP stops the
        frame ahead of the intent; a takeover during the head stops it
        ahead of the apply, the intent it let through superseded.
        """
        ops = [op for _, _, op in links.head]
        guards: list[int | None] = [None] * len(ops)
        body = [intent, *apply, commit]
        at = len(ops)
        if links.checks:
            (first, epoch), rest = links.checks[0], links.checks[1:]
            probes = journal.fence_checks(rest)
            others = [inode for inode, _ in rest]
            at += len(probes)
            ops += probes + [BatchOp.put_fenced(
                intent.blob_id, intent.payload, lease_blob(first),
                epoch)] + probes
            guards += others + [first] + others
            body = body[1:]
        return ops + body + [op for _, _, op in links.tail], guards, at

    def _judge(self, links, guards: list, at: int,
               replies: list[BatchReply], landed: bool) -> list[BatchReply]:
        """The intent's, the apply's and the commit's replies, once the
        lease manager booked the head's and the tail's (``landed``: as
        the first copy of a frame sent twice left them); a frame that
        stopped ahead of the apply raises what the stop means."""
        gate, end = len(guards), len(replies) - len(links.tail)
        picked = [replies[at]] + replies[max(gate, at + 1):end]
        if landed:
            self.lease.landed(links, replies[:len(links.head)])
            return [BatchReply("ok")] * len(picked)
        self.lease.book(links, replies[:len(links.head)], replies[end:])
        for reply, inode in zip(replies, guards):
            if reply.status == "error":
                reply.raise_for_status()
            if reply.status == "fenced":
                self.lease.fenced_out(inode)
        return picked

    def _journal_holds(self, intent: BatchOp, commit: BatchOp) -> str:
        """The one read that settles a frame whose outcome is unknown.

        The journal holds the frame's intent from the moment it lands
        until the frame's commit replaces it, each sealed under a fresh
        nonce so no other write matches: :data:`COMMIT` (landed through
        its commit), :data:`INTENT` (a redo may be owed), :data:`OTHER`
        (another journal or none: the intent never landed) or
        :data:`UNREADABLE`.
        """
        try:
            stored, = self.blobs.exchange(
                "journal.read", [BatchOp.get(journal_blob(self.holder))])
        except StorageError:
            return UNREADABLE
        if stored.status != "ok":
            return OTHER if stored.status == "missing" else UNREADABLE
        if stored.payload == commit.payload:
            return COMMIT
        return INTENT if stored.payload == intent.payload else OTHER

    def _journal_put(self, records) -> BatchOp:
        """The sub-op that seals ``records`` into the holder's journal."""
        return BatchOp.put(journal_blob(self.holder),
                           journal.seal_journal(self.provider, self.user,
                                                records, holder=self.holder))

    # -- replay --------------------------------------------------------------

    def _roll_forward(self, records: list[journal.IntentRecord],
                      phase: str) -> list[journal.IntentRecord]:
        """Replay ``records``, one fenced frame each
        (:func:`journal.roll_forward`); returns those replayed.

        Whatever the client read of their inodes since the first apply
        is half-applied state the SSP now moves past, so the cache
        forgets them first.  A record fenced out was rolled forward by a
        lease successor: it is dropped, never replayed over the
        successor's newer writes.
        """
        for record in records:
            for inode in record.inodes():
                self.invalidate(inode)
        with self.tracer.span("journal", phase=phase, pending=len(records)):
            replayed = journal.roll_forward(self.blobs.ship, self.provider,
                                            self.user, records,
                                            holder=self.holder)
        self._count("journal.fenced_replays",
                    "pending intents dropped: already rolled forward by "
                    "a lease successor", len(records) - len(replayed))
        return replayed

    def _replay_pending(self) -> None:
        """Re-apply the intent whose first apply failed part-way; it
        stays pending while its replay fails."""
        if self.pending:
            replayed = self._roll_forward(self.pending, "replay")
            for record in self.pending:  # replayed, or by a lease successor
                self._landed(record)
            self.pending = []
            self._count("journal.replays",
                        "pending intents re-applied in-session",
                        len(replayed))

    def recover(self) -> list[journal.IntentRecord]:
        """At mount: replay whatever a dead mount left; returns the
        intents replayed.

        New intents number past the version statement's watermark, or
        this session's commits would look like stale re-serves.  The
        journal is authenticated before anything is replayed: a
        tampered, forged or misplaced record raises
        :class:`~repro.errors.IntegrityError` and is never applied.
        """
        if self.consistency is not None:
            self._seq = max(self._seq, self.consistency.journal_seq)
        if not self.journaled:
            return []
        records = journal.pending(self.blobs.ship, self.provider,
                                  self.user, holder=self.holder)
        if not records:
            return []
        last = max(record.seq for record in records)
        if (self.consistency is not None
                and last <= self.consistency.journal_seq):
            # The VSL says we committed past every intent the SSP
            # serves: it re-serves a stale pre-commit journal, whose
            # replay would silently roll the volume back.
            from .consistency import ForkDetected
            raise ForkDetected(
                f"{self.holder}: SSP served a stale committed journal "
                f"(intents <= {self.consistency.journal_seq}, already "
                f"committed per my version statement)")
        self._seq = max(self._seq, last)
        self.pending = []
        replayed = self._roll_forward(records, "recover")
        self._count("journal.recovered",
                    "intents replayed by mount-time recovery", len(replayed))
        if self.consistency is not None and replayed:
            self.consistency.observe_journal(max(r.seq for r in replayed))
        return replayed
