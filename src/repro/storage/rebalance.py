"""Crash-safe online shard rebalancing: change N or k under load.

The paper's enterprise outsources storage to SSPs it does not control,
so the SSP fleet itself must be mutable: a provider gets decommissioned,
a new one is added, or the replication factor changes -- all while
clients keep reading and writing.  This module grows the PR 8
:class:`~repro.storage.shards.ShardedServer` into that shape with a
signed, persisted :class:`RebalancePlan` executed as an idempotent

    copy -> verify -> flip -> drop

pipeline.  Every safety argument reduces to two mechanisms the repo
already trusts:

* **Dual placement.**  While a plan is adopted, reads consult the union
  of the old and new rings (authoritative ring first -- see
  ``ShardedServer.placement``) and every mutation fans out to both, so
  a crash at *any* pipeline step can never strand the only copy of a
  newer version on the losing ring.
* **Epoch fencing.**  The plan blob (``plan/0/-``) carries a plaintext
  8-byte prefix ``epoch * 256 + state_rank``: monotone across plan
  epochs *and* across states within one plan.  Every state transition
  is a ``put_if`` CAS against the stored winner, and every data move is
  a ``put_fenced``/``delete_fenced`` against the plan blob at the
  plan's own prefix -- a crashed-and-resurrected ("zombie") rebalancer
  is mechanically rejected with :class:`~repro.errors.StaleEpochError`
  or :class:`~repro.errors.CasConflictError`, exactly like a zombie
  writer under the PR 7 lease protocol.

The plan *body* (epoch, rings, move list) is RSA-signed by the
proposing administrator; the state rides outside the signature (in the
prefix) so a keyless repair process can still advance or abort a
stranded plan, but a malicious SSP that tampers with the body is
refused at load time (signature check raises
:class:`~repro.errors.IntegrityError`; the copy is simply ignored --
see docs/THREAT_MODEL.md).

Recovery policy (used by ``ShardedServer.repair`` via
:func:`resolve_plan`): a plan that already **flipped** made the new
ring authoritative, so the only safe direction is forward (resume
drop + finish); a plan that has not flipped never took authority away
from the old ring, so it is rolled back (reverse-copy any newer
versions home, then abandon the staged copies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..crypto import rsa
from ..errors import (IntegrityError, StaleEpochError,
                      TransientStorageError)
from .blobs import LEASE, PLAN, BlobId, parse_blob_id, plan_blob
from .server import EPOCH_PREFIX_BYTES, fence_epoch
from .shards import RingSpec, ShardedServer

# -- plan states --------------------------------------------------------------

COPYING = "copying"     # staging copies onto the new ring
VERIFIED = "verified"   # every staged copy re-read and matched
FLIPPED = "flipped"     # the new ring is now authoritative
DONE = "done"           # old-placement copies dropped; plan retired
ABORTED = "aborted"     # rolled back pre-flip; staged copies dropped

#: State ranks are monotone within one plan *and* dominated by the
#: epoch (prefix = epoch * 256 + rank), so ``fence_epoch`` over the
#: plan blob orders every (epoch, state) pair ever stored.
_RANK = {COPYING: 1, VERIFIED: 2, FLIPPED: 3, DONE: 4, ABORTED: 5}
_STATE_FOR_RANK = {rank: state for state, rank in _RANK.items()}

#: States with pipeline work still pending.
ACTIVE_STATES = (COPYING, VERIFIED, FLIPPED)


@dataclass(frozen=True)
class RebalancePlan:
    """A signed old-ring -> new-ring migration contract.

    The signature covers :meth:`body_bytes` -- epoch, both rings and
    the move list -- but *not* ``state``: state transitions are CAS'd
    through the quorum by whoever is driving recovery, keys in hand or
    not, while the contract itself stays tamper-evident.
    """

    epoch: int
    state: str
    old: RingSpec
    new: RingSpec
    moves: tuple[BlobId, ...]
    signature: bytes = b""

    @property
    def rank(self) -> int:
        return _RANK[self.state]

    @property
    def prefix(self) -> int:
        """The plaintext fencing prefix: monotone over epoch then state."""
        return self.epoch * 256 + self.rank

    @property
    def flipped(self) -> bool:
        """Has authority moved to the new ring?  (Consumed by
        ``ShardedServer._rings`` through the adopt-plan duck type.)"""
        return self.state in (FLIPPED, DONE)

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def body_bytes(self) -> bytes:
        """The canonical signed body (state deliberately excluded)."""
        return json.dumps({
            "epoch": self.epoch,
            "old": {"members": list(self.old.members),
                    "replicas": self.old.replicas},
            "new": {"members": list(self.new.members),
                    "replicas": self.new.replicas},
            "moves": [str(b) for b in self.moves],
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def sign(self, private: rsa.PrivateKey) -> "RebalancePlan":
        return replace(self,
                       signature=rsa.sign(private, self.body_bytes()))

    def to_blob(self) -> bytes:
        """Wire form: 8-byte prefix, then JSON {body, sig}."""
        payload = json.dumps({
            "body": self.body_bytes().decode("utf-8"),
            "sig": self.signature.hex(),
        }, sort_keys=True).encode("utf-8")
        return self.prefix.to_bytes(EPOCH_PREFIX_BYTES, "big") + payload

    @classmethod
    def from_blob(cls, raw: bytes,
                  verify_key: rsa.PublicKey) -> "RebalancePlan":
        """Parse + verify one stored plan copy; tampering is refused.

        Raises :class:`~repro.errors.IntegrityError` when the signature
        does not cover the body, the prefix disagrees with the signed
        epoch, or the encoding is malformed -- callers treat any such
        copy as hostile and ignore it.
        """
        if len(raw) < EPOCH_PREFIX_BYTES:
            raise IntegrityError("plan blob too short for its prefix")
        prefix = int.from_bytes(raw[:EPOCH_PREFIX_BYTES], "big")
        try:
            outer = json.loads(raw[EPOCH_PREFIX_BYTES:])
            body_raw = outer["body"].encode("utf-8")
            signature = bytes.fromhex(outer["sig"])
        except (ValueError, KeyError, TypeError) as exc:
            raise IntegrityError(f"malformed plan blob: {exc}") from exc
        rsa.verify(verify_key, body_raw, signature)
        try:
            body = json.loads(body_raw)
            plan = cls(
                epoch=int(body["epoch"]),
                state=_STATE_FOR_RANK.get(prefix % 256, ""),
                old=RingSpec(tuple(body["old"]["members"]),
                             int(body["old"]["replicas"])),
                new=RingSpec(tuple(body["new"]["members"]),
                             int(body["new"]["replicas"])),
                moves=tuple(parse_blob_id(m) for m in body["moves"]),
                signature=signature,
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise IntegrityError(f"malformed plan body: {exc}") from exc
        if not plan.state:
            raise IntegrityError(f"unknown plan state rank {prefix % 256}")
        if prefix // 256 != plan.epoch:
            raise IntegrityError(
                f"plan prefix epoch {prefix // 256} does not match "
                f"signed epoch {plan.epoch}")
        return plan


@dataclass
class RebalanceReport:
    """What one :class:`Rebalancer` drive (or recovery) did."""

    epoch: int = 0
    state: str = ""
    moved: int = 0        # copies staged onto the new placement
    verified: int = 0     # staged copies re-read and matched
    healed: int = 0       # staged copies re-written on mismatch
    dropped: int = 0      # old-placement copies dropped post-flip
    skipped: int = 0      # moves skipped (blob deleted mid-plan)
    unreachable: int = 0  # replica calls lost to shard outages

    def summary(self) -> str:
        return (f"plan {self.epoch} {self.state}: "
                f"moved {self.moved}, verified {self.verified}, "
                f"healed {self.healed}, dropped {self.dropped}, "
                f"skipped {self.skipped}, unreachable {self.unreachable}")


class Rebalancer:
    """Drives a :class:`RebalancePlan` through the sharded router.

    ``keypair`` (an :class:`rsa.KeyPair`) is required to *propose* a
    plan; resuming, finishing or rolling back a stored plan is keyless
    (state lives outside the signature).  ``hook(step, detail)`` fires
    before every pipeline action and is the crash-injection point for
    the rebalance crash matrix -- everything between two hook calls is
    atomic in the single-threaded testbed.
    """

    def __init__(self, server: ShardedServer,
                 keypair: rsa.KeyPair | None = None,
                 verify_key: rsa.PublicKey | None = None,
                 hook: Callable[[str, str], None] | None = None):
        self.server = server
        self.keypair = keypair
        self.verify_key = verify_key or (
            keypair.public if keypair is not None else None)
        self.hook = hook
        #: the plan this rebalancer believes it owns (adopted on the
        #: server); a zombie's stale copy is fenced at the next CAS.
        self.plan: RebalancePlan | None = getattr(server, "plan", None)
        self.report = RebalanceReport()

    # -- crash-injection seam -------------------------------------------------

    def _act(self, step: str, detail: str = "") -> None:
        if self.hook is not None:
            self.hook(step, detail)

    # -- plan lifecycle -------------------------------------------------------

    def propose(self, members: Sequence[int],
                replicas: int) -> RebalancePlan:
        """Sign and CAS-install a plan moving the ring to ``members``.

        The epoch is one past the highest stored plan epoch, and the
        install is a ``put_if`` against the stored winner -- two
        concurrent proposers cannot both win.  The plan is adopted
        (dual placement on) *before* the CAS so the plan blob itself
        lands on every member of both rings; on a lost race the
        adoption is undone.
        """
        if self.keypair is None:
            raise ValueError("proposing a plan requires a signing keypair")
        server = self.server
        if server.plan is not None:
            raise ValueError("a rebalance plan is already active")
        old = server.ring
        new = RingSpec(tuple(members), replicas)
        for m in new.members:
            if not 0 <= m < len(server.shards):
                raise ValueError(f"ring member {m} is not attached")
        if server.read_quorum > new.replicas:
            raise ValueError("read_quorum would exceed the replica count")
        if new == old:
            raise ValueError("new ring equals the current ring")
        current = server._read(plan_blob())
        epoch = (fence_epoch(current) // 256 if current is not None
                 else 0) + 1
        moves = tuple(sorted(
            (b for b in server.census()
             if b.kind != PLAN and b not in server._deleted
             and self._dsts(b, old, new)), key=str))
        plan = RebalancePlan(epoch=epoch, state=COPYING, old=old,
                             new=new, moves=moves).sign(
                                 self.keypair.private)
        server.adopt_plan(plan)
        try:
            server.put_if(plan_blob(), plan.to_blob(), current)
        except Exception:
            server.adopt_plan(None)
            raise
        self.plan = plan
        self.report = RebalanceReport(epoch=epoch, state=COPYING)
        return plan

    @staticmethod
    def load(server: ShardedServer,
             verify_key: rsa.PublicKey) -> RebalancePlan | None:
        """Highest-prefix *signature-valid* stored plan, or None.

        Scans every shard's raw store directly (no placement
        assumptions -- a half-finished plan is exactly when placement
        is in doubt).  Tampered copies fail :meth:`RebalancePlan.
        from_blob` and are skipped: a malicious SSP can hide its own
        copy of the plan, never forge one.
        """
        best: RebalancePlan | None = None
        for shard in server.shards:
            raw = shard.backend.raw_blobs().get(plan_blob())
            if raw is None:
                continue
            try:
                plan = RebalancePlan.from_blob(raw, verify_key)
            except IntegrityError:
                continue
            if best is None or plan.prefix > best.prefix:
                best = plan
        return best

    @classmethod
    def recover(cls, server: ShardedServer,
                verify_key: rsa.PublicKey,
                keypair: rsa.KeyPair | None = None,
                hook: Callable[[str, str], None] | None = None
                ) -> "Rebalancer":
        """Re-attach to whatever plan the store holds (crash recovery).

        An active stored plan is adopted (dual placement resumes); a
        terminal one has its bookkeeping reconciled -- a DONE plan
        whose ring switch never landed is applied, an ABORTED one's
        vacated ring is recorded so repair classifies strays as
        ``migrated``.
        """
        reb = cls(server, keypair=keypair, verify_key=verify_key,
                  hook=hook)
        stored = cls.load(server, reb.verify_key)
        if stored is None:
            server.adopt_plan(None)
            reb.plan = None
            return reb
        if stored.state == DONE:
            if server.ring != stored.new:
                server.set_ring(stored.new.members, stored.new.replicas)
            server.retire_plan(vacated=stored.old)
            reb.plan = None
        elif stored.state == ABORTED:
            server.retire_plan(vacated=stored.new)
            reb.plan = None
        else:
            server.adopt_plan(stored)
            reb.plan = stored
        reb.report = RebalanceReport(epoch=stored.epoch,
                                     state=stored.state)
        return reb

    # -- pipeline -------------------------------------------------------------

    def execute(self, until: str = DONE) -> RebalanceReport:
        """Drive the adopted plan forward, stopping after ``until``.

        Idempotent from any state: already-staged copies are skipped,
        already-passed transitions are not replayed, and a superseding
        plan (or a concurrent driver) surfaces as
        :class:`~repro.errors.StaleEpochError` at the next CAS.
        """
        plan = self.plan
        if plan is None:
            raise ValueError("no rebalance plan to execute")
        report = self.report
        report.epoch, report.state = plan.epoch, plan.state
        stop = _RANK[until]
        if plan.rank < _RANK[VERIFIED] <= stop:
            self._copy(report)
            self._verify(report)
            plan = self._advance(VERIFIED)
        if plan.rank < _RANK[FLIPPED] <= stop:
            self._act("flip", f"epoch {plan.epoch}")
            plan = self._advance(FLIPPED)
        if plan.rank < _RANK[DONE] <= stop:
            self._drop(report)
            self._finish(report)
        if self.plan is not None:
            report.state = self.plan.state
        return report

    def resume(self) -> RebalanceReport:
        """Finish whatever plan :meth:`recover` re-attached (no-op
        when the store held none or a terminal one)."""
        if self.plan is None:
            return self.report
        return self.execute()

    def rollback(self) -> RebalanceReport:
        """Abandon an unflipped plan; the old ring keeps authority.

        Any version a dual write landed only on the staging placement
        is reverse-copied home *before* the staged copies are dropped
        (the union read below votes it the winner because the missed
        old-ring replicas sit in the suspect ledger), so rollback can
        never lose a write.  Only then is ABORTED CAS'd: a crash
        mid-rollback leaves the plan active and the whole rollback
        re-runs idempotently.
        """
        plan = self.plan
        if plan is None:
            raise ValueError("no rebalance plan to roll back")
        if plan.flipped:
            raise ValueError("cannot roll back a flipped plan: the new "
                             "ring is already authoritative")
        server = self.server
        report = self.report
        report.epoch, report.state = plan.epoch, plan.state
        fence = plan_blob()
        for blob_id in plan.moves:
            if blob_id in server._deleted:
                report.skipped += 1
                continue
            self._act("rollback", str(blob_id))
            winner = server._read(blob_id)
            if winner is not None:
                homes = (plan.old.members if blob_id.kind == LEASE
                         else plan.old.targets(blob_id))
                for home in homes:
                    have = (server.shards[home].backend
                            .raw_blobs().get(blob_id))
                    if have == winner:
                        continue
                    try:
                        server.shards[home].transport.put_fenced(
                            blob_id, winner, fence, plan.prefix)
                    except TransientStorageError:
                        report.unreachable += 1
                        continue
                    server._clear_suspect(blob_id, home)
            for dst in self._dsts(blob_id, plan.old, plan.new):
                if not server.shards[dst].backend.exists(blob_id):
                    continue
                try:
                    server.shards[dst].transport.delete_fenced(
                        blob_id, fence, plan.prefix)
                except TransientStorageError:
                    report.unreachable += 1
                    continue
                server._clear_suspect(blob_id, dst)
                report.dropped += 1
                server.rebalance_dropped += 1
        self._act("abort", f"epoch {plan.epoch}")
        self._advance(ABORTED)
        server.retire_plan(vacated=plan.new)
        self.plan = None
        report.state = ABORTED
        return report

    # -- pipeline stages ------------------------------------------------------

    @staticmethod
    def _dsts(blob_id: BlobId, old: RingSpec,
              new: RingSpec) -> tuple[int, ...]:
        """Shards the new placement adds for one blob (the copy set).
        ``moves`` never holds the plan blob itself."""
        if blob_id.kind == LEASE:
            return tuple(sorted(set(new.members) - set(old.members)))
        old_targets = set(old.targets(blob_id))
        return tuple(s for s in new.targets(blob_id)
                     if s not in old_targets)

    @staticmethod
    def _srcs(blob_id: BlobId, old: RingSpec,
              new: RingSpec) -> tuple[int, ...]:
        """Shards the new placement vacates for one blob (the drop set)."""
        if blob_id.kind == LEASE:
            return tuple(sorted(set(old.members) - set(new.members)))
        new_targets = set(new.targets(blob_id))
        return tuple(s for s in old.targets(blob_id)
                     if s not in new_targets)

    def _copy(self, report: RebalanceReport) -> None:
        """Stage every move's winner onto its new-placement shards."""
        plan, server = self.plan, self.server
        fence = plan_blob()
        for blob_id in plan.moves:
            if blob_id in server._deleted:
                report.skipped += 1
                continue
            self._act("copy", str(blob_id))
            winner = server._read(blob_id)
            if winner is None:
                report.skipped += 1
                continue
            for dst in self._dsts(blob_id, plan.old, plan.new):
                have = (server.shards[dst].backend
                        .raw_blobs().get(blob_id))
                if have == winner and \
                        not server._is_suspect(blob_id, dst):
                    continue
                try:
                    server.shards[dst].transport.put_fenced(
                        blob_id, winner, fence, plan.prefix)
                except TransientStorageError:
                    report.unreachable += 1
                    continue
                server._clear_suspect(blob_id, dst)
                report.moved += 1
                server.rebalance_moved += 1

    def _verify(self, report: RebalanceReport) -> None:
        """Re-read every staged copy against the winner; heal mismatches."""
        plan, server = self.plan, self.server
        fence = plan_blob()
        for blob_id in plan.moves:
            if blob_id in server._deleted:
                continue
            self._act("verify", str(blob_id))
            winner = server._read(blob_id)
            if winner is None:
                continue
            for dst in self._dsts(blob_id, plan.old, plan.new):
                have = (server.shards[dst].backend
                        .raw_blobs().get(blob_id))
                if have == winner:
                    report.verified += 1
                    server.rebalance_verified += 1
                    continue
                try:
                    server.shards[dst].transport.put_fenced(
                        blob_id, winner, fence, plan.prefix)
                except TransientStorageError:
                    report.unreachable += 1
                    continue
                server._clear_suspect(blob_id, dst)
                report.healed += 1
                report.verified += 1
                server.rebalance_verified += 1

    def _drop(self, report: RebalanceReport) -> None:
        """Post-flip: vacate old-only placements, healing new first.

        A dual write that missed a new-ring replica (flagged suspect at
        write time) must be healed onto it from the union winner before
        the old copy -- possibly the only good one -- is dropped.
        """
        plan, server = self.plan, self.server
        fence = plan_blob()
        for blob_id in plan.moves:
            if blob_id in server._deleted:
                continue
            self._act("drop", str(blob_id))
            winner = server._read(blob_id)
            if winner is not None:
                targets = (plan.new.members if blob_id.kind == LEASE
                           else plan.new.targets(blob_id))
                for dst in targets:
                    have = (server.shards[dst].backend
                            .raw_blobs().get(blob_id))
                    if have == winner and \
                            not server._is_suspect(blob_id, dst):
                        continue
                    try:
                        server.shards[dst].transport.put_fenced(
                            blob_id, winner, fence, plan.prefix)
                    except TransientStorageError:
                        report.unreachable += 1
                        continue
                    server._clear_suspect(blob_id, dst)
                    server.rebalance_moved += 1
            for src in self._srcs(blob_id, plan.old, plan.new):
                if not server.shards[src].backend.exists(blob_id):
                    continue
                try:
                    server.shards[src].transport.delete_fenced(
                        blob_id, fence, plan.prefix)
                except TransientStorageError:
                    # Left for anti-entropy: post-retire the copy is
                    # classified ``migrated``, never lost data.
                    report.unreachable += 1
                    continue
                server._clear_suspect(blob_id, src)
                report.dropped += 1
                server.rebalance_dropped += 1

    def _finish(self, report: RebalanceReport) -> None:
        """Seal DONE, switch the ring, sweep ex-members.

        One hook call guards the whole block: the DONE CAS, the ring
        switch and the plan retirement are atomic in the testbed, so
        recovery only ever sees "still FLIPPED" (resume forward) or
        "DONE and reconciled".  The done plan blob stays on the current
        ring's members forever -- dropping it would reopen the fencing
        gap a zombie at the same epoch could slip through.
        """
        plan, server = self.plan, self.server
        self._act("finish", f"epoch {plan.epoch}")
        self._advance(DONE)
        server.set_ring(plan.new.members, plan.new.replicas)
        server.retire_plan(vacated=plan.old)
        self.plan = None
        # Sweep every copy the retired ring stranded.  Ex-members are
        # vacated wholesale (control blobs included); dual writes of
        # blobs *created* while the plan was active -- so never in
        # ``plan.moves`` -- left copies on old-only placements of
        # surviving members, and those must go too: a later delete
        # fans to the new placement only, and a stranded copy would
        # resurrect the blob in the union.  New-placement copies are
        # healed from the winner first (a dual write may have missed
        # one), and a blob with no live authoritative copy is left for
        # anti-entropy rather than dropped blind.
        census = server.census()
        for blob_id in sorted(census, key=str):
            keep = set(server.placement(blob_id))
            extras = census[blob_id] - keep
            if not extras:
                continue
            winner = None
            if blob_id.kind != PLAN:
                winner = server._read(blob_id)
                if winner is None and blob_id not in server._deleted:
                    report.unreachable += 1
                    continue
                for dst in sorted(keep):
                    if winner is None:
                        break
                    have = (server.shards[dst].backend
                            .raw_blobs().get(blob_id))
                    if have == winner and \
                            not server._is_suspect(blob_id, dst):
                        continue
                    try:
                        server.shards[dst].transport.put(blob_id, winner)
                    except TransientStorageError:
                        report.unreachable += 1
                        continue
                    server._clear_suspect(blob_id, dst)
            for src in sorted(extras):
                if not server.shards[src].backend.exists(blob_id):
                    continue
                try:
                    server.shards[src].transport.delete(blob_id)
                except TransientStorageError:
                    report.unreachable += 1
                    continue
                server._clear_suspect(blob_id, src)
                if blob_id.kind != PLAN:
                    report.dropped += 1
                    server.rebalance_dropped += 1
        report.state = DONE

    def _advance(self, state: str) -> RebalancePlan:
        """CAS the plan's state through the quorum (the fencing step).

        The expected value is the stored winner; a zombie driver whose
        in-memory plan no longer matches the store is rejected here
        with :class:`~repro.errors.StaleEpochError` before it can touch
        anything else.
        """
        plan, server = self.plan, self.server
        current = server._read(plan_blob())
        if current is None or fence_epoch(current) != plan.prefix:
            raise StaleEpochError(
                f"plan epoch {plan.epoch} ({plan.state}) superseded: "
                f"store holds prefix {fence_epoch(current or b'')}",
                current_epoch=fence_epoch(current or b""))
        advanced = replace(plan, state=state)
        server.put_if(plan_blob(), advanced.to_blob(), current)
        self.plan = advanced
        if advanced.active:
            server.adopt_plan(advanced)
        return advanced


def resolve_plan(server: ShardedServer) -> str:
    """Repair's plan arbiter: resume a flipped plan, abort the rest.

    Keyless by design -- the adopted plan was signature-checked when it
    was adopted (or proposed), and state transitions ride outside the
    signature.  Returns the action taken for the repair report.
    """
    plan = server.plan
    if plan is None:
        return ""
    reb = Rebalancer(server)
    if plan.flipped:
        reb.execute()
        return "resumed"
    reb.rollback()
    return "rolled_back"
