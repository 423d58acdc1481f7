"""Concurrency interleaving matrix (multi-client safety acceptance).

Two or three leasing clients share one volume; for every op pair the
harness sweeps deterministic interleavings of the *first* client's SSP
mutation sequence:

* **sequential** -- the first op runs to completion, then the others
  (the baseline, one cell at k = 0);
* **preempt k = 1..T** -- the first client pauses just before its k-th
  SSP mutation, the other clients run their ops to completion (an op
  blocked by the paused client's lease is *deferred* and retried after
  it resumes), then the first client resumes;
* **crash k = 1..T** -- the first client dies at its k-th mutation, the
  shared clock advances past lease expiry, and the others run: their
  write-points take over the dead client's leases, rolling its journal
  forward first, so the interrupted op lands fully applied or fully
  rolled back -- never half;
* **zombie k = 1..T** -- the first client pauses at its k-th mutation,
  the clock jumps past expiry and the others run (taking its leases
  over), then the first client *resumes*: its remaining fenced writes
  must be rejected mechanically (:class:`~repro.errors.LeaseLostError`)
  or, if it had not yet written anything fenced, re-serialize cleanly.

After every schedule the harness asserts the multi-client contract:

* **no lost updates** -- every op's effect is present (the first op may
  instead be fully rolled back in crash/zombie cells);
* the volume is **fsck-clean with zero orphans**;
* surviving clients publish and cross-check **version statements**
  without :class:`~repro.fs.consistency.ForkDetected`.

Deterministic per seed, like :mod:`repro.tools.crashmatrix`: payloads
derive from the seed and mutation counts are structural.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..errors import (ClientCrashed, FileExists, LeaseHeldError,
                      LeaseLostError)
from ..fs.client import SharoesFilesystem
from ..fs.consistency import ForkDetected
from ..sim.clock import SimClock
from ..storage.resilient import MutationTrigger, crash
from .twin import BLOCK, Rig, Sweep, holds, path_exists, principals

#: interleaving modes the matrix sweeps.
SEQUENTIAL = "sequential"
PREEMPT = "preempt"
CRASH = "crash"
ZOMBIE = "zombie"

MODES = (SEQUENTIAL, PREEMPT, CRASH, ZOMBIE)

_LEASE_S = 5.0
#: rounds of deferred-op retries before declaring a schedule stuck.
_DRAIN_ROUNDS = 5


@dataclass(frozen=True)
class InterleaveCase:
    """One schedule family: a first op raced against rider ops."""

    name: str
    #: state built before the schedule (run by a plain client).
    prepare: Callable[[SharoesFilesystem], None]
    #: the op whose mutation sequence is swept ("alice").
    first: Callable[[SharoesFilesystem], None]
    #: (user id, op) pairs injected at the interleaving point, in order.
    others: tuple
    #: every op's effect is present.
    all_applied: Callable[[SharoesFilesystem], bool]
    #: the first op is fully absent, every rider applied.
    first_rolled_back: Callable[[SharoesFilesystem], bool]
    #: run by every client of the schedule right after it mounts (the
    #: first client last, and before its mutations are counted); a case
    #: that sets it mounts its clients *with* a cache (the others run
    #: cache-less), so what a client read before the race is in play.
    warm: Callable[[SharoesFilesystem], None] | None = None


@dataclass
class InterleaveOutcome:
    """One cell: case x mode x interleaving point."""

    case: str
    mode: str
    point: int  # 0 for sequential
    total_points: int
    outcome: str  # "all_applied" | "first_rolled_back" | failure text
    first_error: str  # "" | "LeaseLostError" | "ClientCrashed" | ...
    deferred: int  # rider attempts that had to wait for a lease
    fsck_clean: bool
    orphans: int
    vsl_ok: bool

    @property
    def consistent(self) -> bool:
        return (self.outcome in ("all_applied", "first_rolled_back")
                and self.fsck_clean and self.orphans == 0
                and self.vsl_ok)


def build_cases(payloads: dict[str, bytes]) -> list[InterleaveCase]:
    """The schedule families.

    Every case contends the shared directory ``/d`` -- its table is the
    read-modify-write that loses updates without coordination.
    ``payloads`` maps logical names to file contents (seed-derived).
    """
    pa, pb, pc, px = (payloads["a"], payloads["b"], payloads["c"],
                      payloads["x"])

    def own_tip(fs: SharoesFilesystem) -> None:
        """Leave this client's released link at the tip of ``/d``."""
        path = f"/d/.{fs.agent.user_id}"
        fs.mknod(path)
        fs.unlink(path)

    def claim(payload: bytes) -> Callable[[SharoesFilesystem], None]:
        def op(fs: SharoesFilesystem) -> None:
            try:
                fs.create_file("/d/same", payload)
            except FileExists:
                pass  # the other writer's create got there first
        return op

    return [
        InterleaveCase(
            "create-create",
            prepare=lambda fs: None,
            first=lambda fs: fs.create_file("/d/a", pa),
            others=(("bob", lambda fs: fs.create_file("/d/b", pb)),),
            all_applied=lambda fs: (fs.read_file("/d/a") == pa
                                    and fs.read_file("/d/b") == pb),
            first_rolled_back=lambda fs: (not path_exists(fs, "/d/a")
                                          and fs.read_file("/d/b") == pb)),
        InterleaveCase(
            "create-create-create",
            prepare=lambda fs: None,
            first=lambda fs: fs.create_file("/d/t1", pa),
            others=(("bob", lambda fs: fs.create_file("/d/t2", pb)),
                    ("carol", lambda fs: fs.create_file("/d/t3", pc))),
            all_applied=lambda fs: (fs.read_file("/d/t1") == pa
                                    and fs.read_file("/d/t2") == pb
                                    and fs.read_file("/d/t3") == pc),
            first_rolled_back=lambda fs: (
                not path_exists(fs, "/d/t1")
                and fs.read_file("/d/t2") == pb
                and fs.read_file("/d/t3") == pc)),
        InterleaveCase(
            "rename-create",
            prepare=lambda fs: fs.create_file("/d/x", px),
            first=lambda fs: fs.rename("/d/x", "/d/y"),
            others=(("bob", lambda fs: fs.create_file("/d/c", pc)),),
            all_applied=lambda fs: (not path_exists(fs, "/d/x")
                                    and fs.read_file("/d/y") == px
                                    and fs.read_file("/d/c") == pc),
            first_rolled_back=lambda fs: (not path_exists(fs, "/d/y")
                                          and fs.read_file("/d/x") == px
                                          and fs.read_file("/d/c") == pc)),
        InterleaveCase(
            "unlink-mkdir",
            prepare=lambda fs: fs.create_file("/d/x", px),
            first=lambda fs: fs.unlink("/d/x"),
            others=(("bob", lambda fs: fs.mkdir("/d/sub")),),
            all_applied=lambda fs: (not path_exists(fs, "/d/x")
                                    and path_exists(fs, "/d/sub")),
            first_rolled_back=lambda fs: (fs.read_file("/d/x") == px
                                          and path_exists(fs, "/d/sub"))),
        InterleaveCase(
            "mkdir-create",
            prepare=lambda fs: None,
            first=lambda fs: fs.mkdir("/d/s"),
            others=(("bob", lambda fs: fs.create_file("/d/b2", pb)),),
            all_applied=lambda fs: (path_exists(fs, "/d/s")
                                    and fs.read_file("/d/b2") == pb),
            first_rolled_back=lambda fs: (not path_exists(fs, "/d/s")
                                          and fs.read_file("/d/b2") == pb)),
        # Both writers listed /d (empty) before the race and both create
        # the same name: exactly one create may land, the other must be
        # refused from a table read under the parent's lease -- a create
        # judged from the cached listing leaves the loser's blobs
        # orphaned behind the winner's row.
        InterleaveCase(
            "create-same-name",
            prepare=lambda fs: None,
            first=claim(pa),
            others=(("bob", claim(pb)),),
            all_applied=lambda fs: fs.read_file("/d/same") in (pa, pb),
            first_rolled_back=lambda fs: fs.read_file("/d/same") == pb,
            warm=lambda fs: fs.readdir("/d")),
        # The first writer warmed up last, so its own released link is
        # the tip on /d: its create is one frame, read from its cache
        # and CASed over that link at the frame's head.  k = 1 runs the
        # rider between those reads and the head CAS that must prove
        # them.
        InterleaveCase(
            "create-own-tip",
            prepare=lambda fs: None,
            first=lambda fs: fs.create_file("/d/a", pa),
            others=(("bob", lambda fs: fs.create_file("/d/b", pb)),),
            all_applied=lambda fs: (fs.read_file("/d/a") == pa
                                    and fs.read_file("/d/b") == pb),
            first_rolled_back=lambda fs: (not path_exists(fs, "/d/a")
                                          and fs.read_file("/d/b") == pb),
            warm=own_tip),
    ]


class InterleaveMatrix(Sweep):
    """Every case of :func:`build_cases` under every interleaving mode."""

    USERS = ("alice", "bob", "carol")
    MODES = MODES
    ONCE = (SEQUENTIAL,)
    COLUMNS = (
        ("case", "<22", lambda o: o.case),
        ("mode", "<10", lambda o: o.mode),
        ("k", ">3", lambda o: o.point),
        ("T", ">3", lambda o: o.total_points),
        ("outcome", "<18", lambda o: o.outcome),
        ("first-error", "<15", lambda o: o.first_error or "-"),
        ("defer", ">5", lambda o: o.deferred),
        ("fsck", "<5", lambda o: "ok" if o.fsck_clean else "DIRTY"),
        ("orph", ">4", lambda o: o.orphans),
        ("vsl", "<4", lambda o: "ok" if o.vsl_ok else "FORK"),
    )

    def __init__(self, seed: int = 0, server=None,
                 clock: SimClock | None = None):
        rng = random.Random(seed)
        self.cases = build_cases({
            name: bytes(rng.randrange(256) for _ in range(size))
            for name, size in (("a", 2 * BLOCK), ("b", BLOCK + 17),
                               ("c", 3 * BLOCK), ("x", BLOCK))})
        #: ``server`` (over ``clock``) swaps the backing store -- the
        #: composed campaign (tools/campaign.py) runs the same sweeps
        #: over a ShardedServer with adversarial shards.
        self.rig = Rig(principals(self.USERS), server, clock,
                       journal=True, lease=True, lease_duration_s=_LEASE_S,
                       cache_bytes=0)

    # -- plumbing ------------------------------------------------------------

    def _client(self, user_id: str, server=None, consistency: bool = False,
                warm: "Callable | None" = None) -> SharoesFilesystem:
        """A leasing client; a ``warm`` case mounts it with a cache and
        runs ``warm`` on it right away."""
        fs = self.rig.client(user_id, server, consistency,
                             cache_bytes=0 if warm is None else None)
        if warm is not None:
            warm(fs)
        return fs

    def _restore(self) -> None:
        self.rig.restore()

    def _prepare(self, case: InterleaveCase) -> None:
        """Pristine volume plus the case's own starting state."""
        self._restore()
        prep = self._client("alice")
        case.prepare(prep)
        prep.unmount()

    # -- one schedule --------------------------------------------------------

    def _drain(self, pending: list, clients: dict) -> tuple[int, bool]:
        """Run deferred rider ops until done.  -> (defer count, drained)."""
        deferred = 0
        rounds = 0
        while pending and rounds < _DRAIN_ROUNDS:
            rounds += 1
            requeue = []
            for user_id, op in pending:
                try:
                    op(clients[user_id])
                except LeaseHeldError:
                    deferred += 1
                    requeue.append((user_id, op))
            if len(requeue) == len(pending):
                # Every rider is still blocked: the only legal holder is
                # a dead/paused client -- wait out the lease.
                self.rig.clock.advance(_LEASE_S + 1.0)
            pending = requeue
        return deferred, not pending

    def _vsl_round(self, clients: dict) -> bool:
        """Survivors publish + cross-check statements.  True = no fork."""
        try:
            for fs in clients.values():
                fs.publish_statement()
            for fs in clients.values():
                fs.sync_statements(list(clients))
            # Second round so the causal (seen-vector) check bites.
            for fs in clients.values():
                fs.publish_statement()
            for fs in clients.values():
                fs.sync_statements(list(clients))
        except ForkDetected:
            return False
        return True

    def cell(self, case: InterleaveCase, mode: str, point: int,
             total: int) -> InterleaveOutcome:
        """Run one schedule from a pristine volume and judge it."""
        self._prepare(case)
        clock = self.rig.clock
        riders = {uid: self._client(uid, consistency=True, warm=case.warm)
                  for uid, _ in case.others}
        pending: list = []
        deferred = 0

        def run_riders() -> None:
            nonlocal deferred
            for user_id, op in case.others:
                try:
                    op(riders[user_id])
                except LeaseHeldError:
                    deferred += 1
                    pending.append((user_id, op))

        def pause() -> None:
            if mode == ZOMBIE:
                clock.advance(_LEASE_S + 1.0)
            run_riders()

        first_error = ""
        action = {CRASH: crash, PREEMPT: pause, ZOMBIE: pause}.get(mode)
        first_server = (MutationTrigger(self.rig.server)
                        if action is not None else None)
        first = self._client("alice", first_server, consistency=True,
                             warm=case.warm)
        if first_server is not None:
            first_server.arm({point: action})

        try:
            case.first(first)
        except ClientCrashed:
            first_error = "ClientCrashed"
        except LeaseLostError:
            first_error = "LeaseLostError"
        except LeaseHeldError:
            # The riders (injected mid-op) beat us to a lease; honest
            # clients just try again once the holder releases.
            first_error = "LeaseHeldError"

        if mode == CRASH:
            clock.advance(_LEASE_S + 1.0)
        if mode in (SEQUENTIAL, CRASH):
            run_riders()
        drained_deferred, drained = self._drain(pending, riders)
        deferred += drained_deferred
        if first_error == "LeaseHeldError" and drained:
            try:
                case.first(first)
                first_error = ""
            except LeaseLostError:
                first_error = "LeaseLostError"
            except LeaseHeldError:
                pass

        survivors = dict(riders)
        if first_error != "ClientCrashed":
            survivors["alice"] = first
        vsl_ok = drained and self._vsl_round(survivors)

        probe = self.rig.probe()
        if holds(case.all_applied, probe):
            outcome = "all_applied"
        elif (first_error and holds(case.first_rolled_back, probe)):
            outcome = "first_rolled_back"
        else:
            outcome = (f"INCONSISTENT (first_error="
                       f"{first_error or 'none'})")
        clean, orphans = self.rig.audit()
        return InterleaveOutcome(
            case=case.name, mode=mode, point=point, total_points=total,
            outcome=outcome, first_error=first_error,
            deferred=deferred, fsck_clean=clean, orphans=orphans,
            vsl_ok=vsl_ok)

    def count(self, case: InterleaveCase) -> int:
        """Counting run: how many SSP mutations the first op issues."""
        self._prepare(case)
        counter = MutationTrigger(self.rig.server)
        first = self._client("alice", counter, warm=case.warm)
        counter.arm()
        case.first(first)
        return counter.mutations
