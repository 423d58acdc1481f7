"""Concurrency interleaving matrix (multi-client safety acceptance).

Two or three leasing clients share one volume; for every op pair the
harness sweeps deterministic interleavings of the *first* client's SSP
mutation sequence:

* **sequential** -- the first op runs to completion, then the others
  (the baseline; also the counting run that discovers T);
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

from ..crypto import rsa
from ..crypto.provider import CryptoProvider
from ..errors import (ClientCrashed, FileExists, LeaseHeldError,
                      LeaseLostError)
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.consistency import ForkDetected
from ..fs.volume import SharoesVolume
from ..principals.groups import GroupKeyService
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..sim.clock import SimClock
from ..storage.resilient import CrashingServer, ServerWrapper
from ..storage.server import MUTATION_KINDS, BatchOp, StorageServer
from .fsck import VolumeAuditor
from .twin import holds, path_exists

#: interleaving modes the matrix sweeps.
SEQUENTIAL = "sequential"
PREEMPT = "preempt"
CRASH = "crash"
ZOMBIE = "zombie"

MODES = (SEQUENTIAL, PREEMPT, CRASH, ZOMBIE)

_BLOCK = 256
_LEASE_S = 5.0
#: rounds of deferred-op retries before declaring a schedule stuck.
_DRAIN_ROUNDS = 5


class PauseServer(ServerWrapper):
    """Runs ``hook()`` once, just before the k-th SSP mutation.

    The synchronous stand-in for a context switch: the wrapped client
    is "descheduled" at an exact point in its wire sequence while other
    clients run.  Counts ``MUTATION_KINDS`` like
    :class:`~repro.storage.resilient.CrashingServer` (puts, deletes,
    CAS and fenced variants), so crash and preempt sweeps share k.
    """

    def __init__(self, inner: StorageServer,
                 pause_at: int | None = None,
                 hook: Callable[[], None] | None = None):
        super().__init__(inner, name=f"pausing({inner.name})")
        self.pause_at = pause_at
        self.hook = hook
        self.mutations = 0
        self._fired = False

    def _mutation(self) -> None:
        self.mutations += 1
        if (self.hook is not None and not self._fired
                and self.pause_at is not None
                and self.mutations >= self.pause_at):
            self._fired = True
            self.hook()

    def _forward(self, op: BatchOp):
        if op.kind in MUTATION_KINDS:
            self._mutation()
        return op.call(self.inner)


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
    #: run by every client of the schedule right after it mounts; a case
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
    ]


class InterleaveMatrix:
    """A tiny multi-client enterprise wired for interleaving sweeps."""

    USERS = ("alice", "bob", "carol")

    def __init__(self, seed: int = 0, key_bits: int = 512,
                 server_factory: "Callable | None" = None):
        rng = random.Random(seed)
        self.payloads = {
            name: bytes(rng.randrange(256) for _ in range(size))
            for name, size in (("a", 2 * _BLOCK), ("b", _BLOCK + 17),
                               ("c", 3 * _BLOCK), ("x", _BLOCK))}
        self.clock = SimClock()
        self.registry = PrincipalRegistry()
        for name in self.USERS:
            self.registry.add_user(User(
                user_id=name, keypair=rsa.generate_keypair(key_bits)))
        self.registry.create_group("eng", set(self.USERS),
                                   key_bits=key_bits)
        #: ``server_factory(clock)`` swaps the backing store -- the
        #: composed campaign (tools/campaign.py) runs the same sweeps
        #: over a ShardedServer with adversarial shards.
        self.server = (server_factory(self.clock)
                       if server_factory is not None else StorageServer())
        self.volume = SharoesVolume(self.server, self.registry,
                                    block_size=_BLOCK, clock=self.clock)
        self.volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(self.registry, self.server,
                        CryptoProvider()).publish_all()
        base = self.client("alice")
        base.mkdir("/d", mode=0o775)
        base.unmount()
        self._base_blobs = self.server.snapshot_blobs()
        self._base_next = self.volume.allocator._next
        self._base_now = self.clock.now

    # -- plumbing ------------------------------------------------------------

    def client(self, user_id: str, server=None,
               consistency: bool = False,
               warm: "Callable | None" = None) -> SharoesFilesystem:
        fs = SharoesFilesystem(
            self.volume, self.registry.user(user_id),
            config=ClientConfig(journal=True, lease=True,
                                lease_duration_s=_LEASE_S,
                                cache_bytes=0 if warm is None else None),
            server=server)
        if consistency:
            fs.enable_consistency_log()
        fs.mount()
        if warm is not None:
            warm(fs)
        return fs

    def _probe(self) -> SharoesFilesystem:
        """A fresh plain client for oracle checks (no lease, no journal)."""
        fs = SharoesFilesystem(self.volume, self.registry.user("alice"),
                               config=ClientConfig(cache_bytes=0))
        fs.mount()
        return fs

    def _restore(self) -> None:
        self.server.restore_blobs(self._base_blobs)
        self.volume.allocator._next = self._base_next
        self.clock.reset(self._base_now)

    def _audit(self) -> tuple[bool, int]:
        report = VolumeAuditor(self.volume).audit()
        return report.clean, len(report.orphaned_blobs)

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
                self.clock.advance(_LEASE_S + 1.0)
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

    def run_cell(self, case: InterleaveCase, mode: str,
                 point: int = 0,
                 total: int | None = None) -> InterleaveOutcome:
        """Run one schedule from a pristine volume and judge it."""
        self._restore()
        prep = self.client("alice")
        case.prepare(prep)
        prep.unmount()

        riders = {uid: self.client(uid, consistency=True, warm=case.warm)
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

        first_error = ""
        if mode == CRASH:
            first_server = CrashingServer(self.server, crash_after=point)
        elif mode in (PREEMPT, ZOMBIE):
            def hook() -> None:
                if mode == ZOMBIE:
                    self.clock.advance(_LEASE_S + 1.0)
                run_riders()
            first_server = PauseServer(self.server, pause_at=point,
                                       hook=hook)
        else:
            first_server = None
        first = self.client("alice", server=first_server,
                            consistency=True, warm=case.warm)

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
            self.clock.advance(_LEASE_S + 1.0)
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

        probe = self._probe()
        if holds(case.all_applied, probe):
            outcome = "all_applied"
        elif (first_error and holds(case.first_rolled_back, probe)):
            outcome = "first_rolled_back"
        else:
            outcome = (f"INCONSISTENT (first_error="
                       f"{first_error or 'none'})")
        clean, orphans = self._audit()
        return InterleaveOutcome(
            case=case.name, mode=mode, point=point,
            total_points=total if total is not None else point,
            outcome=outcome, first_error=first_error,
            deferred=deferred, fsck_clean=clean, orphans=orphans,
            vsl_ok=vsl_ok)

    # -- sweeps --------------------------------------------------------------

    def count_points(self, case: InterleaveCase) -> int:
        """Counting run: how many SSP mutations the first op issues."""
        self._restore()
        prep = self.client("alice")
        case.prepare(prep)
        prep.unmount()
        counter = CrashingServer(self.server)
        first = self.client("alice", server=counter, warm=case.warm)
        case.first(first)
        return counter.mutations

    def run_case(self, case: InterleaveCase,
                 modes: tuple = MODES) -> list[InterleaveOutcome]:
        total = self.count_points(case)
        outcomes = []
        if SEQUENTIAL in modes:
            outcomes.append(self.run_cell(case, SEQUENTIAL, 0, total))
        for mode in (PREEMPT, CRASH, ZOMBIE):
            if mode not in modes:
                continue
            for k in range(1, total + 1):
                outcomes.append(self.run_cell(case, mode, k, total))
        return outcomes

    def run(self, modes: tuple = MODES,
            cases: list[InterleaveCase] | None = None
            ) -> list[InterleaveOutcome]:
        results = []
        for case in cases or build_cases(self.payloads):
            results.extend(self.run_case(case, modes))
        return results


def outcomes_table(outcomes: list[InterleaveOutcome]) -> str:
    """Render the schedule-outcomes table (the CI artifact)."""
    lines = [f"{'case':<22} {'mode':<10} {'k':>3} {'T':>3} "
             f"{'outcome':<18} {'first-error':<15} {'defer':>5} "
             f"{'fsck':<5} {'orph':>4} {'vsl':<4}",
             "-" * 100]
    for o in outcomes:
        lines.append(
            f"{o.case:<22} {o.mode:<10} {o.point:>3} "
            f"{o.total_points:>3} {o.outcome:<18} "
            f"{(o.first_error or '-'):<15} {o.deferred:>5} "
            f"{'ok' if o.fsck_clean else 'DIRTY':<5} {o.orphans:>4} "
            f"{'ok' if o.vsl_ok else 'FORK':<4}")
    bad = sum(1 for o in outcomes if not o.consistent)
    lines.append("-" * 100)
    lines.append(f"{len(outcomes)} cells, {bad} inconsistent")
    return "\n".join(lines)
