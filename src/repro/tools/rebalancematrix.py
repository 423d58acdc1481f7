"""Rebalance crash-point matrix (online-topology-change acceptance).

A twin-stack differential harness for the PR 9 rebalance pipeline
(:mod:`repro.storage.rebalance`): one SHAROES volume lives on a
:class:`~repro.storage.shards.ShardedServer`, its twin -- built from
the *same* principals with the crypto entropy stream pinned, so both
stacks mint identical keys, IVs and ciphertext -- on a single plain
:class:`~repro.storage.server.StorageServer`.  The sharded stack then
runs a grow + re-replicate plan (default: 4 shards / k=2 -> 6 shards /
k=3) and the matrix kills the rebalancer at **every** pipeline action
k = 1..T (per-blob copy / verify / drop steps and the flip / finish
transitions), crossing each crash point with four recovery variants:

* ``resume``     -- :meth:`Rebalancer.recover` re-attaches to the
  stored plan and drives it to DONE;
* ``repair``     -- plain anti-entropy (``server.repair()``) arbitrates
  the orphaned plan: resumed if it flipped, rolled back otherwise;
* ``writes``     -- clients keep writing *between* crash and recovery
  (the same ops applied to the twin), exercising dual-placement writes
  on a half-moved store;
* ``shard-down`` -- one old-ring shard is hard-down for the entire
  recovery, which must complete degraded and heal afterwards.

Every cell must converge to a store that is **byte-identical** to the
unsharded twin (blobs and decrypted tree), fsck-clean with zero
orphans, fully replicated on whichever ring ended up authoritative
(the target ring after a resume, either ring after repair arbitration
-- matching its resolved plan action), with no plan left adopted.
Deterministic per seed, like :mod:`repro.tools.crashmatrix`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ClientCrashed
from ..fs.client import SharoesFilesystem
from ..sim.clock import SimClock
from ..storage.faults import CrashingRebalancer
from ..storage.rebalance import Rebalancer
from ..storage.server import StorageServer
from ..storage.shards import RingSpec, ShardedServer
from .twin import (BLOCK, Rig, Sweep, pinned_entropy, principals,
                   visible_tree)

#: recovery variants crossed with every crash point.
VARIANTS = ("resume", "repair", "writes", "shard-down")

#: the base ring (shards x replicas), its attached spares, and the
#: files the volume holds when a rebalance starts.
_SHARDS, _REPLICAS, _SPARES, _FILES = 4, 2, 2, 5


@dataclass
class RebalanceOutcome:
    """One (crash point, recovery variant) cell's verdict."""

    variant: str
    point: int          # crash after this pipeline action (1-based)
    total_points: int
    step: str           # pipeline step the crash interrupted
    crashed: bool       # the injector fired (harness sanity)
    plan_action: str    # resumed | rolled_back | completed
    ring: str           # target | base | other
    ring_ok: bool       # ring matches the resolved plan action
    blobs_ok: bool      # ciphertext byte-identical to the twin
    tree_ok: bool       # decrypted tree identical to the twin
    fsck_clean: bool
    orphans: int
    replicated: bool    # final repair reports full replication
    plan_cleared: bool  # no plan left adopted on the router

    @property
    def consistent(self) -> bool:
        return (self.crashed and self.ring_ok and self.blobs_ok
                and self.tree_ok and self.fsck_clean
                and self.orphans == 0 and self.replicated
                and self.plan_cleared)


@dataclass(frozen=True)
class RebalanceCase:
    """One topology transition: the ring the plan moves the store to."""

    name: str
    members: tuple[int, ...]
    replicas: int


#: the transitions swept, from the base ring of 4 shards at k = 2 with
#: 2 spares attached.
CASES = (RebalanceCase("grow-4x2-6x3", tuple(range(6)), 3),)


class RebalanceMatrix(Sweep):
    """Twin-stack crash sweep over each topology transition."""

    MODES = VARIANTS
    COLUMNS = (
        ("variant", "<12", lambda o: o.variant),
        ("k", ">4", lambda o: o.point),
        ("T", ">4", lambda o: o.total_points),
        ("step", "<9", lambda o: o.step),
        ("plan", "<12", lambda o: o.plan_action),
        ("ring", "<7", lambda o: o.ring),
        ("blobs", "<6", lambda o: "ok" if o.blobs_ok else "DIFF"),
        ("tree", "<5", lambda o: "ok" if o.tree_ok else "DIFF"),
        ("fsck", "<5",
         lambda o: "ok" if o.fsck_clean and not o.orphans else "DIRTY"),
        ("repl", "<5", lambda o: "ok" if o.replicated else "UNDER"),
        ("verdict", "<12",
         lambda o: "consistent" if o.consistent else "INCONSISTENT"),
    )
    RULE = 92
    cases = CASES

    def __init__(self, seed: int = 0):
        self.seed = seed
        rng = random.Random(seed)
        sizes = [BLOCK * (1 + rng.randrange(3)) + rng.randrange(64)
                 for _ in range(_FILES)]
        payloads = [bytes(rng.randrange(256) for _ in range(size))
                    for size in sizes]
        with pinned_entropy(seed * 7 + 1):
            registry = principals(("alice",))
        self.keypair = registry.user("alice").keypair

        def populate(fs: SharoesFilesystem) -> None:
            for i, payload in enumerate(payloads):
                fs.create_file(f"/d/f{i}", mode=0o664)
                fs.write_file(f"/d/f{i}", payload)

        def stack(server, clock: SimClock) -> Rig:
            # Identical entropy streams: both stacks mint the same keys.
            with pinned_entropy(seed * 7 + 2):
                return Rig(registry, server, clock, populate, journal=True,
                           lease=True, cache_bytes=0)

        clock = SimClock()
        sharded = ShardedServer(shards=_SHARDS, replicas=_REPLICAS,
                                clock=clock)
        for _ in range(_SPARES):
            sharded.add_shard()
        self.sharded = stack(sharded, clock)
        self.plain = stack(StorageServer(name="twin-ssp"), SimClock())
        self.base_ring = sharded.ring
        if self.sharded.pristine[0] != self.plain.pristine[0]:
            raise AssertionError(
                "twin stacks diverged during setup -- the entropy "
                "pinning no longer covers every crypto draw")
        self._base_tree = visible_tree(self.plain.probe())

    def _restore(self) -> None:
        """Both stacks back to the pristine base, old ring active."""
        server = self.sharded.server
        server.clear_wrappers()
        server.set_ring(self.base_ring.members, self.base_ring.replicas)
        self.sharded.restore()
        self.plain.restore()

    # -- the sweep -----------------------------------------------------------

    def count(self, case: RebalanceCase) -> int:
        """Calibration run: T pipeline actions in a clean rebalance."""
        self._restore()
        counter = CrashingRebalancer(crash_after=None)
        reb = Rebalancer(self.sharded.server, keypair=self.keypair,
                         hook=counter)
        reb.propose(case.members, case.replicas)
        reb.execute()
        return counter.actions

    def _extra_writes(self, cell_seed: int) -> None:
        """The same mid-recovery ops on both stacks (pinned per cell)."""
        for rig in (self.plain, self.sharded):
            with pinned_entropy(cell_seed):
                fs = rig.client("alice")
                fs.write_file("/d/f0", b"rewritten-" + bytes(
                    random.Random(cell_seed).randrange(256)
                    for _ in range(BLOCK)))
                fs.create_file("/d/mid", mode=0o664)
                fs.write_file("/d/mid", b"written mid-rebalance")
                fs.unmount()

    def cell(self, case: RebalanceCase, variant: str, point: int,
             total: int) -> RebalanceOutcome:
        self._restore()
        server = self.sharded.server
        target = RingSpec(case.members, case.replicas)
        hook = CrashingRebalancer(crash_after=point)
        reb = Rebalancer(server, keypair=self.keypair, hook=hook)
        crashed = False
        step = ""
        try:
            reb.propose(target.members, target.replicas)
            reb.execute()
        except ClientCrashed:
            crashed = True
            step = hook.log[-1][0] if hook.log else ""

        plan_action = "completed"
        down = None
        if crashed:
            if variant == "shard-down":
                # An *old*-ring member (k=2 there tolerates one loss);
                # rotate the victim with the crash point.
                down = self.base_ring.members[
                    point % len(self.base_ring.members)]
                server.outage(down, start_s=self.sharded.clock.now)
            if variant == "writes":
                self._extra_writes(self.seed * 1_000_003 + point)
            if variant == "repair":
                report = server.repair()
                plan_action = report.plan_action or "completed"
            else:
                reb2 = Rebalancer.recover(server, self.keypair.public,
                                          keypair=self.keypair)
                reb2.resume()
                plan_action = "resumed"

        # Heal: drop the outage (if any), then anti-entropy to full
        # replication (twice -- a returning shard unlocks work).
        server.clear_wrappers()
        repair = server.repair()
        if not repair.fully_replicated:
            repair = server.repair()

        if server.ring == target:
            ring = "target"
        elif server.ring == self.base_ring:
            ring = "base"
        else:
            ring = "other"
        ring_ok = (ring == "base" if plan_action == "rolled_back"
                   else ring == "target")
        blobs_ok = server.raw_blobs() == self.plain.server.raw_blobs()
        if variant == "writes" and crashed:
            tree_ok = (visible_tree(self.sharded.probe())
                       == visible_tree(self.plain.probe()))
        else:
            tree_ok = visible_tree(self.sharded.probe()) == self._base_tree
        clean, orphans = self.sharded.audit()
        return RebalanceOutcome(
            variant=variant, point=point, total_points=total,
            step=step, crashed=crashed, plan_action=plan_action,
            ring=ring, ring_ok=ring_ok, blobs_ok=blobs_ok,
            tree_ok=tree_ok, fsck_clean=clean, orphans=orphans,
            replicated=repair.fully_replicated,
            plan_cleared=server.plan is None)
