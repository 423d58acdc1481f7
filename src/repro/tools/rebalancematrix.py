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
from typing import Sequence

from ..crypto import rsa
from ..errors import ClientCrashed
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.volume import SharoesVolume
from ..principals.groups import GroupKeyService
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..sim.clock import SimClock
from ..storage.faults import CrashingRebalancer
from ..storage.rebalance import Rebalancer
from ..storage.server import StorageServer
from ..storage.shards import RingSpec, ShardedServer
from ..crypto.provider import CryptoProvider
from .fsck import VolumeAuditor
from .twin import pinned_entropy, visible_tree

#: recovery variants crossed with every crash point.
VARIANTS = ("resume", "repair", "writes", "shard-down")

_BLOCK = 256


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


class RebalanceMatrix:
    """Twin-stack crash sweep over one topology transition."""

    def __init__(self, seed: int = 0, key_bits: int = 512,
                 shards: int = 4, replicas: int = 2, spares: int = 2,
                 target_replicas: int = 3, files: int = 5):
        self.seed = seed
        rng = random.Random(seed)
        sizes = [_BLOCK * (1 + rng.randrange(3)) + rng.randrange(64)
                 for _ in range(files)]
        self.payloads = [bytes(rng.randrange(256) for _ in range(size))
                         for size in sizes]
        with pinned_entropy(seed * 7 + 1):
            self.registry = PrincipalRegistry()
            self.registry.add_user(User(
                user_id="alice",
                keypair=rsa.generate_keypair(key_bits)))
            self.registry.create_group("eng", {"alice"},
                                       key_bits=key_bits)
        self.keypair = self.registry.user("alice").keypair

        self.clock_s = SimClock()
        self.clock_p = SimClock()
        self.sharded = ShardedServer(shards=shards, replicas=replicas,
                                     clock=self.clock_s)
        for _ in range(spares):
            self.sharded.add_shard()
        self.plain = StorageServer(name="twin-ssp")
        self.volume_s = self._build(self.sharded, self.clock_s)
        self.volume_p = self._build(self.plain, self.clock_p)
        self.base_ring = self.sharded.ring
        self.target_ring = RingSpec(tuple(range(shards + spares)),
                                    target_replicas)

        self._base_sharded = self.sharded.snapshot_blobs()
        self._base_plain = self.plain.snapshot_blobs()
        if self._base_sharded != self._base_plain:
            raise AssertionError(
                "twin stacks diverged during setup -- the entropy "
                "pinning no longer covers every crypto draw")
        self._base_next_s = self.volume_s.allocator._next
        self._base_next_p = self.volume_p.allocator._next
        self._base_tree = visible_tree(self._probe(self.volume_p))

    # -- setup ---------------------------------------------------------------

    def _build(self, server, clock) -> SharoesVolume:
        """Format + populate one stack (identical entropy stream each)."""
        with pinned_entropy(self.seed * 7 + 2):
            volume = SharoesVolume(server, self.registry,
                                   block_size=_BLOCK, clock=clock)
            volume.format(root_owner="alice", root_group="eng")
            GroupKeyService(self.registry, server,
                            CryptoProvider()).publish_all()
            fs = self._client(volume)
            fs.mkdir("/d", mode=0o775)
            for i, payload in enumerate(self.payloads):
                fs.create_file(f"/d/f{i}", mode=0o664)
                fs.write_file(f"/d/f{i}", payload)
            fs.unmount()
        return volume

    def _client(self, volume: SharoesVolume) -> SharoesFilesystem:
        fs = SharoesFilesystem(
            volume, self.registry.user("alice"),
            config=ClientConfig(journal=True, lease=True,
                                cache_bytes=0))
        fs.mount()
        return fs

    def _probe(self, volume: SharoesVolume) -> SharoesFilesystem:
        fs = SharoesFilesystem(volume, self.registry.user("alice"),
                               config=ClientConfig(cache_bytes=0))
        fs.mount()
        return fs

    def _restore(self) -> None:
        """Both stacks back to the pristine base, old ring active."""
        self.sharded.clear_wrappers()
        self.sharded.set_ring(self.base_ring.members,
                              self.base_ring.replicas)
        self.sharded.restore_blobs(self._base_sharded)
        self.plain.restore_blobs(self._base_plain)
        self.volume_s.allocator._next = self._base_next_s
        self.volume_p.allocator._next = self._base_next_p
        self.clock_s.reset(0.0)
        self.clock_p.reset(0.0)

    # -- the sweep -----------------------------------------------------------

    def count_points(self) -> int:
        """Calibration run: T pipeline actions in a clean rebalance."""
        self._restore()
        counter = CrashingRebalancer(crash_after=None)
        reb = Rebalancer(self.sharded, keypair=self.keypair,
                         hook=counter)
        reb.propose(self.target_ring.members, self.target_ring.replicas)
        reb.execute()
        self._steps = [step for step, _ in counter.log]
        return counter.actions

    def _extra_writes(self, cell_seed: int) -> None:
        """The same mid-recovery ops on both stacks (pinned per cell)."""
        for volume in (self.volume_p, self.volume_s):
            with pinned_entropy(cell_seed):
                fs = self._client(volume)
                fs.write_file("/d/f0", b"rewritten-" + bytes(
                    random.Random(cell_seed).randrange(256)
                    for _ in range(_BLOCK)))
                fs.create_file("/d/mid", mode=0o664)
                fs.write_file("/d/mid", b"written mid-rebalance")
                fs.unmount()

    def run_cell(self, point: int, variant: str,
                 total: int) -> RebalanceOutcome:
        self._restore()
        server = self.sharded
        hook = CrashingRebalancer(crash_after=point)
        reb = Rebalancer(server, keypair=self.keypair, hook=hook)
        crashed = False
        step = ""
        try:
            reb.propose(self.target_ring.members,
                        self.target_ring.replicas)
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
                server.outage(down, start_s=self.clock_s.now)
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

        if server.ring == self.target_ring:
            ring = "target"
        elif server.ring == self.base_ring:
            ring = "base"
        else:
            ring = "other"
        ring_ok = (ring == "base" if plan_action == "rolled_back"
                   else ring == "target")
        blobs_ok = server.raw_blobs() == self.plain.raw_blobs()
        if variant == "writes" and crashed:
            tree_ok = (visible_tree(self._probe(self.volume_s))
                       == visible_tree(self._probe(self.volume_p)))
        else:
            tree_ok = (visible_tree(self._probe(self.volume_s))
                       == self._base_tree)
        audit = VolumeAuditor(self.volume_s).audit()
        return RebalanceOutcome(
            variant=variant, point=point, total_points=total,
            step=step, crashed=crashed, plan_action=plan_action,
            ring=ring, ring_ok=ring_ok, blobs_ok=blobs_ok,
            tree_ok=tree_ok, fsck_clean=audit.clean,
            orphans=len(audit.orphaned_blobs),
            replicated=repair.fully_replicated,
            plan_cleared=server.plan is None)

    def run(self, variants: Sequence[str] = VARIANTS,
            points: Sequence[int] | None = None
            ) -> list[RebalanceOutcome]:
        total = self.count_points()
        ks = list(points) if points is not None else \
            list(range(1, total + 1))
        outcomes = []
        for variant in variants:
            for k in ks:
                outcomes.append(self.run_cell(k, variant, total))
        return outcomes


def outcomes_table(outcomes: list[RebalanceOutcome]) -> str:
    """Render the matrix outcome table (the CI artifact)."""
    lines = [
        f"{'variant':<12} {'k':>4} {'T':>4} {'step':<9} "
        f"{'plan':<12} {'ring':<7} {'blobs':<6} {'tree':<5} "
        f"{'fsck':<5} {'repl':<5} {'verdict':<12}",
        "-" * 92]
    for o in outcomes:
        lines.append(
            f"{o.variant:<12} {o.point:>4} {o.total_points:>4} "
            f"{o.step:<9} {o.plan_action:<12} {o.ring:<7} "
            f"{'ok' if o.blobs_ok else 'DIFF':<6} "
            f"{'ok' if o.tree_ok else 'DIFF':<5} "
            f"{'ok' if o.fsck_clean and not o.orphans else 'DIRTY':<5} "
            f"{'ok' if o.replicated else 'UNDER':<5} "
            f"{'consistent' if o.consistent else 'INCONSISTENT':<12}")
    lines.append("-" * 92)
    bad = sum(1 for o in outcomes if not o.consistent)
    lines.append(f"{len(outcomes)} cells, {bad} inconsistent")
    return "\n".join(lines)
