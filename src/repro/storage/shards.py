"""Sharded multi-SSP backend: consistent hashing + k-way replication.

One SSP process is a single point of failure.  The paper's untrusted-SSP
model makes removing it trust-free: integrity, confidentiality and
fencing all hold *per blob* at the client, so blobs can spread over any
number of storage servers that need no mutual trust (UPSS layers the
same encrypted-block-store abstraction over multiple backends).

:class:`ShardedServer` presents the exact
:class:`~repro.storage.server.StorageServer` interface -- its named
methods are :class:`~repro.storage.server.OpMethods`, each kind routed
to its rule by one ``_forward`` -- while routing each blob by
consistent hashing on ``(inode, selector)`` -- the
selector is a CAP id or hashed principal, so placement leaks nothing
the blob id did not already leak -- to one of N backend shards:

* every mutation (``put``/``put_if``/``put_fenced``/``delete``...)
  is applied to **k replica shards** (the k distinct ring successors);
  the op succeeds once any live replica applied it, and the missed
  replicas are remembered as *suspect* so their stale copies are never
  served and anti-entropy can re-replicate later;
* reads are served from the **nearest live replica** (first in ring
  preference order) and fail over through the remaining replicas on
  transient faults, open breakers, or a ``missing`` answer (one replica
  not holding a blob is under-replication, not authority that the blob
  is absent); a ``read_quorum`` > 1 additionally cross-checks copies so
  a divergent (tampered / rolled-back) replica is outvoted and flagged,
  never served;
* **lease blobs are replicated to every shard** and lease reads take
  the highest fencing epoch across live copies, so the epoch chain
  stays monotone for every client no matter which shards are up: a
  fenced write is pre-gated on the *maximum* live epoch before any
  replica applies it, every replica re-checks its own copy, and a
  fence rejection from any replica overrides an accept from a lagging
  one;
* each shard sits behind its own
  :class:`~repro.storage.resilient.ResilientTransport` (breaker
  cooldowns on the shared simulated clock), so a sick shard trips only
  its own breaker and the volume degrades to quorum operation;
* ``OP_BATCH`` frames are **fanned out per shard** in one
  scatter-gather round: mutations replicate into each target shard's
  sub-frame, reads ride their primary's sub-frame with single-op
  failover, ``put_if`` sub-ops are ordering barriers resolved through
  the quorum CAS, journal writes are barriers too (a mutation frame's
  intent lands before its apply, its apply before its commit), the
  frame's one stop rule (:func:`~repro.storage.server.in_order`) runs
  over its barriers and segments and over each segment's merge, and
  the per-shard
  :meth:`ResilientTransport.batch` partial-retry applies unchanged
  below the fan-out.

The router itself holds no keys and verifies nothing -- like the SSPs
behind it, it is untrusted; what quorum does and does not defend
against is spelled out in ``docs/THREAT_MODEL.md``.

Anti-entropy (:meth:`ShardedServer.repair`) walks the same census
fsck's orphan scan sees -- the union of every shard's ``raw_blobs`` --
and restores full replication: re-replicates winners over missing or
suspect copies, applies pending deletes, and drops misplaced copies.
``repro shard-repair`` runs the pass from the CLI; ``repro matrix campaign``
composes shard outages with the fault/crash/zombie adversaries into
one seeded run (see :mod:`repro.tools.campaign`).

Placement lives in an immutable :class:`RingSpec` so the topology can
change online: ``repro shard-rebalance`` executes a signed, persisted
:class:`~repro.storage.rebalance.RebalancePlan` (grow/shrink N, change
k) as an idempotent copy -> verify -> flip -> drop pipeline.  While a
plan is adopted the router runs **dual placement**: reads consult the
union of the old and new rings (authoritative ring first, quorum
voting unchanged) and every mutation fans out to both placements, so
a crashed rebalance can never strand a newer version on the losing
ring; :meth:`repair` resumes a flipped plan or rolls an unflipped one
back before its census pass, and copies it then drops because the plan
moved them are reported as ``migrated``, not misplaced.  Single-copy
reads additionally rotate their starting replica by a seeded
deterministic hash per (blob, attempt), spreading a hot blob's traffic
across its replica set instead of hammering the preference-first
shard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Sequence

from ..errors import (BlobNotFound, CasConflictError, StaleEpochError,
                      TransientStorageError)
from ..sim.clock import SimClock
from .accounting import ServerStats
from .blobs import JOURNAL, LEASE, PLAN, BlobId, block_blob
from .resilient import (_BREAKER_GAUGE, OutageServer, ResilientTransport,
                        RetryPolicy)
from .server import (FENCED_KINDS, MUTATION_KINDS, PUT_KINDS, READ_KINDS,
                     TAIL_KINDS, BatchOp, BatchReply, OpMethods,
                     StorageServer, execute, fence_epoch, in_order,
                     tail_start)

#: Default per-shard transport policy: fail over fast (the *replicas*
#: are the retry story, not backoff), zero delay so the shared clock is
#: never perturbed, and a per-shard breaker whose cooldown elapses as
#: workload time advances.
SHARD_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                           max_delay_s=0.0, deadline_s=0.0, jitter=False,
                           breaker_threshold=4, breaker_cooldown_s=10.0,
                           cache_fallback=False)

#: Virtual nodes per shard on the hash ring (evens out placement).
_VNODES = 64


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (placement only, not security)."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8],
                          "big")


#: control-plane blob kinds replicated on every ring member (fencing
#: state must be visible to every shard that can receive a write).
_CONTROL_KINDS = (LEASE, PLAN)


def _pick_copy(blob_id: BlobId, copies: dict[int, bytes | None],
               order: Sequence[int]) -> tuple[bytes | None, str]:
    """The one winner rule, for reads, repair and the union view.

    ``copies`` maps shard index to payload (None = that replica missed
    it); ``order`` is the preference order over them.  Returns the
    winning copy and how it won: ``"agreed"`` (every copy equal),
    ``"won"`` (a control blob's highest fence epoch -- a lagging replica
    must never regress the chain -- or a strict majority of present
    copies), or ``"tied"`` (a majority tie, broken by preference).
    """
    values = list(copies.values())
    if len(set(values)) <= 1:
        return (values[0] if values else None), "agreed"
    present = {s: v for s, v in copies.items() if v is not None}
    if blob_id.kind in _CONTROL_KINDS:
        return max(present.values(), key=fence_epoch), "won"
    tally: dict[bytes, int] = {}
    for v in present.values():
        tally[v] = tally.get(v, 0) + 1
    best = max(tally.values())
    majority = {v for v, n in tally.items() if n == best}
    winner = next(present[s] for s in order if present.get(s) in majority)
    return winner, ("tied" if len(majority) > 1 else "won")


@dataclass(frozen=True)
class RingSpec:
    """An immutable consistent-hash ring: which shard slots hold data.

    ``members`` are *global* indices into ``ShardedServer.shards`` --
    vnode positions hash the global index, so a shard that survives a
    rebalance keeps its ring positions and only the minimal
    consistent-hash fraction of blobs moves when members change.
    """

    members: tuple[int, ...]
    replicas: int

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a ring needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate ring members")
        if not 1 <= self.replicas <= len(members):
            raise ValueError("need 1 <= replicas <= len(members)")

    @property
    def vnodes(self) -> tuple:
        """Sorted (position, shard index) virtual nodes, built lazily."""
        cached = self.__dict__.get("_vnodes")
        if cached is None:
            cached = tuple(sorted(
                (_ring_hash(f"shard-{i}/vnode-{v}"), i)
                for i in self.members for v in range(_VNODES)))
            object.__setattr__(self, "_vnodes", cached)
        return cached

    def targets(self, blob_id: BlobId) -> tuple[int, ...]:
        """The k distinct ring successors for one blob, in preference
        order (control blobs are placed by the server, not the ring)."""
        point = _ring_hash(f"{blob_id.inode}:{blob_id.selector}")
        ring, n = self.vnodes, len(self.vnodes)
        lo, hi = 0, n
        while lo < hi:  # bisect for the first vnode at/after the point
            mid = (lo + hi) // 2
            if ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        targets: list[int] = []
        i = lo
        while len(targets) < self.replicas:
            shard = ring[i % n][1]
            if shard not in targets:
                targets.append(shard)
            i += 1
        return tuple(targets)


class ShardOutageServer(OutageServer):
    """A whole-shard outage window: the "kill one shard" scenario.

    Plain :class:`OutageServer` semantics on one shard's backend, plus
    the shard index for reporting.  ``end_s=float("inf")`` models a
    shard that never comes back.
    """

    def __init__(self, inner: StorageServer, clock: SimClock,
                 shard_index: int, start_s: float = 0.0,
                 end_s: float = float("inf")):
        super().__init__(inner, clock, start_s, end_s,
                         name=f"shard{shard_index}-outage")
        self.shard_index = shard_index


@dataclass
class Shard:
    """One backend SSP slot: the raw store, an optional fault wrapper,
    and the per-shard resilient transport every data-plane call goes
    through."""

    index: int
    backend: StorageServer
    wrapped: StorageServer
    transport: ResilientTransport
    reads: int = 0  # reads this shard served (the read-share gauge)


@dataclass
class ShardRepairReport:
    """What one anti-entropy pass did (``repro shard-repair``)."""

    scanned: int = 0
    re_replicated: int = 0      # missing copies restored from the winner
    healed_divergent: int = 0   # suspect/divergent copies overwritten
    deletes_applied: int = 0    # pending tombstones finally applied
    dropped_misplaced: int = 0  # stray copies on shards outside placement
    migrated: int = 0           # copies dropped because a plan moved them
    unreachable: int = 0        # repairs skipped: target shard down
    #: "resumed" / "rolled_back" when the pass found an active plan.
    plan_action: str = ""
    #: blob ids still under-replicated after the pass (down shards).
    remaining: list = field(default_factory=list)

    @property
    def fully_replicated(self) -> bool:
        return not self.remaining

    def summary(self) -> str:
        state = ("fully replicated" if self.fully_replicated else
                 f"{len(self.remaining)} blob(s) still under-replicated")
        plan = (f"plan {self.plan_action}, " if self.plan_action else "")
        return (f"shard-repair: {plan}scanned {self.scanned} blobs, "
                f"re-replicated {self.re_replicated}, healed "
                f"{self.healed_divergent} divergent, applied "
                f"{self.deletes_applied} pending deletes, dropped "
                f"{self.dropped_misplaced} misplaced, migrated "
                f"{self.migrated}, "
                f"{self.unreachable} unreachable -> {state}")


class ShardedServer(OpMethods):
    """N-shard, k-replica storage router with the StorageServer API.

    Its named methods (:class:`~repro.storage.server.OpMethods`) all
    arrive at :meth:`_forward`, which routes each kind to its rule.
    """

    def __init__(self, shards: int = 4, replicas: int = 2,
                 policy: RetryPolicy | None = None,
                 clock: SimClock | None = None,
                 read_quorum: int = 1,
                 name: str = "sharded-ssp",
                 read_seed: int = 0):
        if shards < 1:
            raise ValueError("need at least one shard")
        if not 1 <= replicas <= shards:
            raise ValueError("need 1 <= replicas <= shards")
        if not 1 <= read_quorum <= replicas:
            raise ValueError("need 1 <= read_quorum <= replicas")
        self.name = name
        self.read_quorum = read_quorum
        self.read_seed = read_seed
        self.clock = clock if clock is not None else SimClock()
        self._policy = policy or SHARD_POLICY
        #: logical op stats: one record per *client* op, matching what a
        #: single StorageServer would count (the per-shard backends
        #: carry the amplified replica traffic; see physical_requests).
        self.stats = ServerStats()
        self.shards: list[Shard] = []
        for i in range(shards):
            backend = StorageServer(name=f"{name}-{i}")
            self.shards.append(Shard(
                index=i, backend=backend, wrapped=backend,
                transport=self._make_transport(i, backend)))
        #: the active placement ring (every attached shard at mount;
        #: ``add_shard`` attaches spares outside it, a rebalance plan
        #: brings them in).
        self.ring = RingSpec(tuple(range(shards)), replicas)
        #: the adopted rebalance plan (dual placement while not None).
        self.plan = None
        #: the ring a finished/rolled-back plan vacated -- stray copies
        #: on it are ``migrated``, not misplaced, when repair drops them.
        self._retired: RingSpec | None = None
        #: suspect copies: blob -> shard indices whose copy missed a
        #: mutation (or lost a quorum vote) and must not be served.
        self._suspect: dict[BlobId, set[int]] = {}
        #: pending deletes: blob -> shard indices that still hold bytes
        #: for a logically-deleted blob (tombstones so a returning shard
        #: cannot resurrect it through reads or anti-entropy).
        self._deleted: dict[BlobId, set[int]] = {}
        #: per-blob read attempt counters (drives the seeded rotation).
        self._read_attempts: dict[BlobId, int] = {}
        # shard.* counters (exported via shard_snapshot)
        self.failovers = 0          # reads served by a non-first replica
        self.suspect_serves = 0     # reads forced onto a suspect copy
        self.quorum_reads = 0       # reads that cross-checked copies
        self.divergent = 0          # divergence events detected
        self.ties = 0               # unresolvable value ties (see _vote)
        self.outvoted = 0           # minority copies flagged by quorum
        self.partial_writes = 0     # mutations that missed >= 1 replica
        self.failed_ops = 0         # ops with zero live replicas
        self.repairs = 0            # anti-entropy copies restored
        # shard.rebalance.* counters (driven by the Rebalancer)
        self.rebalance_moved = 0    # copies placed on the new ring
        self.rebalance_verified = 0  # new-ring copies verified
        self.rebalance_dropped = 0  # old-placement copies dropped
        self.dual_reads = 0         # reads served under dual placement
        self.dual_writes = 0        # mutations fanned to both rings

    @property
    def replicas(self) -> int:
        return self.ring.replicas

    # -- plumbing ------------------------------------------------------------

    def _make_transport(self, index: int,
                        inner: StorageServer) -> ResilientTransport:
        return ResilientTransport(inner, self._policy, clock=self.clock,
                                  name=f"shard{index}")

    def wrap_shard(self, index: int,
                   factory: Callable[[StorageServer], StorageServer]
                   ) -> StorageServer:
        """Interpose a fault wrapper under shard ``index``'s transport.

        ``factory`` receives the shard's raw backend and returns the
        wrapper (outage, flaky, tampering, rollback...).  The shard's
        transport is rebuilt over it, resetting breaker state, so
        adversarial campaigns can re-arm scenarios per cell.
        """
        shard = self.shards[index]
        shard.wrapped = factory(shard.backend)
        shard.transport = self._make_transport(index, shard.wrapped)
        return shard.wrapped

    def clear_wrappers(self) -> None:
        """Remove every fault wrapper (shards heal; breakers reset)."""
        for shard in self.shards:
            shard.wrapped = shard.backend
            shard.transport = self._make_transport(shard.index,
                                                   shard.backend)

    def outage(self, index: int, start_s: float = 0.0,
               end_s: float = float("inf")) -> ShardOutageServer:
        """Arm a :class:`ShardOutageServer` window on one shard."""
        return self.wrap_shard(
            index, lambda backend: ShardOutageServer(
                backend, self.clock, index, start_s, end_s))

    # -- topology ------------------------------------------------------------

    def add_shard(self, backend: StorageServer | None = None) -> int:
        """Attach a new backend slot *outside* the ring.

        The spare holds nothing and serves nothing until a rebalance
        plan brings it into placement; returns its global index.
        """
        index = len(self.shards)
        if backend is None:
            backend = StorageServer(name=f"{self.name}-{index}")
        self.shards.append(Shard(
            index=index, backend=backend, wrapped=backend,
            transport=self._make_transport(index, backend)))
        return index

    def set_ring(self, members: Sequence[int], replicas: int) -> None:
        """Swap the active ring (rebalance bookkeeping, not data moves)."""
        ring = RingSpec(tuple(members), replicas)
        for m in ring.members:
            if not 0 <= m < len(self.shards):
                raise ValueError(f"ring member {m} is not attached")
        if self.read_quorum > ring.replicas:
            raise ValueError("read_quorum would exceed the replica count")
        self.ring = ring

    def adopt_plan(self, plan) -> None:
        """Route placement through a rebalance plan (or None to drop).

        The plan object only needs ``old``/``new`` :class:`RingSpec`
        attributes and a ``flipped`` property -- the concrete class
        lives in :mod:`repro.storage.rebalance`, which imports from
        this module, not the other way around.
        """
        self.plan = plan

    def retire_plan(self, vacated: RingSpec | None = None) -> None:
        """Drop the adopted plan, remembering the ring it vacated."""
        self.plan = None
        if vacated is not None:
            self._retired = vacated

    def _rings(self) -> tuple[RingSpec, "RingSpec | None"]:
        """(authoritative ring, secondary ring or None).

        Pre-flip the old ring is authoritative and the new ring is the
        secondary; the flip inverts that; with no plan adopted there is
        no secondary.
        """
        plan = self.plan
        if plan is None:
            return self.ring, None
        if plan.flipped:
            return plan.new, plan.old
        return plan.old, plan.new

    def _control_members(self) -> tuple[int, ...]:
        """Shards holding control blobs (lease/plan): every ring member,
        and every member of *both* rings while a plan is active -- each
        shard that can receive a write must be able to fence locally."""
        primary, secondary = self._rings()
        members = set(primary.members)
        if secondary is not None:
            members.update(secondary.members)
        return tuple(sorted(members))

    def placement(self, blob_id: BlobId) -> tuple[int, ...]:
        """Replica shard indices for one blob, preference-ordered.

        Control blobs (lease/plan) land on **every** ring member: each
        shard then fences locally against its own copy and a read takes
        the max epoch across live copies, keeping the chain monotone
        through any outage.  While a rebalance plan is adopted the
        placement is the **union of both rings** (authoritative ring's
        targets first): reads can find a copy wherever the pipeline
        left it, and mutations fan out to both placements so neither
        ring can strand a newer version.
        """
        if blob_id.kind in _CONTROL_KINDS:
            return self._control_members()
        primary, secondary = self._rings()
        targets = list(primary.targets(blob_id))
        if secondary is not None:
            targets.extend(s for s in secondary.targets(blob_id)
                           if s not in targets)
        return tuple(targets)

    def _required_targets(self, blob_id: BlobId) -> tuple[int, ...]:
        """Placement a *healthy* store must satisfy (repair's goal).

        Only the authoritative ring's targets: secondary-ring copies
        under an active plan are the rebalancer's job, not replication
        gaps.
        """
        if blob_id.kind in _CONTROL_KINDS:
            return self._control_members()
        primary, _ = self._rings()
        return primary.targets(blob_id)

    def _is_suspect(self, blob_id: BlobId, shard: int) -> bool:
        return (shard in self._suspect.get(blob_id, ())
                or shard in self._deleted.get(blob_id, ()))

    def _mark_suspect(self, blob_id: BlobId, shard: int) -> None:
        self._suspect.setdefault(blob_id, set()).add(shard)

    def _clear_suspect(self, blob_id: BlobId, shard: int) -> None:
        marks = self._suspect.get(blob_id)
        if marks is not None:
            marks.discard(shard)
            if not marks:
                del self._suspect[blob_id]

    # -- reads ---------------------------------------------------------------

    def _read_order(self, blob_id: BlobId,
                    targets: Sequence[int]) -> list[int]:
        """Trusted replicas in serve order, rotated for load spread.

        Single-copy reads (``read_quorum == 1``) rotate their starting
        replica by a seeded deterministic hash of (blob, attempt), so a
        hot blob's traffic spreads near-uniformly over its replica set
        instead of hammering the preference-first shard.  Control blobs
        and quorum reads keep placement order: they consult multiple
        copies anyway, and a deterministic vote window keeps divergence
        detection reproducible.
        """
        order = [s for s in targets if not self._is_suspect(blob_id, s)]
        if (blob_id.kind in _CONTROL_KINDS or self.read_quorum > 1
                or len(order) < 2):
            return order
        attempt = self._read_attempts.get(blob_id, 0)
        self._read_attempts[blob_id] = attempt + 1
        start = _ring_hash(
            f"read:{blob_id}:{attempt}:{self.read_seed}") % len(order)
        return order[start:] + order[:start]

    def _collect(self, blob_id: BlobId, targets: Sequence[int],
                 want: int) -> tuple[dict[int, bytes | None], int]:
        """Fetch copies from up to ``want`` *trusted* live replicas.

        Returns ``(copies, down)``: ``copies`` maps shard index to
        payload (None = that replica answered "missing"), ``down``
        counts replicas that failed transiently.  Suspect copies are
        never consulted here.
        """
        copies: dict[int, bytes | None] = {}
        down = 0
        for shard_index in targets:
            if len(copies) >= want:
                break
            if self._is_suspect(blob_id, shard_index):
                continue
            try:
                copies[shard_index] = \
                    self.shards[shard_index].transport.get(blob_id)
            except BlobNotFound:
                copies[shard_index] = None
            except TransientStorageError:
                down += 1
        return copies, down

    def _vote(self, blob_id: BlobId, copies: dict[int, bytes | None],
              order: Sequence[int]) -> bytes | None:
        """Pick the winning copy (:func:`_pick_copy`) and flag
        disagreeing copies suspect.

        The outvoted minority is flagged suspect and queued for repair.
        A present copy always beats an absent one: an absent copy is a
        missed write, not evidence of deletion (deletes are gated by the
        tombstone ledger before this point).
        A strict value tie (possible only at even replication against
        an adversary -- honest missed writes are already in the suspect
        ledger) cannot be arbitrated by an untrusted router: it is
        counted ``divergent``/``ties``, *neither* side is marked
        suspect, the preference-first copy is served, and the client's
        own signature/freshness verification is the backstop (see
        docs/THREAT_MODEL.md).
        """
        winner, verdict = _pick_copy(blob_id, copies, order)
        if verdict == "agreed":
            return winner
        self.divergent += 1
        if verdict == "tied":
            self.ties += 1
            # Absent copies are still a missed write; flag those.
            for shard_index, value in copies.items():
                if value is None:
                    self._mark_suspect(blob_id, shard_index)
            return winner
        for shard_index, value in copies.items():
            if value != winner:
                self.outvoted += 1
                self._mark_suspect(blob_id, shard_index)
        return winner

    def _read(self, blob_id: BlobId) -> bytes | None:
        """Winner bytes for one blob (None = missing everywhere)."""
        targets = self.placement(blob_id)
        order = self._read_order(blob_id, targets)
        # Control reads always consult every live copy: the max-epoch
        # rule is what keeps fencing monotone across shard outages.
        want = (len(order) if blob_id.kind in _CONTROL_KINDS
                else max(self.read_quorum, 1))
        if self.plan is not None and blob_id.kind not in _CONTROL_KINDS:
            self.dual_reads += 1
        copies, down = self._collect(blob_id, order, want)
        if len(set(copies.values())) > 1 or (
                copies and set(copies.values()) == {None}):
            # Disagreement, or every consulted replica says missing
            # (one replica's miss is under-replication, not authority):
            # widen to every remaining trusted replica so the vote runs
            # over the full replica set before anything is judged.
            rest = [s for s in order if s not in copies]
            if rest:
                more, more_down = self._collect(blob_id, rest, len(rest))
                down += more_down
                copies.update(more)
        winner = self._vote(blob_id, copies, order) if copies else None
        if len(copies) > 1:
            self.quorum_reads += 1
        if copies:
            # A None winner here is authoritative absence: the widen
            # step above consulted *every* live trusted replica, and a
            # replica that merely missed the write sits in the suspect
            # ledger (flagged at write time), not in this vote.  A down
            # shard therefore cannot be hiding the only good copy.
            if winner is not None and order and \
                    next(iter(copies)) != order[0]:
                self.failovers += 1
            if winner is not None:
                served = next((s for s, v in copies.items()
                               if v == winner), None)
                if served is not None:
                    self.shards[served].reads += 1
            return winner
        # No trusted replica reachable; as a last resort serve a
        # suspect copy (the client's own verification is the backstop)
        # rather than fail a read the data could still answer.
        for shard_index in [s for s in targets
                            if s in self._suspect.get(blob_id, set())]:
            try:
                payload = self.shards[shard_index].transport.get(blob_id)
            except BlobNotFound:
                return None
            except TransientStorageError:
                continue
            self.suspect_serves += 1
            return payload
        self.failed_ops += 1
        raise TransientStorageError(
            f"{self.name}: no live replica for get {blob_id} "
            f"(shards {targets})")

    # -- single ops -----------------------------------------------------------

    def _forward(self, op: BatchOp):
        """One op, routed by kind: a read to the voted :meth:`_read`, a
        tail delete to :meth:`_delete_tail`, any other mutation (a CAS
        once its compare holds) through :meth:`_scatter_segment`."""
        kind, blob_id = op.kind, op.blob_id
        if kind in READ_KINDS:
            payload = self._read(blob_id)
            if kind == "exists":
                return payload is not None
            if payload is None:
                self.stats.record_miss()
                raise BlobNotFound(str(blob_id))
            self.stats.record_get(blob_id.kind, len(payload))
            return payload
        if kind in TAIL_KINDS:
            return self._delete_tail(op)
        if kind == "put_if":
            # CAS against the *winner* copy, then write through
            # everywhere.  The compare runs against the same copy a read
            # would serve (max epoch for lease blobs), so a lagging
            # replica can neither win a CAS with stale bytes nor block a
            # legitimate one; the write-through then heals every live
            # copy to the new value.  The simulated testbed is
            # single-threaded, so resolve-then-write is atomic; a real
            # deployment would run the same sequence under a per-blob
            # lock at the router.
            current = self._read(blob_id)
            if current != op.expected:
                raise CasConflictError(f"cas conflict on {blob_id}",
                                       current=current)
            op = BatchOp.put(blob_id, op.payload or b"")
        self._scatter_segment([op])[0].raise_for_status()
        return None

    def _live_fence_epoch(self, fence: BlobId) -> int:
        """Highest fencing epoch across live replicas of ``fence``."""
        epochs = [0]
        for shard_index in self.placement(fence):
            try:
                epochs.append(fence_epoch(
                    self.shards[shard_index].transport.get(fence)))
            except BlobNotFound:
                epochs.append(0)
            except TransientStorageError:
                continue
        return max(epochs)

    def _delete_tail(self, op: BatchOp) -> None:
        """The run of stored blocks from ``op``'s on, each found by the
        voted :meth:`_read` and removed by a replicated delete, so quorum,
        suspect and dual-write rules hold per block; a fenced run is gated
        whole on the max live epoch first, read once for the run (every
        replica still checks its own fence copy per block)."""
        index = tail_start(op.blob_id)
        block = block_blob(op.blob_id.inode, index)
        live: dict[BlobId, int] = {}
        if op.kind in FENCED_KINDS:
            current = live[op.fence] = self._live_fence_epoch(op.fence)
            if (op.epoch or 0) < current:
                raise StaleEpochError(
                    f"fenced delete_tail at epoch {op.epoch or 0} "
                    f"rejected: {op.fence} is at epoch {current}",
                    current_epoch=current)
        while self._read(block) is not None:
            self._scatter_segment([
                BatchOp.delete_fenced(block, op.fence, op.epoch or 0)
                if live else BatchOp.delete(block)],
                live)[0].raise_for_status()
            index += 1
            block = block_blob(op.blob_id.inode, index)

    # -- batched sub-ops: per-shard scatter-gather ---------------------------

    def batch(self, ops: Sequence[BatchOp]) -> list[BatchReply]:
        """Fan one OP_BATCH frame out as per-shard sub-frames.

        The frame is split at barriers, each resolved alone and in order
        through its single-op method: ``put_if`` (a CAS must resolve
        against the quorum winner), a tail delete (each block is found
        by a voted read) and every journal sub-op (a mutation
        frame's intent must be durable before its apply scatters, and
        its apply resolved before the commit empties the journal).  Each
        barrier-free segment is scattered in one round: every mutation
        sub-op is appended to each of its replica shards' sub-frames,
        every plain read rides its first trusted replica's sub-frame,
        and lease/quorum reads resolve through the fan-out read path.
        Per-shard sub-frames preserve the caller's sub-op order and
        ship through the shard's own :meth:`ResilientTransport.batch`
        (partial retry per shard); replies merge back by global index
        under the single-server contract (:func:`in_order`).

        Two sharded-specific wrinkles, both documented in
        docs/ROBUSTNESS.md: a fence rejection from *any* replica
        overrides an accept from a lagging one (replicas that already
        applied are flagged suspect), and because a segment scatters
        before it merges, sub-ops *after* a stopping error may already
        have applied on their shards -- they are idempotent and the
        tail is safe to re-send verbatim, which is all the retry layer
        above relies on.
        """
        parts: list = []  # each barrier alone, each segment a list
        for barrier, run in groupby(ops, self._barrier):
            parts += list(run) if barrier else [list(run)]
        return in_order(parts, lambda part: (
            self._scatter_segment(part) if isinstance(part, list)
            else execute(self, part)))

    @staticmethod
    def _barrier(op: BatchOp) -> bool:
        return (op.kind == "put_if" or op.kind in TAIL_KINDS
                or op.blob_id.kind == JOURNAL)

    def _scatter_segment(self, segment: Sequence[BatchOp],
                         live: dict[BlobId, int] | None = None,
                         ) -> list[BatchReply]:
        """One barrier-free scatter-gather round over ``segment``;
        ``live`` holds the max live epochs of fences the caller has read
        already."""
        # Fenced pre-check on the max live epoch: a lagging replica's
        # local fence copy fails open at a stale epoch, so a zombie could
        # otherwise land there.  Cut the segment at the first sub-op
        # whose fence already advanced; every replica re-checks its own.
        cut = len(segment)
        fenced_reply: BatchReply | None = None
        live = {} if live is None else live
        for idx, op in enumerate(segment):
            if op.kind not in FENCED_KINDS:
                continue
            if op.fence not in live:
                live[op.fence] = self._live_fence_epoch(op.fence)
            if (op.epoch or 0) < live[op.fence]:
                cut = idx
                fenced_reply = BatchReply("fenced", epoch=live[op.fence])
                break

        frames: dict[int, list[tuple[int, BatchOp]]] = {}
        singles: set[int] = set()
        for idx, op in enumerate(segment[:cut]):
            if op.kind in MUTATION_KINDS:
                for shard_index in self.placement(op.blob_id):
                    frames.setdefault(shard_index, []).append((idx, op))
            else:  # get / exists
                order = self._read_order(op.blob_id,
                                         self.placement(op.blob_id))
                if (order and op.blob_id.kind not in _CONTROL_KINDS
                        and self.read_quorum == 1):
                    frames.setdefault(order[0], []).append((idx, op))
                else:
                    singles.add(idx)

        by_index: dict[int, dict[int, BatchReply]] = {}
        for shard_index, frame in frames.items():
            transport = self.shards[shard_index].transport
            try:
                shard_replies = transport.batch([op for _, op in frame])
            except TransientStorageError as exc:
                shard_replies = [BatchReply("error", message=str(exc),
                                            transient=True)] * len(frame)
            for (idx, _op), reply in zip(frame, shard_replies):
                by_index.setdefault(idx, {})[shard_index] = reply

        # The cut is the fenced reply, which stops the segment.
        return in_order(range(len(segment)), lambda idx: (
            fenced_reply if idx == cut else self._merge_subop(
                segment[idx], by_index.get(idx, {}), idx in singles)))

    def _merge_subop(self, op: BatchOp,
                     replies: dict[int, BatchReply],
                     resolve_single: bool) -> BatchReply:
        """Merge one sub-op's per-shard replies (or run it single-op)."""
        if op.kind in READ_KINDS:
            if resolve_single or not replies:
                return execute(self, op)
            reply = next(iter(replies.values()))
            if reply.status == "ok":
                if self.plan is not None and \
                        op.blob_id.kind not in _CONTROL_KINDS:
                    self.dual_reads += 1
                if op.kind == "get":
                    self.shards[next(iter(replies))].reads += 1
                    self.stats.record_get(op.blob_id.kind,
                                          len(reply.payload or b""))
                    return reply
                if reply.payload == b"\x01":
                    return reply
                # one replica's "absent" is not authoritative
                return execute(self, op)
            # failed / missing / unattempted primary: the single-op
            # path fans out across the remaining replicas.
            return execute(self, op)

        # replicated mutation: ok once any replica applied it, but a
        # fence rejection from any replica overrides (max-epoch rule)
        targets = self.placement(op.blob_id)
        applied = [s for s, r in replies.items() if r.status == "ok"]
        fenced = [r for r in replies.values() if r.status == "fenced"]
        hard = [r for r in replies.values()
                if r.status == "error" and not r.transient]
        missed = [s for s in targets if s not in applied]
        if fenced:
            for shard_index in applied:
                self._mark_suspect(op.blob_id, shard_index)
            return max(fenced, key=lambda r: r.epoch or 0)
        if hard and not applied:
            return hard[0]
        if not applied:
            self.failed_ops += 1
            return BatchReply(
                "error", transient=True,
                message=(f"{self.name}: no live replica for batched "
                         f"{op.kind} {op.blob_id}"))
        if missed:
            self.partial_writes += 1
        blob_id = op.blob_id
        if self.plan is not None and blob_id.kind not in _CONTROL_KINDS:
            self.dual_writes += 1
        if op.kind in PUT_KINDS:
            self._deleted.pop(blob_id, None)
            for shard_index in applied:
                self._clear_suspect(blob_id, shard_index)
            for shard_index in missed:
                self._mark_suspect(blob_id, shard_index)
            self.stats.record_put(blob_id.kind, len(op.payload or b""))
        else:  # delete / delete_fenced
            # A missed replica still holding bytes is a pending delete.
            self._suspect.pop(blob_id, None)
            still = {s for s in missed
                     if self.shards[s].backend.exists(blob_id)}
            if still:
                self._deleted[blob_id] = still
            else:
                self._deleted.pop(blob_id, None)
            self.stats.record_delete(blob_id.kind, 0)
        return BatchReply("ok")

    # -- anti-entropy --------------------------------------------------------

    def census(self) -> dict[BlobId, set[int]]:
        """Union census: every stored blob id -> shards holding a copy.

        The same union fsck's orphan scan sees through ``raw_blobs``;
        anti-entropy diffs it against the placement map.
        """
        seen: dict[BlobId, set[int]] = {}
        for shard in self.shards:
            for blob_id in shard.backend.raw_blobs():
                seen.setdefault(blob_id, set()).add(shard.index)
        return seen

    def under_replicated(self) -> dict[BlobId, set[int]]:
        """Blob -> shard indices missing (or distrusted for) a copy.

        Judged against :meth:`_required_targets` (the authoritative
        ring): secondary-ring gaps under an active plan are pipeline
        work in flight, not replication holes.
        """
        out: dict[BlobId, set[int]] = {}
        for blob_id, holders in self.census().items():
            if blob_id in self._deleted:
                continue
            targets = set(self._required_targets(blob_id))
            trusted = {s for s in (holders & targets)
                       if not self._is_suspect(blob_id, s)}
            gaps = targets - trusted
            if gaps:
                out[blob_id] = gaps
        for blob_id, shards in self._deleted.items():
            out.setdefault(blob_id, set()).update(shards)
        return out

    def _was_migrated(self, blob_id: BlobId, shard_index: int) -> bool:
        """Did a rebalance plan (not corruption) leave this copy here?"""
        retired = self._retired
        if retired is None:
            return False
        if blob_id.kind in _CONTROL_KINDS:
            return shard_index in retired.members
        return shard_index in retired.targets(blob_id)

    def repair(self) -> ShardRepairReport:
        """One anti-entropy pass: restore placement everywhere reachable.

        An adopted rebalance plan is resolved first -- resumed to done
        if it already flipped (the new ring is authoritative, so only
        forward is safe), rolled back otherwise (the old ring never
        stopped being authoritative, so abandoning the copies is always
        safe); either way the census pass below runs against a single
        authoritative ring.  Then pending deletes apply (so a returned
        shard cannot resurrect deleted blobs), every under-placed blob
        is re-replicated from its winner copy, divergent/suspect copies
        are overwritten, and copies on shards outside the placement are
        dropped -- classified ``migrated`` when the vacated ring placed
        them there, ``dropped_misplaced`` otherwise.  Repairs go
        through each shard's transport, so a shard that is still down
        stays pending -- run the pass again once it returns.
        """
        report = ShardRepairReport()
        if self.plan is not None:
            from .rebalance import resolve_plan
            report.plan_action = resolve_plan(self)
        for blob_id, shards in list(self._deleted.items()):
            remaining: set[int] = set()
            for shard_index in sorted(shards):
                try:
                    self.shards[shard_index].transport.delete(blob_id)
                    report.deletes_applied += 1
                except TransientStorageError:
                    remaining.add(shard_index)
                    report.unreachable += 1
            if remaining:
                self._deleted[blob_id] = remaining
                report.remaining.append(blob_id)
            else:
                del self._deleted[blob_id]

        census = self.census()
        for blob_id in sorted(set(census) | set(self._suspect), key=str):
            if blob_id in self._deleted:
                continue
            holders = census.get(blob_id, set())
            targets = self._required_targets(blob_id)
            report.scanned += 1
            winner = self._winner_copy(blob_id, holders, targets,
                                       strict=True)
            if winner is None:
                if holders:  # unresolvable tie: surface, never guess
                    report.remaining.append(blob_id)
                continue
            healed_all = True
            for shard_index in targets:
                have = (self.shards[shard_index].backend.raw_blobs()
                        .get(blob_id) if shard_index in holders else None)
                if have == winner and \
                        not self._is_suspect(blob_id, shard_index):
                    continue
                try:
                    self.shards[shard_index].transport.put(blob_id,
                                                           winner)
                except TransientStorageError:
                    report.unreachable += 1
                    healed_all = False
                    continue
                self._clear_suspect(blob_id, shard_index)
                self.repairs += 1
                if have is None:
                    report.re_replicated += 1
                else:
                    report.healed_divergent += 1
            for shard_index in sorted(holders - set(targets)):
                try:
                    self.shards[shard_index].transport.delete(blob_id)
                except TransientStorageError:
                    report.unreachable += 1
                    healed_all = False
                    continue
                if self._was_migrated(blob_id, shard_index):
                    report.migrated += 1
                else:
                    report.dropped_misplaced += 1
            if not healed_all:
                report.remaining.append(blob_id)
        return report

    def _winner_copy(self, blob_id: BlobId, holders: set[int],
                     targets: Sequence[int],
                     strict: bool = False) -> bytes | None:
        """The copy anti-entropy replicates: the rule reads use
        (:func:`_pick_copy`), over the copies the shards hold.

        With ``strict=True`` (the repair path) an unresolvable value
        tie among trusted copies returns None -- repair must never
        overwrite one side of a 1-1 split with the other; the tie is
        surfaced instead (see :meth:`repair`).  With ``strict=False``
        (the logical union view) the preference-first copy is returned
        so audits see a deterministic store.
        """
        trusted: dict[int, bytes] = {}
        all_copies: dict[int, bytes] = {}
        for shard_index in sorted(holders):
            raw = self.shards[shard_index].backend.raw_blobs()
            if blob_id not in raw:
                continue
            all_copies[shard_index] = raw[blob_id]
            if not self._is_suspect(blob_id, shard_index):
                trusted[shard_index] = raw[blob_id]
        copies = trusted or all_copies
        order = [s for s in targets if s in copies] + sorted(
            s for s in copies if s not in targets)
        winner, verdict = _pick_copy(blob_id, copies, order)
        return None if strict and verdict == "tied" else winner

    # -- capacity / audit helpers (deduplicated union view) ------------------

    def _union(self) -> dict[BlobId, bytes]:
        out: dict[BlobId, bytes] = {}
        for blob_id, holders in self.census().items():
            # Plan blobs are router control state, not volume data: the
            # logical store an audit (or a snapshot/restore) sees is
            # byte-identical to an unsharded run with no plan at all.
            if blob_id.kind == PLAN or blob_id in self._deleted:
                continue
            winner = self._winner_copy(blob_id, holders,
                                       self.placement(blob_id))
            if winner is not None:
                out[blob_id] = winner
        return out

    def physical_bytes(self) -> int:
        """Actual bytes held across every shard (with replication)."""
        return sum(shard.backend.stored_bytes()
                   for shard in self.shards)

    def physical_requests(self) -> int:
        """Backend requests actually served across every shard."""
        return sum(shard.backend.stats.puts + shard.backend.stats.gets
                   + shard.backend.stats.deletes
                   for shard in self.shards)

    def raw_blobs(self) -> dict[BlobId, bytes]:
        """The logical store a single-SSP audit would see (winners)."""
        return self._union()

    def snapshot_blobs(self) -> dict[BlobId, bytes]:
        return self._union()

    def restore_blobs(self, snapshot: dict[BlobId, bytes]) -> None:
        """Reset every shard to a prior logical snapshot, re-placed.

        Bypasses wrappers and transports (this is harness surgery, not
        data-plane traffic), clears the suspicion/tombstone ledgers and
        any adopted rebalance plan -- a restored store is healthy by
        construction, placed on the *current* ring -- and rebuilds the
        per-shard transports so breaker state resets with the data.
        Armed fault wrappers stay armed (campaigns re-arm per cell via
        :meth:`wrap_shard` anyway).
        """
        self.plan = None
        self._retired = None
        self._read_attempts.clear()
        per_shard: list[dict[BlobId, bytes]] = [{} for _ in self.shards]
        for blob_id, payload in snapshot.items():
            for shard_index in self.placement(blob_id):
                per_shard[shard_index][blob_id] = bytes(payload)
        for shard, blobs in zip(self.shards, per_shard):
            shard.backend.restore_blobs(blobs)
        self._suspect.clear()
        self._deleted.clear()
        for shard in self.shards:
            shard.transport = self._make_transport(shard.index,
                                                   shard.wrapped)

    # -- observability -------------------------------------------------------

    def shard_snapshot(self) -> dict[str, float]:
        """``shard.*`` metrics source (counters + per-shard gauges)."""
        out: dict[str, float] = {
            "shards": float(len(self.shards)),
            "replicas": float(self.replicas),
            "reads.failover": float(self.failovers),
            "reads.quorum": float(self.quorum_reads),
            "reads.suspect_served": float(self.suspect_serves),
            "divergent": float(self.divergent),
            "ties": float(self.ties),
            "outvoted": float(self.outvoted),
            "writes.partial": float(self.partial_writes),
            "failed_ops": float(self.failed_ops),
            "under_replicated": float(len(self._suspect)),
            "pending_deletes": float(len(self._deleted)),
            "repairs": float(self.repairs),
            "rebalance.active": float(self.plan is not None),
            "rebalance.plan_epoch": float(
                self.plan.epoch if self.plan is not None else 0),
            "rebalance.plan_rank": float(
                self.plan.rank if self.plan is not None else 0),
            "rebalance.moved": float(self.rebalance_moved),
            "rebalance.verified": float(self.rebalance_verified),
            "rebalance.dropped": float(self.rebalance_dropped),
            "rebalance.dual_reads": float(self.dual_reads),
            "rebalance.dual_writes": float(self.dual_writes),
        }
        total_reads = sum(shard.reads for shard in self.shards)
        for shard in self.shards:
            p = str(shard.index)
            out[f"{p}.breaker.state"] = float(
                _BREAKER_GAUGE[shard.transport.breaker_state])
            out[f"{p}.attempts"] = float(shard.transport.attempts)
            out[f"{p}.failed_attempts"] = float(
                shard.transport.failed_attempts)
            out[f"{p}.blobs"] = float(shard.backend.blob_count())
            out[f"{p}.bytes"] = float(shard.backend.stored_bytes())
            out[f"{p}.reads"] = float(shard.reads)
            out[f"{p}.read_share"] = (shard.reads / total_reads
                                      if total_reads else 0.0)
        return out
