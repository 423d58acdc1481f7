"""Composed adversarial campaign: every robustness defence at once.

``repro matrix campaign`` runs the multi-client interleaving matrix
(:mod:`repro.tools.interleave` -- sequential / preempt / crash /
zombie schedules over journaled, leased clients) on top of a
:class:`~repro.storage.shards.ShardedServer` whose shards are
themselves under attack.  Every cell replays from a pristine volume
with a freshly armed *scenario*:

* ``outage+flaky`` -- one shard hard-down for the entire schedule plus
  a second shard failing a seeded fraction of its requests:
  replication masks the outage, the per-shard transport retries the
  flakes, and the matrix's crash/zombie injection rides on top;
* ``rollback`` -- one shard serves the first version it ever stored
  (a rolled-back replica): quorum reads outvote it, flag it suspect,
  and never serve its stale bytes;
* ``tamper`` -- one shard flips a bit in every data-plane payload it
  serves: outvoted and flagged exactly like rollback.  Lease blobs are
  exempt by construction: a tampered lease copy cannot *forge* (leases
  are signed) but can inflate the max-epoch fence into a denial of
  service, which quorum deliberately does not mask -- see
  THREAT_MODEL.md;
* ``rebalance`` -- every cell runs against a store mid-rebalance: a
  signed shrink plan is staged and verified (but never flipped) before
  the schedule starts, so reads and writes exercise dual placement
  throughout, and the final anti-entropy pass must arbitrate the
  abandoned plan (roll it back) before healing -- see
  :mod:`repro.storage.rebalance`.

The matrix's own multi-client contract must hold in every cell (no
lost updates, fsck clean with zero orphans, no fork detected), and
after the sweep a single ``clear_wrappers()`` + anti-entropy
:meth:`~repro.storage.shards.ShardedServer.repair` pass must restore
full replication -- :attr:`CampaignReport.ok` fails loudly otherwise.

Byzantine shards are armed one at a time on a healthy quorum: with
``replicas=3`` a divergent copy is outvoted only while two honest live
copies remain, so a rollback *plus* an overlapping outage degrades to
detection (the tie is counted and surfaced for repair; client-side
verification stays the backstop) rather than masking.

Deterministic per seed: payloads, flaky draws and schedule sweeps all
derive from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.clock import SimClock
from ..storage.blobs import LEASE
from ..storage.faults import RollbackServer, TamperingServer
from ..storage.resilient import FlakyServer
from ..storage.shards import ShardedServer, ShardRepairReport
from .interleave import InterleaveCase, InterleaveMatrix, InterleaveOutcome
from .twin import render


@dataclass(frozen=True)
class Scenario:
    """Which shards are adversarial, and how, for one sweep."""

    name: str
    outage: int | None = None    # shard hard-down for the whole schedule
    flaky: int | None = None     # shard failing a seeded fraction
    rollback: int | None = None  # shard serving first-ever versions
    tamper: int | None = None    # shard bit-flipping data-plane reads
    #: ``(members, replicas)``: every cell runs with a rebalance plan
    #: to this ring staged-and-verified but unflipped, so the whole
    #: multi-client contract must hold under dual placement; the final
    #: campaign repair arbitrates the abandoned plan (rolls it back).
    rebalance: tuple | None = None


#: the default composed run (shard indices assume ``shards >= 4``).
DEFAULT_SCENARIOS = (
    Scenario("outage+flaky", outage=0, flaky=1),
    Scenario("rollback", rollback=2),
    Scenario("tamper", tamper=3),
    Scenario("rebalance", rebalance=((0, 1, 2), 3)),
)


@dataclass
class CampaignCell:
    """One interleaving cell run under one shard-adversity scenario."""

    scenario: str
    outcome: InterleaveOutcome

    @property
    def consistent(self) -> bool:
        return self.outcome.consistent


@dataclass
class CampaignReport:
    """The whole campaign: cells, final repair, post-repair audit."""

    seed: int
    shards: int
    replicas: int
    read_quorum: int
    cells: list = field(default_factory=list)
    repair: ShardRepairReport | None = None
    post_fsck_clean: bool = False
    post_orphans: int = -1
    shard_metrics: dict = field(default_factory=dict)

    @property
    def inconsistent(self) -> int:
        return sum(1 for c in self.cells if not c.consistent)

    @property
    def ok(self) -> bool:
        return (self.inconsistent == 0
                and self.repair is not None
                and self.repair.fully_replicated
                and self.post_fsck_clean and self.post_orphans == 0)


class Campaign(InterleaveMatrix):
    """The interleaving matrix over a sharded, adversarial backend."""

    COLUMNS = (("scenario", "<14", lambda c: c.scenario),) + tuple(
        (heading, spec, lambda c, value=value: value(c.outcome))
        for heading, spec, value in InterleaveMatrix.COLUMNS
        if heading not in ("defer", "orph"))

    def __init__(self, seed: int = 0, shards: int = 4, replicas: int = 3,
                 read_quorum: int = 2, flaky_p: float = 0.1,
                 scenarios: tuple = DEFAULT_SCENARIOS):
        self.seed = seed
        self.flaky_p = flaky_p
        self.scenarios = tuple(scenarios)
        self._scenario: Scenario | None = None
        self._arm_seq = 0
        clock = SimClock()
        super().__init__(seed, ShardedServer(
            shards=shards, replicas=replicas, read_quorum=read_quorum,
            clock=clock), clock)
        self.server = self.rig.server

    # -- per-cell adversity --------------------------------------------------

    def _restore(self) -> None:
        """Pristine volume *and* freshly armed scenario for every cell."""
        self.server.clear_wrappers()
        super()._restore()
        scenario = self._scenario
        if scenario is None:
            return
        self._arm_seq += 1
        if scenario.outage is not None:
            self.server.outage(scenario.outage,
                               start_s=self.rig.clock.now)
        if scenario.flaky is not None:
            seq = self._arm_seq
            self.server.wrap_shard(
                scenario.flaky,
                lambda backend: FlakyServer(
                    backend, failure_rate={"put": self.flaky_p,
                                           "get": self.flaky_p},
                    seed=self.seed * 100_003 + seq))
        if scenario.rollback is not None:
            self.server.wrap_shard(
                scenario.rollback,
                lambda backend: RollbackServer(inner=backend))
        if scenario.tamper is not None:
            self.server.wrap_shard(
                scenario.tamper,
                lambda backend: TamperingServer(
                    inner=backend,
                    should_tamper=lambda b: b.kind != LEASE))
        if scenario.rebalance is not None:
            from ..storage.rebalance import VERIFIED, Rebalancer
            members, replicas = scenario.rebalance
            reb = Rebalancer(
                self.server,
                keypair=self.rig.registry.user("alice").keypair)
            reb.propose(members, replicas)
            reb.execute(until=VERIFIED)

    # -- the sweep -----------------------------------------------------------

    def run(self, modes: tuple = (),
            cases: "list[InterleaveCase] | None" = None) -> CampaignReport:
        report = CampaignReport(
            seed=self.seed, shards=len(self.server.shards),
            replicas=self.server.replicas,
            read_quorum=self.server.read_quorum)
        for scenario in self.scenarios:
            self._scenario = scenario
            report.cells += [CampaignCell(scenario.name, outcome)
                             for outcome in super().run(modes, cases)]
        # Heal: drop every adversary, then one anti-entropy pass (plus
        # one more if the first unlocked work) must restore placement.
        self._scenario = None
        self.server.clear_wrappers()
        repair = self.server.repair()
        if not repair.fully_replicated:
            repair = self.server.repair()
        report.repair = repair
        report.post_fsck_clean, report.post_orphans = self.rig.audit()
        report.shard_metrics = self.server.shard_snapshot()
        return report

    @classmethod
    def table(cls, report: CampaignReport) -> str:
        """The campaign outcome table (the CI artifact)."""
        tail = []
        m = report.shard_metrics
        if m:
            tail.append(
                f"shard health: quorum_reads={m['reads.quorum']:.0f} "
                f"failovers={m['reads.failover']:.0f} "
                f"divergent={m['divergent']:.0f} "
                f"outvoted={m['outvoted']:.0f} ties={m['ties']:.0f} "
                f"suspect_served={m['reads.suspect_served']:.0f}")
        if report.repair is not None:
            tail.append(f"final repair: {report.repair.summary()}")
        tail.append(
            f"post-repair fsck: "
            f"{'clean' if report.post_fsck_clean else 'DIRTY'}, "
            f"{report.post_orphans} orphans")
        head = (f"composed campaign: seed={report.seed} "
                f"shards={report.shards} replicas={report.replicas} "
                f"read_quorum={report.read_quorum}",)
        return render(cls.COLUMNS, report.cells, cls.RULE, head=head,
                      tail=tuple(tail))

    def ok(self, report: CampaignReport) -> bool:
        return report.ok
