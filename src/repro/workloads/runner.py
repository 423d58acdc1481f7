"""Benchmark environment construction.

Builds a fresh (server, volume, client, cost model) stack for any of the
five implementations the paper evaluates:

    no-enc-md-d | no-enc-md | sharoes | public | pub-opt

All five run over the same simulated testbed (profile ``paper2008`` unless
overridden), so measured differences come exclusively from their
cryptographic designs -- the same methodology as the paper's section V.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..baselines.base import BASELINES, BaselineFilesystem, BaselineVolume
from ..errors import SharoesError
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.volume import SharoesVolume
from ..obs.wiretrace import TracedServer
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..sim.clock import SimClock
from ..sim.costmodel import CostModel, CostProfile
from ..sim.profiles import PAPER_2008
from ..storage.server import StorageServer

IMPLEMENTATIONS = ("no-enc-md-d", "no-enc-md", "sharoes", "public",
                   "pub-opt")

#: Workloads runnable through :func:`run_observed` (and the CLI's
#: ``bench --workload`` / ``trace`` subcommands).
OBSERVED_WORKLOADS = ("postmark", "andrew", "createlist", "office")

#: Pretty labels used in benchmark output, matching the paper's figures.
LABELS = {
    "no-enc-md-d": "NO-ENC-MD-D",
    "no-enc-md": "NO-ENC-MD",
    "sharoes": "SHAROES",
    "public": "PUBLIC",
    "pub-opt": "PUB-OPT",
}


@dataclass
class BenchEnv:
    """One implementation stack ready to run a workload."""

    impl: str
    user: User
    registry: PrincipalRegistry
    server: StorageServer
    cost: CostModel
    fs: SharoesFilesystem | BaselineFilesystem | None = None
    _volume: object = None
    #: fault-injecting wrapper clients mount through (chaos benchmarks);
    #: None = clients talk to ``server`` directly.
    _client_server: object = None
    #: ClientConfig fields stamped onto *every* client of this
    #: environment, including the fresh ones workloads mint for cache
    #: sweeps (which otherwise build their own configs and would drop
    #: environment-level settings like ``concurrency`` or the chaos
    #: runs' ``retry_policy``).
    client_overrides: dict = dataclasses.field(default_factory=dict)
    #: wire tracing: every fresh sharoes client mounts through a
    #: TracedServer of its own (the last one is ``traced_server``).
    wire_trace: bool = False
    traced_server: object = None

    def fresh_client(self, config: ClientConfig | None = None,
                     reset_cost: bool = True
                     ) -> SharoesFilesystem | BaselineFilesystem:
        """A new client on the same volume (e.g. for cache-size sweeps)."""
        if reset_cost:
            self.cost.reset()
        if self.client_overrides:
            config = dataclasses.replace(config or ClientConfig(),
                                         **self.client_overrides)
        if self.impl == "sharoes":
            server = self._client_server
            if self.wire_trace:
                server = self.traced_server = TracedServer(
                    server if server is not None else self.server)
            fs = SharoesFilesystem(self._volume, self.user,
                                   cost_model=self.cost, config=config,
                                   server=server)
            if self.wire_trace:
                self.traced_server.follow(fs.tracer)
        else:
            fs = BASELINES[self.impl](self._volume, self.user,
                                      cost_model=self.cost, config=config)
        # The figure runner reads every op's span tree (op_report).
        fs.tracer.record()
        fs.mount()
        self.fs = fs
        return fs


def flush_client(fs) -> None:
    """Ship any write-behind state before a timing or comparison point.

    Workloads call this at measurement boundaries so a pipelined client
    cannot claim a wall-clock win by leaving staged mutations unshipped;
    a no-op for sequential clients and baselines (no scheduler).
    """
    flush = getattr(fs, "flush_staged", None)
    if flush is not None:
        flush()


def make_env(impl: str, profile: CostProfile = PAPER_2008,
             config: ClientConfig | None = None,
             extra_users: tuple[str, ...] = (),
             flaky_p: float = 0.0, flaky_seed: int = 0,
             wire_trace: bool = False,
             shards: int = 0, replicas: int = 2) -> BenchEnv:
    """Build a formatted volume + mounted client for one implementation.

    ``flaky_p`` > 0 interposes a transient-fault injector between the
    client and the SSP, failing that fraction of requests (seeded, so
    runs replay); every client then mounts with a default
    :class:`~repro.storage.resilient.RetryPolicy` unless the config
    already carries one.  Formatting bypasses the injector so every
    environment starts from an intact volume.

    ``wire_trace`` mounts every client of the environment through a
    :class:`~repro.obs.wiretrace.TracedServer` of its own (sharoes only
    -- baselines have no wire layer to trace, so the flag is a no-op
    there).

    ``shards`` > 0 replaces the single StorageServer with a
    :class:`~repro.storage.shards.ShardedServer` of that many backend
    SSPs, each blob consistently hashed to ``replicas`` of them (see
    docs/ROBUSTNESS.md "Sharding & replication"); 0 keeps the paper's
    single-SSP testbed.  The client is oblivious either way.
    """
    if impl not in IMPLEMENTATIONS:
        raise SharoesError(f"unknown implementation {impl!r}; "
                           f"choose from {IMPLEMENTATIONS}")
    if flaky_p and impl != "sharoes":
        raise SharoesError(
            "fault injection (flaky_p) requires the sharoes "
            "implementation; baselines have no retry layer")
    if shards and impl != "sharoes":
        raise SharoesError(
            "a sharded backend (shards > 0) requires the sharoes "
            "implementation; baselines assume one SSP")
    registry = PrincipalRegistry()
    user = registry.create_user("alice")
    for name in extra_users:
        registry.create_user(name)
    registry.create_group("eng", {"alice", *extra_users})
    clock = SimClock()
    if shards:
        # The sharded backend presents the StorageServer interface, so
        # volume/client/fsck code is oblivious; per-shard breaker
        # cooldowns run on the same simulated clock as the cost model.
        from ..storage.shards import ShardedServer
        server = ShardedServer(shards=shards, replicas=replicas,
                               clock=clock)
    else:
        server = StorageServer()
    env = BenchEnv(impl=impl, user=user, registry=registry, server=server,
                   cost=CostModel(profile, clock))
    if impl == "sharoes":
        env._volume = SharoesVolume(server, registry)
        env._volume.format(root_owner="alice", root_group="eng")
        if getattr(config, "concurrency", 0):
            env.client_overrides["concurrency"] = config.concurrency
        env.wire_trace = wire_trace
        if flaky_p:
            from ..storage.resilient import FlakyServer, RetryPolicy
            env._client_server = FlakyServer(server, failure_rate=flaky_p,
                                             seed=flaky_seed)
            if getattr(config, "retry_policy", None) is None:
                env.client_overrides["retry_policy"] = RetryPolicy(
                    seed=flaky_seed)
    else:
        cls = BASELINES[impl]
        env._volume = BaselineVolume(server=server)
        env._volume.format(owner="alice", group="eng",
                           metadata_codec=cls.metadata_codec_cls(),
                           data_codec=cls.data_codec_cls(),
                           admin_key=user.keypair)
    env.fresh_client(config)
    # Formatting happened outside the cost model's view on purpose: the
    # benchmarks measure steady-state operations, not provisioning.
    env.cost.reset()
    return env


def _trace_section(env: BenchEnv) -> dict | None:
    """Trace-derived BENCH sections from a wire-traced environment.

    ``server``: the TracedServer's phase totals (decode/disk/verify
    seconds, span and error counts); ``resolve_depth``: the client's
    per-walk-depth cache attribution.  ``None`` when the environment is
    not wire-traced.
    """
    traced = env.traced_server
    if traced is None:
        return None
    return {"server": traced.phase_totals(),
            "resolve_depth": env.fs.resolver.walk_depth_stats()}


def run_observed(workload: str, impl: str = "sharoes",
                 profile: CostProfile = PAPER_2008,
                 params: dict | None = None,
                 flaky_p: float = 0.0, flaky_seed: int = 0,
                 config: "ClientConfig | None" = None,
                 wire_trace: bool = False,
                 setup=None,
                 _env_out: list | None = None,
                 shards: int = 0, replicas: int = 2):
    """Run one named workload with full span/metrics capture.

    Returns ``(payload, spans)``: the machine-readable ``BENCH_*``
    payload (see :mod:`repro.obs.bench`) and the finished root spans of
    the client that ran the workload.  Workload modules are imported
    lazily so plain benchmark runs never pay for harnesses they skip.
    ``config`` overrides the mounted client's configuration (benchmark
    snapshots use it to toggle optional features like readahead).

    ``wire_trace=True`` stacks one :class:`~repro.obs.wiretrace.TracedServer`
    per client (see :func:`make_env`) and adds a ``trace`` section to the
    payload (server phase totals + resolve depth attribution).  ``setup``,
    when given, receives the freshly
    built environment *before* the workload runs -- harnesses use it to
    interpose wrappers (e.g. a mid-run rebalance trigger) under the
    clients the workload will mount.  ``_env_out``, when a list,
    receives the environment so callers (``run_traced``) can reach the
    server spans.  ``shards``/``replicas`` select a sharded backend
    (see :func:`make_env`).
    """
    from ..obs.bench import bench_payload, op_report

    params = dict(params or {})
    env = make_env(impl, profile=profile, flaky_p=flaky_p,
                   flaky_seed=flaky_seed, config=config,
                   wire_trace=wire_trace, shards=shards, replicas=replicas)
    if _env_out is not None:
        _env_out.append(env)
    if setup is not None:
        setup(env)
    if workload == "postmark":
        from .postmark import run_postmark
        run_postmark(env, **params)
    elif workload == "andrew":
        from .andrew import run_andrew
        run_andrew(env, **params)
    elif workload == "createlist":
        from .createlist import run_create_and_list
        run_create_and_list(env, **params)
    elif workload == "office":
        from .trace import replay_timed, synthesize_office_trace
        trace_params = {k: params.pop(k) for k in
                        ("users_dirs", "files_per_dir", "churn")
                        if k in params}
        replay_timed(env, synthesize_office_trace(**trace_params),
                     **params)
    else:
        raise SharoesError(f"unknown workload {workload!r}; "
                           f"choose from {OBSERVED_WORKLOADS}")
    # Defensive barrier: nothing staged survives past the run, so the
    # payload (and any fsck of the server) sees the settled SSP state.
    flush_client(env.fs)
    # The workload ran on env.fs (fresh_client rebinds it); its tracer
    # holds every finished root span since the post-mount cost reset.
    spans = list(env.fs.tracer.finished)
    run_params = dict(params, impl=impl)
    if flaky_p:
        run_params.update(flaky_p=flaky_p, flaky_seed=flaky_seed)
    if env.wire_trace:
        run_params["wire_trace"] = True
    payload = bench_payload(
        workload, op_report(spans), registry=env.fs.metrics,
        cost=env.cost, params=run_params,
        trace=_trace_section(env))
    return payload, spans


def run_traced(workload: str, impl: str = "sharoes",
               profile: CostProfile = PAPER_2008,
               params: dict | None = None,
               config: "ClientConfig | None" = None):
    """Run one workload wire-traced and stitch client + server spans.

    Returns ``(payload, roots, orphans, env)``: the BENCH payload (with
    its ``trace`` section), the stitched span-tree dicts (server spans
    grafted under the client spans that issued them), any orphan server
    spans (should be empty -- asserted in tests), and the environment.
    """
    from ..obs.wiretrace import stitch

    env_box: list = []
    payload, spans = run_observed(
        workload, impl=impl, profile=profile, params=params,
        config=config, wire_trace=True, _env_out=env_box)
    env = env_box[0]
    traced = env.traced_server
    server_spans = list(traced.spans) if traced is not None else []
    roots, orphans = stitch(spans, server_spans)
    return payload, roots, orphans, env
