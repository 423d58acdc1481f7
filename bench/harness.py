"""Closed-loop driver shared by the four workloads.

Load shape: one generator thread; the next op is issued only when the
previous one has returned.  The measured phase is cut into blocks of a
fixed op count (50-100 ms each); a block's ops and payloads are generated
from the seeded stream *before* its timing starts, each op is timed on
its own, results are verified between ops (outside the op's timing), the
block ends with ``flush_staged()`` inside its timing so write-behind
cannot carry work out of the measurement, and the block is bracketed by
calibration samples (see :mod:`bench.calibrate`).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SharoesError

from .calibrate import BracketedTimer, Calibrator
from .kit import Workload
from .wirecount import KINDS

#: set-up is repeated so ``setup_s`` can be a median.
SETUP_REPEATS = 3
#: share of a traced run measured with the recorder off, as the base of
#: ``harness.trace_overhead_share``.
UNTRACED_SHARE_OF_TRACED_RUN = 0.2
#: a run is loud about a yardstick it should not trust.
MAX_CAL_SHARE = 0.12
MAX_CAL_DRIFT = 3.0


# -- measurement -------------------------------------------------------------


# The typical op and the tail are reported as *means over a slice* of the
# sorted per-op times, not as percentiles: op costs are multi-modal (a
# cached getattr, a cold read, a create with two key generations), and a
# percentile that falls where one population ends and the next begins
# jumps between them from run to run -- p95 of tree_read moved by 85 %
# and p50 of duo_wire by 12 % between seeds, while these move by a few %.


#: the slowest ops left out of the tail mean (at least one): a single op
#: stretched five-fold by a stalled machine moved the tail of a 200-op
#: ``bulk_rw`` run by 35 %.
TAIL_TRIM_SHARE = 0.001


def tail_mean(sorted_values: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of the values, the very slowest
    TAIL_TRIM_SHARE (at least one value) set aside."""
    total = len(sorted_values)
    count = max(1, round(total * share))
    trim = min(count - 1, math.ceil(total * TAIL_TRIM_SHARE))
    return statistics.fmean(sorted_values[total - count:total - trim])


def mid_mean(sorted_values: list[float]) -> float:
    """Mean of the middle half of the values (inter-quartile mean)."""
    quarter = len(sorted_values) // 4
    return statistics.fmean(sorted_values[quarter:len(sorted_values)
                                          - quarter])


@dataclass
class Phase:
    """Per-op samples of one stretch of the measured phase."""

    kinds: list[str] = field(default_factory=list)
    cal_ms: list[float] = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)
    sim_s: list[float] = field(default_factory=list)
    frames: list[int] = field(default_factory=list)
    #: wall time of the blocks (ops + the harness's own checks).
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.kinds)


@dataclass
class RunResult:
    setup_s: list[float]
    setup_raw_s: list[float]
    untraced: Phase
    traced: Phase
    failures: list[str]
    checks: int
    deltas: dict[str, float]
    stored_bytes: int
    live_bytes: int
    peak_rss_mb: float
    cal_cost_s: float
    cal_drift: float
    measured_wall_s: float

    @property
    def attempted(self) -> int:
        return self.untraced.ops + self.traced.ops + self.checks

    @property
    def failed(self) -> int:
        return len(self.failures)


def _program_counters(workload: Workload) -> dict[str, float]:
    """Public counters of the program, summed over the clients."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for counter in workload.counters:
        for key, value in counter.snapshot().items():
            add(f"wire.{key}", value)
    for fs in workload.clients:
        add("client.request_count", fs.request_count)
        bounded = fs.cache.capacity_bytes is not None
        for tag in ("all", "small" if bounded else "fit"):
            add(f"cache.{tag}.hits", fs.cache.stats.hits)
            add(f"cache.{tag}.misses", fs.cache.stats.misses)
        add("cache.evictions", fs.cache.stats.evictions)
        if fs.mdcache is not None:
            add("mdcache.stale_rejects", fs.mdcache.stale_rejects)
        if fs.cost is not None:
            add("sim.network_s", fs.cost.totals.network)
            add("sim.crypto_s", fs.cost.totals.crypto)
        if fs.scheduler is not None:
            snap = fs.scheduler.snapshot()
            add("scheduler.waves", snap["flush_waves"] + snap["fetch_waves"])
            add("scheduler.subops",
                snap["flushed_ops"] + snap["fetched_ops"])
            add("scheduler.fetch_flights", snap["fetch_flights"])
            add("scheduler.dedup_hits", snap["dedup_hits"])
        attempts = getattr(fs.server, "attempts", None)
        if attempts is not None:
            add("transport.attempts", attempts)
        waits = fs.metrics.get("lease.waits")
        add("lease.waits", waits.value if waits is not None else 0.0)
    return out


class Driver:
    """Runs one workload once: set-up x3, warm-up, measure, verify."""

    def __init__(self, factory: Callable[[int], Workload], seed: int,
                 seconds: float | None, ops: int | None,
                 recorder=None):
        self.factory = factory
        self.seed = seed
        self.seconds = seconds
        self.ops = ops
        self.recorder = recorder
        self.cal = Calibrator()
        self.failures: list[str] = []

    # -- one block -----------------------------------------------------------

    def _run_block(self, workload: Workload, count: int,
                   phase: Phase | None) -> None:
        ops = [workload.next_op() for _ in range(count)]
        clock = workload.clock
        counters = workload.counters
        recorder = self.recorder

        def frames() -> int:
            return sum(counter.frames for counter in counters)

        perf = time.perf_counter
        raw: list[float] = []
        cpu0 = time.process_time()
        wall0 = perf()
        for op in ops:
            if recorder is not None:
                recorder.op_kind = op.kind
            frames0 = frames()
            sim0 = clock.now
            result = exc = None
            t0 = perf()
            try:
                result = op.run()
            except SharoesError as error:
                exc = error
            t1 = perf()
            raw.append(t1 - t0)
            if phase is not None:
                phase.kinds.append(op.kind)
                phase.sim_s.append(clock.now - sim0)
                phase.frames.append(frames() - frames0)
            if not op.check(result, exc):
                got = type(exc).__name__ if exc is not None else "result"
                self.failures.append(f"{op.kind}: unexpected {got}")
        # Write-behind must not carry work out of the block: the flush
        # is charged to the block's last op.
        sim0 = clock.now
        frames0 = frames()
        t0 = perf()
        workload.flush()
        raw[-1] += perf() - t0
        wall = perf() - wall0
        cpu = time.process_time() - cpu0
        factor = self.cal.cut()
        # Drain each client's finished-span history, as an exporter
        # would.  Left alone it grows to 100 000 span trees per client,
        # and both memory and (through the cyclic GC) per-op time then
        # depend on how many ops the run has done so far: tree_read read
        # 0.233 ms/op and 184 MB undrained against 0.148 ms/op and 43 MB.
        for fs in workload.clients:
            fs.tracer.reset()
        if phase is None:
            return
        phase.sim_s[-1] += clock.now - sim0
        phase.frames[-1] += frames() - frames0
        phase.raw_s.extend(raw)
        phase.cal_ms.extend(d * factor * 1000.0 for d in raw)
        phase.wall_s += wall
        phase.cpu_s += cpu

    # -- the whole run -------------------------------------------------------

    def run(self) -> RunResult:
        setup_cal: list[float] = []
        setup_raw: list[float] = []
        workload = None
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            timer = BracketedTimer(self.cal)
            timer.start()
            workload = self.factory(self.seed)
            workload.build(timer.tick)
            setup_cal.append(timer.stop())
            setup_raw.append(timer.raw_s)
        try:
            return self._measure(workload, setup_cal, setup_raw)
        finally:
            workload.close()

    def _measure(self, workload: Workload, setup_cal: list[float],
                 setup_raw: list[float]) -> RunResult:
        self.cal.start()
        remaining = workload.warmup_ops
        while remaining > 0:
            count = min(workload.block_ops, remaining)
            self._run_block(workload, count, None)
            remaining -= count

        # End-to-end counts cover the whole measured phase; per-layer
        # counts cover the traced stretch only.
        base = _program_counters(workload)
        untraced, traced = Phase(), Phase()
        tracing = self.recorder is not None
        started = time.perf_counter()

        def done(phase_ops: int, share: float) -> bool:
            if self.ops is not None:
                return phase_ops >= self.ops * share
            return time.perf_counter() - started >= self.seconds * share

        first_share = UNTRACED_SHARE_OF_TRACED_RUN if tracing else 1.0
        while not done(untraced.ops, first_share):
            self._run_block(workload, workload.block_ops, untraced)
        if tracing:
            base = _program_counters(workload)
            self.recorder.enabled = True
            while not done(untraced.ops + traced.ops, 1.0):
                self._run_block(workload, workload.block_ops, traced)
            self.recorder.enabled = False
        measured_wall = time.perf_counter() - started
        after = _program_counters(workload)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stored = workload.backend.stored_bytes()
        live = workload.model.live_bytes()

        deltas = {key: after[key] - base.get(key, 0.0) for key in after}

        checks, failed = workload.verify_after()
        self.failures.extend(failed)
        return RunResult(
            setup_s=setup_cal,
            setup_raw_s=setup_raw, untraced=untraced, traced=traced,
            failures=self.failures, checks=checks, deltas=deltas,
            stored_bytes=stored, live_bytes=live, peak_rss_mb=peak_rss_mb,
            cal_cost_s=self.cal.cost_s, cal_drift=self.cal.drift,
            measured_wall_s=measured_wall)


# -- metrics -----------------------------------------------------------------


def end_to_end_metrics(result: RunResult) -> dict[str, float]:
    phase = result.untraced
    ops = phase.ops
    cal = sorted(phase.cal_ms)
    sim = sorted(phase.sim_s)
    d = result.deltas
    up = sum(d[f"wire.up.{kind}"] for kind in KINDS)
    down = sum(d[f"wire.down.{kind}"] for kind in KINDS)
    return {
        "cal_ms_per_op": sum(phase.cal_ms) / ops,
        "cal_op_mid50_ms": mid_mean(cal),
        "cal_op_tail5_ms": tail_mean(cal, 0.05),
        "sim_s_per_op": sum(phase.sim_s) / ops,
        "sim_op_tail5_s": tail_mean(sim, 0.05),
        "requests_per_op": d["wire.frames"] / ops,
        "wire_up_bytes_per_op": up / ops,
        "wire_down_bytes_per_op": down / ops,
        "stored_bytes_per_user_byte": result.stored_bytes
        / result.live_bytes,
        "peak_rss_mb": result.peak_rss_mb,
        "setup_s": statistics.median(result.setup_s),
    }


def harness_notes(result: RunResult) -> dict[str, float]:
    """Numbers about the measurement itself (printed, not gated)."""
    phase = result.untraced
    return {
        "ops": float(phase.ops + result.traced.ops),
        "measured_wall_s": result.measured_wall_s,
        "raw_ms_per_op": sum(phase.raw_s) / phase.ops * 1000.0,
        "setup_raw_s": statistics.median(result.setup_raw_s),
        "cal_share": result.cal_cost_s
        / (result.cal_cost_s + result.measured_wall_s
           + sum(result.setup_raw_s)),
        "cal_drift": result.cal_drift,
    }
