"""Machine-readable benchmark reports (``BENCH_*.json``).

Aggregates a run's finished root spans into the per-operation summary the
perf trajectory tracks across PRs:

* ``op -> {seconds: {n, mean, stdev, min, max, p50, p95, p99},
  phases: {resolve, network, crypto, cache, other}, errors}``;
* run totals (span count, simulated seconds, phase sums);
* the cost model's own whole-run breakdown, so a report is
  self-reconciling: phase totals must sum to ``cost_model.total`` to
  within float noise (the acceptance invariant, asserted in tests).

Schema v2 adds an optional ``trace`` section (server-side phase totals
and per-depth resolve attribution from a wire-traced run) and the
:func:`diff_bench` regression gate: given two BENCH documents it
reports wall-clock, request-count and phase deltas per workload and
flags regressions beyond thresholds (wall > 2%, any extra request, by
default).  CI runs the gate against the committed baseline on every
push -- a perf regression fails the build like a test failure.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from ..sim.stats import summarize
from .metrics import MetricsRegistry
from .tracing import PHASES, Span, phase_breakdown

#: Schema version stamped into every BENCH_*.json.  v2 == v1 plus an
#: optional ``trace`` section; v1 documents still load and diff.
BENCH_SCHEMA = 2


def op_report(spans: Iterable[Span]) -> dict[str, Any]:
    """Aggregate finished root spans by operation name."""
    durations: dict[str, list[float]] = {}
    phases: dict[str, dict[str, float]] = {}
    errors: dict[str, int] = {}
    total_spans = 0
    total_seconds = 0.0
    total_phases = {phase: 0.0 for phase in PHASES}
    for span in spans:
        total_spans += 1
        total_seconds += span.duration
        durations.setdefault(span.name, []).append(span.duration)
        breakdown = phase_breakdown(span)
        sink = phases.setdefault(span.name,
                                 {phase: 0.0 for phase in PHASES})
        for phase, seconds in breakdown.items():
            sink[phase] += seconds
            total_phases[phase] += seconds
        if span.error is not None:
            errors[span.name] = errors.get(span.name, 0) + 1
    ops = {}
    for name, series in durations.items():
        ops[name] = {
            "seconds": summarize(series).as_dict(),
            "phases": phases[name],
            "errors": errors.get(name, 0),
        }
    return {
        "ops": ops,
        "totals": {"spans": total_spans, "seconds": total_seconds,
                   "phases": total_phases},
    }


def bench_payload(name: str, report: dict[str, Any],
                  registry: MetricsRegistry | None = None,
                  cost=None, params: dict[str, Any] | None = None,
                  trace: dict[str, Any] | None = None
                  ) -> dict[str, Any]:
    """Assemble one BENCH_*.json document."""
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "params": params or {},
        "ops": report["ops"],
        "totals": report["totals"],
    }
    if cost is not None:
        payload["cost_model"] = dict(cost.totals.as_dict(),
                                     total=cost.totals.total)
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if trace is not None:
        payload["trace"] = trace
    return payload


def write_bench_json(payload: dict[str, Any],
                     out_dir: str | pathlib.Path) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir`` (created if needed)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{payload['name']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- diffing / the regression gate -----------------------------------------


def load_bench(path: str | pathlib.Path) -> dict[str, dict[str, Any]]:
    """Load a BENCH_*.json into ``{workload_name: payload}``.

    Tolerates the three shapes in the trajectory: the per-PR document
    (``{"pr": N, "workloads": {...}}``), a bare single-workload payload
    (``{"schema": ..., "name": ...}``), and schema-1 documents (no
    ``trace`` section).
    """
    doc = json.loads(pathlib.Path(path).read_text())
    if "workloads" in doc:
        return dict(doc["workloads"])
    if "name" in doc:
        return {doc["name"]: doc}
    raise ValueError(f"{path}: not a BENCH document "
                     "(expected 'workloads' or 'name')")


def _wall_seconds(payload: dict[str, Any]) -> float:
    if "ops_per_sec" in payload:  # many-client throughput entry
        return float(payload.get("sim_seconds", 0.0))
    cost = payload.get("cost_model")
    if cost and "total" in cost:
        return float(cost["total"])
    return float(payload.get("totals", {}).get("seconds", 0.0))


def _request_count(payload: dict[str, Any]) -> float | None:
    if "ops_per_sec" in payload:
        requests = payload.get("wire_requests")
        return float(requests) if requests is not None else None
    metrics = payload.get("metrics")
    if metrics and "client.requests" in metrics:
        return float(metrics["client.requests"])
    return None


def _resolve_seconds(payload: dict[str, Any]) -> float | None:
    """Total path-resolution seconds from the schema-v2 ``trace``
    section (summed over walk depths); None for untraced documents."""
    trace = payload.get("trace")
    if not trace:
        return None
    depths = trace.get("resolve_depth")
    if not depths:
        return None
    return sum(float(d.get("seconds", 0.0)) for d in depths.values())


def diff_bench(old: dict[str, dict[str, Any]],
               new: dict[str, dict[str, Any]],
               wall_tol: float = 0.02, request_tol: float = 0.0,
               phase_tol: float | None = None,
               resolve_gates: dict[str, float] | None = None,
               overlap_gates: dict[str, float] | None = None
               ) -> dict[str, Any]:
    """Compare two loaded BENCH documents; flag regressions.

    Gating signals, per workload present in both documents:

    * **wall** -- simulated wall seconds; regression when the new run is
      more than ``wall_tol`` (relative) slower;
    * **requests** -- client wire requests; regression when the new run
      issues more than ``request_tol`` (relative) extra requests (the
      default 0.0 means *any* extra request fails -- request counts are
      deterministic here, so drift is always a real change);
    * **phases** -- per-phase seconds deltas are always *reported*, but
      only gate when ``phase_tol`` is set (phase mix shifts around
      legitimately as optimisations move cost between buckets);
    * **resolve** -- ``resolve_gates={"andrew": 0.5}`` demands the new
      run's path-resolution seconds (trace section, summed over walk
      depths) be at most that fraction of the old run's -- an
      *improvement* floor, not a tolerance.  A gated workload missing
      resolve attribution on either side fails loud rather than
      silently passing (PR 7: the mdcache win must stay locked in);
    * **overlap** -- ``overlap_gates={"postmark": 0.75}`` demands, in
      the *new* document alone, that the ``postmark_concurrent`` entry's
      wall seconds be at most that fraction of the plain ``postmark``
      entry's: the pipelined client's speedup is an acceptance claim
      (PR 10), so losing it fails the gate even though neither run
      individually regressed;
    * **throughput** -- entries that carry an ``ops_per_sec`` field
      (the many-client harness section) gate on throughput instead of
      wall seconds: a drop beyond ``wall_tol`` (relative) regresses, as
      does a run whose final fsck was not clean.  Latency percentiles
      are reported alongside.

    Workloads present in only one document are reported as added or
    removed; a removed workload is flagged (a shrinking benchmark
    surface can silently hide a regression).
    """
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in new:
            regressions.append(f"{name}: workload removed from new run")
            rows.append({"workload": name, "status": "removed"})
            continue
        if "ops_per_sec" in new[name]:
            rows.append(_diff_throughput(name, old.get(name), new[name],
                                         wall_tol, regressions))
            continue
        if name not in old:
            rows.append({"workload": name, "status": "added"})
            continue
        old_wall = _wall_seconds(old[name])
        new_wall = _wall_seconds(new[name])
        wall_delta = ((new_wall - old_wall) / old_wall if old_wall
                      else 0.0)
        row: dict[str, Any] = {
            "workload": name, "status": "ok",
            "wall_old": round(old_wall, 6), "wall_new": round(new_wall, 6),
            "wall_delta": round(wall_delta, 6),
        }
        if wall_delta > wall_tol:
            row["status"] = "regressed"
            regressions.append(
                f"{name}: wall {old_wall:.3f}s -> {new_wall:.3f}s "
                f"(+{wall_delta * 100:.1f}% > {wall_tol * 100:.1f}%)")
        old_req = _request_count(old[name])
        new_req = _request_count(new[name])
        if old_req is not None and new_req is not None:
            req_delta = ((new_req - old_req) / old_req if old_req
                         else 0.0)
            row["requests_old"] = int(old_req)
            row["requests_new"] = int(new_req)
            row["requests_delta"] = round(req_delta, 6)
            if req_delta > request_tol:
                row["status"] = "regressed"
                regressions.append(
                    f"{name}: requests {int(old_req)} -> {int(new_req)} "
                    f"(+{req_delta * 100:.1f}% > "
                    f"{request_tol * 100:.1f}%)")
        old_phases = old[name].get("totals", {}).get("phases", {})
        new_phases = new[name].get("totals", {}).get("phases", {})
        phase_deltas = {}
        for phase in PHASES:
            before = float(old_phases.get(phase, 0.0))
            after = float(new_phases.get(phase, 0.0))
            phase_deltas[phase] = round(after - before, 6)
            if (phase_tol is not None and before > 0
                    and (after - before) / before > phase_tol):
                row["status"] = "regressed"
                regressions.append(
                    f"{name}: phase {phase} {before:.3f}s -> "
                    f"{after:.3f}s (> {phase_tol * 100:.1f}%)")
        row["phase_deltas"] = phase_deltas
        if resolve_gates and name in resolve_gates:
            ratio = resolve_gates[name]
            old_res = _resolve_seconds(old[name])
            new_res = _resolve_seconds(new[name])
            if old_res is None or new_res is None:
                row["status"] = "regressed"
                regressions.append(
                    f"{name}: resolve gate x{ratio:g} set but "
                    f"{'old' if old_res is None else 'new'} document "
                    "has no resolve attribution (trace section)")
            else:
                row["resolve_old"] = round(old_res, 6)
                row["resolve_new"] = round(new_res, 6)
                if new_res > ratio * old_res:
                    row["status"] = "regressed"
                    regressions.append(
                        f"{name}: resolve {old_res:.3f}s -> "
                        f"{new_res:.3f}s (> x{ratio:g} floor "
                        f"= {ratio * old_res:.3f}s)")
        rows.append(row)
    for name, ratio in sorted((overlap_gates or {}).items()):
        rows.append(_gate_overlap(name, ratio, new, regressions))
    return {"rows": rows, "regressions": regressions,
            "ok": not regressions}


def _diff_throughput(name: str, old: dict[str, Any] | None,
                     new: dict[str, Any], tol: float,
                     regressions: list[str]) -> dict[str, Any]:
    """Gate a many-client throughput entry on ops/sec and fsck."""
    row: dict[str, Any] = {
        "workload": name, "status": "ok", "kind": "throughput",
        "ops_per_sec_new": round(float(new["ops_per_sec"]), 6),
        "latency_new": dict(new.get("latency_s", {})),
    }
    if not new.get("fsck_clean", False):
        row["status"] = "regressed"
        regressions.append(
            f"{name}: final fsck was not clean "
            f"({new.get('fsck_errors', '?')} errors)")
    if old is None or "ops_per_sec" not in old:
        if row["status"] == "ok":
            row["status"] = "added"
        return row
    old_tput = float(old["ops_per_sec"])
    new_tput = float(new["ops_per_sec"])
    delta = (new_tput - old_tput) / old_tput if old_tput else 0.0
    row.update(ops_per_sec_old=round(old_tput, 6),
               ops_per_sec_delta=round(delta, 6),
               latency_old=dict(old.get("latency_s", {})))
    if delta < -tol:
        row["status"] = "regressed"
        regressions.append(
            f"{name}: throughput {old_tput:.3f} -> {new_tput:.3f} "
            f"ops/s ({delta * 100:+.1f}% < -{tol * 100:.1f}%)")
    return row


def _gate_overlap(name: str, ratio: float,
                  new: dict[str, dict[str, Any]],
                  regressions: list[str]) -> dict[str, Any]:
    """The within-document concurrency speedup floor."""
    concurrent_name = f"{name}_concurrent"
    row: dict[str, Any] = {"workload": f"{name}~overlap",
                           "status": "ok", "kind": "overlap",
                           "ratio": ratio}
    if name not in new or concurrent_name not in new:
        missing = name if name not in new else concurrent_name
        row["status"] = "regressed"
        regressions.append(
            f"{name}: overlap gate x{ratio:g} set but the new document "
            f"has no {missing!r} entry")
        return row
    base = _wall_seconds(new[name])
    concurrent = _wall_seconds(new[concurrent_name])
    row["wall_old"] = round(base, 6)
    row["wall_new"] = round(concurrent, 6)
    row["wall_delta"] = round((concurrent - base) / base if base else 0.0,
                              6)
    if concurrent > ratio * base:
        row["status"] = "regressed"
        regressions.append(
            f"{name}: concurrent wall {concurrent:.3f}s exceeds "
            f"x{ratio:g} floor of sequential {base:.3f}s "
            f"(= {ratio * base:.3f}s); the pipelining win regressed")
    return row


def format_diff_table(diff: dict[str, Any],
                      title: str = "bench diff") -> str:
    from ..workloads.report import format_table
    rows = []
    for row in diff["rows"]:
        if row.get("kind") == "throughput":
            tput = (f"{row['ops_per_sec_old']:.3f} -> "
                    f"{row['ops_per_sec_new']:.3f} ops/s"
                    if "ops_per_sec_old" in row else
                    f"{row['ops_per_sec_new']:.3f} ops/s")
            p95 = row["latency_new"].get("p95")
            rows.append([row["workload"], row["status"], tput,
                         f"{row.get('ops_per_sec_delta', 0.0) * 100:+.2f}%",
                         "-", f"p95 {p95:.3f}s" if p95 is not None
                         else "-"])
            continue
        if row.get("status") in ("added", "removed") \
                or "wall_old" not in row:
            rows.append([row["workload"], row["status"], "-", "-", "-",
                         "-"])
            continue
        requests = ("-" if "requests_new" not in row else
                    f"{row['requests_old']} -> {row['requests_new']}")
        resolve = ("-" if "resolve_new" not in row else
                   f"{row['resolve_old']:.3f} -> {row['resolve_new']:.3f}")
        rows.append([row["workload"], row["status"],
                     f"{row['wall_old']:.3f} -> {row['wall_new']:.3f}",
                     f"{row['wall_delta'] * 100:+.2f}%", requests,
                     resolve])
    return format_table(title, ["workload", "status", "wall s",
                                "wall delta", "requests", "resolve s"],
                        rows)


def bench_trajectory(results_dir: str | pathlib.Path) -> list[dict]:
    """Summarise every per-PR ``BENCH_<n>.json`` under ``results_dir``.

    Returns one row per (PR, workload) with wall seconds and request
    counts -- the data behind ``repro bench --list``.
    """
    results_dir = pathlib.Path(results_dir)
    rows: list[dict] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        stem = path.stem.removeprefix("BENCH_")
        if not stem.isdigit():
            continue  # figure-specific artifacts, not trajectory points
        for name, payload in sorted(load_bench(path).items()):
            requests = _request_count(payload)
            rows.append({"pr": int(stem), "workload": name,
                         "wall_s": round(_wall_seconds(payload), 6),
                         "requests": (int(requests)
                                      if requests is not None else None),
                         "schema": payload.get("schema"),
                         "traced": "trace" in payload})
    rows.sort(key=lambda row: (row["pr"], row["workload"]))
    return rows


def format_trajectory_table(rows: list[dict],
                            title: str = "bench trajectory") -> str:
    from ..workloads.report import format_table
    table = [[str(row["pr"]), row["workload"], f"{row['wall_s']:.3f}",
              str(row["requests"]) if row["requests"] is not None else "-",
              "yes" if row["traced"] else "-"]
             for row in rows]
    return format_table(title, ["pr", "workload", "wall s", "requests",
                                "traced"], table)
