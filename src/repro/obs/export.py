"""Renderers: a JSON-lines span log and two tables.

Two consumers of the same observability tree:

* machines replaying a run read the **JSON-lines span log** (one root
  span per line, children nested; ``repro trace``);
* humans read the **tables** (``repro stats``).
"""

from __future__ import annotations

import json
from typing import Iterable

from .metrics import MetricsRegistry
from .tracing import PHASES, Span


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Render already-finished root spans as a JSON-lines document."""
    return "\n".join(json.dumps(span.to_dict(), separators=(",", ":"),
                                sort_keys=True) for span in spans)


def metrics_table(registry: MetricsRegistry,
                  title: str = "metrics") -> str:
    """Human-readable two-column dump of the full snapshot tree."""
    # Imported lazily: the workloads package pulls in the filesystem
    # client, which itself imports repro.obs.
    from ..workloads.report import format_table
    rows = []
    for name, value in registry.snapshot().items():
        if isinstance(value, float) and not value.is_integer():
            rows.append([name, f"{value:.6g}"])
        else:
            rows.append([name, str(int(value))])
    return format_table(title, ["metric", "value"], rows)


def op_table(report: dict, title: str = "per-operation costs") -> str:
    """Render an op report (see obs.bench) as the ``repro stats`` table.

    Shows the same numbers the ``BENCH_*.json`` carries: per-op count,
    mean/p50/p95/p99 latency (ms) and the phase decomposition (ms).
    """
    from ..workloads.report import format_table
    headers = (["operation", "n", "mean ms", "p50", "p95", "p99"]
               + [f"{p} ms" for p in PHASES])
    rows = []
    for op, entry in sorted(report["ops"].items()):
        summary = entry["seconds"]
        rows.append(
            [op, str(summary["n"])]
            + [f"{summary[k] * 1000:.1f}"
               for k in ("mean", "p50", "p95", "p99")]
            + [f"{entry['phases'][p] * 1000:.1f}" for p in PHASES])
    totals = report["totals"]
    rows.append(["TOTAL", str(totals["spans"]),
                 f"{totals['seconds'] * 1000:.1f}", "-", "-", "-"]
                + [f"{totals['phases'][p] * 1000:.1f}" for p in PHASES])
    return format_table(title, headers, rows)
