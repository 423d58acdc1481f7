"""Benchmark reporting: paper-vs-measured tables.

Every figure harness prints rows in the same style so EXPERIMENTS.md can
quote them directly.  We are reproducing on a *simulated* testbed, so the
interesting quantities are ratios and orderings, not absolute seconds --
both are shown.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ComparisonRow:
    label: str
    paper: float | None
    measured: float

    @property
    def ratio(self) -> float | None:
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper


def format_table(title: str, headers: list[str],
                 rows: list[list[str]]) -> str:
    """Monospace table with a title rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_comparison(title: str, rows: list[ComparisonRow],
                      unit: str = "s") -> str:
    """Render paper-vs-measured rows with the measured/paper ratio."""
    body = []
    for row in rows:
        paper = f"{row.paper:.1f}" if row.paper is not None else "-"
        ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "-"
        body.append([row.label, paper, f"{row.measured:.1f}", ratio])
    return format_table(
        title, ["implementation", f"paper ({unit})",
                f"measured ({unit})", "measured/paper"], body)


def overhead_pct(value: float, baseline: float) -> float:
    """Relative overhead of ``value`` over ``baseline`` (0.11 = +11%)."""
    if baseline == 0:
        return 0.0
    return value / baseline - 1.0
