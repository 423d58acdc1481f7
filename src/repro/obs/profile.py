"""Profile export: folded stacks, speedscope JSON and self-time tables.

Renders finished span trees (live :class:`~repro.obs.tracing.Span`
objects, stitched client+server dicts from
:func:`~repro.obs.wiretrace.stitch`, or a spans JSONL file written by
``repro trace``) into the formats profiling tooling expects:

* **folded stacks** -- one ``frame;frame;frame <microseconds>`` line per
  unique stack, the input format of flamegraph.pl and many viewers;
* **speedscope** -- the evented JSON format of https://speedscope.app;
* **self-time table** -- top-N frames by *self* time (time not
  attributed to any child span), the "where does the time actually go"
  view;
* **resolve attribution** -- per-walk-depth cache hit/miss/seconds
  report quantifying where the path-resolve phase cost lives (the
  andrew workload spends ~44% of its wall in resolve; this report says
  which path depths pay it).

Timeline note: stitched server spans carry a *synthetic* timeline (see
``obs.wiretrace``) whose timestamps are not commensurate with the
client clock.  The speedscope export therefore reconstructs a timeline
bottom-up from span *widths* (self time plus children), which is exact
for both client spans (single-stack, non-overlapping children) and
synthetic server spans (children laid sequentially by construction).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Iterator

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


# -- span-tree plumbing ----------------------------------------------------


def _as_dict(span: Any) -> dict:
    """Accept either a live Span or an exported span dict."""
    if isinstance(span, dict):
        return span
    return span.to_dict()


def load_spans_jsonl(path: str | pathlib.Path) -> list[dict]:
    """Read root span dicts from a ``repro trace`` JSONL file."""
    text = pathlib.Path(path).read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _iter_tree(doc: dict) -> Iterator[dict]:
    yield doc
    for child in doc.get("children", ()):
        yield from _iter_tree(child)


def frame_label(doc: dict) -> str:
    """Human-stable frame name for one span.

    ``walk`` spans carry their path depth (``walk[2]``); spans with an
    ``op`` attr carry it (``network:get``, ``attempt:batch``); server
    spans are prefixed with their service tag (``ssp::server.get``) so
    client and server frames never alias in a stitched tree.
    """
    attrs = doc.get("attrs", {})
    name = doc.get("name", "?")
    if name == "walk":
        label = f"walk[{attrs.get('depth', '?')}]"
        cache = attrs.get("cache")
        return f"{label}:{cache}" if cache else label
    op = attrs.get("op")
    label = f"{name}:{op}" if op and not name.endswith(str(op)) else name
    service = attrs.get("service")
    if service:
        label = f"{service}::{label}"
    return label


def _children_width(doc: dict) -> float:
    return sum(_width(child) for child in doc.get("children", ()))


def _width(doc: dict) -> float:
    """Span width on the reconstructed timeline.

    ``max`` guards synthetic subtrees whose recorded duration is the
    authoritative width even if (due to rounding) it strays a hair from
    the children sum.
    """
    return max(float(doc.get("duration", 0.0)), _children_width(doc))


def _self_seconds(doc: dict) -> float:
    return max(0.0, float(doc.get("duration", 0.0)) - _children_width(doc))


# -- folded stacks ---------------------------------------------------------


def folded_stacks(roots: Iterable[Any], scale: float = 1e6) -> str:
    """Collapse span trees into flamegraph.pl folded-stack lines.

    Values are *self* times scaled to integer microseconds by default;
    identical stacks across operations aggregate into one line.
    """
    agg: dict[str, float] = {}

    def visit(doc: dict, prefix: list[str]) -> None:
        stack = prefix + [frame_label(doc)]
        self_s = _self_seconds(doc)
        if self_s > 0:
            key = ";".join(stack)
            agg[key] = agg.get(key, 0.0) + self_s
        for child in doc.get("children", ()):
            visit(child, stack)

    for root in roots:
        visit(_as_dict(root), [])
    lines = [f"{stack} {int(round(seconds * scale))}"
             for stack, seconds in sorted(agg.items())]
    return "\n".join(lines) + ("\n" if lines else "")


# -- speedscope ------------------------------------------------------------


def speedscope_document(roots: Iterable[Any],
                        name: str = "sharoes trace") -> dict:
    """Render span trees as a speedscope *evented* profile.

    Operations are concatenated on one timeline; events are balanced
    open/close pairs with non-decreasing ``at`` values (required by the
    speedscope loader).
    """
    frames: list[dict] = []
    frame_index: dict[str, int] = {}
    events: list[dict] = []

    def fidx(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    def visit(doc: dict, start: float) -> float:
        index = fidx(frame_label(doc))
        events.append({"type": "O", "frame": index, "at": round(start, 9)})
        cursor = start
        for child in doc.get("children", ()):
            cursor = visit(child, cursor)
        end = start + _width(doc)
        events.append({"type": "C", "frame": index, "at": round(end, 9)})
        return end

    cursor = 0.0
    for root in roots:
        cursor = visit(_as_dict(root), cursor)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro profile",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(cursor, 9),
            "events": events,
        }],
    }


# -- top-N self time -------------------------------------------------------


def self_time_report(roots: Iterable[Any], top: int = 15) -> list[dict]:
    """Top-N frames by aggregate self time.

    Each row: ``frame`` label, ``count`` of spans, ``self_s`` aggregate
    self seconds, ``total_s`` aggregate inclusive seconds, ``share`` of
    run-wide self time.
    """
    agg: dict[str, list[float]] = {}
    grand_total = 0.0
    for root in roots:
        for doc in _iter_tree(_as_dict(root)):
            label = frame_label(doc)
            row = agg.setdefault(label, [0.0, 0, 0.0])
            self_s = _self_seconds(doc)
            row[0] += self_s
            row[1] += 1
            row[2] += _width(doc)
            grand_total += self_s
    rows = sorted(agg.items(), key=lambda kv: (-kv[1][0], kv[0]))[:top]
    return [{"frame": label,
             "count": int(count),
             "self_s": round(self_s, 9),
             "total_s": round(total_s, 9),
             "share": round(self_s / grand_total, 6) if grand_total else 0.0}
            for label, (self_s, count, total_s) in rows]


def format_self_time_table(report: list[dict],
                           title: str = "top self time") -> str:
    from ..workloads.report import format_table
    rows = [[row["frame"], str(row["count"]),
             f"{row['self_s'] * 1000:.3f}", f"{row['total_s'] * 1000:.3f}",
             f"{row['share'] * 100:.1f}%"] for row in report]
    return format_table(title, ["frame", "n", "self ms", "total ms",
                                "share"], rows)


# -- per-walk-depth resolve attribution ------------------------------------


def resolve_attribution(roots: Iterable[Any]) -> dict:
    """Per-path-depth cache attribution of the resolve phase.

    Reads the ``walk`` spans the client opens around every path
    component lookup; each carries ``depth`` and a ``cache`` verdict
    ("hit" when the component resolved without a demand fetch), and
    the ``memo`` count a walk-memo hit's ``resolve`` span carries.  The
    output quantifies *where* resolve cost lives: which depths walk the
    most, miss the most, and pay the most simulated seconds.
    """
    depths: dict[int, dict[str, float]] = {}
    for root in roots:
        for doc in _iter_tree(_as_dict(root)):
            attrs = doc.get("attrs", {})
            if doc.get("name") == "walk":
                walked = (int(attrs.get("depth", 0)),)
            else:  # a memo hit's resolve span: free hits, no walk spans
                walked = range(attrs.get("memo", 0))
            for depth in walked:
                entry = depths.setdefault(depth, {
                    "walks": 0, "hits": 0, "misses": 0, "seconds": 0.0})
                entry["walks"] += 1
                if attrs.get("cache") == "miss":
                    entry["misses"] += 1
                else:
                    entry["hits"] += 1
                entry["seconds"] += float(doc.get("duration", 0.0))
    totals = {"walks": 0, "hits": 0, "misses": 0, "seconds": 0.0}
    for entry in depths.values():
        for key in totals:
            totals[key] += entry[key]
        entry["seconds"] = round(entry["seconds"], 9)
    totals["seconds"] = round(totals["seconds"], 9)
    totals["miss_rate"] = (round(totals["misses"] / totals["walks"], 6)
                           if totals["walks"] else 0.0)
    return {"depths": {str(depth): depths[depth]
                       for depth in sorted(depths)},
            "totals": totals}


def format_resolve_table(report: dict,
                         title: str = "resolve attribution") -> str:
    from ..workloads.report import format_table
    total_s = report["totals"]["seconds"] or 1.0
    rows = []
    for depth, entry in report["depths"].items():
        rows.append([depth, str(int(entry["walks"])),
                     str(int(entry["hits"])), str(int(entry["misses"])),
                     f"{entry['seconds'] * 1000:.3f}",
                     f"{entry['seconds'] / total_s * 100:.1f}%"])
    totals = report["totals"]
    rows.append(["TOTAL", str(int(totals["walks"])),
                 str(int(totals["hits"])), str(int(totals["misses"])),
                 f"{totals['seconds'] * 1000:.3f}", "100.0%"])
    return format_table(title, ["depth", "walks", "hits", "misses",
                                "ms", "share"], rows)
