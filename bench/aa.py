"""A/A mode: does the benchmark agree with itself?

Runs each workload N times twice -- set A and set B, alternating, run i
of either set with seed ``--seed + i``, every run a fresh process -- and
prints, per end-to-end metric: both medians, their relative gap, each
set's spread and the bound from BENCHMARK.json.  The spread is the
distance between the first and third quartile as a share of the median
(what the driver checks against the bound), with (max - min) / median
beside it; the raw, uncalibrated ms/op is shown beside the calibrated one
it replaces.

The bounds in BENCHMARK.json are set from this output by rule: a timing
bound is max(0.10, 3 x the larger spread seen), never tighter.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _one_run(workload: str, seed: int, seconds: float,
             ops: int | None) -> tuple[dict, dict]:
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    if ops is not None:
        command += ["--ops", str(ops)]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {done.returncode}):\n{done.stdout[-2000:]}"
                           f"\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    notes = next(json.loads(line[len("# notes "):]) for line in lines
                 if line.startswith("# notes "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, notes


def _spread(values: list[float]) -> tuple[float, float]:
    """(inter-quartile range, max - min), each as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, (max(values) - min(values)) / median


def _row(name: str, a: list[float], b: list[float],
         bound: float | None) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    gap = (med_b - med_a) / med_a if med_a else 0.0
    iqr_a, range_a = _spread(a)
    iqr_b, range_b = _spread(b)
    verdict = ""
    if bound is not None:
        ok = max(iqr_a, iqr_b) <= bound and gap <= bound
        verdict = "ok" if ok else "OVER"
    bound_text = "" if bound is None else f"{bound:.2f}"
    return (f"| {name} | {med_a:.6g} | {med_b:.6g} | {gap:+.3f} "
            f"| {iqr_a:.3f} / {range_a:.3f} | {iqr_b:.3f} / {range_b:.3f} "
            f"| {bound_text} | {verdict} |")


def run_aa(args, spec: dict) -> int:
    runs = args.aa
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = 0
    for workload in names:
        sets: tuple[list[dict], list[dict]] = ([], [])
        raws: tuple[list[float], list[float]] = ([], [])
        for i in range(runs):
            for which in (0, 1):
                values, notes = _one_run(workload, args.seed + i,
                                         args.seconds, args.ops)
                sets[which].append(values)
                raws[which].append(notes["raw_ms_per_op"])
                print(f"# {workload} set {'AB'[which]} seed "
                      f"{args.seed + i}: cal_ms_per_op="
                      f"{values['cal_ms_per_op']:.5g} raw_ms_per_op="
                      f"{notes['raw_ms_per_op']:.5g}", flush=True)
        print(f"\n### {workload}: seeds {args.seed}..{args.seed + runs - 1},"
              f" {runs} runs per set, {args.seconds:g} s each\n")
        print("| metric | median A | median B | gap B/A-1 "
              "| A: IQR / range | B: IQR / range | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            row = _row(name, [s[name] for s in sets[0]],
                       [s[name] for s in sets[1]], bound)
            over += row.endswith("| OVER |")
            print(row)
        print(_row("(raw_ms_per_op, uncalibrated)", raws[0], raws[1], None))
        print(flush=True)
    return 1 if over else 0
