"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload pm_churn --seed 2008 --seconds 15 --trace 0
    python3 bench/run.py --workload duo_wire --trace 1      # per-layer run
    python3 bench/run.py --workload bulk_rw --ops 40        # fixed op count
    python3 bench/run.py --aa 5                             # A/A tables

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``.  Exits non-zero
when any output verification fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--ops", type=int, default=None,
                        help="measure exactly this many ops instead of "
                             "--seconds (count metrics then repeat "
                             "bit-for-bit for a seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None,
                        metavar="N", help="A/A mode: two alternating sets "
                        "of N runs per workload (all workloads unless "
                        "--workload is given)")
    args = parser.parse_args()
    if args.aa is None and args.workload is None:
        parser.error("--workload is required (or use --aa)")
    return args


def _units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from bench.harness import (MAX_CAL_DRIFT, MAX_CAL_SHARE, Driver,
                               end_to_end_metrics, harness_notes)
    from bench.workloads import WORKLOADS

    recorder = None
    if args.trace:
        from bench.tracing import Recorder, per_layer_metrics
        recorder = Recorder()
        # Before any client exists: bound methods captured at mount
        # (crypto listeners) must already be the wrapped ones.
        recorder.install()
    driver = Driver(WORKLOADS[args.workload], args.seed,
                    seconds=args.seconds, ops=args.ops, recorder=recorder)
    result = driver.run()

    if args.trace:
        section = "per_layer"
        metrics = per_layer_metrics(result, recorder)
        OUT_DIR.mkdir(exist_ok=True)
        out_path = OUT_DIR / f"trace_{args.workload}_{args.seed}.json"
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
    else:
        section = "end_to_end"
        metrics = end_to_end_metrics(result)
    units = _units(spec, section)
    if set(metrics) != set(units):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json {section}: "
            f"{sorted(set(metrics) ^ set(units))}")

    notes = harness_notes(result)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={int(notes['ops'])} "
          f"measured={notes['measured_wall_s']:.2f}s")
    for name in units:
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"# notes {json.dumps(notes)}")
    if notes["cal_share"] > MAX_CAL_SHARE or notes["cal_drift"] > MAX_CAL_DRIFT:
        print(f"# WARNING {args.workload}: calibration untrustworthy "
              f"(cal_share={notes['cal_share']:.3f}, "
              f"cal_drift={notes['cal_drift']:.2f})")
    for failure in result.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if result.failed == 0 else 1


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: the program under test (src/repro) is not in "
              "this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    spec = _load_spec()
    args = _parse_args(spec)
    if args.aa is not None:
        from bench.aa import run_aa
        return run_aa(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
