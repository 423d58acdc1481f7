"""The yardstick measures itself: a fixed loop must read the same."""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time

from bench.calibrate import Calibrator

from .conftest import ROOT

RUNS = 10
BLOCKS_PER_RUN = 40


def _mix(value: int, table: dict[int, int]) -> int:
    table[value & 255] = table.get(value & 255, 0) + value
    return (value * 31 + len(table)) % 1_000_003


def _fixed_loop() -> int:
    """A pure-Python stand-in for a workload block (about 50 ms): calls,
    dict updates, byte-wise XOR and hashing, in other proportions and
    sizes than the kernel's."""
    acc = 7
    table: dict[int, int] = {}
    for _ in range(240_000):
        acc = _mix(acc, table)
    pad = bytes(range(250)) * 40
    key = hashlib.sha256(acc.to_bytes(4, "big")).digest()
    for _ in range(36):
        key = hashlib.sha256(bytes(a ^ b for a, b in zip(pad, key * 313))
                             ).digest()
    return acc + key[0]


def test_kernel_never_imports_the_program():
    probe = ("import sys; import bench.calibrate; "
             "sys.exit(any(m == 'repro' or m.startswith('repro.') "
             "for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env={"PYTHONPATH": f"{ROOT}:{ROOT / 'src'}"},
                          check=False)
    assert done.returncode == 0


def test_fixed_loop_reads_the_same_across_runs(capsys):
    raw_runs, cal_runs = [], []
    for _ in range(RUNS):
        cal = Calibrator()
        cal.start()
        raw = normalised = 0.0
        for _ in range(BLOCKS_PER_RUN):
            start = time.perf_counter()
            _fixed_loop()
            spent = time.perf_counter() - start
            raw += spent
            normalised += spent * cal.cut()
        raw_runs.append(raw)
        cal_runs.append(normalised)

    def full_range(values):
        return (max(values) - min(values)) / statistics.median(values)

    def quartile_range(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)

    with capsys.disabled():
        print(f"\nfixed loop over {RUNS} runs, (max - min) / median: raw "
              f"{full_range(raw_runs):.3f}, calibrated "
              f"{full_range(cal_runs):.3f}; inter-quartile: raw "
              f"{quartile_range(raw_runs):.3f}, calibrated "
              f"{quartile_range(cal_runs):.3f}")
    # The statistic the driver holds against a bound:
    assert quartile_range(cal_runs) <= 0.05
    # The full range is within 0.05 when the machine is as steady as when
    # the benchmark was specified (raw range about 0.2); on the days it
    # is not (raw ranges of 0.3-0.5 between these 3.5 s runs were seen,
    # calibrated 0.06-0.10) at least two thirds of it must go.
    assert full_range(cal_runs) <= max(0.05, full_range(raw_runs) / 3)
