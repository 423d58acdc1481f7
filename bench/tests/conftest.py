"""Tiny-scale fixtures for the benchmark's own tests.

Run with ``PYTHONPATH=src:. python -m pytest bench/tests -q`` (not part of
the tier-1 ``testpaths``).  The workloads are shrunk by patching their
module constants, and set-up runs once instead of three times, so a whole
run takes about a second.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import harness
from bench.workloads import bulk_rw, duo_wire, pm_churn, tree_read

ROOT = Path(__file__).resolve().parents[2]

#: ops measured per workload at test scale.
TINY_OPS = {"pm_churn": 60, "tree_read": 600, "bulk_rw": 6, "duo_wire": 40}


@pytest.fixture(scope="session")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(pm_churn, "FILES", 40)
    monkeypatch.setattr(pm_churn.PmChurn, "warmup_ops", 10)
    monkeypatch.setattr(tree_read, "TOPS", 2)
    monkeypatch.setattr(tree_read, "SUBS", 3)
    monkeypatch.setattr(tree_read, "FILES", 6)
    monkeypatch.setattr(tree_read.TreeRead, "warmup_ops", 100)
    monkeypatch.setattr(tree_read.TreeRead, "block_ops", 100)
    monkeypatch.setattr(bulk_rw, "FILES", 3)
    monkeypatch.setattr(duo_wire, "HOME_FILES", 4)
    monkeypatch.setattr(duo_wire.DuoWire, "warmup_ops", 10)


def run_tiny(name: str, seed: int, recorder=None) -> harness.RunResult:
    from bench.workloads import WORKLOADS
    driver = harness.Driver(WORKLOADS[name], seed, seconds=None,
                            ops=TINY_OPS[name], recorder=recorder)
    return driver.run()
