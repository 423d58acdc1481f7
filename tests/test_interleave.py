"""Concurrency interleaving matrix: every schedule must stay consistent.

The acceptance bar for the multi-client lease layer: for every op pair
and every interleaving point (pause / crash / zombie-resume) in the
first client's SSP mutation sequence, the volume ends fsck-clean with
zero orphans, every rider's update survives, the first op is fully
applied or fully rolled back, and surviving clients cross-check version
statements without a fork.  The unit contracts of the lease subsystem
itself live in test_lease.py.
"""

from __future__ import annotations

import pytest

from repro.tools.interleave import (CRASH, MODES, PREEMPT, SEQUENTIAL,
                                    ZOMBIE, InterleaveMatrix, build_cases)

CASE_NAMES = [case.name for case in
              build_cases({name: b"" for name in "abcx"})]


@pytest.fixture(scope="module")
def matrix() -> InterleaveMatrix:
    """One enterprise reused across the module: each cell restores the
    volume (and shared clock) to its base snapshot, so cells stay
    independent."""
    return InterleaveMatrix(seed=1234)


def _run(matrix: InterleaveMatrix, name: str, modes: tuple) -> list:
    """Every cell of one case under ``modes``."""
    return matrix.run(modes, [c for c in matrix.cases if c.name == name])


@pytest.mark.parametrize("name", CASE_NAMES)
def test_all_interleavings_consistent(matrix, name):
    outcomes = _run(matrix, name, MODES)
    assert outcomes, f"{name}: no interleaving points discovered"
    bad = [o for o in outcomes if not o.consistent]
    assert not bad, matrix.table(bad)


def test_sequential_baseline_applies_everything(matrix):
    for name in CASE_NAMES:
        [outcome] = _run(matrix, name, (SEQUENTIAL,))
        assert outcome.mode == SEQUENTIAL and outcome.point == 0
        assert outcome.outcome == "all_applied"
        assert outcome.first_error == ""


def test_preemption_actually_contends(matrix):
    """The sweep is not vacuous: at least one preempt cell makes a
    rider wait on the paused client's lease before succeeding."""
    outcomes = _run(matrix, "create-create", (PREEMPT,))
    assert any(o.deferred > 0 for o in outcomes)
    assert all(o.consistent for o in outcomes)


def test_zombie_fencing_actually_bites(matrix):
    """At least one zombie cell must see the resumed client fenced out
    with LeaseLostError -- otherwise the epoch check is dead code."""
    outcomes = _run(matrix, "create-create", (ZOMBIE,))
    assert any(o.first_error == "LeaseLostError" for o in outcomes)
    assert all(o.consistent for o in outcomes)


def test_crash_rides_roll_forward(matrix):
    """Crash cells past the journal append recover the first op via the
    successor's roll-forward: it must land applied, not half-done."""
    outcomes = _run(matrix, "create-create", (CRASH,))
    assert any(o.outcome == "all_applied" for o in outcomes)
    assert any(o.outcome == "first_rolled_back" for o in outcomes)
    assert all(o.consistent for o in outcomes)


def test_matrix_is_deterministic_per_seed():
    a = InterleaveMatrix(seed=7)
    b = InterleaveMatrix(seed=7)
    case = "mkdir-create"
    assert (_run(a, case, (SEQUENTIAL, ZOMBIE))
            == _run(b, case, (SEQUENTIAL, ZOMBIE)))


def test_every_case_has_multiple_interleaving_points(matrix):
    """Each first op is genuinely multi-mutation: a single-put op would
    make the interleaving sweep vacuous."""
    for case in matrix.cases:
        total = matrix.count(case)
        assert total >= 3, f"{case.name}: only {total} mutations"
