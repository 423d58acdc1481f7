"""Crash-point matrix: every op x every crash point must recover.

The acceptance bar for the crash-consistency layer: for every mutation
op and every crash point k in its put/delete sequence, after re-mount
(journal recovery) or ``fsck --repair`` the volume is fsck-clean, the
op is fully applied or fully rolled back, and no orphaned blobs remain.
"""

from __future__ import annotations

import pytest

from repro.tools.crashmatrix import FSCK, MOUNT, CrashMatrix, build_cases

OP_NAMES = [case.name for case in build_cases(b"", b"")]


@pytest.fixture(scope="module")
def matrix() -> CrashMatrix:
    """One enterprise reused across the module: each count restores the
    volume to its pristine snapshot, so cases stay independent."""
    return CrashMatrix(seed=1234)


def _run(matrix: CrashMatrix, name: str, recovery: str) -> list:
    """Every crash point of one op under one recovery mode."""
    return matrix.run((recovery,),
                      [c for c in matrix.cases if c.name == name])


@pytest.mark.parametrize("op", OP_NAMES)
def test_mount_recovery_converges(matrix, op):
    outcomes = _run(matrix, op, MOUNT)
    assert outcomes, f"{op}: no crash points discovered"
    bad = [o for o in outcomes if not o.consistent]
    assert not bad, matrix.table(bad)


@pytest.mark.parametrize("op", OP_NAMES)
def test_fsck_repair_converges(matrix, op):
    outcomes = _run(matrix, op, FSCK)
    bad = [o for o in outcomes if not o.consistent]
    assert not bad, matrix.table(bad)


@pytest.mark.parametrize("op", OP_NAMES)
def test_journal_append_crash_rolls_back(matrix, op):
    """k=1 is the intent append: nothing of the op reached the SSP, so
    recovery must observe a full rollback, and every later crash point
    must roll forward to fully applied."""
    outcomes = _run(matrix, op, MOUNT)
    assert outcomes[0].outcome == "rolled_back"
    assert all(o.outcome == "applied" for o in outcomes[1:])


def test_matrix_is_deterministic_per_seed():
    a = CrashMatrix(seed=7)
    b = CrashMatrix(seed=7)
    case = "rename"
    assert _run(a, case, MOUNT) == _run(b, case, MOUNT)


def test_every_op_has_multiple_crash_points(matrix):
    """Each op is genuinely multi-blob: a single-put op would make the
    atomicity machinery vacuous."""
    for case in matrix.cases:
        total = matrix.count(case)
        assert total >= 3, f"{case.name}: only {total} mutations"
