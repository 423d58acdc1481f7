"""Calibrated host time: "milliseconds at reference speed".

Raw host seconds do not repeat on a small shared machine (the same
SHA-256 loop drifts 8.3 -> 12.7 ms between 4 s windows), so every host
duration the benchmark reports is divided by how slow the machine was
*while it was measured*.  A fixed kernel that mirrors the interpreter
work the program does (a SHA-256 chain, a generator XOR, dict updates,
small Python calls) is timed before and after every block of 50-100 ms of
work; the block's durations are multiplied by ``CAL_REF_MS / mean(before,
after)``.  The result is linear in the program's real time and
insensitive to the machine's drift.

This module must never import ``repro``: the yardstick may not change
when the program does.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: the kernel's median on a quiet run of the machine this benchmark was
#: defined on (2 cores); all calibrated metrics are in milliseconds of
#: *that* machine.  Changing it rescales every timing metric.
CAL_REF_MS = 3.3

#: close a chunk of bracketed work after this much raw time.
CHUNK_S = 0.075

_PAD = bytes(range(256)) * 80  # 20 KiB


def _part_sha() -> bytes:
    link = b"sharoes-bench-chain"
    sha256 = hashlib.sha256
    for _ in range(2300):
        link = sha256(link).digest()
    return link


def _part_xor() -> bytes:
    stream = hashlib.sha256(b"sharoes-bench-stream").digest() * 640
    return bytes(a ^ b for a, b in zip(_PAD, stream))


def _part_dict() -> dict[int, int]:
    table: dict[int, int] = {}
    for i in range(11500):
        table[i & 63] = table.get(i & 63, 0) + i
    return table


class _Node:
    __slots__ = ("value", "live", "kids")

    def __init__(self, value: int, live: bool):
        self.value = value
        self.live = live
        self.kids: list[_Node] = []


def _leaf(node: _Node, acc: int) -> int:
    return node.value + acc if node.live else acc


def _walk(node: _Node, acc: int) -> int:
    for kid in node.kids:
        acc = _leaf(kid, acc)
    return acc


def _part_calls() -> int:
    root = _Node(1, True)
    for i in range(24):
        root.kids.append(_Node(i, i & 1 == 0))
    acc = 0
    for i in range(620):
        acc = _walk(root, acc)
        acc += len({f"k{i & 7}": (i, acc)})
    return acc


#: The kernel: four parts of about 0.9 ms each, one per kind of work the
#: interpreter does for the program -- a SHA-256 chain (MACs, keystream),
#: a byte-wise generator XOR (the stream cipher), dict updates (caches,
#: tables) and small calls on slotted objects (path resolution, span
#: bookkeeping).  Weighted equally: each workload leans on a different
#: one.  A big-int ``pow`` part (the shape of key generation) was measured
#: and left out: a slow spell of this machine slows C-level big-int
#: arithmetic least, so it tracked every workload worst -- alone it left a
#: run-to-run cv of 3-6 % where the four parts leave 1-3 %, on the
#: keygen-heavy workload too.
PARTS = (_part_sha, _part_xor, _part_dict, _part_calls)

#: kernel passes timed at each calibration point.  Their *mean* counts,
#: not the faster one: the work between two points meets the machine's
#: millisecond-scale slow spells in proportion to its length, and so must
#: the yardstick (taking the minimum measured 2-5 % cv against 1-4 %).
KERNEL_PASSES = 2


def kernel() -> None:
    """One fixed unit of work (about CAL_REF_MS milliseconds)."""
    for part in PARTS:
        part()


def kernel_ms() -> float:
    """Mean time of KERNEL_PASSES kernel passes, in milliseconds."""
    start = time.perf_counter()
    for _ in range(KERNEL_PASSES):
        kernel()
    return (time.perf_counter() - start) * 1000.0 / KERNEL_PASSES


class Calibrator:
    """Brackets work with kernel samples and normalises its duration.

    Usage: ``start()``; do work; ``factor = cut()`` closes the chunk and
    returns the multiplier for every raw duration measured inside it
    (the closing sample is the next chunk's opening sample).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: raw seconds spent inside the kernel (excluded from metrics).
        self.cost_s = 0.0
        self._before = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        value = kernel_ms()
        self.cost_s += time.perf_counter() - start
        self.samples.append(value)
        return value

    def start(self) -> None:
        self._before = self._sample()

    def cut(self) -> float:
        after = self._sample()
        factor = CAL_REF_MS / ((self._before + after) / 2.0)
        self._before = after
        return factor

    @property
    def drift(self) -> float:
        """How far the machine's speed wandered: the 90th over the 10th
        percentile of the calibration samples (single pre-empted samples
        are the estimator's business, not drift)."""
        if len(self.samples) < 10:
            return 1.0
        deciles = statistics.quantiles(self.samples, n=10)
        return deciles[-1] / deciles[0]


class BracketedTimer:
    """Calibrated wall time of a long stretch of work (set-up).

    The work calls :meth:`tick` between small units; whenever CHUNK_S of
    raw time has passed the chunk is closed and normalised.
    """

    def __init__(self, calibrator: Calibrator):
        self._cal = calibrator
        self.raw_s = 0.0
        self.cal_s = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self._cal.start()
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._t0 >= CHUNK_S:
            self._close()

    def _close(self) -> None:
        raw = time.perf_counter() - self._t0
        self.raw_s += raw
        self.cal_s += raw * self._cal.cut()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """Close the last chunk; returns calibrated seconds."""
        self._close()
        return self.cal_s
