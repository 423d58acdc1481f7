"""Differential harness: pipelining changes *when*, never *what*.

Every seeded workload runs twice -- ``ClientConfig(concurrency=8)``
(the request scheduler overlaps independent wire frames) against
``concurrency=0`` (the sequential reference execution).  The runs must
be indistinguishable to everyone except the wall clock:

* the final SSP state is **byte-identical** (same blob ids, same
  ciphertext bytes) -- the scheduler sits below the crypto layer, so it
  may only reorder wire timing, never the bytes or their order at the
  SSP;
* the visible filesystem semantics are identical (same tree, same
  stats, same file contents);
* fsck audits the concurrent volume clean;
* the concurrent run issues **at most** as many wire requests, and is
  never *slower*; on the RTT-bound postmark mix it must be strictly
  faster (the headline claim of BENCH_10, gated at >= 25% there).

The entropy-pinning trick is the same as the batching differential's
(the rig of tests/differential.py): both runs swap ``secrets`` for a
seeded generator, so they mint identical keys, IVs, and signature
nonces in the same order.
That only works because staging happens strictly below seal/sign --
which is itself part of what these tests prove.
"""

from __future__ import annotations

import pytest

from repro.fs.client import ClientConfig
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import pinned_entropy, visible_tree
from repro.workloads.runner import flush_client, make_env
from tests.differential import SEED, WORKLOADS, differential_env


def _concurrency_run(workload: str, concurrency: int,
                     flaky_p: float = 0.0) -> dict:
    with differential_env(workload, SEED, {"concurrency": concurrency},
                          flaky_p=flaky_p, flaky_seed=77) as env:
        fs = env.fs
        flush_client(fs)
        sched = getattr(fs, "scheduler", None)
        return {
            "blobs": env.server.raw_blobs(),
            "tree": visible_tree(fs),
            "requests": fs.request_count,
            "wall": env.cost.clock.now,
            "volume": env._volume,
            "scheduler": sched.snapshot() if sched is not None else None,
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_concurrency_differential(workload):
    concurrent = _concurrency_run(workload, concurrency=8)
    sequential = _concurrency_run(workload, concurrency=0)

    # Byte-identical final SSP state: same blob ids, same ciphertext.
    assert set(concurrent["blobs"]) == set(sequential["blobs"])
    assert concurrent["blobs"] == sequential["blobs"]

    # Identical visible semantics.
    assert concurrent["tree"] == sequential["tree"]

    # The reference run mounts no scheduler at all...
    assert sequential["scheduler"] is None
    # ...the concurrent one actually pipelined something,
    assert concurrent["scheduler"]["flushed_ops"] > 0
    # ...without leaving anything staged past the barrier,
    assert concurrent["scheduler"]["queue_depth"] == 0
    # ...and never paid more wire requests or simulated seconds.
    assert concurrent["requests"] <= sequential["requests"]
    assert concurrent["wall"] <= sequential["wall"]

    # The concurrent volume audits clean.
    report = VolumeAuditor(concurrent["volume"]).audit()
    assert report.clean, report


def test_postmark_strictly_faster():
    """On the RTT-bound transaction mix the overlap must show up as a
    strict wall-clock win, not a tie."""
    concurrent = _concurrency_run("postmark", concurrency=8)
    sequential = _concurrency_run("postmark", concurrency=0)
    assert concurrent["blobs"] == sequential["blobs"]
    assert concurrent["wall"] < sequential["wall"]


def test_postmark_speedup_gate():
    """The BENCH_10 acceptance bar: >= 25% postmark wall-clock
    reduction at concurrency=8, at a scale where the transaction mix
    (not setup) dominates -- the same bar CI gates via
    ``repro bench --diff --overlap-gate``."""
    from repro.workloads import postmark

    def run(concurrency: int) -> float:
        import itertools
        with pinned_entropy(SEED):
            env = make_env("sharoes",
                           config=ClientConfig(concurrency=concurrency))
            postmark._RUN_COUNTER = itertools.count()
            result = postmark.run_postmark(env, files=80,
                                           transactions=200, subdirs=5)
            return result.total_seconds

    sequential = run(0)
    concurrent = run(8)
    speedup = (sequential - concurrent) / sequential
    assert speedup >= 0.25, (
        f"postmark concurrency=8 saved only {speedup:.1%} "
        f"({sequential:.1f}s -> {concurrent:.1f}s); the PR's claim "
        f"is >= 25%")


@pytest.mark.parametrize("workload", ("postmark", "sharing"))
def test_flaky_concurrency_reconciles(workload):
    """Fault injection composes: a seeded flaky SSP under a pipelined
    client (retries ride the transport's batch partial-retry path)
    still converges to the exact bytes of the undisturbed sequential
    run, and fsck stays clean."""
    flaky = _concurrency_run(workload, concurrency=8, flaky_p=0.05)
    reference = _concurrency_run(workload, concurrency=0)

    assert flaky["blobs"] == reference["blobs"]
    assert flaky["tree"] == reference["tree"]
    report = VolumeAuditor(flaky["volume"]).audit()
    assert report.clean, report
