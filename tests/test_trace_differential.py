"""Differential harness: wire tracing is zero-cost, on or off.

Runs on the differential rig (``tests/differential.py``): the same
seeded workload runs with every client mounted through a
``TracedServer`` (``make_env(wire_trace=True)``) and without, and the
two runs must be indistinguishable to everything except the observer:

* byte-identical final SSP state, identical visible filesystem tree;
* identical request counts and identical simulated wall seconds --
  server spans live on a synthetic timeline, so tracing must never
  perturb the measurement it attributes (the property that lets CI diff
  a traced BENCH_6 against the untraced BENCH_5 baseline).
"""

from __future__ import annotations

import pytest

from repro.tools.twin import visible_tree
from tests.differential import SEED, differential_env

WORKLOADS = ("createlist", "sharing")


def _traced_differential_run(workload: str, wire_trace: bool):
    with differential_env(workload, SEED, {},
                          wire_trace=wire_trace) as env:
        fs = env.fs
        return {
            "blobs": env.server.raw_blobs(),
            "tree": visible_tree(fs),
            "requests": fs.request_count,
            "wall": env.cost.totals.total,
            "bytes_received": env.server.stats.bytes_received,
            "bytes_served": env.server.stats.bytes_served,
            "traced_spans": (len(env.traced_server.spans)
                             if env.traced_server is not None else 0),
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wire_trace_differential(workload):
    traced = _traced_differential_run(workload, wire_trace=True)
    plain = _traced_differential_run(workload, wire_trace=False)

    # Byte-identical final SSP state and visible semantics.
    assert traced["blobs"] == plain["blobs"]
    assert traced["tree"] == plain["tree"]

    # Zero measurement cost: same requests, same simulated seconds,
    # same server-side traffic accounting.
    assert traced["requests"] == plain["requests"]
    assert traced["wall"] == plain["wall"]
    assert traced["bytes_received"] == plain["bytes_received"]
    assert traced["bytes_served"] == plain["bytes_served"]

    # ...while the traced run actually observed the wire.
    assert traced["traced_spans"] > 0
    assert plain["traced_spans"] == 0
