"""Differential harness: wire tracing is zero-cost, on or off.

Reuses the pinned-entropy machinery of ``test_batch_differential``: the
same seeded workload runs with ``ClientConfig(wire_trace=True)`` and
``wire_trace=False``, and the two runs must be indistinguishable to
everything except the observer:

* byte-identical final SSP state, identical visible filesystem tree;
* identical request counts and identical simulated wall seconds --
  server spans live on a synthetic timeline, so tracing must never
  perturb the measurement it attributes (the property that lets CI diff
  a traced BENCH_6 against the untraced BENCH_5 baseline).
"""

from __future__ import annotations

import pytest

from repro.fs.client import ClientConfig
from repro.workloads.runner import make_env

from tests.test_batch_differential import (_forced_config, _pinned_entropy,
                                           _run_workload, _visible_tree)

WORKLOADS = ("createlist", "sharing")


def _traced_differential_run(workload: str, wire_trace: bool):
    with _pinned_entropy(), _forced_config(wire_trace=wire_trace):
        config = ClientConfig(wire_trace=wire_trace)
        env = make_env("sharoes", config=config, extra_users=("bob",))
        _run_workload(workload, env)
        fs = env.fs
        return {
            "blobs": env.server.raw_blobs(),
            "tree": _visible_tree(fs),
            "requests": fs.request_count,
            "wall": env.cost.totals.total,
            "bytes_received": env.server.stats.bytes_received,
            "bytes_served": env.server.stats.bytes_served,
            "traced_spans": (len(fs.traced_server.spans)
                             if fs.traced_server is not None else 0),
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
