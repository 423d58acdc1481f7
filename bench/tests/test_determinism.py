"""Seed, determinism and trace-accounting checks at tiny scale."""

from __future__ import annotations

import pytest

from bench.harness import end_to_end_metrics
from bench.tracing import SHARE_METRICS, Recorder, per_layer_metrics
from bench.workloads import WORKLOADS

from .conftest import run_tiny

#: end-to-end metrics that are pure counts of what the program did: for
#: a fixed seed and op count they must repeat to the last bit, with live
#: OS entropy in every key.
COUNT_METRICS = ("sim_s_per_op", "sim_op_tail5_s", "requests_per_op",
                 "wire_up_bytes_per_op", "wire_down_bytes_per_op",
                 "stored_bytes_per_user_byte")


@pytest.fixture
def recorder():
    rec = Recorder()
    rec.install()
    yield rec
    rec.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_counts_exactly(name, spec):
    first = run_tiny(name, 2008)
    second = run_tiny(name, 2008)
    assert first.failures == [] and second.failures == []
    assert first.untraced.kinds == second.untraced.kinds
    a, b = end_to_end_metrics(first), end_to_end_metrics(second)
    assert set(a) == {m["name"] for m in spec["end_to_end"]}
    for metric in COUNT_METRICS:
        assert a[metric] == b[metric], metric
    assert all(value > 0 for value in a.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_ops_not_metric_names(name, spec):
    first = run_tiny(name, 2008)
    other = run_tiny(name, 77)
    assert other.failures == []
    assert first.untraced.kinds != other.untraced.kinds
    assert set(end_to_end_metrics(other)) == set(end_to_end_metrics(first))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_accounts_for_all_time(name, spec, recorder):
    result = run_tiny(name, 2008, recorder)
    assert result.failures == []
    metrics = per_layer_metrics(result, recorder)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}

    shares = [metrics[share] for share in SHARE_METRICS.values()]
    assert all(share >= -1e-9 for share in shares)
    total = sum(shares) + metrics["harness.untraced_share"]
    assert total == pytest.approx(1.0, abs=0.01)

    # The outside ledger and the client's own differ by exactly the
    # frames the client does not count.
    ops = result.traced.ops
    frames = result.deltas["wire.frames"]
    counted = result.deltas["client.request_count"]
    assert frames == counted + round(
        metrics["client.uncounted_frames_per_op"] * ops)

    silent = {
        "pm_churn": ("scheduler", "journal", "lease", "transport",
                     "wire.client", "wire.server"),
        "tree_read": ("scheduler", "journal", "lease", "transport",
                      "wire.client", "wire.server"),
        "bulk_rw": ("journal", "lease", "transport", "wire.client",
                    "wire.server"),
        "duo_wire": (),
    }[name]
    calls = {}
    for (layer, group, label, op), row in recorder.aggregates().items():
        calls[group] = calls.get(group, 0) + row[0]
    for group in silent:
        assert calls.get(group, 0) == 0, group
    if name == "duo_wire":
        for group in ("journal", "lease", "transport", "wire.client",
                      "wire.server", "scheduler"):
            assert calls.get(group, 0) > 0, group
        assert metrics["journal.frames_per_op"] > 0
        assert metrics["lease.cas_frames_per_op"] > 0
    else:
        assert metrics["journal.frames_per_op"] == 0
        assert metrics["lease.cas_frames_per_op"] == 0


def test_exists_probes_are_the_uncounted_frames(recorder):
    """The ledger gap this benchmark first recorded: every create, append
    and unlink ends with one ``server.exists`` round trip (is there a
    block past the end?) that ``fs.request_count`` never sees."""
    result = run_tiny("pm_churn", 2008, recorder)
    kinds = result.traced.kinds
    probing = sum(kinds.count(k) for k in ("create", "append", "unlink"))
    uncounted = (result.deltas["wire.frames"]
                 - result.deltas["client.request_count"])
    assert probing > 0 and uncounted == probing


def test_readers_generate_no_keys(recorder):
    run_tiny("tree_read", 2008, recorder)
    keygen_by_op = {}
    for (layer, group, label, op), row in recorder.aggregates().items():
        if group == "crypto.keygen":
            keygen_by_op[op] = keygen_by_op.get(op, 0) + row[0]
    for reader_op in ("getattr", "readdir", "read", "access", "revalidate"):
        assert keygen_by_op.get(reader_op, 0) == 0
