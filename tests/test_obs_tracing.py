"""Operation span tracing: nesting, phase attribution, the span log.

The acceptance invariant: every simulated second the cost model charges
lands in exactly one phase of exactly one root span, so the per-op phase
decomposition reconciles with the whole-run CostBreakdown.
"""

import json

import pytest

from repro.errors import IntegrityError
from repro.obs.export import spans_to_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (PHASES, RECORDED_ROOTS, Tracer, phase_breakdown,
                               traced)
from repro.sim.costmodel import CRYPTO, NETWORK, OTHER, CostModel
from repro.sim.profiles import PAPER_2008


@pytest.fixture
def traced_cost():
    """A cost model whose charges feed a tracer on the shared clock."""
    cost = CostModel(PAPER_2008)
    tracer = Tracer(clock=cost.clock, registry=MetricsRegistry(),
                    max_finished=100)
    cost.tracer = tracer
    return cost, tracer


class TestSpanTree:
    def test_nesting_and_ids(self, traced_cost):
        _, tracer = traced_cost
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            assert tracer.depth == 1
            with tracer.span("inner") as inner:
                assert tracer.depth == 2
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.children == [inner]
        assert list(outer.walk()) == [outer, inner]
        # only the root lands in the finished deque
        assert list(tracer.finished) == [outer]

    def test_charges_go_to_innermost_span(self, traced_cost):
        cost, tracer = traced_cost
        with tracer.span("op") as root:
            cost.charge(NETWORK, 1.0)
            with tracer.span("child"):
                cost.charge(NETWORK, 2.0)
        assert root.self_costs == {NETWORK: 1.0}
        assert root.children[0].self_costs == {NETWORK: 2.0}
        assert root.duration == 3.0

    def test_charge_outside_any_span_is_dropped(self, traced_cost):
        cost, tracer = traced_cost
        cost.charge(NETWORK, 1.0)
        assert tracer.depth == 0
        assert cost.totals.total == 1.0  # the model still accounts for it

    def test_to_dict_is_json_serializable(self, traced_cost):
        cost, tracer = traced_cost
        with tracer.span("op", path="/f") as root:
            with tracer.span("network", op="get"):
                cost.charge(NETWORK, 0.5)
        doc = json.loads(json.dumps(root.to_dict()))
        assert doc["name"] == "op"
        assert doc["attrs"]["path"] == "/f"
        assert doc["children"][0]["costs"][NETWORK] == 0.5
        assert doc["duration"] == 0.5


class TestPhaseBreakdown:
    def test_attribution_rules(self, traced_cost):
        cost, tracer = traced_cost
        with tracer.span("op") as root:
            with tracer.span("resolve", path="/f"):
                cost.charge(NETWORK, 1.0)   # resolve wins over category
                cost.charge(CRYPTO, 0.25)
            with tracer.span("network", op="put"):
                cost.charge(NETWORK, 2.0)
            with tracer.span("crypto", op="encrypt"):
                cost.charge(CRYPTO, 0.5)
            with tracer.span("cache", kind="data"):
                cost.charge(OTHER, 0.125)
            cost.charge(OTHER, 0.0625)
        phases = phase_breakdown(root)
        assert phases["resolve"] == 1.25
        assert phases["network"] == 2.0
        assert phases["crypto"] == 0.5
        assert phases["cache"] == 0.125
        assert phases["other"] == 0.0625

    def test_every_second_lands_in_exactly_one_phase(self, traced_cost):
        cost, tracer = traced_cost
        with tracer.span("op") as root:
            with tracer.span("resolve"):
                cost.charge(NETWORK, 0.3)
                with tracer.span("crypto"):  # nested under resolve: resolve
                    cost.charge(CRYPTO, 0.7)
            cost.charge(CRYPTO, 0.11)
        phases = phase_breakdown(root)
        assert set(phases) == set(PHASES)
        assert sum(phases.values()) == pytest.approx(root.duration)
        assert phases["resolve"] == pytest.approx(1.0)
        assert phases["crypto"] == pytest.approx(0.11)


class TestRegistryCoupling:
    def test_root_span_feeds_histogram_and_counters(self, traced_cost):
        cost, tracer = traced_cost
        for _ in range(3):
            with tracer.span("read_file"):
                cost.charge(NETWORK, 1.0)
        reg = tracer.registry
        assert reg.value("ops.count") == 3
        assert reg.value("ops.read_file.seconds.count") == 3
        assert reg.value("ops.read_file.seconds.mean") == pytest.approx(1.0)

    def test_error_spans_counted(self, traced_cost):
        _, tracer = traced_cost
        with pytest.raises(RuntimeError):
            with tracer.span("write_file"):
                raise RuntimeError("boom")
        span = tracer.finished[-1]
        assert span.error == "RuntimeError"
        assert tracer.registry.value("ops.errors") == 1
        assert tracer.registry.get("client.integrity_failures") is None

    def test_integrity_error_counted_separately(self, traced_cost):
        _, tracer = traced_cost
        with pytest.raises(IntegrityError):
            with tracer.span("read_file"):
                raise IntegrityError("bad MAC")
        assert tracer.registry.value("ops.errors") == 1
        assert tracer.registry.value("client.integrity_failures") == 1


class TestTracedDecorator:
    class Thing:
        def __init__(self, tracer):
            self.tracer = tracer

        @traced("frob")
        def frob(self, path, flag=False):
            return path.upper()

        @traced("tick", path_arg=None)
        def tick(self):
            return 42

    def test_records_path_attr(self, traced_cost):
        _, tracer = traced_cost
        thing = self.Thing(tracer)
        assert thing.frob("/a/b") == "/A/B"
        span = tracer.finished[-1]
        assert span.name == "frob"
        assert span.attrs == {"path": "/a/b"}

    def test_path_arg_none_records_no_attrs(self, traced_cost):
        _, tracer = traced_cost
        thing = self.Thing(tracer)
        assert thing.tick() == 42
        assert tracer.finished[-1].attrs == {}

    def test_wrapped_is_exposed(self):
        assert self.Thing.frob.__wrapped__.__name__ == "frob"


class TestUnobservedTracer:
    """Nothing records: a span is a depth counter, the outermost one
    feeds the same per-op metrics a recorded span does, and nothing is
    retained."""

    class Ops:
        def __init__(self, tracer):
            self.tracer = tracer

        @traced("outer")
        def outer(self, path, fail=None):
            self.tracer.clock.advance(0.5)
            return self.inner(path, fail)

        @traced("inner")
        def inner(self, path, fail):
            with self.tracer.span("walk", depth=0) as span:
                self.tracer.on_charge(NETWORK, 0.25)
                self.tracer.clock.advance(0.25)
                if fail is not None:
                    raise fail
            return span

    def _script(self, tracer):
        ops = self.Ops(tracer)
        seen = [ops.outer("/a")]
        for fail in (RuntimeError("boom"), IntegrityError("bad MAC")):
            with pytest.raises(type(fail)):
                ops.outer("/b", fail)
        with tracer.span("compile"):  # a bare root
            seen.append(tracer.depth)
            tracer.clock.advance(2.0)
        return seen

    def test_quiet_roots_feed_what_recorded_roots_feed(self):
        quiet = Tracer(registry=MetricsRegistry())
        recorded = Tracer(registry=MetricsRegistry(), max_finished=10)
        assert not quiet.recording and recorded.recording
        assert self._script(quiet) == [None, 1]
        self._script(recorded)
        assert quiet.registry.snapshot() == recorded.registry.snapshot()
        snap = quiet.registry.snapshot()
        assert snap["ops.count"] == 4
        assert snap["ops.errors"] == 2
        assert snap["client.integrity_failures"] == 1
        assert snap["ops.outer.seconds.mean"] == pytest.approx(0.75)
        assert snap["ops.compile.seconds.max"] == pytest.approx(2.0)
        assert "ops.inner.seconds.count" not in snap
        assert [s.name for s in recorded.finished] == [
            "outer", "outer", "outer", "compile"]
        assert len(quiet.finished) == 0 and quiet.depth == 0

    def test_quiet_span_is_a_counter(self):
        tracer = Tracer()
        with tracer.span("a", path="/") as a:
            assert a is None and tracer.current is None
            with tracer.span("b") as b:
                assert b is None and tracer.depth == 2
                tracer.on_charge(CRYPTO, 1.0)  # no open span: dropped
        assert tracer.depth == 0 and len(tracer.finished) == 0

    def test_record_switches_between_ops_only(self):
        tracer = Tracer()
        with tracer.span("op"):
            with pytest.raises(RuntimeError):
                tracer.record()
        tracer.record()
        assert tracer.finished.maxlen == RECORDED_ROOTS
        with tracer.span("x") as span:
            assert span is tracer.current
        assert [s.name for s in tracer.finished] == ["x"]

    def test_constructor_bound_retains_the_last_roots(self):
        tracer = Tracer(max_finished=2)
        tracer.record()  # already recording: keeps its bound
        for name in ("x", "y", "z"):
            with tracer.span(name) as span:
                assert span is tracer.current
        assert [s.name for s in tracer.finished] == ["y", "z"]


class TestFilesystemIntegration:
    """Replay a mixed workload through a real client and reconcile."""

    def _workout(self, fs):
        fs.mkdir("/obs", mode=0o755)
        fs.create_file("/obs/a", b"alpha" * 100, mode=0o644)
        fs.create_file("/obs/b", b"beta" * 2000, mode=0o600)
        assert fs.read_file("/obs/a") == b"alpha" * 100
        fs.readdir("/obs")
        fs.getattr("/obs/b")
        fs.append_file("/obs/a", b"-tail")
        fs.rename("/obs/b", "/obs/c")
        fs.unlink("/obs/c")

    def test_every_root_span_has_a_child_phase(self, make_fs):
        fs = make_fs("alice", with_costs=True, record_spans=True)
        self._workout(fs)
        roots = list(fs.tracer.finished)
        assert {"mount", "mkdir", "create_file", "read_file", "readdir",
                "getattr", "append_file", "rename",
                "unlink"} <= {s.name for s in roots}
        childless = [s.name for s in roots if not s.children]
        assert childless == []

    def test_phase_totals_reconcile_with_cost_model(self, make_fs):
        fs = make_fs("alice", with_costs=True, record_spans=True)
        self._workout(fs)
        phase_total = sum(
            sum(phase_breakdown(span).values())
            for span in fs.tracer.finished)
        assert fs.cost.totals.total > 0
        assert phase_total == pytest.approx(fs.cost.totals.total, rel=0.01)

    def test_spans_to_jsonl_round_trip(self, make_fs):
        fs = make_fs("alice", with_costs=True, record_spans=True)
        fs.create_file("/f", b"x", mode=0o644)
        text = spans_to_jsonl(fs.tracer.finished)
        names = [json.loads(line)["name"] for line in text.splitlines()]
        assert names == [s.name for s in fs.tracer.finished]


class TestBenchLedgersAgree:
    """A BENCH payload's span totals and its cost model count the same
    run: every simulated second is charged inside a root span (the
    mount and andrew's compile CPU included) and every root span is one
    counted op."""

    @pytest.mark.parametrize("workload,params,concurrency", [
        ("postmark", {"files": 20, "transactions": 20}, 0),
        ("postmark", {"files": 20, "transactions": 20}, 8),
        ("andrew", {}, 0),
        ("createlist", {"files": 20, "dirs": 2}, 0),
        ("office", {}, 0),
    ], ids=["postmark", "postmark-concurrent", "andrew", "createlist",
            "office"])
    def test_span_totals_equal_cost_totals(self, workload, params,
                                           concurrency):
        from repro.fs.client import ClientConfig
        from repro.workloads import run_observed
        config = ClientConfig(concurrency=concurrency) if concurrency \
            else None
        payload, _spans = run_observed(workload, params=params,
                                       config=config)
        totals = payload["totals"]
        assert totals["seconds"] == pytest.approx(
            payload["cost_model"]["total"], rel=1e-9, abs=1e-9)
        assert totals["spans"] == payload["metrics"]["ops.count"]
        assert sum(totals["phases"].values()) == pytest.approx(
            totals["seconds"], rel=1e-9)
