"""Profile export: folded stacks, speedscope validity, attribution."""

import json

import pytest

from repro.obs.profile import (SPEEDSCOPE_SCHEMA, folded_stacks,
                               format_resolve_table,
                               format_self_time_table, frame_label,
                               load_spans_jsonl, resolve_attribution,
                               self_time_report, speedscope_document)
from repro.obs.tracing import Tracer


def _sample_roots():
    """Two client roots with nested children and explicit durations."""
    tracer = Tracer(max_finished=100)
    clock = tracer.clock
    with tracer.span("read_file"):
        with tracer.span("resolve"):
            with tracer.span("walk", depth=0, cache="hit"):
                clock.advance(0.001)
            with tracer.span("walk", depth=1, cache="miss"):
                with tracer.span("network", op="get"):
                    clock.advance(0.004)
        with tracer.span("network", op="get"):
            clock.advance(0.010)
    with tracer.span("write_file"):
        with tracer.span("network", op="put"):
            clock.advance(0.020)
        clock.advance(0.002)
    return list(tracer.finished)


class TestFrameLabels:
    def test_walk_carries_depth_and_verdict(self):
        assert frame_label({"name": "walk",
                            "attrs": {"depth": 2, "cache": "miss"}}) \
            == "walk[2]:miss"

    def test_op_suffix(self):
        assert frame_label({"name": "network",
                            "attrs": {"op": "get"}}) == "network:get"

    def test_service_prefix(self):
        assert frame_label({"name": "server.get",
                            "attrs": {"service": "ssp", "op": "get"}}) \
            == "ssp::server.get"


class TestFoldedStacks:
    def test_lines_are_stack_value_pairs(self):
        text = folded_stacks(_sample_roots())
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack

    def test_self_times_sum_to_wall(self):
        roots = _sample_roots()
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in
                       folded_stacks(roots).strip().splitlines())
        wall_us = sum(span.duration for span in roots) * 1e6
        assert total_us == pytest.approx(wall_us, rel=1e-6)

    def test_nested_frames_join_with_semicolon(self):
        text = folded_stacks(_sample_roots())
        assert "read_file;resolve;walk[1]:miss;network:get" in text


class TestSpeedscope:
    def test_document_is_valid_speedscope(self):
        doc = speedscope_document(_sample_roots())
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert doc["profiles"][0]["type"] == "evented"
        frames = doc["shared"]["frames"]
        assert all("name" in f for f in frames)
        events = doc["profiles"][0]["events"]
        # Balanced open/close with valid frame refs.
        stack = []
        for event in events:
            assert 0 <= event["frame"] < len(frames)
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack.pop() == event["frame"]
        assert stack == []

    def test_event_times_nondecreasing_within_bounds(self):
        profile = speedscope_document(_sample_roots())["profiles"][0]
        last = profile["startValue"]
        for event in profile["events"]:
            assert event["at"] >= last
            last = event["at"]
        assert last <= profile["endValue"] + 1e-9

    def test_json_serializable(self):
        text = json.dumps(speedscope_document(_sample_roots()))
        assert json.loads(text)["activeProfileIndex"] == 0


class TestSelfTime:
    def test_top_rows_sorted_by_self_time(self):
        report = self_time_report(_sample_roots())
        selfs = [row["self_s"] for row in report]
        assert selfs == sorted(selfs, reverse=True)

    def test_shares_sum_to_one(self):
        report = self_time_report(_sample_roots(), top=100)
        assert sum(row["share"] for row in report) == pytest.approx(
            1.0, abs=1e-4)

    def test_table_renders(self):
        table = format_self_time_table(self_time_report(_sample_roots()))
        assert "network:put" in table


class TestResolveAttribution:
    def test_counts_and_seconds_per_depth(self):
        report = resolve_attribution(_sample_roots())
        assert report["depths"]["0"]["hits"] == 1
        assert report["depths"]["1"]["misses"] == 1
        assert report["depths"]["1"]["seconds"] == pytest.approx(0.004)
        assert report["totals"]["walks"] == 2
        assert report["totals"]["miss_rate"] == pytest.approx(0.5)

    def test_table_renders(self):
        table = format_resolve_table(
            resolve_attribution(_sample_roots()))
        assert "TOTAL" in table

    def test_memo_hits_count_as_the_walks_they_stand_for(self, make_fs):
        """A walk-memo hit opens no ``walk`` span; its ``resolve`` span's
        ``memo`` count keeps the report equal to ``client.resolve.*``."""
        fs = make_fs(with_costs=True, record_spans=True)
        fs.mkdir("/a")
        for name in ("x", "y"):
            fs.create_file(f"/a/{name}", b"again")
        fs.cache.clear()
        for _ in range(3):
            for path in ("/a/x", "/a/y"):
                fs.getattr(path)
        report = resolve_attribution(fs.tracer.finished)
        stats = fs.resolver.walk_depth_stats()
        assert any("memo" in span.attrs for root in fs.tracer.finished
                   for span in root.walk())
        assert {depth: {key: row[key] for key in ("walks", "hits", "misses")}
                for depth, row in report["depths"].items()} == {
            depth: {key: row[key] for key in ("walks", "hits", "misses")}
            for depth, row in stats.items()}


class TestJsonlRoundtrip:
    def test_profiles_survive_jsonl_roundtrip(self, tmp_path):
        from repro.obs.export import spans_to_jsonl
        roots = _sample_roots()
        path = tmp_path / "spans.jsonl"
        path.write_text(spans_to_jsonl(roots) + "\n")
        loaded = load_spans_jsonl(path)
        assert folded_stacks(loaded) == folded_stacks(roots)
        assert (speedscope_document(loaded)["profiles"][0]["events"]
                == speedscope_document(roots)["profiles"][0]["events"])


class TestTracedAndrewProfile:
    @pytest.fixture(scope="class")
    def roots(self):
        from repro.workloads.runner import run_traced
        _payload, roots, _orphans, _env = run_traced(
            "andrew", params={})
        return roots

    def test_stitched_tree_renders_all_formats(self, roots):
        assert "ssp::server." in folded_stacks(roots)
        doc = speedscope_document(roots)
        assert doc["profiles"][0]["events"]
        report = resolve_attribution(roots)
        assert report["totals"]["walks"] > 0

    def test_speedscope_valid_on_real_run(self, roots):
        profile = speedscope_document(roots)["profiles"][0]
        stack = []
        last = 0.0
        for event in profile["events"]:
            assert event["at"] >= last - 1e-9
            last = event["at"]
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack.pop() == event["frame"]
        assert stack == []
