"""End-to-end wire tracing: context propagation, server spans, stitching.

The acceptance invariants of the observability PR:

* a TracedServer parents its spans under the open span of the tracer
  it follows, with that tracer's trace id; behind a TCP loopback, where
  no context rides the wire, its spans stay unparented;
* a TracedServer's decode/disk/verify self-times partition its wall
  exactly (synthetic timeline, never the shared clock);
* a traced andrew run stitches into a single client+server trace tree
  with zero orphan server spans, and the server's phase totals sum to
  its wall within 1%;
* with a retrying transport, server root spans reconcile 1:1 with
  transport attempts.
"""

import pytest

from repro.errors import BlobNotFound
from repro.obs.tracing import Span, Tracer
from repro.obs.wiretrace import DEFAULT_SERVER_PROFILE, TracedServer, stitch
from repro.sim.clock import SimClock
from repro.storage.blobs import data_blob, meta_blob
from repro.storage.server import StorageServer
from repro.storage.wire import RemoteStorageClient, SspServer


class TestTracedServer:
    def _traced(self, tracer=None):
        traced = TracedServer(StorageServer())
        if tracer is not None:
            traced.follow(tracer)
        return traced

    def test_self_costs_partition_wall_exactly(self):
        traced = self._traced()
        traced.put(meta_blob(1, "o"), b"m" * 100)
        traced.get(meta_blob(1, "o"))
        traced.exists(meta_blob(1, "o"))
        traced.put_if(data_blob(1, "b0"), b"d" * 64, None)
        traced.delete(meta_blob(1, "o"))
        assert len(traced.spans) == 5
        for root in traced.spans:
            total = sum(seconds for node in root.walk()
                        for seconds in node.self_costs.values())
            assert total == pytest.approx(root.duration, abs=1e-15)

    def test_phase_totals_reconcile(self):
        traced = self._traced()
        traced.put(meta_blob(1, "o"), b"payload")
        traced.get(meta_blob(1, "o"))
        totals = traced.phase_totals()
        assert totals["spans"] == 2
        assert sum(totals["phases"].values()) == pytest.approx(
            totals["wall"], rel=0.01)
        assert totals["phases"]["decode"] > 0
        assert totals["phases"]["disk"] > 0

    def test_failed_lookup_emits_error_span_with_seek_cost(self):
        traced = self._traced()
        with pytest.raises(BlobNotFound):
            traced.get(meta_blob(404, "o"))
        (root,) = traced.spans
        assert root.error == "BlobNotFound"
        costs = {category: seconds for node in root.walk()
                 for category, seconds in node.self_costs.items()}
        assert costs["disk"] == DEFAULT_SERVER_PROFILE.disk_fixed_s

    def test_spans_carry_context_and_service_tag(self):
        tracer = Tracer()
        traced = self._traced(tracer)
        with tracer.span("network") as network:
            traced.put(meta_blob(1, "o"), b"x")
        (root,) = traced.spans
        assert root.parent_id == network.span_id
        assert root.attrs["trace_id"] == tracer.trace_id is not None
        assert root.attrs["service"] == "ssp"

    def test_clock_never_advances(self):
        clock = SimClock()
        traced = self._traced(Tracer(clock=clock))
        before = clock.now
        traced.put(meta_blob(1, "o"), b"payload" * 100)
        traced.get(meta_blob(1, "o"))
        assert clock.now == before

    def test_batch_sub_ops_get_child_spans(self):
        from repro.storage.server import BatchOp
        tracer = Tracer()
        traced = self._traced(tracer)
        ops = [BatchOp.put(meta_blob(1, "o"), b"a" * 10),
               BatchOp.get(meta_blob(1, "o"))]
        with tracer.span("network") as network:
            replies = traced.batch(ops)
        assert [r.status for r in replies] == ["ok", "ok"]
        (root,) = traced.spans
        assert root.name == "server.batch"
        assert root.parent_id == network.span_id
        assert root.attrs["count"] == 2
        (dispatch,) = [c for c in root.children if c.name == "dispatch"]
        subs = [c for c in dispatch.children
                if c.name.startswith("server.")]
        assert [s.attrs["kind"] for s in subs] == ["put", "get"]
        total = sum(seconds for node in root.walk()
                    for seconds in node.self_costs.values())
        assert total == pytest.approx(root.duration, abs=1e-15)


class TestStitch:
    def _client_root(self, tracer):
        with tracer.span("read_file") as root:
            with tracer.span("network", op="get"):
                pass
        return root

    def test_server_span_grafts_under_issuing_client_span(self):
        tracer = Tracer(max_finished=100)
        root = self._client_root(tracer)
        network = root.children[0]
        server = Span("server.get", 1 << 41, network.span_id, 0.0,
                      {"service": "ssp", "op": "get"})
        server.end = 0.001
        roots, orphans = stitch([root], [server])
        assert orphans == []
        stitched_network = roots[0]["children"][0]
        grafted = stitched_network["children"][-1]
        assert grafted["name"] == "server.get"

    def test_unmatched_server_span_is_orphaned(self):
        tracer = Tracer(max_finished=100)
        root = self._client_root(tracer)
        stray = Span("server.get", 1 << 41, 999_999, 0.0, {})
        stray.end = 0.001
        roots, orphans = stitch([root], [stray])
        assert len(orphans) == 1

    def test_stitch_never_mutates_client_spans(self):
        tracer = Tracer(max_finished=100)
        root = self._client_root(tracer)
        network = root.children[0]
        children_before = len(network.children)
        server = Span("server.get", 1 << 41, network.span_id, 0.0, {})
        server.end = 0.001
        stitch([root], [server])
        assert len(network.children) == children_before


class TestLoopbackTcp:
    def test_untraced_client_leaves_spans_unparented(self):
        traced = TracedServer(StorageServer())
        with SspServer(traced) as ssp:
            host, port = ssp.address
            client = RemoteStorageClient(host, port)
            client.put(meta_blob(1, "o"), b"plain")
        (span,) = traced.spans
        assert span.parent_id is None
        assert "trace_id" not in span.attrs


class TestTracedWorkload:
    @pytest.fixture(scope="class")
    def andrew(self):
        from repro.workloads.runner import run_traced
        return run_traced("andrew")

    def test_single_stitched_tree_no_orphans(self, andrew):
        _payload, roots, orphans, env = andrew
        assert orphans == []
        server_grafts = 0
        for root in roots:
            stack = [root]
            while stack:
                doc = stack.pop()
                if str(doc.get("name", "")).startswith("server."):
                    server_grafts += 1
                stack.extend(doc.get("children", ()))
        assert server_grafts >= len(env.traced_server.spans) > 0

    def test_server_phases_sum_to_wall_within_1pct(self, andrew):
        payload, _roots, _orphans, _env = andrew
        server = payload["trace"]["server"]
        assert sum(server["phases"].values()) == pytest.approx(
            server["wall"], rel=0.01)

    def test_trace_ids_consistent_across_tree(self, andrew):
        _payload, _roots, _orphans, env = andrew
        trace_id = env.fs.tracer.trace_id
        assert trace_id is not None
        traced_ids = {span.attrs.get("trace_id")
                      for span in env.traced_server.spans
                      if "trace_id" in span.attrs}
        assert traced_ids == {trace_id}

    def test_resolve_depth_attribution_in_payload(self, andrew):
        payload, _roots, _orphans, _env = andrew
        depth = payload["trace"]["resolve_depth"]
        assert depth, "andrew must produce walk spans"
        for entry in depth.values():
            assert entry["walks"] == entry["hits"] + entry["misses"]


class TestTransportReconciliation:
    def test_attempts_equal_server_root_spans(self):
        from repro.fs.client import ClientConfig, SharoesFilesystem
        from repro.fs.volume import SharoesVolume
        from repro.principals.registry import PrincipalRegistry
        from repro.storage.resilient import RetryPolicy

        registry = PrincipalRegistry()
        user = registry.create_user("alice")
        registry.create_group("eng", {"alice"})
        server = StorageServer()
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        traced = TracedServer(server)
        fs = SharoesFilesystem(
            volume, user, server=traced,
            config=ClientConfig(retry_policy=RetryPolicy(jitter=False)))
        traced.follow(fs.tracer)
        fs.mount()
        fs.mkdir("/d", mode=0o755)
        fs.create_file("/d/f.txt", b"contents", mode=0o644)
        fs.read_file("/d/f.txt")
        from repro.storage.resilient import ResilientTransport
        assert isinstance(fs.server, ResilientTransport)
        assert fs.server.inner is traced
        assert fs.server.attempts == len(traced.spans)
