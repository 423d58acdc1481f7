"""The unified metrics registry and its legacy-struct adapters."""

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs.cache import LruCache
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               bind_cache_stats, bind_cost_model,
                               bind_crypto_counters, bind_server_stats)
from repro.sim.costmodel import NETWORK, CostModel
from repro.sim.stats import Percentiles
from repro.storage.blobs import BlobId
from repro.storage.server import StorageServer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("ops")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("ops").inc(-1)


class TestGauge:
    def test_settable(self):
        g = Gauge("temp")
        g.set(3.5)
        assert g.value == 3.5

    def test_callback_gauge_reads_live(self):
        box = {"v": 1.0}
        g = Gauge("live", fn=lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0

    def test_callback_gauge_is_read_only(self):
        g = Gauge("live", fn=lambda: 0.0)
        with pytest.raises(ValueError):
            g.set(1.0)


class TestHistogram:
    def test_basic_accounting(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(55.55 / 4)
        assert h.minimum == 0.05
        assert h.maximum == 50.0
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf bucket

    def test_buckets_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_percentile_validates_range(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").percentile(50) == 0.0

    def test_single_value_clamps_all_percentiles(self):
        h = Histogram("h")
        h.observe(0.3)
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 0.3

    def test_percentiles_track_exact_ones(self):
        """Bucket interpolation vs the exact Percentiles.from_values:
        agreement within a bucket width on a well-populated series."""
        values = [i / 100 for i in range(1, 200)]  # 0.01 .. 1.99
        h = Histogram("h")
        for v in values:
            h.observe(v)
        exact = Percentiles.from_values(values)
        est = h.percentiles()
        assert est.p50 == pytest.approx(exact.p50, abs=0.5)
        assert est.p95 == pytest.approx(exact.p95, abs=0.6)
        assert est.p99 == pytest.approx(exact.p99, abs=0.6)
        assert est.p50 <= est.p95 <= est.p99

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(1.0)
        assert set(h.summary()) == {"count", "mean", "min", "max",
                                    "p50", "p95", "p99"}


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_value_raises_on_unknown(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("no.such.metric")

    def test_snapshot_flattens_histograms_and_sources(self):
        reg = MetricsRegistry()
        reg.counter("ops.count").inc(3)
        reg.histogram("ops.read.seconds").observe(0.2)
        reg.register_source("legacy", lambda: {"hits": 7})
        snap = reg.snapshot()
        assert snap["ops.count"] == 3
        assert snap["ops.read.seconds.count"] == 1
        assert snap["ops.read.seconds.p99"] == 0.2
        assert snap["legacy.hits"] == 7
        assert list(snap) == sorted(snap)


class TestCacheAdapter:
    def test_counters_flow_through(self):
        cache = LruCache(capacity_bytes=100)
        reg = MetricsRegistry()
        bind_cache_stats(reg, cache)
        cache.put("a", b"x", 10)          # insertion
        cache.put("a", b"y", 10)          # replacement
        cache.put("big", b"z", 1000)      # rejected: exceeds the budget
        cache.get("a")                    # hit
        cache.get("nope")                 # miss
        snap = reg.snapshot()
        assert snap["client.cache.insertions"] == 1
        assert snap["client.cache.replacements"] == 1
        assert snap["client.cache.rejected"] == 1
        assert snap["client.cache.hits"] == 1
        assert snap["client.cache.misses"] == 1
        assert snap["client.cache.hit_rate"] == 0.5
        assert snap["client.cache.used_bytes"] == 10
        assert snap["client.cache.entries"] == 1

    def test_zero_capacity_rejects_everything(self):
        cache = LruCache(capacity_bytes=0)
        cache.put("a", b"x", 1)
        cache.put("b", b"y", 1)
        assert cache.stats.rejected == 2
        assert cache.stats.insertions == 0
        assert len(cache) == 0

    def test_oversized_put_evicts_stale_entry(self):
        """Replacing a live key with an uncacheable value must not leave
        the stale value behind."""
        cache = LruCache(capacity_bytes=10)
        cache.put("k", b"old", 3)
        cache.put("k", b"new-but-huge", 100)
        assert cache.stats.rejected == 1
        assert cache.stats.replacements == 0
        assert cache.get("k") is None


class TestServerAdapter:
    def test_delete_parity(self):
        """record_delete carries bytes_freed and per-kind counts, same
        as puts/gets always did."""
        server = StorageServer()
        reg = MetricsRegistry()
        bind_server_stats(reg, server)
        bid = BlobId(kind="data", inode=1, selector="o")
        server.put(bid, b"payload-8")
        server.get(bid)
        server.delete(bid)
        snap = reg.snapshot()
        assert snap["ssp.puts"] == 1
        assert snap["ssp.gets"] == 1
        assert snap["ssp.deletes"] == 1
        assert snap["ssp.bytes_freed"] == len(b"payload-8")
        assert snap["ssp.deletes_by_kind.data"] == 1

    def test_stats_reset_clears_delete_fields(self):
        server = StorageServer()
        bid = BlobId(kind="meta", inode=2, selector="o")
        server.put(bid, b"m")
        server.delete(bid)
        server.stats.reset()
        assert server.stats.deletes == 0
        assert server.stats.bytes_freed == 0
        assert server.stats.deletes_by_kind == {}


class TestCryptoAdapter:
    def test_ops_and_bytes(self):
        provider = CryptoProvider()
        reg = MetricsRegistry()
        bind_crypto_counters(reg, provider)
        key = b"0" * 16
        provider.sym_decrypt(key, provider.sym_encrypt(key, b"x" * 32))
        snap = reg.snapshot()
        assert snap["client.crypto.ops.sym_encrypt"] == 1
        assert snap["client.crypto.ops.sym_decrypt"] == 1
        assert snap["client.crypto.bytes.sym_encrypt"] >= 32


class TestCostAdapter:
    def test_seconds_and_clock(self):
        from repro.sim.profiles import PAPER_2008
        cost = CostModel(PAPER_2008)
        reg = MetricsRegistry()
        bind_cost_model(reg, cost)
        cost.charge(NETWORK, 1.5)
        cost.charge_other(0.5)
        snap = reg.snapshot()
        assert snap["client.cost.seconds.network"] == 1.5
        assert snap["client.cost.seconds.other"] == 0.5
        assert snap["client.cost.seconds.total"] == 2.0
        assert snap["client.cost.clock"] == 2.0
