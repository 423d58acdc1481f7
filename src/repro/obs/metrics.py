"""The unified metrics registry.

One tree of named metrics per client (and per benchmark environment),
replacing four disconnected ad-hoc structs: ``CacheStats`` (fs/cache),
``ServerStats`` (storage/accounting), ``OpCounters`` (crypto/provider)
and ``CostBreakdown`` (sim/costmodel).  Those structs stay where they are
-- they are cheap and battle-tested -- and are *adapted* into the
registry through pull-based collectors, so attaching observability adds
zero work to the hot paths.

Metric kinds:

* :class:`Counter`  -- monotonically increasing integer (push);
* :class:`Gauge`    -- instantaneous value, optionally computed by a
  callback at read time (how the legacy structs are adapted);
* :class:`Histogram`-- fixed-bucket latency histogram with estimated
  p50/p95/p99 (shares :class:`~repro.sim.stats.Percentiles` semantics
  with the benchmark ``Summary``).

Names are dot-separated paths ("client.cache.hits").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable

from ..sim.stats import Percentiles

#: Default latency buckets (simulated seconds): log-ish spacing from
#: 1 ms (cache-hit metadata ops) to 60 s (WAN-bound 1 MB transfers).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Instantaneous value; ``fn`` makes it a read-time callback."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help: str = "",
                 fn: Callable[[], float] | None = None):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name}: callback gauges are read-only")
        self._value = value

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """Fixed-bucket histogram of simulated latencies.

    Buckets are cumulative-upper-bound style (Prometheus ``le``); values
    above the last bound land in the implicit +Inf bucket.  Percentiles
    are estimated by linear interpolation inside the containing bucket,
    clamped to the observed min/max so tiny benchmarks do not report a
    p99 beyond anything that actually happened.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
                buckets):
            raise ValueError("histogram buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile, q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.count:
            return 0.0
        rank = q / 100 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lower = self.bounds[index - 1] if index else 0.0
                upper = (self.bounds[index]
                         if index < len(self.bounds) else self.maximum)
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(
                    1.0, fraction))
                return max(self.minimum, min(self.maximum, estimate))
        return self.maximum

    def percentiles(self) -> Percentiles:
        return Percentiles(p50=self.percentile(50),
                           p95=self.percentile(95),
                           p99=self.percentile(99))

    def summary(self) -> dict[str, float]:
        out = {"count": self.count, "mean": self.mean,
               "min": self.minimum if self.count else 0.0,
               "max": self.maximum if self.count else 0.0}
        out.update(self.percentiles().as_dict())
        return out


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """One tree of metrics, plus pull-based legacy-struct collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with one name returns the same object, so instrumentation sites never
    need to coordinate.  ``register_source`` adapts an existing stats
    struct: the callable returns ``{suffix: value}`` and is invoked only
    at snapshot/export time.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._sources: dict[str, Callable[[], dict[str, float]]] = {}

    # -- construction ------------------------------------------------------

    def _get_or_create(self, name: str, kind: type, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "",
              fn: Callable[[], float] | None = None) -> Gauge:
        return self._get_or_create(name, Gauge, help=help, fn=fn)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram, help=help,
                                   buckets=buckets)

    def register_source(self, prefix: str,
                        collect: Callable[[], dict[str, float]],
                        help: str = "") -> None:
        """Adapt a legacy stats struct under ``prefix``; ``help`` says
        what the source is where it is bound (no renderer prints it)."""
        self._sources[prefix] = collect

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """Read one value from the snapshot tree (metrics + sources)."""
        snap = self.snapshot()
        if name not in snap:
            raise KeyError(name)
        return snap[name]

    def snapshot(self) -> dict[str, float]:
        """Flattened name -> value map of every metric and source.

        Histograms contribute ``name.count``/``.mean``/``.p50``/... so
        the snapshot is always scalar-valued and diffable.
        """
        out: dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                for suffix, value in metric.summary().items():
                    out[f"{name}.{suffix}"] = value
            else:
                out[name] = metric.value
        for prefix, collect in self._sources.items():
            for suffix, value in collect().items():
                out[f"{prefix}.{suffix}"] = value
        return dict(sorted(out.items()))


# -- adapters for the four legacy structs ---------------------------------


def bind_cache_stats(registry: MetricsRegistry, cache,
                     prefix: str = "client.cache") -> None:
    """Adapt an :class:`~repro.fs.cache.LruCache` (and its CacheStats)."""

    def collect() -> dict[str, float]:
        stats = cache.stats
        return {"hits": stats.hits, "misses": stats.misses,
                "evictions": stats.evictions,
                "insertions": stats.insertions,
                "replacements": stats.replacements,
                "rejected": stats.rejected,
                "hit_rate": stats.hit_rate,
                "used_bytes": cache.used_bytes,
                "entries": len(cache)}

    registry.register_source(prefix, collect,
                             help="client metadata/data LRU cache stats")


def bind_server_stats(registry: MetricsRegistry, server,
                      prefix: str = "ssp") -> None:
    """Adapt a storage server's :class:`ServerStats`."""

    def collect() -> dict[str, float]:
        stats = server.stats
        out = {"puts": stats.puts, "gets": stats.gets,
               "deletes": stats.deletes, "misses": stats.misses,
               "bytes_received": stats.bytes_received,
               "bytes_served": stats.bytes_served,
               "bytes_freed": stats.bytes_freed}
        for kind, count in stats.puts_by_kind.items():
            out[f"puts_by_kind.{kind}"] = count
        for kind, count in stats.gets_by_kind.items():
            out[f"gets_by_kind.{kind}"] = count
        for kind, count in stats.deletes_by_kind.items():
            out[f"deletes_by_kind.{kind}"] = count
        return out

    registry.register_source(prefix, collect,
                             help="storage server operation/byte counters")


def bind_crypto_counters(registry: MetricsRegistry, provider,
                         prefix: str = "client.crypto") -> None:
    """Adapt a :class:`CryptoProvider`'s OpCounters."""

    def collect() -> dict[str, float]:
        counters = provider.counters
        out: dict[str, float] = {}
        for kind, count in counters.ops.items():
            out[f"ops.{kind}"] = count
        for kind, num in counters.op_bytes.items():
            out[f"bytes.{kind}"] = num
        for kind, blocks in counters.pk_blocks.items():
            out[f"pk_blocks.{kind}"] = blocks
        return out

    registry.register_source(prefix, collect,
                             help="crypto provider op/byte/pk-block counters")


def bind_transport(registry: MetricsRegistry, transport,
                   prefix: str = "transport") -> None:
    """Adapt a :class:`~repro.storage.resilient.ResilientTransport`.

    Exposes the retry/backoff/breaker counters under ``transport.*``;
    ``breaker.state`` is 0 closed / 1 half-open / 2 open.  See
    docs/ROBUSTNESS.md for how these reconcile with injected faults.
    """
    from ..storage.resilient import _BREAKER_GAUGE

    def collect() -> dict[str, float]:
        return {"attempts": transport.attempts,
                "retries": transport.retries,
                "failures": transport.failed_attempts,
                "giveups": transport.giveups,
                "degraded_reads": transport.degraded_reads,
                "backoff_seconds": transport.backoff_seconds,
                "breaker.opens": transport.breaker_opens,
                "breaker.rejections": transport.breaker_rejections,
                "breaker.state": _BREAKER_GAUGE[transport.breaker_state]}

    registry.register_source(prefix, collect,
                             help="transport retry/backoff/breaker counters")


def bind_cost_model(registry: MetricsRegistry, cost,
                    prefix: str = "client.cost") -> None:
    """Adapt a :class:`CostModel`'s running CostBreakdown + clock."""

    def collect() -> dict[str, float]:
        out = {f"seconds.{category}": seconds
               for category, seconds in cost.totals.seconds.items()}
        out["seconds.total"] = cost.totals.total
        out["clock"] = cost.clock.now
        return out

    registry.register_source(prefix, collect,
                             help="simulated cost-model seconds by category")
