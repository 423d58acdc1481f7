"""Observability: unified metrics registry + operation span tracing.

The simulated analogue of the paper's evaluation instrumentation: every
filesystem operation decomposes into resolve / crypto / network / cache
phases (Figure 13), every component's counters hang off one registry
tree, and renderers turn both into JSON-lines span logs or human tables
(``repro stats`` / ``repro trace``).

Wire tracing (``wiretrace``) extends the span tree across the wire: a
:class:`TracedServer` in the client's process produces server-side
decode/dispatch/disk/verify spans parented under the client span that
issued each request, and ``stitch`` grafts them into one tree.
``profile`` renders stitched trees as folded stacks / speedscope JSON;
``bench`` adds the ``--diff`` perf-regression gate.

Import layering: this package sits *below* fs/ and workloads/ -- the
client imports the tracer, so nothing here may import the client at
module scope (export/bench use lazy imports where needed).
"""

from .metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, bind_cache_stats, bind_cost_model,
                      bind_crypto_counters, bind_server_stats)
from .tracing import PHASES, Span, Tracer, next_trace_id, phase_breakdown, \
    traced
from .wiretrace import (DEFAULT_SERVER_PROFILE, ServerCostProfile,
                        TracedServer, stitch)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "bind_cache_stats",
    "bind_server_stats",
    "bind_crypto_counters",
    "bind_cost_model",
    "Tracer",
    "Span",
    "PHASES",
    "phase_breakdown",
    "traced",
    "next_trace_id",
    "TracedServer",
    "ServerCostProfile",
    "DEFAULT_SERVER_PROFILE",
    "stitch",
]
