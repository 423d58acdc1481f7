"""Hierarchical operation span tracing on the simulated clock.

Every public filesystem operation opens a *root span*; internals open
child spans ("resolve", "walk", "network", "crypto", ...).  Span
timestamps come from the :class:`~repro.sim.clock.SimClock`, and the
cost model forwards every charge to the innermost open span -- so a
span's duration equals the simulated seconds charged inside it, and the
per-phase decomposition of an operation reconciles *exactly* with the
whole-run :class:`~repro.sim.costmodel.CostBreakdown` (the acceptance
invariant of the paper's Figure 13 reproduction).

Phase attribution rules (see :func:`phase_breakdown`):

* any charge under a ``resolve`` span is the path-walk phase (metadata
  fetch + decrypt + verify while resolving a path);
* any charge under a ``cache`` span is cache bookkeeping.  The bucket
  is reserved and 0 today: cache hits are free in the 2008 model, so
  the client counts them (``client.mdcache.*``, ``client.cache.*``)
  instead of opening a span, and the slot waits for a cost model that
  prices deserialization;
* remaining charges split by cost category: network / crypto / other.

Only a tracer something reads builds spans: one with ``max_finished``
> 0 (see :meth:`Tracer.record`; the figure runner, ``repro trace`` /
``profile``, wire tracing and tests switch it on).  An unobserved
tracer's span is a depth counter, and its outermost span still feeds
the per-op metrics from the simulated clock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from ..errors import IntegrityError
from ..sim.clock import SimClock
from ..sim.costmodel import CRYPTO, NETWORK
from .metrics import Counter, MetricsRegistry

#: How many finished roots a tracer switched on by :meth:`Tracer.record`
#: retains.
RECORDED_ROOTS = 100_000

#: The phase keys of a per-operation breakdown, in reporting order.
PHASES = ("resolve", "network", "crypto", "cache", "other")

#: Process-wide trace-id allocator (deterministic: a plain counter, so
#: two identically-seeded runs mint identical ids in the same order).
_TRACE_COUNTER = 0


def next_trace_id() -> int:
    """Allocate a fresh trace id for one client's span stream."""
    global _TRACE_COUNTER
    _TRACE_COUNTER += 1
    return _TRACE_COUNTER


class Span:
    """One timed region; durations are simulated seconds."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start", "end",
                 "children", "self_costs", "error")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 start: float, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.self_costs: dict[str, float] = {}
        self.error: str | None = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def add_cost(self, category: str, seconds: float) -> None:
        self.self_costs[category] = (
            self.self_costs.get(category, 0.0) + seconds)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "duration": round(self.duration, 9),
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.self_costs:
            out["costs"] = {k: round(v, 9)
                            for k, v in self.self_costs.items()}
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration:.6f}s, "
                f"children={len(self.children)})")


def phase_breakdown(span: Span) -> dict[str, float]:
    """Decompose one root span into the PHASES buckets.

    Every simulated second charged inside the span lands in exactly one
    bucket, so ``sum(phase_breakdown(s).values()) == s.duration``.
    """
    out = {phase: 0.0 for phase in PHASES}

    def visit(node: Span, phase: str | None) -> None:
        here = phase
        if here is None and node.name in ("resolve", "cache"):
            here = node.name
        for category, seconds in node.self_costs.items():
            if here is not None:
                out[here] += seconds
            elif category == NETWORK:
                out["network"] += seconds
            elif category == CRYPTO:
                out["crypto"] += seconds
            else:
                out["other"] += seconds
        for child in node.children:
            visit(child, here)

    visit(span, None)
    return out


class _SpanScope:
    """Class-based context manager for one span.

    Hot path: a hand-rolled ``__enter__``/``__exit__`` pair costs a
    fraction of the generator-``contextmanager`` machinery, and spans
    open for every path-walk step and block decrypt.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack
        span = Span(name=self._name, span_id=tracer._next_id,
                    parent_id=stack[-1].span_id if stack else None,
                    start=tracer.clock.now, attrs=self._attrs)
        tracer._next_id += 1
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        tracer = self._tracer
        span.end = tracer.clock.now
        tracer._stack.pop()
        if exc is not None:
            span.error = type(exc).__name__
        if not tracer._stack:
            tracer.finished.append(span)
            tracer._observe_op(span.name, span.duration,
                               span.error is not None,
                               isinstance(exc, IntegrityError))
        return False


class _QuietScope:
    """The scope of a span nothing records: it moves the tracer's depth
    counter, and the outermost one feeds the per-op metrics from the
    clock delta.  One per tracer; :meth:`Tracer.span` and the
    :func:`traced` wrapper name the root before it is entered."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> None:
        tracer = self._tracer
        if not tracer._depth:
            tracer._root_start = tracer.clock.now
        tracer._depth += 1

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        tracer._depth -= 1
        if not tracer._depth:
            tracer._observe_op(tracer._root_name,
                               tracer.clock.now - tracer._root_start,
                               exc is not None,
                               isinstance(exc, IntegrityError))
        return False


class Tracer:
    """Produces spans on a shared simulated clock.

    Spans are built only while the tracer records: ``max_finished`` > 0
    at construction or after :meth:`record`.  Finished *root* spans are
    then retained in a deque bounded by that (``finished``).  Otherwise a
    span is a depth counter and nothing is retained.  Either way, when
    a registry is attached, each finished root feeds a per-operation
    latency histogram plus op/error counters -- that is the entire
    push-side coupling, one histogram observe per filesystem operation.
    """

    def __init__(self, clock: SimClock | None = None,
                 registry: MetricsRegistry | None = None,
                 max_finished: int = 0):
        self.clock = clock if clock is not None else SimClock()
        self.registry = registry
        #: Wire-trace correlation id (set by the TracedServer that
        #: follows this tracer; ``None`` when wire tracing is off).
        self.trace_id: int | None = None
        self.finished: deque[Span] = deque(maxlen=max_finished)
        self.recording = max_finished > 0
        self._stack: list[Span] = []
        self._next_id = 1
        self._op_histograms: dict[str, Any] = {}
        self._op_count: Counter | None = None
        # The unobserved path: open-span depth and the open root.
        self._quiet = _QuietScope(self)
        self._depth = 0
        self._root_name = ""
        self._root_start = 0.0

    def record(self) -> None:
        """Build span trees from now on, retaining the last
        :data:`RECORDED_ROOTS` roots (a tracer that already records
        keeps its bound).  Switch between operations, not inside one."""
        if self.recording:
            return
        if self._depth:
            raise RuntimeError("cannot switch span recording inside a span")
        self.finished = deque(maxlen=RECORDED_ROOTS)
        self.recording = True

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack) + self._depth

    def span(self, name: str, **attrs: Any) -> "_SpanScope | _QuietScope":
        """Open a span: ``with tracer.span("resolve", path=p) as s:``.

        ``s`` is the :class:`Span` while recording and ``None`` when
        not."""
        if self.recording:
            return _SpanScope(self, name, attrs)
        if not self._depth:
            self._root_name = name
        return self._quiet

    def on_charge(self, category: str, seconds: float) -> None:
        """Cost-model hook: attribute a charge to the innermost span."""
        if self._stack:
            self._stack[-1].add_cost(category, seconds)

    def _observe_op(self, name: str, seconds: float, failed: bool,
                    integrity_failure: bool) -> None:
        """Feed one finished root (an operation) into the registry."""
        if self.registry is None:
            return
        histogram = self._op_histograms.get(name)
        if histogram is None:
            histogram = self.registry.histogram(
                f"ops.{name}.seconds", help=f"latency of {name}")
            self._op_histograms[name] = histogram
            self._op_count = self.registry.counter("ops.count")
        histogram.observe(seconds)
        self._op_count.inc()
        if failed:
            self.registry.counter("ops.errors").inc()
        if integrity_failure:
            self.registry.counter(
                "client.integrity_failures",
                help="SSP tampering/rollback detections").inc()

    def reset(self) -> None:
        """Drop finished spans (open spans are left untouched)."""
        self.finished.clear()


def traced(name: str, path_arg: int | None = 0):
    """Decorator: wrap a filesystem method in a root-or-child span.

    ``path_arg`` names the positional index (after ``self``) of a path
    argument to record on the span; ``None`` records no attrs.  The
    wrapped object must expose ``self.tracer``.  Unrecorded, the wrapper
    enters the tracer's quiet scope and builds no attrs.
    """

    def decorate(fn):
        def wrapper(self, *args, **kwargs):
            tracer = self.tracer
            if not tracer.recording:
                if not tracer._depth:
                    tracer._root_name = name
                with tracer._quiet:
                    return fn(self, *args, **kwargs)
            attrs = {}
            if (path_arg is not None and len(args) > path_arg
                    and isinstance(args[path_arg], str)):
                attrs["path"] = args[path_arg]
            with tracer.span(name, **attrs):
                return fn(self, *args, **kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
