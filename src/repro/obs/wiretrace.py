"""End-to-end wire tracing: server spans under the client spans.

Client spans stop at the ``network`` span -- everything the SSP does
(frame decode, disk, fence/CAS verification) is invisible, so the 44 %
of andrew wall-clock spent in path resolve cannot be attributed past
the wire.  This module closes the loop in process:

* :class:`TracedServer` -- a :class:`~repro.storage.resilient.ServerWrapper`
  the caller stacks on the client's side of the transport (passed as
  the client's ``server=``, then pointed at its tracer with
  :meth:`TracedServer.follow`) that records one ``server.<op>`` span
  per request it forwards, with ``decode`` / ``dispatch`` / ``disk`` /
  ``verify`` children and a service tag (one tree per server), parented
  under the client span issuing the request, read from the client's
  tracer at the moment it sends (nothing rides the wire: the frames of
  a traced and an untraced client are the same bytes);
* :func:`stitch` -- grafts the server spans under the exact client span
  that issued each request, producing a single end-to-end trace tree.

Server spans live on a **synthetic timeline**: durations come from a
deterministic :class:`ServerCostProfile`, and the shared simulated clock
is never advanced.  Attribution without perturbation -- a traced run
charges exactly the same simulated seconds as an untraced one, which is
what lets the CI perf-regression gate diff traced BENCH files against
untraced baselines.  By construction the ``decode``/``disk``/``verify``
self-times of a server span partition its wall exactly.

The SSP does no cryptography in SHAROES (ciphertext passes through
opaquely), so the "crypto" slot of a conventional server profile shows
up here as ``verify``: the fence-epoch and compare-and-swap checks the
server performs on guarded mutations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..storage.resilient import ServerWrapper
from ..storage.server import failure_reply, ok_reply
from .tracing import Span, Tracer, next_trace_id

__all__ = [
    "ServerCostProfile",
    "DEFAULT_SERVER_PROFILE",
    "TracedServer",
    "stitch",
]


@dataclass(frozen=True)
class ServerCostProfile:
    """Deterministic per-request SSP time model (synthetic seconds).

    These seconds exist only inside server spans -- they are *never*
    charged to the cost model or the shared clock.  Magnitudes follow
    the 2008 hardware the paper benchmarks: ~µs frame decode, one disk
    seek plus streaming transfer, ~µs per signature-free guard check.
    """

    decode_fixed_s: float = 2e-6
    decode_per_byte_s: float = 5e-10
    disk_fixed_s: float = 5e-5
    disk_per_byte_s: float = 2e-8
    verify_fixed_s: float = 5e-6


DEFAULT_SERVER_PROFILE = ServerCostProfile()

#: Server span ids live far above any client tracer's sequential ids so
#: stitched trees never collide; each TracedServer gets its own block.
_SERVER_ID_BASE = 1 << 40
_ID_STRIDE = 1 << 32
_SERVER_COUNT = 0


def _next_id_block() -> int:
    global _SERVER_COUNT
    _SERVER_COUNT += 1
    return _SERVER_ID_BASE + _SERVER_COUNT * _ID_STRIDE


def _request_bytes(blob_id, payload) -> int:
    return len(str(blob_id)) + (len(payload) if payload else 0) + 16


class TracedServer(ServerWrapper):
    """Record a ``server.<op>`` span tree for every request forwarded.

    Passed as a client's ``server=``, it sits *below* the client's
    retrying transport, so each retry attempt produces its own server
    span (failed attempts error-marked) and the span count reconciles
    with ``transport.attempts``.  Spans parent under the innermost open
    span of the tracer it follows (:meth:`follow`); with none open they
    are still recorded but stay unparented.  Its timeline starts on
    that tracer's clock, which it never advances.
    """

    def __init__(self, inner,
                 profile: ServerCostProfile = DEFAULT_SERVER_PROFILE,
                 max_spans: int = 200_000):
        super().__init__(inner, name=f"traced({inner.name})")
        self.service = getattr(inner, "name", "ssp")
        self.profile = profile
        self.spans: deque[Span] = deque(maxlen=max_spans)
        self._next_id = _next_id_block()
        self.tracer = Tracer()

    def follow(self, tracer: Tracer) -> None:
        """Parent every later span under ``tracer``'s open span (a
        client's ``network`` span, or its transport's ``attempt``
        span): the tracer records from now on, under a fresh trace id."""
        tracer.record()
        tracer.trace_id = next_trace_id()
        self.tracer = tracer

    # -- span plumbing ----------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _decode_seconds(self, request_bytes: int) -> float:
        return (self.profile.decode_fixed_s
                + self.profile.decode_per_byte_s * request_bytes)

    def _leaf(self, name: str, parent: Span, start: float,
              seconds: float, category: str) -> Span:
        span = Span(name, self._new_id(), parent.span_id, start, {})
        span.end = start + seconds
        if seconds:
            span.add_cost(category, seconds)
        parent.children.append(span)
        return span

    def _open(self, op: str, parent: Span | None, start: float,
              decode_s: float, **attrs: Any) -> tuple[Span, Span]:
        """A request's root -> [decode, dispatch]; the dispatch span
        starts where decode ends."""
        merged = {"service": self.service, "op": op}
        if parent is not None:
            merged["trace_id"] = self.tracer.trace_id
        merged.update(attrs)
        root = Span(f"server.{op}", self._new_id(),
                    parent.span_id if parent is not None else None,
                    start, merged)
        cursor = self._leaf("decode", root, start, decode_s, "decode").end
        dispatch = Span("dispatch", self._new_id(), root.span_id,
                        cursor, {})
        root.children.append(dispatch)
        return root, dispatch

    def _work(self, span: Span, cursor: float, disk_s: float,
              verify_s: float) -> float:
        """``span``'s disk and verify children, laid out from
        ``cursor``; returns where they end."""
        if disk_s:
            cursor = self._leaf("disk", span, cursor, disk_s, "disk").end
        if verify_s:
            cursor = self._leaf("verify", span, cursor, verify_s,
                                "verify").end
        return cursor

    def _emit(self, op: str, parent: Span | None, start: float,
              decode_s: float, disk_s: float, verify_s: float,
              error: str | None = None, **attrs: Any) -> None:
        """One request = root -> [decode, dispatch -> [disk, verify]].

        Children are laid out sequentially from ``start``, so the
        decode/disk/verify self-times partition the root's wall exactly.
        """
        root, dispatch = self._open(op, parent, start, decode_s, **attrs)
        root.end = dispatch.end = self._work(dispatch, dispatch.start,
                                             disk_s, verify_s)
        root.error = error
        self.spans.append(root)

    # -- traced operations ------------------------------------------------

    def _forward(self, op):
        """One ``server.<kind>`` span per single request, priced exactly
        like the same op riding a batch (:meth:`_sub_costs` over the
        reply its outcome maps to); the original exception re-raises."""
        parent = self.tracer.current
        start = self.tracer.clock.now
        decode_s = self._decode_seconds(
            _request_bytes(op.blob_id, op.payload))
        attrs: dict[str, Any] = {"kind": op.blob_id.kind}
        if op.payload is not None:
            attrs["bytes"] = len(op.payload)
        try:
            result = op.call(self.inner)
        except Exception as exc:
            self._emit(op.kind, parent, start, decode_s,
                       *self._sub_costs(op, failure_reply(exc)),
                       error=type(exc).__name__, **attrs)
            raise
        self._emit(op.kind, parent, start, decode_s,
                   *self._sub_costs(op, ok_reply(op, result)), **attrs)
        return result

    def batch(self, ops):
        """One span for the frame, one child per attempted sub-op.

        Delegates to ``inner.batch`` (not ``apply_batch`` through this
        wrapper) so batch semantics stay at the backend and sub-op spans
        are reconstructed from the (op, reply) pairs afterwards.
        """
        ops = list(ops)
        parent = self.tracer.current
        start = self.tracer.clock.now
        frame_bytes = sum(_request_bytes(op.blob_id, op.payload)
                          for op in ops) + 16
        decode_s = self._decode_seconds(frame_bytes)
        try:
            replies = self.inner.batch(ops)
        except Exception as exc:
            self._emit("batch", parent, start, decode_s, 0.0, 0.0,
                       error=type(exc).__name__, count=len(ops))
            raise
        root, dispatch = self._open("batch", parent, start, decode_s,
                                    count=len(ops))
        cursor = dispatch.start
        for index, (op, reply) in enumerate(zip(ops, replies)):
            if reply.status == "unattempted":
                continue
            sub = Span(f"server.{op.kind}", self._new_id(),
                       dispatch.span_id, cursor,
                       {"index": index, "kind": op.kind,
                        "status": reply.status})
            cursor = sub.end = self._work(sub, cursor,
                                          *self._sub_costs(op, reply))
            if reply.status == "error":
                sub.error = reply.message or "error"
            dispatch.children.append(sub)
        root.end = dispatch.end = cursor
        self.spans.append(root)
        return replies

    def _sub_costs(self, op, reply) -> tuple[float, float]:
        prof = self.profile
        guarded = op.kind in ("put_if", "put_fenced", "delete_fenced",
                              "delete_tail_fenced")
        verify_s = prof.verify_fixed_s if guarded else 0.0
        if reply.status == "ok":
            if op.kind == "get":
                size = len(reply.payload or b"")
            elif op.kind in ("put", "put_if", "put_fenced"):
                size = len(op.payload or b"")
            else:
                size = 0
            return prof.disk_fixed_s + prof.disk_per_byte_s * size, verify_s
        if reply.status == "missing":
            return prof.disk_fixed_s, verify_s
        if reply.status in ("conflict", "fenced"):
            return prof.disk_fixed_s, prof.verify_fixed_s
        return 0.0, 0.0  # transient/error: died before the store

    # -- reporting --------------------------------------------------------

    def phase_totals(self) -> dict[str, Any]:
        """Aggregate server-side attribution for the BENCH trace block."""
        phases = {"decode": 0.0, "disk": 0.0, "verify": 0.0}
        wall = 0.0
        errors = 0
        for root in self.spans:
            wall += root.duration
            if root.error is not None:
                errors += 1
            for node in root.walk():
                for category, seconds in node.self_costs.items():
                    if category in phases:
                        phases[category] += seconds
        return {"service": self.service, "spans": len(self.spans),
                "wall": wall, "errors": errors, "phases": phases}


def _as_dict(span) -> dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def stitch(client_spans: Iterable,
           server_spans: Iterable) -> tuple[list[dict], list[dict]]:
    """Graft server span trees under the client spans that issued them.

    Works on ``to_dict`` copies -- the live client spans are never
    mutated (server self-cost categories would otherwise corrupt the
    client-side phase reconciliation).  Returns ``(roots, orphans)``:
    the stitched client trees plus any server spans whose parent id
    matched no client span (e.g. context-free requests).
    """
    roots = [_as_dict(span) for span in client_spans]
    index: dict[int, dict] = {}

    def register(node: dict) -> None:
        index[node["span_id"]] = node
        for child in node.get("children", ()):
            register(child)

    for root in roots:
        register(root)
    orphans: list[dict] = []
    for span in server_spans:
        doc = _as_dict(span)
        parent = index.get(doc.get("parent_id"))
        if parent is None:
            orphans.append(doc)
        else:
            parent.setdefault("children", []).append(doc)
    return roots, orphans
