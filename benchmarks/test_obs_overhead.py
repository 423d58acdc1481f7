"""Instrumentation overhead bound.

The observability layer must stay out of the hot path: with the metrics
registry attached, the extra work per operation is span bookkeeping plus
one histogram observe.  This harness measures the *host* CPU time
this process spends on an identical Postmark pass with tracing active
vs stubbed out, and bounds the difference below 5%.  CPU time, not
wall-clock: other tenants of a shared runner then do not show up as
overhead.  The passes alternate (instrumented, stubbed, instrumented,
...), so a slow spell of the host lands on both sides instead of one.

Host time still moves with the other tenants of a shared 2-core runner,
so a deterministic companion bounds the same ratio in *work*: the
Python calls each pass makes, counted under ``sys.setprofile`` with the
entropy pinned.  The count repeats exactly from run to run.
"""

import sys
import time
from contextlib import contextmanager

from repro.obs.tracing import Tracer
from repro.tools.twin import pinned_entropy

from .common import emit


class _NullSpan:
    """What the client touches of a span: a walk step writes
    ``attrs["cache"]``."""

    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs = {}


_NULL = _NullSpan()


@contextmanager
def _null_span(self, name, **attrs):
    yield _NULL


def _postmark_cpu_seconds() -> float:
    from repro.workloads import make_env, run_postmark
    with pinned_entropy(2008):
        env = make_env("sharoes")
        start = time.process_time()
        run_postmark(env, files=120, transactions=120, cache_fraction=0.25)
        return time.process_time() - start


def _stub_tracing(patch) -> None:
    patch.setattr(Tracer, "span", _null_span)
    patch.setattr(Tracer, "on_charge", lambda self, category, seconds: None)


def _stubbed_cpu_seconds(monkeypatch) -> float:
    with monkeypatch.context() as patch:
        _stub_tracing(patch)
        return _postmark_cpu_seconds()


def _postmark_python_calls() -> int:
    """Python calls of the Postmark pass (set-up excluded)."""
    from repro.workloads import make_env, run_postmark
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    with pinned_entropy(2008):
        env = make_env("sharoes")
        sys.setprofile(count)
        try:
            run_postmark(env, files=120, transactions=120,
                         cache_fraction=0.25)
        finally:
            sys.setprofile(None)
    return calls


def test_overhead_under_5_percent(monkeypatch):
    _postmark_cpu_seconds()  # warm caches/imports before timing
    repeats = 3
    timed = [(_postmark_cpu_seconds(), _stubbed_cpu_seconds(monkeypatch))
             for _ in range(repeats)]
    instrumented = min(pair[0] for pair in timed)
    bare = min(pair[1] for pair in timed)

    ratio = instrumented / bare
    emit("obs_overhead",
         "Postmark CPU time (120 files/120 txns, min of "
         f"{repeats} alternating passes each): instrumented "
         f"{instrumented:.3f}s vs stubbed {bare:.3f}s -> x{ratio:.3f}")
    assert ratio < 1.05, ratio


def test_call_overhead_under_5_percent(monkeypatch):
    instrumented = _postmark_python_calls()
    with monkeypatch.context() as patch:
        _stub_tracing(patch)
        bare = _postmark_python_calls()
    ratio = instrumented / bare
    assert ratio < 1.05, (instrumented, bare, ratio)
