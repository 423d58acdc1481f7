"""Property-based tests for the request scheduler's ordering contract.

The concurrency differential suite proves whole workloads end up
byte-identical; these properties pin the :class:`repro.fs.scheduler.
RequestScheduler` invariants that argument rests on, under randomized
operation sequences against a dict-based reference model:

1. **Read-your-writes, never reordered**: a read of a staged blob is
   answered from the overlay (the newest staged state), and a read of
   an unstaged blob sees exactly the flushed state -- so a mutation is
   never reordered past a read that depends on it.
2. **FIFO shipping**: replaying the waves the server actually received,
   in order, reproduces the reference model exactly; no wave exceeds
   the window, and the queue auto-drains before it can exceed
   ``2 * window - 1`` (a whole group staged atop an almost-full queue).
3. **In-flight dedup**: duplicate ids in one ``fetch_many`` ride a
   single wire fetch, and every caller position resolves to that one
   fetch's bytes.
4. **Stale cancellation**: a fetch flight that races an invalidation
   (``note_invalidation`` mid-flight) drops everything it carried --
   stale speculative bytes are never served -- while overlay answers
   (which are read-your-writes, not speculation) survive.
"""

from __future__ import annotations

import pytest

from repro.errors import BlobNotFound
from repro.fs.blobio import BlobIO
from repro.fs.scheduler import RequestScheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.storage.blobs import meta_blob
from repro.storage.server import StorageServer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KEYS = st.integers(min_value=0, max_value=9)
PAYLOADS = st.binary(min_size=0, max_size=32)
WINDOWS = st.integers(min_value=2, max_value=6)
#: windows for the fetch-flight properties: wider than the staged-set
#: strategy (max 3), so staging never auto-flushes mid-setup and the
#: overlay still covers exactly the staged keys when the flight departs.
FLIGHT_WINDOWS = st.integers(min_value=4, max_value=8)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, PAYLOADS),
        st.tuples(st.just("delete"), KEYS, st.just(b"")),
        st.tuples(st.just("read"), KEYS, st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    max_size=60,
)


class _RecordingServer:
    """Pass-through server that logs every batch wave it receives."""

    def __init__(self, inner: StorageServer):
        self.inner = inner
        self.waves: list[list] = []
        self.batch_hook = None

    def batch(self, ops):
        self.waves.append(list(ops))
        if self.batch_hook is not None:
            self.batch_hook()
        return self.inner.batch(ops)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _scheduler(server, window: int) -> RequestScheduler:
    """A write-behind scheduler as a client holds it: under a BlobIO
    over ``server``, which ships its waves."""
    return BlobIO(server, None, tracer=Tracer(), metrics=MetricsRegistry(),
                  window=window, write_behind=True).scheduler


def _bid(key: int):
    return meta_blob(key, "o")


def _server_value(server: StorageServer, blob_id):
    try:
        return server.get(blob_id)
    except BlobNotFound:
        return None


@given(ops=OPS, window=WINDOWS)
@settings(max_examples=60, deadline=None)
def test_read_your_writes_and_fifo_shipping(ops, window):
    backend = StorageServer()
    recording = _RecordingServer(backend)
    sched = _scheduler(recording, window)
    model: dict = {}  # blob id -> latest bytes, None = deleted

    for kind, key, payload in ops:
        blob_id = _bid(key)
        if kind == "put":
            sched.stage_put(blob_id, payload)
            model[blob_id] = payload
        elif kind == "delete":
            sched.stage_delete(blob_id)
            model[blob_id] = None
        elif kind == "read":
            covered, staged = sched.staged_read(blob_id)
            value = staged if covered else _server_value(backend, blob_id)
            assert value == model.get(blob_id), (
                "read does not see the newest preceding mutation")
        else:
            sched.flush()
            assert sched.queue_depth == 0
        # Auto-flush keeps the queue below a full window after every op
        # (single-op staging here, so it can never ride above it).
        assert sched.queue_depth < window

    sched.flush()

    # The SSP converged to the model: per-blob order was preserved.
    for blob_id, expected in model.items():
        assert _server_value(backend, blob_id) == expected

    # Replaying the waves the server received, in arrival order,
    # reproduces the model exactly -- shipping was FIFO.
    replay: dict = {}
    for wave in recording.waves:
        assert len(wave) <= window
        for op in wave:
            replay[op.blob_id] = op.payload if op.kind == "put" else None
    assert replay == model


@given(keys=st.lists(KEYS, min_size=1, max_size=24),
       staged=st.sets(KEYS, max_size=3), window=FLIGHT_WINDOWS)
@settings(max_examples=60, deadline=None)
def test_fetch_dedup_single_flight(keys, staged, window):
    backend = StorageServer()
    for key in range(10):
        backend.put(_bid(key), b"server" + bytes([key]))
    recording = _RecordingServer(backend)
    sched = _scheduler(recording, window)
    for key in staged:
        sched.stage_put(_bid(key), b"staged" + bytes([key]))

    wave_mark = len(recording.waves)
    results = sched.fetch_many([_bid(key) for key in keys])

    unique = {_bid(key) for key in keys}
    assert set(results) == unique
    for key in set(keys):
        expected = (b"staged" + bytes([key]) if key in staged
                    else b"server" + bytes([key]))
        assert results[_bid(key)] == expected

    # One wire fetch per unique unstaged id -- duplicates and staged
    # ids never touched the wire.
    fetch_ops = [op for wave in recording.waves[wave_mark:] for op in wave]
    assert len(fetch_ops) == len(unique - {_bid(k) for k in staged})
    assert len({op.blob_id for op in fetch_ops}) == len(fetch_ops)
    assert sched.dedup_hits == len(keys) - len(set(keys))


@given(keys=st.sets(KEYS, min_size=1, max_size=8),
       staged=st.sets(KEYS, max_size=3), window=FLIGHT_WINDOWS)
@settings(max_examples=60, deadline=None)
def test_invalidation_drops_inflight_fetch(keys, staged, window):
    backend = StorageServer()
    for key in range(10):
        backend.put(_bid(key), b"fresh" + bytes([key]))
    recording = _RecordingServer(backend)
    sched = _scheduler(recording, window)
    for key in staged:
        sched.stage_put(_bid(key), b"mine" + bytes([key]))

    # The invalidation lands while the flight is on the wire.
    recording.batch_hook = sched.note_invalidation
    results = sched.fetch_many([_bid(key) for key in keys])
    recording.batch_hook = None

    # Overlay answers are read-your-writes, not speculation: they
    # survive.  Everything actually fetched was dropped.
    assert set(results) == {_bid(k) for k in keys & staged}
    for key in keys & staged:
        assert results[_bid(key)] == b"mine" + bytes([key])
    if keys - staged:
        assert sched.stale_drops > 0

    # A quiet retry serves fresh bytes normally.
    retry = sched.fetch_many([_bid(key) for key in keys - staged])
    for key in keys - staged:
        assert retry[_bid(key)] == b"fresh" + bytes([key])
