"""Interface conformance: every storage layer, armed to be transparent,
is indistinguishable from the bare :class:`StorageServer` beneath it.

One fixed script of all seven kinds (hit, miss, CAS conflict, stale
fence) is run singly and then as one mixed batch through each decorator
in ``src/`` and through :class:`RemoteStorageClient` over both wire
front-ends; return values, exception types and the final blobs must
equal the reference run.  Alongside: the three mutation-counting
injectors count exactly ``MUTATION_KINDS``, and ``FlakyServer``'s RNG
draw order over the script is pinned to the sequence recorded before
the layers were rewritten over ``_forward``.  fsck's read-only recorder
has its own table: transparent for reads, every mutation kind refused.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import pytest

from repro.errors import SharoesError, StorageError, TransientStorageError
from repro.obs.wiretrace import TracedServer
from repro.sim.clock import SimClock
from repro.storage.blobs import data_blob, lease_blob
from repro.storage.faults import RollbackServer, TamperingServer
from repro.storage.rebalance import MidRunRebalance
from repro.storage.resilient import (CrashingServer, FlakyServer,
                                     OutageServer, ResilientTransport,
                                     ServerWrapper, SlowServer)
from repro.storage.server import (BATCH_KINDS, MUTATION_KINDS, BatchOp,
                                  StorageServer)
from repro.storage.shards import ShardOutageServer
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import _RecordingServer
from repro.tools.interleave import PauseServer

A, B, C = data_blob(1, "b0"), data_blob(2, "b0"), data_blob(3, "b0")
MISSING = data_blob(9, "b0")
FENCE = lease_blob(3)
FENCE_AT_5 = struct.pack(">Q", 5) + b"lease"

#: Every kind, with its hit, miss, conflict and stale-fence outcomes.
SCRIPT = [
    BatchOp.put(A, b"a1"),
    BatchOp.get(A),
    BatchOp.get(MISSING),
    BatchOp.exists(A),
    BatchOp.exists(MISSING),
    BatchOp.put_if(B, b"b1", None),
    BatchOp.put_if(B, b"b2", b"wrong"),
    BatchOp.put_if(B, b"b2", b"b1"),
    BatchOp.put(FENCE, FENCE_AT_5),
    BatchOp.put_fenced(C, b"c1", FENCE, 5),
    BatchOp.put_fenced(C, b"c2", FENCE, 4),
    BatchOp.delete_fenced(C, FENCE, 4),
    BatchOp.delete_fenced(C, FENCE, 5),
    BatchOp.delete(A),
    BatchOp.delete(MISSING),
    BatchOp.get(A),
]
#: The same mix as one frame; the stale fence comes last but one, so the
#: frame also shows where a batch stops (the tail reads ``unattempted``).
BATCH = [
    BatchOp.put(A, b"a2"),
    BatchOp.get(A),
    BatchOp.get(MISSING),
    BatchOp.exists(B),
    BatchOp.put_if(B, b"b3", b"wrong"),
    BatchOp.put_if(B, b"b3", b"b2"),
    BatchOp.put_fenced(C, b"c3", FENCE, 6),
    BatchOp.delete_fenced(A, FENCE, 5),
    BatchOp.delete(B),
    BatchOp.put_fenced(C, b"c4", FENCE, 4),
    BatchOp.get(C),
]


def _never(blob_id) -> bool:
    return False


@contextmanager
def _in_process(make):
    backend = StorageServer()
    yield make(backend), backend


@contextmanager
def _remote(front_end):
    backend = StorageServer()
    server = front_end(backend).start()
    client = RemoteStorageClient(*server.address)
    try:
        yield client, backend
    finally:
        client.close()
        server.stop()


#: name -> context manager yielding (layer under test, its backend).
LAYERS = {
    "ServerWrapper": lambda: _in_process(ServerWrapper),
    "CrashingServer": lambda: _in_process(CrashingServer),
    "FlakyServer": lambda: _in_process(lambda b: FlakyServer(b, 0.0)),
    "SlowServer": lambda: _in_process(lambda b: SlowServer(b, 0)),
    "OutageServer": lambda: _in_process(
        lambda b: OutageServer(b, SimClock(), 100.0, 200.0)),
    "ShardOutageServer": lambda: _in_process(
        lambda b: ShardOutageServer(b, SimClock(), 0, start_s=100.0)),
    "ResilientTransport": lambda: _in_process(ResilientTransport),
    "TracedServer": lambda: _in_process(
        lambda b: TracedServer(b, SimClock())),
    "PauseServer": lambda: _in_process(PauseServer),
    "MidRunRebalance": lambda: _in_process(
        lambda b: MidRunRebalance(b, [])),
    "TamperingServer": lambda: _in_process(
        lambda b: TamperingServer(inner=b, should_tamper=_never)),
    "RollbackServer": lambda: _in_process(
        lambda b: RollbackServer(inner=b, should_rollback=_never)),
    "RemoteStorageClient/threaded": lambda: _remote(SspServer),
}

#: Layers that forward reads untouched and refuse every mutation.
READ_ONLY = {
    "_RecordingServer": lambda: _in_process(_RecordingServer),
}


def _outcome(server, op: BatchOp):
    """What a caller of the named method observes, as a value."""
    try:
        return ("returned", op.call(server))
    except StorageError as exc:
        return ("raised", type(exc).__name__,
                getattr(exc, "current", None),
                getattr(exc, "current_epoch", None))


def _observe(layer, backend):
    singles = [_outcome(layer, op) for op in SCRIPT]
    # ``payload or None``: an ``ok`` with nothing to return is an empty
    # payload on the wire and None in process -- the same answer.
    frame = [(r.status, r.payload or None, r.epoch)
             for r in layer.batch(BATCH)]
    return singles, frame, backend.raw_blobs()


@pytest.fixture(scope="module")
def reference():
    server = StorageServer()
    singles, frame, blobs = _observe(server, server)
    # The script is only a conformance script if it reaches every
    # outcome; pin that here rather than trusting the table above.
    assert {op.kind for op in SCRIPT} == set(BATCH_KINDS)
    assert {o[1] for o in singles if o[0] == "raised"} == {
        "BlobNotFound", "CasConflictError", "StaleEpochError"}
    assert {status for status, _, _ in frame} == {
        "ok", "missing", "conflict", "fenced", "unattempted"}
    return singles, frame, blobs


@pytest.mark.parametrize("name", LAYERS)
def test_layer_is_transparent(name, reference):
    with LAYERS[name]() as (layer, backend):
        assert _observe(layer, backend) == reference


def test_table_covers_every_decorator_in_src():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    in_src = {cls.__name__ for cls in subclasses(ServerWrapper)
              if cls.__module__.startswith("repro.")}
    covered = set(LAYERS) | set(READ_ONLY)
    assert in_src <= covered, \
        f"decorators missing from LAYERS: {sorted(in_src - covered)}"


@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_layer_forwards_reads_and_refuses_mutations(name):
    with READ_ONLY[name]() as (layer, backend):
        for op in SCRIPT:
            if op.kind not in MUTATION_KINDS:
                assert _outcome(layer, op) == _outcome(backend, op), op
                continue
            before = backend.raw_blobs()
            with pytest.raises(SharoesError, match="read-only") as refused:
                op.call(layer)
            assert refused.type is SharoesError  # not a storage outcome
            assert backend.raw_blobs() == before, op
            _outcome(backend, op)  # the script's state, for later reads
        # A frame of reads is answered and recorded sub-op by sub-op; one
        # mutation anywhere in a frame refuses it (the hole the
        # hand-written get/put/delete/exists proxy had).
        reads = [op for op in BATCH if op.kind not in MUTATION_KINDS]
        layer.touched.clear()
        assert layer.batch(reads) == backend.batch(reads)
        assert layer.touched == {op.blob_id for op in reads}
        before = backend.raw_blobs()
        with pytest.raises(SharoesError, match="read-only"):
            layer.batch([BatchOp.get(B), BatchOp.delete(B)])
        with pytest.raises(SharoesError, match="read-only"):
            layer.put_fenced(C, b"c9", FENCE, 9)
        assert backend.raw_blobs() == before


@pytest.mark.parametrize("counter", [CrashingServer, PauseServer,
                                     lambda b: MidRunRebalance(b, [])],
                         ids=["CrashingServer", "PauseServer",
                              "MidRunRebalance"])
def test_mutation_counters_count_exactly_mutation_kinds(counter):
    assert MUTATION_KINDS == {op.kind for op in SCRIPT} - {"get", "exists"}
    for op in SCRIPT:
        layer = counter(StorageServer())
        _outcome(layer, op)  # counted before forwarding, even if refused
        assert layer.mutations == (op.kind in MUTATION_KINDS), op
    # Inside a batch: every *attempted* sub-op counts the same way.
    layer = counter(StorageServer())
    replies = layer.batch(SCRIPT)
    attempted = [op for op, reply in zip(SCRIPT, replies)
                 if reply.status != "unattempted"]
    assert layer.mutations == sum(op.kind in MUTATION_KINDS
                                  for op in attempted)


def test_flaky_draw_order_is_pinned():
    """One RNG draw per op, in op order, CAS/fenced forms at the rate of
    the plain op they guard: the exact faults recorded at the commit
    before ``_forward``."""
    flaky = FlakyServer(StorageServer(), failure_rate=0.3, seed=7)
    failed = []
    for index, op in enumerate(SCRIPT):
        try:
            op.call(flaky)
        except TransientStorageError:
            failed.append(index)
        except StorageError:
            pass
    statuses = [reply.status for reply in flaky.batch(BATCH)]
    assert failed == [1, 3, 6, 8, 10, 11, 14, 15]
    assert statuses == ["ok", "ok", "missing", "ok", "conflict", "error"] \
        + ["unattempted"] * 5
    assert flaky.faults_by_op == {"put": 4, "get": 2, "delete": 2,
                                  "exists": 1}
    assert flaky.injected_faults == 9


def test_flaky_rejects_unknown_ops():
    with pytest.raises(ValueError, match="batch.*allowed.*put"):
        FlakyServer(StorageServer(), failure_rate={"batch": 0.5})
