"""Interface conformance: every storage layer, armed to be transparent,
is indistinguishable from the bare :class:`StorageServer` beneath it.

One fixed script of all nine kinds (hit, miss, CAS conflict, stale
fence; a tail delete's run, gap, empty run and non-block id) is run
singly and then as one mixed batch through each decorator
in ``src/`` and through :class:`RemoteStorageClient` over both wire
front-ends, and through the sharded router; return values, exception
types and the final blobs must equal the reference run, and so must a
CAS that loses to bytes equal to its own payload (``ECHO``); the
mutation trigger has a row bare and one armed for each of its crash,
pause and rebalance-stage roles.
Alongside: the trigger counts exactly ``MUTATION_KINDS`` however it is
armed and fires each registered action once, just before its k-th
mutation, and ``FlakyServer``'s RNG
draw order over the script is pinned to the sequence recorded before
the layers were rewritten over ``_forward``.  fsck's read-only recorder
has its own table: transparent for reads, every mutation kind refused.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import pytest

from repro.errors import (ClientCrashed, SharoesError, StorageError,
                          TransientStorageError)
from repro.obs.wiretrace import TracedServer
from repro.sim.clock import SimClock
from repro.storage.blobs import block_blob, data_blob, lease_blob
from repro.storage.faults import RollbackServer, TamperingServer
from repro.storage.resilient import (FlakyServer, MutationTrigger,
                                     OutageServer, ResilientTransport,
                                     ServerWrapper, SlowServer, crash)
from repro.storage.server import (BATCH_KINDS, MUTATION_KINDS, BatchOp,
                                  StorageServer)
from repro.storage.shards import ShardedServer, ShardOutageServer
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import _RecordingServer

A, B, C = data_blob(1, "b0"), data_blob(2, "b0"), data_blob(3, "b0")
D = data_blob(4, "b0")
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

#: The tail deletes, on a run of blocks 0-3 of inode 5 and a block 5
#: past the gap: a stale fence refuses the whole run; a current one and
#: an unfenced one each take the run from their block to the gap; a run
#: already gone is no error; an id that names no block is one.
T0, T1, T2, T3, T5 = (block_blob(5, index) for index in (0, 1, 2, 3, 5))
TAIL_FENCE = lease_blob(5)
TAIL_SCRIPT = [
    *(BatchOp.put(block, b"t") for block in (T0, T1, T2, T3, T5)),
    BatchOp.put(TAIL_FENCE, FENCE_AT_5),
    BatchOp.delete_tail_fenced(T1, TAIL_FENCE, 4),
    BatchOp.get(T3),
    BatchOp.delete_tail_fenced(T2, TAIL_FENCE, 5),
    BatchOp.get(T3),
    BatchOp.delete_tail(T0),
    BatchOp.get(T1),
    BatchOp.get(T5),
    BatchOp.delete_tail(T0),
    BatchOp.delete_tail(data_blob(5, "t:x")),
]
#: The same in one frame, stopped by the stale fenced tail.
TAIL_BATCH = [
    *(BatchOp.put(block, b"u") for block in (T0, T1, T2)),
    BatchOp.delete_tail(T1),
    BatchOp.get(T2),
    BatchOp.get(T0),
    BatchOp.delete_tail_fenced(T0, TAIL_FENCE, 4),
    BatchOp.get(T0),
]

#: A CAS that loses although the blob already holds its payload: on a
#: first attempt that is a conflict like any other, singly and in a frame
#: (only a *re-sent* attempt may read it as its own landed write).
ECHO = [
    BatchOp.put(D, b"same"),
    BatchOp.put_if(D, b"same", b"other"),
]


_SCRIPT_MUTATIONS = sum(op.kind in MUTATION_KINDS for op in SCRIPT)
_KINDS = {op.kind for op in SCRIPT + TAIL_SCRIPT}


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


@contextmanager
def _sharded(shards: int, replicas: int):
    router = ShardedServer(shards, replicas)
    yield router, router  # its raw_blobs is the logical store


def _no_op() -> None:
    pass


#: The trigger armed for each role it plays in the sweeps, under the
#: names of the three wrappers it replaced: the crash armed past the
#: script's last mutation (the crash-free run), a pause with no riders at
#: the first mutation, and two rebalance stages -- one before a single
#: op, one before a sub-op inside the frame -- that move nothing.
ARMED = {
    "CrashingServer": lambda b: MutationTrigger(b, {10**6: crash}),
    "PauseServer": lambda b: MutationTrigger(b, {1: _no_op}),
    "MidRunRebalance": lambda b: MutationTrigger(
        b, {2: _no_op, _SCRIPT_MUTATIONS + 2: _no_op}),
}

#: name -> context manager yielding (layer under test, its backend).
LAYERS = {
    "ServerWrapper": lambda: _in_process(ServerWrapper),
    "MutationTrigger": lambda: _in_process(MutationTrigger),
    **{name: (lambda make=make: _in_process(make))
       for name, make in ARMED.items()},
    "FlakyServer": lambda: _in_process(lambda b: FlakyServer(b, 0.0)),
    "SlowServer": lambda: _in_process(lambda b: SlowServer(b, 0)),
    "OutageServer": lambda: _in_process(
        lambda b: OutageServer(b, SimClock(), 100.0, 200.0)),
    "ShardOutageServer": lambda: _in_process(
        lambda b: ShardOutageServer(b, SimClock(), 0, start_s=100.0)),
    "ResilientTransport": lambda: _in_process(ResilientTransport),
    "ShardedServer": lambda: _sharded(4, 2),
    "TracedServer": lambda: _in_process(TracedServer),
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
    echo = [_outcome(layer, op) for op in ECHO] + [
        (r.status, r.payload or None) for r in layer.batch(ECHO)]
    tail = [_outcome(layer, op) for op in TAIL_SCRIPT] + [
        (r.status, r.payload or None, r.epoch)
        for r in layer.batch(TAIL_BATCH)]
    return singles, frame, echo, tail, backend.raw_blobs()


@pytest.fixture(scope="module")
def reference():
    server = StorageServer()
    singles, frame, echo, tail, blobs = _observe(server, server)
    # The script is only a conformance script if it reaches every
    # outcome; pin that here rather than trusting the table above.
    assert _KINDS == set(BATCH_KINDS)
    assert {o[1] for o in singles if o[0] == "raised"} == {
        "BlobNotFound", "CasConflictError", "StaleEpochError"}
    assert {status for status, _, _ in frame} == {
        "ok", "missing", "conflict", "fenced", "unattempted"}
    assert echo[1][:2] == ("raised", "CasConflictError")
    assert echo[3] == ("conflict", b"same")
    assert tail == [("returned", None)] * 6 + [
        ("raised", "StaleEpochError", None, 5),
        ("returned", b"t"),
        ("returned", None),
        ("raised", "BlobNotFound", None, None),
        ("returned", None),
        ("raised", "BlobNotFound", None, None),
        ("returned", b"t"),
        ("returned", None),
        ("raised", "StorageError", None, None),
    ] + [("ok", None, None)] * 4 + [
        ("missing", None, None), ("ok", b"u", None), ("fenced", None, 5),
        ("unattempted", None, None)]
    assert T5 in blobs and T0 in blobs and T1 not in blobs
    return singles, frame, echo, tail, blobs


@pytest.mark.parametrize("name", LAYERS)
def test_layer_is_transparent(name, reference):
    with LAYERS[name]() as (layer, backend):
        assert _observe(layer, backend) == reference
        if isinstance(layer, MutationTrigger):  # every reachable one fired
            assert all(k > layer.mutations for k in layer.actions), name


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
        for op in SCRIPT + TAIL_SCRIPT:
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


@pytest.mark.parametrize("name", ARMED)
def test_mutation_counters_count_exactly_mutation_kinds(name):
    """However it is armed, the trigger counts the same mutations."""
    assert MUTATION_KINDS == _KINDS - {"get", "exists"}
    for op in SCRIPT + TAIL_SCRIPT:
        layer = ARMED[name](StorageServer())
        _outcome(layer, op)  # counted before forwarding, even if refused
        assert layer.mutations == (op.kind in MUTATION_KINDS), op
    # Inside a batch: every *attempted* sub-op counts the same way -- a
    # tail delete once, however many blocks its run removes.
    for script in (SCRIPT, TAIL_SCRIPT):
        layer = ARMED[name](StorageServer())
        replies = layer.batch(script)
        attempted = [op for op, reply in zip(script, replies)
                     if reply.status != "unattempted"]
        assert layer.mutations == sum(op.kind in MUTATION_KINDS
                                      for op in attempted)


def test_trigger_fires_each_action_once_at_its_mutation():
    """Each action runs once, just before its k-th mutation reaches the
    backend: k = 2 is a single put, k = 4 is a sub-op inside a frame;
    reads between them move nothing."""
    backend = StorageServer()
    seen = []

    def action(k):
        return lambda: seen.append((k, trigger.mutations,
                                    sorted(backend.raw_blobs())))

    trigger = MutationTrigger(backend, {4: action(4), 2: action(2)})
    trigger.put(A, b"a")                           # mutation 1
    trigger.get(A)
    trigger.put(B, b"b")                           # 2: fires first
    trigger.batch([BatchOp.get(B), BatchOp.put(C, b"c"),   # 3
                   BatchOp.delete(A),                      # 4: fires
                   BatchOp.put(MISSING, b"m")])            # 5
    trigger.put(A, b"a2")                          # 6
    assert seen == [(2, 2, [A]), (4, 4, sorted([A, B, C]))]
    assert trigger.mutations == 6 and not trigger.actions
    assert sorted(backend.raw_blobs()) == sorted([A, B, C, MISSING])


def test_a_crash_action_kills_the_client_mid_frame():
    """The crash action at sub-op k of a frame: the k - 1 sub-ops before
    it land, it and the rest do not, and the dead client stays dead --
    every later mutation raises too, reads still pass."""
    backend = StorageServer()
    trigger = MutationTrigger(backend, {2: crash})
    with pytest.raises(ClientCrashed):
        trigger.batch([BatchOp.put(A, b"a"), BatchOp.put(B, b"b"),
                       BatchOp.put(C, b"c")])
    assert sorted(backend.raw_blobs()) == [A]
    with pytest.raises(ClientCrashed):
        trigger.delete(A)
    assert trigger.get(A) == b"a"
    assert sorted(backend.raw_blobs()) == [A]


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
