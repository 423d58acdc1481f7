"""``BlobIO``: the one place a blob's route to the SSP is decided.

A recording fake server and cost model stand under a real ``BlobIO`` so
each case can assert the *route* (journal batch / write-behind queue /
one frame / single ops), that frames are counted once, the bytes
charged, the blobs staged into the journal and the raw-slot invalidation
-- for every put/delete x single/grouped x routing condition -- and that
a write-behind flush that fails part-way raises, counts and drops what a
grouped send would.
"""

import pytest

from repro.errors import (BlobNotFound, PartialWriteError, StorageError,
                          TransientPartialWriteError, TransientStorageError)
from repro.fs import journal
from repro.fs.blobio import (_REQUEST_HEADER_BYTES, _RESPONSE_HEADER_BYTES,
                             BlobIO)
from repro.fs.cache import LruCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.storage.blobs import data_blob, lease_blob
from repro.storage.server import BatchReply, apply_batch

PAYLOAD = b"x" * 100
UP, DOWN = _REQUEST_HEADER_BYTES, _RESPONSE_HEADER_BYTES


class RecordingServer:
    """StorageServer-shaped fake: logs every call, stores nothing but
    what ``stored`` is seeded with."""

    def __init__(self, stored=None):
        self.calls = []
        self.stored = dict(stored or {})

    def put(self, blob_id, payload):
        self.calls.append(("put", blob_id))

    def delete(self, blob_id):
        self.calls.append(("delete", blob_id))

    def put_fenced(self, blob_id, payload, fence, epoch):
        self.calls.append(("put_fenced", blob_id, fence, epoch))

    def delete_fenced(self, blob_id, fence, epoch):
        self.calls.append(("delete_fenced", blob_id, fence, epoch))

    def get(self, blob_id):
        self.calls.append(("get", blob_id))
        if blob_id not in self.stored:
            raise BlobNotFound(str(blob_id))
        return self.stored[blob_id]

    def exists(self, blob_id):
        self.calls.append(("exists", blob_id))
        return blob_id in self.stored

    def batch(self, ops):
        self.calls.append(("batch", tuple(op.kind for op in ops)))
        return [self._reply(op) for op in ops]

    def _reply(self, op):
        if op.kind != "get":
            return BatchReply("ok")
        if op.blob_id not in self.stored:
            return BatchReply("missing")
        return BatchReply("ok", payload=self.stored[op.blob_id])


class RecordingCost:
    def __init__(self):
        self.requests = []
        self.flights = []

    def charge_request(self, up, down):
        self.requests.append((up, down))

    def charge_flight(self, transfers, parallel=1):
        self.flights.append((list(transfers), parallel))


def _io(server=None, **kwargs):
    server = server or RecordingServer()
    cost = RecordingCost()
    io = BlobIO(server, LruCache(), tracer=Tracer(max_finished=1000),
                metrics=MetricsRegistry(), cost=cost, **kwargs)
    return io, server, cost


def _frame_ops(io):
    return [span.attrs["op"] for span in io.tracer.finished
            if span.name == "network"]


#: condition -> (BlobIO kwargs, journal batch active,
#:               route of a single send, route of a grouped send of 3)
CONDITIONS = {
    "journal": (dict(window=4), True, "journal", "journal"),
    "write_behind": (dict(window=4, write_behind=True), False,
                     "queue", "queue"),
    "group_over_window": (dict(window=2, write_behind=True), False,
                          "queue", "frame"),
    "batching_off": (dict(batching=False), False, "frame", "singles"),
}


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("grouped", [False, True], ids=["single", "grouped"])
@pytest.mark.parametrize("deleting", [False, True], ids=["put", "delete"])
def test_send_route(deleting, grouped, condition):
    kwargs, journaled, *routes = CONDITIONS[condition]
    route = routes[grouped]
    io, server, cost = _io(**kwargs)
    blobs = [(data_blob(50 + i, "b0"), None if deleting else PAYLOAD)
             for i in range(3 if grouped else 1)]
    for blob_id, _ in blobs:
        io.cache.put(("raw", blob_id), b"stale", 5)
    if journaled:
        io.batch = journal.MutationBatch("op")

    io.send(blobs, grouped=grouped)

    # Whatever the route, a speculative copy of a blob being rewritten
    # must not survive to serve a later read.
    assert all(io.cache.get(("raw", bid)) is None for bid, _ in blobs)
    verb = "delete" if deleting else "put"
    many = verb + ("_many" if grouped else "")
    if route == "journal":
        assert io.batch.blobs == blobs
    elif route == "queue":
        assert io.scheduler.queue_depth == len(blobs)
        assert all(io.scheduler.covers(bid) for bid, _ in blobs)
    if route in ("journal", "queue"):
        assert server.calls == []
        assert io.request_count == 0
        assert cost.requests == [] and cost.flights == []
        return
    assert io.batch is None or not io.batch.blobs
    sent = 0 if deleting else len(PAYLOAD)
    if route == "frame" and grouped:
        assert server.calls == [("batch", (verb,) * 3)]
        assert _frame_ops(io) == [many]
        charges = [(3 * sent + UP, DOWN)]
    else:
        assert server.calls == [(verb, bid) for bid, _ in blobs]
        assert _frame_ops(io) == [verb] * len(blobs)
        charges = [(sent + UP, DOWN)] * len(blobs)
    assert io.request_count == len(charges)
    assert cost.requests == charges


def test_ungrouped_blobs_are_one_wire_call_each():
    io, server, cost = _io()
    io.batch = journal.MutationBatch("op")
    blobs = [(data_blob(60 + i, "b0"), None) for i in range(2)]
    io.send(blobs, grouped=False)
    assert io.batch.blobs == blobs
    io.batch = None
    io.send(blobs, grouped=False)
    assert server.calls == [("delete", bid) for bid, _ in blobs]
    assert io.request_count == 2


def test_direct_send_orders_after_the_write_behind_queue():
    io, server, cost = _io(window=2, write_behind=True)
    queued = data_blob(70, "b0")
    group = [(data_blob(71 + i, "b0"), PAYLOAD) for i in range(3)]
    io.send([(queued, PAYLOAD)], grouped=False)
    io.send(group, grouped=True)  # larger than the window: shipped now
    assert server.calls == [("batch", ("put",)), ("batch", ("put",) * 3)]
    # The flushed wave and the group are one counted frame each: the
    # wave priced as a flight, the group as one request.
    assert io.request_count == 2 and _frame_ops(io) == ["flush", "put_many"]
    assert cost.flights == [([(len(PAYLOAD) + UP, DOWN)], 2)]
    assert cost.requests == [(3 * len(PAYLOAD) + UP, DOWN)]


class RefusingServer(RecordingServer):
    """Refuses every put of one blob with ``exc``; a batch runs its
    sub-ops through the named methods (the SSP's stop rule)."""

    def __init__(self, refused, exc):
        super().__init__()
        self.refused, self.exc = refused, exc

    def put(self, blob_id, payload):
        if blob_id == self.refused:
            raise self.exc
        super().put(blob_id, payload)

    def batch(self, ops):
        self.calls.append(("batch", tuple(op.kind for op in ops)))
        return apply_batch(self, ops)


@pytest.mark.parametrize("transient", [False, True],
                         ids=["permanent", "transient"])
def test_a_flush_failing_in_its_second_wave_fails_as_a_grouped_send(
        transient):
    blobs = [(data_blob(40 + i, "b0"), PAYLOAD) for i in range(5)]
    ids = [blob_id for blob_id, _ in blobs]
    exc = (TransientStorageError if transient else StorageError)("full")
    io, server, cost = _io(RefusingServer(ids[3], exc), window=3,
                           write_behind=True)
    dropped = []
    io.scheduler.on_drop = dropped.append
    io.send(blobs[:1], grouped=False)
    io.send(blobs[1:2], grouped=False)
    with pytest.raises(TransientPartialWriteError if transient
                       else PartialWriteError) as err:
        io.send(blobs[2:], grouped=True)  # queue of 5: waves of 3 and 2
    assert type(err.value) is (TransientPartialWriteError if transient
                               else PartialWriteError)
    assert err.value.applied == tuple(ids[:3])
    assert err.value.failed == ids[3]
    assert err.value.remaining == (ids[4],)
    assert io.metrics.snapshot()["transport.partial_writes"] == 1
    assert sorted(dropped) == [ids[3].inode, ids[4].inode]
    assert io.scheduler.queue_depth == 0 and not io.scheduler.covers(ids[4])
    # Both waves were counted and priced as flights, in the flush's one
    # span; the unattempted tail of the second never left the client.
    assert [call for call in server.calls if call[0] == "batch"] == [
        ("batch", ("put",) * 3), ("batch", ("put",) * 2)]
    assert io.request_count == 2 and _frame_ops(io) == ["flush"]
    assert cost.flights == [([(len(PAYLOAD) + UP, DOWN)] * 3, 3),
                            ([(len(PAYLOAD) + UP, DOWN)], 3)]
    assert io.scheduler.flushed_ops == 3


def test_reads_see_batch_then_queue_then_raw_slot_then_wire():
    stored = {data_blob(80 + i, "b0"): b"ssp%d" % i for i in range(4)}
    a, b, c, d = stored
    io, server, cost = _io(RecordingServer(stored), window=4,
                           write_behind=True)
    for blob_id in (a, b, c):
        io.cache.put(("raw", blob_id), b"raw", 3)
    io.send([(a, b"queued-a"), (b, b"queued-b")], grouped=True)
    for blob_id in (a, b):  # send dropped them; re-plant to prove order
        io.cache.put(("raw", blob_id), b"raw", 3)
    io.batch = journal.MutationBatch("op")
    io.send([(a, None)], grouped=False)

    with pytest.raises(BlobNotFound):
        io.get(a)                      # journal batch: staged delete
    assert io.get(b) == b"queued-b"    # write-behind queue
    assert io.get(c) == b"raw"         # consume-once readahead slot...
    assert server.calls == [] and io.request_count == 0
    assert io.get(c) == b"ssp2"        # ...so the re-read hits the wire
    assert io.get(d) == b"ssp3"
    assert server.calls == [("get", c), ("get", d)]
    assert io.request_count == 2
    assert cost.requests == [(UP, 4 + DOWN)] * 2


@pytest.mark.parametrize("flight", [False, True], ids=["prefetch", "tail"])
def test_speculation_parks_cold_blobs_and_skips_staged_ones(flight):
    stored = {data_blob(90 + i, "b0"): b"p%d" % i for i in range(3)}
    cold1, staged, cold2 = stored
    absent = data_blob(99, "b0")
    io, server, cost = _io(RecordingServer(stored), window=4,
                           write_behind=True)
    io.send([(staged, b"newer")], grouped=False)
    wanted = [cold1, staged, cold2, absent]
    (io.fetch_tail if flight else io.prefetch)(wanted)
    assert server.calls == [("batch", ("get",) * 3)]
    assert io.request_count == 1
    if flight:
        # One wave, one span: priced as a flight of three requests.
        assert _frame_ops(io) == ["fetch_flight"] and not cost.requests
        assert cost.flights == [([(UP, 2 + DOWN), (UP, 2 + DOWN),
                                  (UP, DOWN)], 4)]
    else:
        assert _frame_ops(io) == ["get_many"]
        assert cost.requests == [(UP, 4 + DOWN)]
    assert io.cache.get(("raw", staged)) is None
    assert io.cache.get(("raw", absent)) is None
    assert io.get(cold1) == b"p0" and io.get(cold2) == b"p2"
    assert io.get(staged) == b"newer"
    assert io.request_count == 1  # all three served locally


def test_fetch_tail_is_a_noop_without_a_scheduler():
    io, server, cost = _io()
    io.fetch_tail(data_blob(95 + i, "b0") for i in range(3))
    assert server.calls == [] and io.cache.stats.misses == 0


# -- protocol frames ------------------------------------------------------------


def _protocol_ops():
    from repro.storage.server import BatchOp
    lease = lease_blob(9)
    return [BatchOp.put(data_blob(9, "j"), PAYLOAD), BatchOp.get(lease),
            BatchOp.put_if(lease, b"n" * 30, expected=b"o" * 20)]


def test_exchange_is_one_counted_frame_charged_by_its_replies():
    io, server, cost = _io(RecordingServer({lease_blob(9): b"L" * 40}))
    replies = io.exchange("intent", _protocol_ops())
    assert [r.status for r in replies] == ["ok", "ok", "ok"]
    assert server.calls == [("batch", ("put", "get", "put_if"))]
    assert io.request_count == 1 and _frame_ops(io) == ["intent"]
    # payloads and the CAS's expected bytes up, the fetched blob down
    assert cost.requests == [(UP + 100 + 30 + 20, DOWN + 40)]


def test_exchange_unbatched_is_one_round_trip_per_sub_op():
    """The reference execution: same sub-ops, same order, same stop
    rule (``missing`` is an answer, an error ends the frame)."""
    class Refusing(RecordingServer):
        def put_if(self, blob_id, payload, expected):
            from repro.errors import TransientStorageError
            raise TransientStorageError("refused")

    io, server, cost = _io(Refusing(), batching=False)
    ops = _protocol_ops()
    replies = io.exchange("intent", ops + ops[:1])
    assert [r.status for r in replies] == ["ok", "missing", "error",
                                           "unattempted"]
    assert [call[0] for call in server.calls] == ["put", "get"]
    assert io.request_count == 3
    assert _frame_ops(io) == ["put", "get", "put_if"]
    assert cost.requests == [(UP + 100, DOWN), (UP, DOWN),
                             (UP + 30 + 20, DOWN)]
