"""Golden wire frames: the protocol's bytes, pinned as hex.

For every sub-op kind and reply status the request bytes
:class:`RemoteStorageClient` puts on the socket and the response bytes
the server answers with are compared against fixtures recorded once --
a single op as its frame of one, a mixed batch, a batch whose puts
name their bytes inside an earlier put (``REF_FLAG``) and one whose
tail delete removes a block put before it -- and so are the
top-level ERROR frames, transient flag included.  A refactor of either
codec that moves a single byte fails here, not in a mixed-version
deployment.  The last test pins that a single op's frame carries
exactly its sub-op body.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.storage.blobs import data_blob, lease_blob
from repro.storage.resilient import OutageServer
from repro.storage.server import BatchOp, BatchReply, StorageServer
from repro.storage.wire import (RemoteStorageClient, SspServer,
                                _encode_batch_reply, _encode_sub_body,
                                dispatch_message)

BLOB = data_blob(7, "b0")      # holds b"cipher"
EMPTY = data_blob(8, "b0")     # holds b""
ABSENT = data_blob(9, "b0")
FENCE = lease_blob(7)          # at epoch 5
SEED_STATE = {BLOB: b"cipher", EMPTY: b"",
              FENCE: struct.pack(">Q", 5) + b"L"}

#: A frame of one: OP_BATCH, count 1 (requests); OK, count 1 (replies).
ONE = "0800000001"
OK_ONE = "0000000001"

#: (case, op, request frame hex, response frame hex), each against a
#: fresh SEED_STATE.  After the frame's head, a sub-op is its opcode,
#: body length and body; a sub-reply its status, payload length and
#: payload.
CASES = [
    ("put", BatchOp.put(BLOB, b"new"),
     ONE + "0100000014" "00000009646174612f372f6230000000036e6577",
     OK_ONE + "0000000000"),
    ("put_empty", BatchOp.put(ABSENT, b""),
     ONE + "0100000011" "00000009646174612f392f623000000000",
     OK_ONE + "0000000000"),
    ("get_hit", BatchOp.get(BLOB),
     ONE + "020000000d" "00000009646174612f372f6230",
     OK_ONE + "0000000006" "636970686572"),
    ("get_empty", BatchOp.get(EMPTY),
     ONE + "020000000d" "00000009646174612f382f6230",
     OK_ONE + "0000000000"),
    ("get_miss", BatchOp.get(ABSENT),
     ONE + "020000000d" "00000009646174612f392f6230",
     OK_ONE + "0100000000"),
    ("delete", BatchOp.delete(BLOB),
     ONE + "030000000d" "00000009646174612f372f6230",
     OK_ONE + "0000000000"),
    ("exists_hit", BatchOp.exists(BLOB),
     ONE + "040000000d" "00000009646174612f372f6230",
     OK_ONE + "0000000001" "01"),
    ("exists_miss", BatchOp.exists(ABSENT),
     ONE + "040000000d" "00000009646174612f392f6230",
     OK_ONE + "0000000001" "00"),
    ("put_if_absent_ok", BatchOp.put_if(ABSENT, b"new", None),
     ONE + "0500000019"
     "00000009646174612f392f62300000000100000000036e6577",
     OK_ONE + "0000000000"),
    ("put_if_match_ok", BatchOp.put_if(BLOB, b"new", b"cipher"),
     ONE + "050000001f"
     "00000009646174612f372f62300000000701636970686572000000036e6577",
     OK_ONE + "0000000000"),
    # CONFLICT carries the current bytes presence-prefixed: a value ...
    ("put_if_conflict_value", BatchOp.put_if(BLOB, b"new", b""),
     ONE + "0500000019"
     "00000009646174612f372f62300000000101000000036e6577",
     OK_ONE + "0300000007" "01636970686572"),
    # ... an absent blob ...
    ("put_if_conflict_absent", BatchOp.put_if(ABSENT, b"new", b"x"),
     ONE + "050000001a"
     "00000009646174612f392f6230000000020178000000036e6577",
     OK_ONE + "0300000001" "00"),
    # ... and an empty one are three distinct encodings.
    ("put_if_conflict_empty", BatchOp.put_if(EMPTY, b"new", None),
     ONE + "0500000019"
     "00000009646174612f382f62300000000100000000036e6577",
     OK_ONE + "0300000001" "01"),
    ("put_fenced_ok", BatchOp.put_fenced(BLOB, b"new", FENCE, 5),
     ONE + "060000002d" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000005000000036e6577",
     OK_ONE + "0000000000"),
    ("put_fenced_stale", BatchOp.put_fenced(BLOB, b"new", FENCE, 4),
     ONE + "060000002d" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000004000000036e6577",
     OK_ONE + "0400000008" "0000000000000005"),
    ("delete_fenced_ok", BatchOp.delete_fenced(BLOB, FENCE, 5),
     ONE + "0700000026" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000005",
     OK_ONE + "0000000000"),
    ("delete_fenced_stale", BatchOp.delete_fenced(BLOB, FENCE, 4),
     ONE + "0700000026" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000004",
     OK_ONE + "0400000008" "0000000000000005"),
    # A tail delete's body is a delete's; the fenced one, a fenced
    # delete's.
    ("delete_tail", BatchOp.delete_tail(BLOB),
     ONE + "090000000d" "00000009646174612f372f6230",
     OK_ONE + "0000000000"),
    ("delete_tail_fenced_ok", BatchOp.delete_tail_fenced(BLOB, FENCE, 5),
     ONE + "0a00000026" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000005",
     OK_ONE + "0000000000"),
    ("delete_tail_fenced_stale",
     BatchOp.delete_tail_fenced(BLOB, FENCE, 4),
     ONE + "0a00000026" "00000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000004",
     OK_ONE + "0400000008" "0000000000000005"),
]

#: One mixed frame: ok, get hit, get miss, exists, conflict, delete, a
#: stale fence that stops the batch, and the unattempted tail.
BATCH = [BatchOp.put(ABSENT, b"new"), BatchOp.get(BLOB),
         BatchOp.get(data_blob(10, "b0")), BatchOp.exists(BLOB),
         BatchOp.put_if(BLOB, b"new", b""), BatchOp.delete(EMPTY),
         BatchOp.put_fenced(BLOB, b"new", FENCE, 4), BatchOp.get(BLOB)]
BATCH_REQUEST_HEX = (
    "0800000008"
    "010000001400000009646174612f392f6230000000036e6577"
    "020000000d00000009646174612f372f6230"
    "020000000e0000000a646174612f31302f6230"
    "040000000d00000009646174612f372f6230"
    "050000001900000009646174612f372f62300000000101000000036e6577"
    "030000000d00000009646174612f382f6230"
    "060000002d00000009646174612f372f6230000000096c656173652f372f2d"
    "000000080000000000000004000000036e6577"
    "020000000d00000009646174612f372f6230")
BATCH_RESPONSE_HEX = (
    "0000000008"
    "0000000000"
    "0000000006636970686572"
    "0100000000"
    "000000000101"
    "030000000701636970686572"
    "0000000000"
    "04000000080000000000000005"
    "0500000000")


#: Later puts naming their bytes inside an earlier put's payload
#: (REF_FLAG 0x40: ``u32 index | u32 offset | u32 length`` in place of
#: the payload): a put, a put_fenced, a second put, and one whose bytes
#: the target does not hold, which inlines.
TARGET = data_blob(11, "b0")
REF_BATCH = [BatchOp.put(TARGET, b"head:new:fen"),
             BatchOp.put(ABSENT, b"new", ref=TARGET),
             BatchOp.put_fenced(BLOB, b"fen", FENCE, 5, ref=TARGET),
             BatchOp.put(EMPTY, b"new", ref=TARGET),
             BatchOp.put(data_blob(10, "b0"), b"zzz", ref=TARGET)]
REF_BATCH_REQUEST_HEX = (
    "0800000005"
    "010000001e0000000a646174612f31312f62300000000c686561643a6e65773a66656e"
    "410000001d00000009646174612f392f62300000000c"
    "000000000000000500000003"
    "460000003600000009646174612f372f6230000000096c656173652f372f2d"
    "0000000800000000000000050000000c000000000000000900000003"
    "410000001d00000009646174612f382f62300000000c"
    "000000000000000500000003"
    "01000000150000000a646174612f31302f6230000000037a7a7a")
REF_BATCH_RESPONSE_HEX = "0000000005" + "0000000000" * 5


#: A flush's shape: a put of block 1, then the tail from block 0 -- which
#: takes block 1 too -- and a get that misses it.
TAIL_BATCH = [BatchOp.put(data_blob(7, "b1"), b"new"),
              BatchOp.delete_tail(BLOB), BatchOp.get(data_blob(7, "b1"))]
TAIL_BATCH_REQUEST_HEX = (
    "0800000003"
    "010000001400000009646174612f372f6231000000036e6577"
    "090000000d00000009646174612f372f6230"
    "020000000d00000009646174612f372f6231")
TAIL_BATCH_RESPONSE_HEX = "0000000003" "0000000000" "0000000000" "0100000000"


def _call(server, op: BatchOp):
    """The named-method call for ``op``, spelled out (not ``op.call``)
    so this file also runs unmodified against the tree the fixtures
    were recorded on."""
    args = {"put": (op.blob_id, op.payload),
            "get": (op.blob_id,), "delete": (op.blob_id,),
            "exists": (op.blob_id,),
            "put_if": (op.blob_id, op.payload, op.expected),
            "put_fenced": (op.blob_id, op.payload, op.fence, op.epoch),
            "delete_fenced": (op.blob_id, op.fence, op.epoch),
            "delete_tail": (op.blob_id,),
            "delete_tail_fenced": (op.blob_id, op.fence, op.epoch)}[op.kind]
    return getattr(server, op.kind)(*args)


@pytest.fixture(scope="module")
def rig():
    """(backend, client) over one loopback server; the client records
    its (request, response) bodies."""
    backend = StorageServer()
    with SspServer(backend) as server:
        client = RemoteStorageClient(*server.address)
        client.frames = []
        real = client._roundtrip

        def roundtrip(body):
            response = real(body)
            client.frames.append((body, response))
            return response

        client._roundtrip = roundtrip
        yield backend, client
        client.close()


def _exchange(backend, client, send):
    backend.restore_blobs(SEED_STATE)
    try:
        send(client)
    except StorageError:
        pass  # the non-OK statuses surface as typed errors
    return client.frames[-1]


@pytest.mark.parametrize("case,op,request_hex,response_hex", CASES,
                         ids=[case[0] for case in CASES])
def test_single_op_frames(rig, case, op, request_hex, response_hex):
    request, response = _exchange(*rig, lambda c: _call(c, op))
    assert request.hex() == request_hex
    assert response.hex() == response_hex


def test_batch_frames(rig):
    request, response = _exchange(*rig, lambda c: c.batch(BATCH))
    assert request.hex() == BATCH_REQUEST_HEX
    assert response.hex() == BATCH_RESPONSE_HEX


def test_batch_frames_with_payload_references(rig):
    backend, _client = rig
    request, response = _exchange(*rig, lambda c: c.batch(REF_BATCH))
    assert request.hex() == REF_BATCH_REQUEST_HEX
    assert response.hex() == REF_BATCH_RESPONSE_HEX
    assert backend.get(ABSENT) == backend.get(EMPTY) == b"new"
    assert backend.get(BLOB) == b"fen"


def test_batch_frames_with_a_tail_delete(rig):
    backend, _client = rig
    request, response = _exchange(*rig, lambda c: c.batch(TAIL_BATCH))
    assert request.hex() == TAIL_BATCH_REQUEST_HEX
    assert response.hex() == TAIL_BATCH_RESPONSE_HEX
    assert backend.raw_blobs().keys() == {EMPTY, FENCE}


def test_error_sub_reply_bytes():
    """ERROR sub-reply payload = one transient-flag byte + the message."""
    replies = [BatchReply("error", message="boom", transient=True),
               BatchReply("error", message="bad")]
    assert _encode_batch_reply(replies).hex() == (
        "00000002" "020000000501626f6f6d" "020000000400626164")


#: (message hex, the ERROR it earns): any top-level opcode but OP_BATCH
#: (a former single-op GET too) and a frame that fails validation.
TOP_LEVEL_ERRORS = [
    pytest.param("", b"empty request frame", id="empty"),
    pytest.param("09", b"unknown opcode 9", id="unknown"),
    pytest.param("89", b"unknown opcode 137", id="high_bit"),
    pytest.param("0200000003612f62", b"unknown opcode 2", id="single_get"),
    pytest.param("0800000001020000000700000003612f62",
                 b"malformed blob id on wire: b'a/b'", id="malformed_batch"),
]


@pytest.mark.parametrize("message_hex,message", TOP_LEVEL_ERRORS)
def test_top_level_error_frames(message_hex, message):
    """A top-level ERROR is the status byte, the transient flag (clear:
    a malformed frame stays malformed) and the message -- the encoding
    of an ERROR sub-reply's payload."""
    response = dispatch_message(StorageServer(), bytes.fromhex(message_hex))
    assert response.hex() == "0200" + message.hex()


def test_a_frame_refused_whole_is_a_transient_error_frame():
    """A backend refusing a frame transiently (an outage at the door)
    answers ERROR with the flag set."""
    outage = OutageServer(StorageServer(), SimClock(), 0.0, 1.0)
    get_hit = {case[0]: case[2] for case in CASES}["get_hit"]
    response = dispatch_message(outage, bytes.fromhex(get_hit))
    assert response[:2].hex() == "0201"
    assert response[2:].startswith(b"outage-ssp: outage until t=1s")


@pytest.mark.parametrize("case,op,request_hex,response_hex", CASES,
                         ids=[case[0] for case in CASES])
def test_single_op_body_is_the_sub_op_body(case, op, request_hex,
                                           response_hex):
    sub_op = bytes.fromhex(request_hex)[len(ONE) // 2:]
    assert sub_op[5:] == _encode_sub_body(op)
    assert int.from_bytes(sub_op[1:5], "big") == len(sub_op) - 5
