"""Golden wire frames: the protocol's bytes, pinned as hex.

For every opcode the request bytes :class:`RemoteStorageClient` puts on
the socket and the response bytes the server answers with are compared
against fixtures recorded once, with and without ``TRACE_FLAG``, and
for a batch whose puts name their bytes inside an earlier put
(``REF_FLAG``).  A refactor of either codec that moves a single byte
fails here, not in a mixed-version deployment.  The last test pins the fact the merged codec
relies on: a single-op request body *is* the batch sub-op body.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest

from repro.errors import StorageError
from repro.obs.wiretrace import TraceContext
from repro.storage.blobs import data_blob, lease_blob
from repro.storage.server import BatchOp, BatchReply, StorageServer
from repro.storage.wire import (TRACE_FLAG, RemoteStorageClient, SspServer,
                                _encode_batch_reply, _encode_sub_body,
                                dispatch_message)

BLOB = data_blob(7, "b0")      # holds b"cipher"
EMPTY = data_blob(8, "b0")     # holds b""
ABSENT = data_blob(9, "b0")
FENCE = lease_blob(7)          # at epoch 5
SEED_STATE = {BLOB: b"cipher", EMPTY: b"",
              FENCE: struct.pack(">Q", 5) + b"L"}

CTX = TraceContext(0x1122334455667788, 0x99AABBCCDDEEFF00)
CTX_HEX = "112233445566778899aabbccddeeff00"

#: (case, op, request frame hex, response frame hex), each against a
#: fresh SEED_STATE.
CASES = [
    ("put", BatchOp.put(BLOB, b"new"),
     "0100000009646174612f372f6230000000036e6577", "00"),
    ("put_empty", BatchOp.put(ABSENT, b""),
     "0100000009646174612f392f623000000000", "00"),
    ("get_hit", BatchOp.get(BLOB),
     "0200000009646174612f372f6230", "00636970686572"),
    ("get_empty", BatchOp.get(EMPTY),
     "0200000009646174612f382f6230", "00"),
    ("get_miss", BatchOp.get(ABSENT),
     "0200000009646174612f392f6230", "01"),
    ("delete", BatchOp.delete(BLOB),
     "0300000009646174612f372f6230", "00"),
    ("exists_hit", BatchOp.exists(BLOB),
     "0400000009646174612f372f6230", "0001"),
    ("exists_miss", BatchOp.exists(ABSENT),
     "0400000009646174612f392f6230", "0000"),
    ("put_if_absent_ok", BatchOp.put_if(ABSENT, b"new", None),
     "0500000009646174612f392f62300000000100000000036e6577", "00"),
    ("put_if_match_ok", BatchOp.put_if(BLOB, b"new", b"cipher"),
     "0500000009646174612f372f62300000000701636970686572000000036e6577",
     "00"),
    # CONFLICT carries the current bytes presence-prefixed: a value ...
    ("put_if_conflict_value", BatchOp.put_if(BLOB, b"new", b""),
     "0500000009646174612f372f62300000000101000000036e6577",
     "0301636970686572"),
    # ... an absent blob ...
    ("put_if_conflict_absent", BatchOp.put_if(ABSENT, b"new", b"x"),
     "0500000009646174612f392f6230000000020178000000036e6577", "0300"),
    # ... and an empty one are three distinct encodings.
    ("put_if_conflict_empty", BatchOp.put_if(EMPTY, b"new", None),
     "0500000009646174612f382f62300000000100000000036e6577", "0301"),
    ("put_fenced_ok", BatchOp.put_fenced(BLOB, b"new", FENCE, 5),
     "0600000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000005000000036e6577", "00"),
    ("put_fenced_stale", BatchOp.put_fenced(BLOB, b"new", FENCE, 4),
     "0600000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000004000000036e6577", "040000000000000005"),
    ("delete_fenced_ok", BatchOp.delete_fenced(BLOB, FENCE, 5),
     "0700000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000005", "00"),
    ("delete_fenced_stale", BatchOp.delete_fenced(BLOB, FENCE, 4),
     "0700000009646174612f372f6230000000096c656173652f372f2d"
     "000000080000000000000004", "040000000000000005"),
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
#: the payload): a put, a put_fenced, one with a sub-op trace context
#: (0xc1), and one whose bytes the target does not hold, which inlines.
TARGET = data_blob(11, "b0")
REF_BATCH = [BatchOp.put(TARGET, b"head:new:fen"),
             BatchOp.put(ABSENT, b"new", ref=TARGET),
             BatchOp.put_fenced(BLOB, b"fen", FENCE, 5, ref=TARGET),
             replace(BatchOp.put(EMPTY, b"new", ref=TARGET), ctx=CTX),
             BatchOp.put(data_blob(10, "b0"), b"zzz", ref=TARGET)]
REF_BATCH_REQUEST_HEX = (
    "0800000005"
    "010000001e0000000a646174612f31312f62300000000c686561643a6e65773a66656e"
    "410000001d00000009646174612f392f62300000000c"
    "000000000000000500000003"
    "460000003600000009646174612f372f6230000000096c656173652f372f2d"
    "0000000800000000000000050000000c000000000000000900000003"
    "c10000002d" + CTX_HEX + "00000009646174612f382f62300000000c"
    "000000000000000500000003"
    "01000000150000000a646174612f31302f6230000000037a7a7a")
REF_BATCH_RESPONSE_HEX = "0000000005" + "0000000000" * 5


def _call(server, op: BatchOp):
    """The named-method call for ``op``, spelled out (not ``op.call``)
    so this file also runs unmodified against the tree the fixtures
    were recorded on."""
    args = {"put": (op.blob_id, op.payload),
            "get": (op.blob_id,), "delete": (op.blob_id,),
            "exists": (op.blob_id,),
            "put_if": (op.blob_id, op.payload, op.expected),
            "put_fenced": (op.blob_id, op.payload, op.fence, op.epoch),
            "delete_fenced": (op.blob_id, op.fence, op.epoch)}[op.kind]
    return getattr(server, op.kind)(*args)


@pytest.fixture(scope="module")
def rig():
    """(backend, plain client frames, traced client frames) over one
    loopback server; each client records (request, response) bodies."""
    backend = StorageServer()
    clients = []

    def recording_client(**kwargs):
        client = RemoteStorageClient(*server.address, **kwargs)
        client.frames = []
        real = client._roundtrip

        def roundtrip(body):
            response = real(body)
            client.frames.append((body, response))
            return response

        client._roundtrip = roundtrip
        clients.append(client)
        return client

    with SspServer(backend) as server:
        yield (backend, recording_client(),
               recording_client(trace_context_fn=lambda: CTX))
        for client in clients:
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
    backend, plain, traced = rig
    request, response = _exchange(backend, plain, lambda c: _call(c, op))
    assert request.hex() == request_hex
    assert response.hex() == response_hex
    # The flagged form: opcode | TRACE_FLAG, the 16-byte context block,
    # then the very same fields; the answer does not change.
    request, response = _exchange(backend, traced, lambda c: _call(c, op))
    assert request.hex() == (f"{int(request_hex[:2], 16) | TRACE_FLAG:02x}"
                             + CTX_HEX + request_hex[2:])
    assert response.hex() == response_hex


def test_batch_frames(rig):
    backend, plain, traced = rig
    request, response = _exchange(backend, plain, lambda c: c.batch(BATCH))
    assert request.hex() == BATCH_REQUEST_HEX
    assert response.hex() == BATCH_RESPONSE_HEX
    request, response = _exchange(backend, traced, lambda c: c.batch(BATCH))
    assert request.hex() == "88" + CTX_HEX + BATCH_REQUEST_HEX[2:]
    assert response.hex() == BATCH_RESPONSE_HEX


def test_batch_frames_with_payload_references(rig):
    backend, plain, traced = rig
    for client, flag in ((plain, "08"), (traced, "88" + CTX_HEX)):
        request, response = _exchange(backend, client,
                                      lambda c: c.batch(REF_BATCH))
        assert request.hex() == flag + REF_BATCH_REQUEST_HEX[2:]
        assert response.hex() == REF_BATCH_RESPONSE_HEX
        assert backend.get(ABSENT) == backend.get(EMPTY) == b"new"
        assert backend.get(BLOB) == b"fen"


def test_error_sub_reply_bytes():
    """ERROR sub-reply payload = one transient-flag byte + the message."""
    replies = [BatchReply("error", message="boom", transient=True),
               BatchReply("error", message="bad")]
    assert _encode_batch_reply(replies).hex() == (
        "00000002" "020000000501626f6f6d" "020000000400626164")


@pytest.mark.parametrize("message_hex,response_hex", [
    ("", "02" + b"empty request frame".hex()),
    ("09", "02" + b"unknown opcode 9".hex()),
    ("89", "02" + b"unknown opcode 137".hex()),
    ("0200000003612f62",
     "02" + b"malformed blob id on wire: b'a/b'".hex()),
])
def test_top_level_error_frames(message_hex, response_hex):
    """A top-level ERROR is the status byte + the bare message (no
    transient flag, unlike a sub-reply)."""
    response = dispatch_message(StorageServer(), bytes.fromhex(message_hex))
    assert response.hex() == response_hex


@pytest.mark.parametrize("case,op,request_hex,response_hex", CASES,
                         ids=[case[0] for case in CASES])
def test_single_op_body_is_the_sub_op_body(case, op, request_hex,
                                           response_hex):
    assert bytes.fromhex(request_hex)[1:] == _encode_sub_body(op)
