"""Fuzzing the SSP wire protocol (robustness satellite).

The TCP front-end (:mod:`repro.storage.wire`) faces the network: any
byte sequence can arrive.  These tests throw malformed framing at a live
:class:`SspServer` -- truncated headers, empty frames, oversized length
prefixes, unknown opcodes, mid-message disconnects, and seeded random
garbage -- and assert the invariant that matters: the server keeps
serving well-formed clients afterwards.  The client proxy is exercised
the other way around: timeouts and dead sockets must surface as
:class:`TransientStorageError` (so the resilient transport can retry),
never as a crash or a hung filesystem.
"""

from __future__ import annotations

import random
import socket
import struct

import pytest

from repro.errors import StorageError, TransientStorageError
from repro.storage.blobs import data_blob
from repro.storage.resilient import ResilientTransport, RetryPolicy
from repro.storage.server import BatchOp, StorageServer
from repro.storage.wire import (MAX_BATCH_OPS, OP_BATCH, OP_DELETE,
                                OP_DELETE_FENCED, OP_DELETE_TAIL,
                                OP_DELETE_TAIL_FENCED, OP_EXISTS, OP_GET,
                                OP_PUT, OP_PUT_FENCED, OP_PUT_IF, REF_FLAG,
                                STATUS_ERROR, STATUS_OK,
                                RemoteStorageClient, SspServer,
                                _decode_batch_reply, _pack_fields,
                                _recv_message)

BLOB = data_blob(7, "b0")
PAYLOAD = b"sealed ciphertext bytes"


@pytest.fixture()
def live_server():
    backend = StorageServer()
    backend.put(BLOB, PAYLOAD)
    with SspServer(backend) as ssp:
        yield ssp


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _exchange(address, data: bytes, expect_reply: bool = True):
    """Send raw bytes on a fresh connection; return the reply or None."""
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.sendall(data)
        if not expect_reply:
            return None
        return _recv_message(sock)


#: A well-formed GET of BLOB: a frame of one.
_GET_BLOB = _frame(bytes([OP_BATCH]) + struct.pack(">I", 1) + bytes([OP_GET])
                   + struct.pack(">I", 4 + len(str(BLOB)))
                   + _pack_fields(str(BLOB).encode()))


def _serves(reply: bytes) -> bool:
    """Is ``reply`` the answer to ``_GET_BLOB``?"""
    return reply == (bytes([STATUS_OK]) + struct.pack(">I", 1)
                     + bytes([STATUS_OK]) + struct.pack(">I", len(PAYLOAD))
                     + PAYLOAD)


def _server_still_serves(ssp: SspServer) -> bool:
    """The canary: a well-formed GET on a fresh connection round-trips."""
    return _serves(_exchange(ssp.address, _GET_BLOB))


class TestServerSurvivesMalformedFrames:
    def test_empty_frame_gets_error_not_handler_death(self, live_server):
        # A length-0 frame has no opcode byte; the original handler did
        # message[0] before its try block and the thread died on
        # IndexError.  Now it must answer ERROR and keep the connection.
        with socket.create_connection(live_server.address, 2.0) as sock:
            sock.sendall(_frame(b""))
            reply = _recv_message(sock)
            assert reply[0] == STATUS_ERROR
            # Same connection still works after the bad frame.
            sock.sendall(_GET_BLOB)
            assert _serves(_recv_message(sock))

    def test_unknown_opcode(self, live_server):
        reply = _exchange(live_server.address, _frame(bytes([250])))
        assert reply[0] == STATUS_ERROR
        assert b"unknown opcode" in reply[1:]
        assert _server_still_serves(live_server)

    def test_truncated_length_header(self, live_server):
        _exchange(live_server.address, b"\x00\x00", expect_reply=False)
        assert _server_still_serves(live_server)

    def test_oversized_length_prefix(self, live_server):
        # Claims a 1 GiB message: the server must refuse (it cannot
        # resync, so dropping the connection is the correct move) and
        # other connections must be unaffected.
        _exchange(live_server.address,
                  struct.pack(">I", 1 << 30) + b"garbage",
                  expect_reply=False)
        assert _server_still_serves(live_server)

    def test_mid_message_disconnect(self, live_server):
        # Header promises 1000 body bytes, connection dies after 10.
        with socket.create_connection(live_server.address, 2.0) as sock:
            sock.sendall(struct.pack(">I", 1000) + b"x" * 10)
        assert _server_still_serves(live_server)

    def test_truncated_field_inside_body(self, live_server):
        # Valid opcode, but the field declares more bytes than follow.
        sub = _sub_op(OP_GET, struct.pack(">I", 500) + b"short")
        reply = _exchange(live_server.address, _batch_frame(1, sub))
        assert reply[0] == STATUS_ERROR
        assert _server_still_serves(live_server)

    def test_malformed_blob_id(self, live_server):
        sub = _sub_op(OP_GET, _pack_fields(b"\xff\xfe not/an-int/x"))
        reply = _exchange(live_server.address, _batch_frame(1, sub))
        assert reply[0] == STATUS_ERROR
        assert _server_still_serves(live_server)

    def test_put_with_missing_field(self, live_server):
        # PUT wants two fields; send one.
        sub = _sub_op(OP_PUT, _pack_fields(str(BLOB).encode()))
        reply = _exchange(live_server.address, _batch_frame(1, sub))
        assert reply[0] == STATUS_ERROR
        assert live_server.backend.get(BLOB) == PAYLOAD
        assert _server_still_serves(live_server)

    def test_a_top_level_single_opcode_is_an_error(self, live_server):
        # A single op travels as a frame of one; a bare sub-opcode at
        # the top level, well-formed body or not, is an unknown opcode
        # and applies nothing, and the connection survives it.
        bid = str(BLOB).encode()
        before = live_server.backend.raw_blobs()
        with socket.create_connection(live_server.address, 2.0) as sock:
            for opcode in (OP_PUT, OP_GET, OP_DELETE, OP_EXISTS, OP_PUT_IF,
                           OP_PUT_FENCED, OP_DELETE_FENCED):
                sock.sendall(_frame(bytes([opcode])
                                    + _pack_fields(bid, b"payload")))
                reply = _recv_message(sock)
                assert reply == (bytes([STATUS_ERROR, 0])
                                 + f"unknown opcode {opcode}".encode())
            sock.sendall(_GET_BLOB)
            assert _serves(_recv_message(sock))
        assert live_server.backend.raw_blobs() == before

    def test_seeded_random_garbage_storm(self, live_server):
        rng = random.Random(0xF00D)
        for _ in range(80):
            body = rng.randbytes(rng.randrange(0, 64))
            data = _frame(body)
            if rng.random() < 0.3:  # randomly truncate the frame too
                data = data[:rng.randrange(len(data) + 1)]
            try:
                _exchange(live_server.address, data,
                          expect_reply=bool(data) and rng.random() < 0.5)
            except (StorageError, OSError):
                pass  # replies to garbage may be anything; crashes not
        assert _server_still_serves(live_server)


def _sub_op(opcode: int, body: bytes) -> bytes:
    """One encoded batch sub-op: opcode byte, length, body."""
    return bytes([opcode]) + struct.pack(">I", len(body)) + body


def _batch_frame(count: int, subs: bytes) -> bytes:
    return _frame(bytes([OP_BATCH]) + struct.pack(">I", count) + subs)


def _put_sub(blob_id, payload: bytes) -> bytes:
    return _sub_op(OP_PUT, _pack_fields(str(blob_id).encode(), payload))


def _ref_sub(blob_id, index: int, offset: int, length: int,
             opcode: int = OP_PUT) -> bytes:
    """A sub-op whose payload field is a reference (``REF_FLAG``)."""
    return _sub_op(opcode | REF_FLAG, _pack_fields(
        str(blob_id).encode(), struct.pack(">III", index, offset, length)))


_VICTIM = data_blob(7, "ref-victim")
_BID = str(BLOB).encode()

#: (case, sub-ops) of frames whose payload reference must not resolve.
_BAD_REFS = [
    ("self", [_ref_sub(_VICTIM, 0, 0, 1)]),
    ("forward", [_ref_sub(_VICTIM, 1, 0, 1), _put_sub(BLOB, b"later")]),
    ("get_target", [_sub_op(OP_GET, _pack_fields(_BID)),
                    _ref_sub(_VICTIM, 0, 0, 1)]),
    ("delete_target", [_sub_op(OP_DELETE, _pack_fields(_BID)),
                       _ref_sub(_VICTIM, 0, 0, 1)]),
    ("beyond_payload", [_put_sub(BLOB, b"abc"),
                        _ref_sub(_VICTIM, 0, 2, 2)]),
    ("malformed", [_put_sub(BLOB, b"abc"), _sub_op(
        OP_PUT | REF_FLAG, _pack_fields(str(_VICTIM).encode(), b"\0" * 8))]),
    ("on_get", [_put_sub(BLOB, b"abc"), _sub_op(
        OP_GET | REF_FLAG, _pack_fields(_BID))]),
    ("on_put_if", [_put_sub(BLOB, b"abc"), _ref_sub(
        _VICTIM, 0, 0, 1, OP_PUT_IF)]),
    ("on_delete_fenced", [_put_sub(BLOB, b"abc"), _sub_op(
        OP_DELETE_FENCED | REF_FLAG,
        _pack_fields(_BID, _BID, struct.pack(">Q", 0)))]),
]


#: (case, a tail-delete sub-op that must not decode, what the ERROR says).
_BAD_TAILS = [
    ("truncated", _sub_op(OP_DELETE_TAIL, _pack_fields(_BID)[:-3]),
     b"truncated"),
    ("not_a_block", _sub_op(OP_DELETE_TAIL, _pack_fields(b"data/7/t:x")),
     b"not a block id"),
    ("fenced_not_a_block", _sub_op(OP_DELETE_TAIL_FENCED, _pack_fields(
        b"meta/7/-", b"lease/7/-", struct.pack(">Q", 0))),
     b"not a block id"),
]


class TestBatchFrameFuzz:
    """Malformed OP_BATCH frames: clean error, never crash, and --
    the invariant that matters for a multi-op frame -- never a silent
    half-apply: a frame that fails validation applies zero sub-ops."""

    def test_zero_count(self, live_server):
        reply = _exchange(live_server.address, _batch_frame(0, b""))
        assert reply[0] == STATUS_ERROR
        assert b"zero sub-ops" in reply[1:]
        assert _server_still_serves(live_server)

    def test_oversize_count(self, live_server):
        reply = _exchange(live_server.address,
                          _batch_frame(MAX_BATCH_OPS + 1, b""))
        assert reply[0] == STATUS_ERROR
        assert b"exceeds limit" in reply[1:]
        assert _server_still_serves(live_server)

    def test_count_promises_more_subops_than_sent(self, live_server):
        victim = data_blob(7, "half-apply-1")
        subs = _put_sub(victim, b"should never land")
        reply = _exchange(live_server.address, _batch_frame(3, subs))
        assert reply[0] == STATUS_ERROR
        # The valid first sub-op must NOT have been applied.
        assert not live_server.backend.exists(victim)
        assert _server_still_serves(live_server)

    def test_truncated_sub_op_body_rejects_whole_frame(self, live_server):
        victim = data_blob(7, "half-apply-2")
        good = _put_sub(victim, b"should never land")
        # Second sub-op header claims 500 body bytes, sends 5.
        bad = bytes([OP_PUT]) + struct.pack(">I", 500) + b"short"
        reply = _exchange(live_server.address,
                          _batch_frame(2, good + bad))
        assert reply[0] == STATUS_ERROR
        assert b"truncated" in reply[1:]
        assert not live_server.backend.exists(victim)
        assert _server_still_serves(live_server)

    def test_unknown_sub_opcode(self, live_server):
        victim = data_blob(7, "half-apply-3")
        subs = _put_sub(victim, b"x") + _sub_op(250, b"mystery")
        reply = _exchange(live_server.address, _batch_frame(2, subs))
        assert reply[0] == STATUS_ERROR
        assert b"unknown batch sub-opcode" in reply[1:]
        assert not live_server.backend.exists(victim)
        assert _server_still_serves(live_server)

    def test_nested_batch_is_rejected(self, live_server):
        # A batch inside a batch would defeat the op cap; the sub-op
        # decoder treats OP_BATCH as just another unknown sub-opcode.
        subs = _sub_op(OP_BATCH, struct.pack(">I", 1))
        reply = _exchange(live_server.address, _batch_frame(1, subs))
        assert reply[0] == STATUS_ERROR
        assert _server_still_serves(live_server)

    def test_trailing_garbage_rejects_whole_frame(self, live_server):
        victim = data_blob(7, "half-apply-4")
        subs = _put_sub(victim, b"x") + b"\xde\xad\xbe\xef"
        reply = _exchange(live_server.address, _batch_frame(1, subs))
        assert reply[0] == STATUS_ERROR
        assert b"trailing garbage" in reply[1:]
        assert not live_server.backend.exists(victim)
        assert _server_still_serves(live_server)

    def test_malformed_blob_id_inside_sub_op(self, live_server):
        victim = data_blob(7, "half-apply-5")
        bad = _sub_op(OP_GET, _pack_fields(b"not/a\xffblob"))
        subs = _put_sub(victim, b"x") + bad
        reply = _exchange(live_server.address, _batch_frame(2, subs))
        assert reply[0] == STATUS_ERROR
        assert not live_server.backend.exists(victim)
        assert _server_still_serves(live_server)

    def test_mixed_status_replies_round_trip(self, live_server):
        # Well-formed frame whose sub-ops answer differently: hit,
        # miss, and a write -- one frame, three statuses.
        client = RemoteStorageClient(*live_server.address, timeout=2.0)
        try:
            fresh = data_blob(7, "batch-new")
            replies = client.batch([
                BatchOp.get(BLOB),
                BatchOp.get(data_blob(7, "nope")),
                BatchOp.put(fresh, b"landed"),
            ])
            assert [r.status for r in replies] == ["ok", "missing", "ok"]
            assert replies[0].payload == PAYLOAD
            assert live_server.backend.get(fresh) == b"landed"
        finally:
            client.close()

    @pytest.mark.parametrize("case,sub,message", _BAD_TAILS,
                             ids=[case for case, _, _ in _BAD_TAILS])
    def test_a_bad_tail_delete_rejects_whole_frame(self, live_server,
                                                   case, sub, message):
        """A tail delete cut short, or of an id that names no block: a
        top-level ERROR, nothing applied (not the put before it, not a
        block of the run), and the same connection serves on."""
        before = live_server.backend.raw_blobs()
        frame = _batch_frame(2, _put_sub(data_blob(7, "b1"), b"x") + sub)
        with socket.create_connection(live_server.address,
                                      timeout=2.0) as sock:
            sock.sendall(frame)
            reply = _recv_message(sock)
            sock.sendall(_GET_BLOB)
            assert _serves(_recv_message(sock))
        assert reply[0] == STATUS_ERROR
        assert message in reply[1:]
        assert live_server.backend.raw_blobs() == before

    @pytest.mark.parametrize("case,subs", _BAD_REFS,
                             ids=[case for case, _ in _BAD_REFS])
    def test_a_bad_payload_reference_rejects_whole_frame(self, live_server,
                                                         case, subs):
        """A reference to itself, to a later or payload-less sub-op, out
        of its target's bounds, or on an opcode other than PUT /
        PUT_FENCED: a top-level ERROR, and not one sub-op applied."""
        before = live_server.backend.raw_blobs()
        reply = _exchange(live_server.address,
                          _batch_frame(len(subs), b"".join(subs)))
        assert reply[0] == STATUS_ERROR
        assert live_server.backend.raw_blobs() == before
        assert _server_still_serves(live_server)

    def test_a_payload_reference_resolves_before_apply(self, live_server):
        """A well-formed reference lands the slice it names, fenced or
        not, and the backend only ever sees the full payload."""
        fresh = data_blob(7, "ref-fresh")
        fenced = data_blob(7, "ref-fenced")
        fence = _pack_fields(str(fenced).encode(),
                             str(data_blob(7, "no-lease")).encode(),
                             struct.pack(">Q", 0),
                             struct.pack(">III", 0, 11, 4))
        subs = (_put_sub(data_blob(7, "ref-intent"), b"head:fresh:sums")
                + _ref_sub(fresh, 0, 5, 5)
                + _sub_op(OP_PUT_FENCED | REF_FLAG, fence))
        reply = _exchange(live_server.address, _batch_frame(3, subs))
        assert reply[0] == STATUS_OK
        assert live_server.backend.get(fresh) == b"fresh"
        assert live_server.backend.get(fenced) == b"sums"

    def test_seeded_garbage_batch_storm(self, live_server):
        rng = random.Random(0xBA7C)
        before = dict(live_server.backend.raw_blobs())
        for _ in range(60):
            body = bytes([OP_BATCH]) + rng.randbytes(rng.randrange(0, 96))
            try:
                reply = _exchange(live_server.address, _frame(body))
            except (StorageError, OSError):
                continue
            # Random bytes never parse into a full valid frame here;
            # the server must answer a clean error every time.
            assert reply[0] == STATUS_ERROR
        assert live_server.backend.raw_blobs() == before
        assert _server_still_serves(live_server)


class TestBatchReplyDecode:
    """Client-side strictness: a malicious/buggy SSP reply must raise
    a clean StorageError, never crash or mis-map sub-replies."""

    def _reply(self, count: int, subs: bytes) -> bytes:
        return struct.pack(">I", count) + subs

    def _sub_reply(self, code: int, payload: bytes) -> bytes:
        return bytes([code]) + struct.pack(">I", len(payload)) + payload

    def test_count_mismatch(self):
        raw = self._reply(2, self._sub_reply(STATUS_OK, b""))
        with pytest.raises(StorageError, match="count"):
            _decode_batch_reply(raw, expected=1)

    def test_missing_count(self):
        with pytest.raises(StorageError, match="missing count"):
            _decode_batch_reply(b"\x00\x00", expected=1)

    def test_unknown_sub_status(self):
        raw = self._reply(1, self._sub_reply(99, b""))
        with pytest.raises(StorageError, match="unknown batch sub-status"):
            _decode_batch_reply(raw, expected=1)

    def test_truncated_sub_reply_payload(self):
        raw = self._reply(1, bytes([STATUS_OK])
                          + struct.pack(">I", 500) + b"short")
        with pytest.raises(StorageError, match="truncated"):
            _decode_batch_reply(raw, expected=1)

    def test_trailing_garbage(self):
        raw = self._reply(1, self._sub_reply(STATUS_OK, b"fine")) + b"!!"
        with pytest.raises(StorageError, match="trailing garbage"):
            _decode_batch_reply(raw, expected=1)

    def test_error_reply_missing_transient_flag(self):
        raw = self._reply(1, self._sub_reply(STATUS_ERROR, b""))
        with pytest.raises(StorageError, match="flag byte"):
            _decode_batch_reply(raw, expected=1)

    def test_fenced_reply_with_short_epoch(self):
        from repro.storage.wire import STATUS_FENCED
        raw = self._reply(1, self._sub_reply(STATUS_FENCED, b"\x01" * 7))
        with pytest.raises(StorageError, match="epoch"):
            _decode_batch_reply(raw, expected=1)

    def test_seeded_garbage_replies_never_crash(self):
        rng = random.Random(0xDEC0DE)
        for _ in range(200):
            raw = rng.randbytes(rng.randrange(0, 64))
            try:
                _decode_batch_reply(raw, expected=rng.randrange(0, 4))
            except StorageError:
                pass  # clean rejection is the contract


class TestClientTransientFaults:
    def test_timeout_is_transient_error(self):
        # A server that accepts but never replies: the proxy must raise
        # the retryable error, not hang or crash (regression for the
        # socket-timeout crash).
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            client = RemoteStorageClient(*listener.getsockname(),
                                         timeout=0.2)
            with pytest.raises(TransientStorageError):
                client.get(BLOB)
            client.close()

    def test_dead_socket_is_transient_and_reconnects(self, live_server):
        client = RemoteStorageClient(*live_server.address, timeout=2.0)
        assert client.get(BLOB) == PAYLOAD
        client._sock.close()  # the OS yanks the connection
        with pytest.raises(TransientStorageError):
            client.get(BLOB)
        # Lazy reconnect: the very next call opens a new socket.
        assert client.get(BLOB) == PAYLOAD
        client.close()

    def test_resilient_transport_rides_over_reconnect(self, live_server):
        # Composed stack: transport + remote proxy.  A dead socket costs
        # one retry, not an exception to the filesystem above.
        client = RemoteStorageClient(*live_server.address, timeout=2.0)
        transport = ResilientTransport(
            client, RetryPolicy(base_delay_s=0.0, jitter=False))
        client._sock.close()
        assert transport.get(BLOB) == PAYLOAD
        assert transport.retries == 1
        client.close()

    def test_server_restart_window(self):
        # Outage: server goes away entirely, comes back on the same
        # port; the proxy reconnects instead of staying wedged.
        backend = StorageServer()
        backend.put(BLOB, PAYLOAD)
        ssp = SspServer(backend).start()
        host, port = ssp.address
        client = RemoteStorageClient(host, port, timeout=2.0)
        assert client.get(BLOB) == PAYLOAD
        ssp.stop()
        client._sock.close()  # connection torn down with the server
        with pytest.raises(TransientStorageError):
            client.get(BLOB)  # dead socket
        with pytest.raises(TransientStorageError):
            client.get(BLOB)  # reconnect refused: port is closed
        ssp2 = SspServer(backend, host=host, port=port).start()
        try:
            assert client.get(BLOB) == PAYLOAD
        finally:
            client.close()
            ssp2.stop()
