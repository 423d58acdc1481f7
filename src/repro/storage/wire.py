"""The SSP data-serving tool over real TCP sockets (paper section IV).

The paper's second component is "the SSP component for serving data from
the remote site", which its prototype reaches over TCP/IP.  This module
provides exactly that: a threaded socket server exposing any
:class:`~repro.storage.server.StorageServer` (including the fault
variants), and a client-side proxy implementing the same put/get/delete
interface so a :class:`~repro.fs.client.SharoesFilesystem` can mount a
volume whose blobs genuinely cross a network boundary.

Wire format (all integers big-endian).  There is one request form, a
batch frame, and one reply form; a single op is a frame of one:

    request  := u32 length | u8 OP_BATCH (8) | u32 count |
                count x (u8 sub-opcode, u32 body-len, body)
    response := u32 length | u8 status | payload
                OK (0):    u32 count | count x (u8 sub-status,
                           u32 payload-len, payload)
                ERROR (2): u8 transient flag | message

Sub-op bodies -- each kind's fields in the order
:data:`~repro.storage.server.SUB_FIELDS` lists them, the one statement
the codec reads -- and the payloads of their sub-replies:

    PUT        1: blob-id, payload      -> OK
    GET        2: blob-id               -> OK + payload | MISSING (1)
    DELETE     3: blob-id               -> OK
    EXISTS     4: blob-id               -> OK + 1 byte (0/1)
    PUT_IF     5: blob-id, expected*, payload
                 -> OK | CONFLICT (3) + current*
    PUT_FENCED 6: blob-id, fence-id, u64 epoch, payload
                 -> OK | FENCED (4) + u64 current epoch
    DEL_FENCED 7: blob-id, fence-id, u64 epoch
                 -> OK | FENCED (4) + u64 current epoch
    DEL_TAIL   9: block-id              -> OK
    DEL_TAIL_FENCED 10: block-id, fence-id, u64 epoch
                 -> OK | FENCED (4) + u64 current epoch

(A tail delete removes the named file block and each next block of its
inode for as long as one is stored; its id must be a block id,
``data/<inode>/b<index>``, or the frame is malformed.)

(``*`` marks a presence-prefixed field: one flag byte, 0 = absent blob,
1 = the remaining bytes are the value -- CAS must distinguish "expect
absent" from "expect empty".)

**Payload references**: ``REF_FLAG`` (0x40) on a PUT or PUT_FENCED
sub-opcode replaces the payload field's bytes with ``u32 index | u32
offset | u32 length``: the payload is that slice of the payload of
sub-op ``index``, an earlier put of the same frame.  A
journaled mutation's apply names its bytes inside the intent this way,
so each payload crosses the link once; :func:`payload_refs` is the one
place that decides, for the codec and for every byte count.  The server
resolves references while it validates the frame: backends only ever
see full payloads.

A batch frame is validated *in full* before any sub-op touches the
store: a truncated sub-op, a zero or oversize count, a nested batch, an
unknown sub-opcode, a tail delete of an id that names no block, or a
reference to itself, to a later or payload-less
sub-op, out of its target's bounds or on another opcode earns a
top-level ERROR with nothing applied, and so does any top-level
opcode but ``OP_BATCH``.  Sub-status UNATTEMPTED (5) marks the tail
after the batch stopped at a failed or fenced sub-op.  An ERROR carries
one transient-flag byte before its message, as a sub-reply and as a
whole-frame reply alike, so a backend's transient refusal (a flaky
store, an outage) reaches the client as
:class:`~repro.errors.TransientStorageError`, which a retrying
transport above it retries.

Blob ids travel as their string form (``kind/inode/selector``).  The
server performs no computation on payloads -- it cannot: they are
ciphertext.  Simulated benchmark costs remain the job of the cost model;
this layer exists to demonstrate the deployment shape, and the test
suite runs a real loopback server.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import replace

from ..errors import StorageError, TransientStorageError
from .blobs import BlobId
from .server import (DELETE_KINDS, PUT_KINDS, SUB_FIELDS, TAIL_KINDS,
                     BatchOp, BatchReply, OpMethods, StorageServer,
                     reply_value, tail_start)

OP_PUT = 1
OP_GET = 2
OP_DELETE = 3
OP_EXISTS = 4
OP_PUT_IF = 5
OP_PUT_FENCED = 6
OP_DELETE_FENCED = 7
OP_BATCH = 8
OP_DELETE_TAIL = 9
OP_DELETE_TAIL_FENCED = 10

#: Bit of a batch PUT / PUT_FENCED sub-opcode: the payload field is a
#: reference, ``u32 index | u32 offset | u32 length`` into the payload
#: of an earlier sub-op of the frame.
REF_FLAG = 0x40
_REF = struct.Struct(">III")
#: The sub-op kinds that may send a reference: every put kind but the
#: CAS (a reference may point into any put kind's payload).
_REF_KINDS = PUT_KINDS - {"put_if"}

STATUS_OK = 0
STATUS_MISSING = 1
STATUS_ERROR = 2
STATUS_CONFLICT = 3
STATUS_FENCED = 4
#: Sub-reply only: the batch stopped before reaching this sub-op.
STATUS_UNATTEMPTED = 5

#: Hard cap on sub-ops per OP_BATCH frame (anti-amplification).
MAX_BATCH_OPS = 1024

_KIND_TO_OPCODE = {
    "put": OP_PUT, "get": OP_GET, "delete": OP_DELETE,
    "exists": OP_EXISTS, "put_if": OP_PUT_IF,
    "put_fenced": OP_PUT_FENCED, "delete_fenced": OP_DELETE_FENCED,
    "delete_tail": OP_DELETE_TAIL,
    "delete_tail_fenced": OP_DELETE_TAIL_FENCED,
}
_OPCODE_TO_KIND = {v: k for k, v in _KIND_TO_OPCODE.items()}

_STATUS_TO_CODE = {
    "ok": STATUS_OK, "missing": STATUS_MISSING, "error": STATUS_ERROR,
    "conflict": STATUS_CONFLICT, "fenced": STATUS_FENCED,
    "unattempted": STATUS_UNATTEMPTED,
}
_CODE_TO_STATUS = {v: k for k, v in _STATUS_TO_CODE.items()}


def _pack_presence(value: bytes | None) -> bytes:
    """One flag byte + payload: None (absent blob) vs b'' are distinct."""
    return b"\x00" if value is None else b"\x01" + value


def _unpack_presence(raw) -> bytes | None:
    if not raw:
        raise StorageError("empty presence-prefixed field")
    if raw[0] == 0:
        if len(raw) != 1:
            raise StorageError("malformed absent-value field")
        return None
    return bytes(raw[1:])

_MAX_MESSAGE = 64 * 1024 * 1024


def _pack_fields(*fields: bytes, out: bytearray | None = None) -> bytearray:
    """``fields``, each behind its u32 length, appended to ``out`` (a new
    buffer by default)."""
    out = bytearray() if out is None else out
    for field in fields:
        out += struct.pack(">I", len(field))
        out += field
    return out


def _unpack_fields(raw, count: int) -> list:
    """``count`` length-prefixed fields of ``raw``; slices of a
    ``memoryview`` are views, not copies."""
    fields = []
    offset = 0
    for _ in range(count):
        if offset + 4 > len(raw):
            raise StorageError("truncated wire message")
        (length,) = struct.unpack_from(">I", raw, offset)
        offset += 4
        if offset + length > len(raw):
            raise StorageError("truncated wire field")
        fields.append(raw[offset:offset + length])
        offset += length
    return fields


def _parse_epoch(raw) -> int:
    if len(raw) != 8:
        raise StorageError(f"malformed epoch field ({len(raw)} bytes)")
    return struct.unpack(">Q", raw)[0]


def _parse_blob_id(raw) -> BlobId:
    try:
        kind, inode, selector = str(raw, "utf-8").split("/", 2)
        return BlobId(kind=kind, inode=int(inode), selector=selector)
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"malformed blob id on wire: {bytes(raw)!r}") from exc


#: Each :data:`~repro.storage.server.SUB_FIELDS` field's wire form: how
#: it is read off the op, and parsed off the wire.
_FIELD_CODEC = {
    "blob_id": (lambda op: str(op.blob_id).encode(), _parse_blob_id),
    "expected": (lambda op: _pack_presence(op.expected), _unpack_presence),
    "fence": (lambda op: str(op.fence).encode(), _parse_blob_id),
    "epoch": (lambda op: struct.pack(">Q", op.epoch or 0), _parse_epoch),
    "payload": (lambda op: op.payload or b"", bytes),
}


# -- OP_BATCH codec -----------------------------------------------------------

def payload_refs(ops) -> list[tuple[int, int, int] | None]:
    """How each sub-op of one frame sends its payload: the ``(index,
    offset, length)`` slice of an earlier sub-op's payload it goes as,
    or None to send it inline.

    A put or put_fenced whose ``ref`` names a blob put earlier in *this*
    list, and whose payload that put's payload contains, goes as a
    reference; anything else inlines.  So a frame split at
    ``MAX_BATCH_OPS``, a suffix sent again and a replay inline by
    construction.
    """
    refs: list[tuple[int, int, int] | None] = []
    latest: dict[BlobId, int] = {}  # blob -> its nearest earlier put
    ends: dict[int, int] = {}       # target -> end of its last slice
    for index, op in enumerate(ops):
        at = latest.get(op.ref) if op.kind in _REF_KINDS else None
        payload = op.payload or b""
        offset = -1
        if at is not None:
            # Slices of one target usually follow each other: look where
            # the last one ended before searching the whole payload.
            target, hint = ops[at].payload, ends.get(at, 0)
            offset = (hint if target.startswith(payload, hint)
                      else target.find(payload))
        if offset < 0:
            refs.append(None)
        else:
            refs.append((at, offset, len(payload)))
            ends[at] = offset + len(payload)
        if op.kind in PUT_KINDS and op.payload is not None:
            latest[op.blob_id] = index
    return refs


def payload_bytes(ops, refs=None) -> list[int]:
    """Uplink payload bytes of each sub-op of one frame, as sent
    (``refs``: the frame's :func:`payload_refs`, when known)."""
    refs = payload_refs(ops) if refs is None else refs
    return [op.sent_bytes() if ref is None else _REF.size
            for op, ref in zip(ops, refs)]


def _encode_sub_body(op: BatchOp,
                     ref: tuple[int, int, int] | None = None,
                     out: bytearray | None = None) -> bytearray:
    """One sub-op's fields (:data:`SUB_FIELDS`), appended to ``out``
    (:func:`_pack_fields`); a ``ref`` replaces the payload field."""
    fields = SUB_FIELDS.get(op.kind)
    if fields is None:
        raise StorageError(f"unknown batch sub-op kind {op.kind!r}")
    return _pack_fields(*[
        _REF.pack(*ref) if ref is not None and name == "payload"
        else _FIELD_CODEC[name][0](op) for name in fields], out=out)


def _decode_sub_body(opcode: int, body,
                     earlier: list[BatchOp] = ()) -> BatchOp:
    kind = _OPCODE_TO_KIND.get(opcode & ~REF_FLAG)
    if kind is None:
        raise StorageError(f"unknown batch sub-opcode {opcode}")
    if opcode & REF_FLAG and kind not in _REF_KINDS:
        raise StorageError(f"payload reference on batch sub-opcode {opcode}")
    op = _decode_sub_fields(kind, body)
    if opcode & REF_FLAG:
        op = replace(op, payload=_resolve_ref(op.payload, earlier))
    return op


def _resolve_ref(raw: bytes, earlier: list[BatchOp]) -> bytes:
    """The payload a reference names, in the sub-ops decoded so far."""
    if len(raw) != _REF.size:
        raise StorageError(f"malformed payload reference ({len(raw)} bytes)")
    index, offset, length = _REF.unpack(raw)
    if index >= len(earlier):
        raise StorageError(f"payload reference to sub-op {index}, "
                           f"not an earlier one")
    target = earlier[index]
    if target.kind not in PUT_KINDS:
        raise StorageError(f"payload reference to a {target.kind} sub-op")
    if offset + length > len(target.payload):
        raise StorageError(f"payload reference [{offset}:+{length}] "
                           f"beyond sub-op {index}'s payload")
    return target.payload[offset:offset + length]


def _decode_sub_fields(kind: str, body) -> BatchOp:
    """A sub-op of ``kind`` from its fields (:data:`SUB_FIELDS`)."""
    names = SUB_FIELDS[kind]
    fields = {}
    for name, raw in zip(names, _unpack_fields(body, len(names))):
        fields[name] = _FIELD_CODEC[name][1](raw)
        if name == "blob_id" and kind in TAIL_KINDS:
            tail_start(fields[name])  # a tail delete must name a block
    return BatchOp(kind, **fields)


def _encode_batch_request(ops, refs) -> bytearray:
    """The OP_BATCH request -- opcode, count, sub-ops -- built in one
    buffer, each field copied into it once; ``refs`` is the frame's
    :func:`payload_refs`."""
    out = bytearray(struct.pack(">BI", OP_BATCH, len(ops)))
    for op, ref in zip(ops, refs):
        out.append(_KIND_TO_OPCODE[op.kind]
                   | (0 if ref is None else REF_FLAG))
        start = len(out)
        out += bytes(4)  # the body length, known once the body is in
        _encode_sub_body(op, ref, out)
        struct.pack_into(">I", out, start, len(out) - start - 4)
    return out


def _decode_batch_request(body) -> list[BatchOp]:
    """Strictly parse an OP_BATCH body; any defect rejects the frame whole.

    ``body`` may be a ``memoryview``: sub-op bodies and fields are then
    views into it, and a payload is copied once, into its own ``bytes``.

    Validation happens *before* application so a malformed frame can
    never half-apply: zero or oversize counts, truncated sub-ops,
    trailing garbage, nested batches, unknown sub-opcodes and bad
    payload references all raise.  References resolve here, so the
    backend gets full payloads.
    """
    if len(body) < 4:
        raise StorageError("batch frame missing count")
    (count,) = struct.unpack_from(">I", body, 0)
    if count == 0:
        raise StorageError("batch frame with zero sub-ops")
    if count > MAX_BATCH_OPS:
        raise StorageError(
            f"batch count {count} exceeds limit {MAX_BATCH_OPS}")
    ops: list[BatchOp] = []
    offset = 4
    for _ in range(count):
        if offset + 5 > len(body):
            raise StorageError("truncated batch sub-op header")
        opcode = body[offset]
        (length,) = struct.unpack_from(">I", body, offset + 1)
        offset += 5
        if offset + length > len(body):
            raise StorageError("truncated batch sub-op body")
        ops.append(_decode_sub_body(opcode, body[offset:offset + length],
                                    ops))
        offset += length
    if offset != len(body):
        raise StorageError("trailing garbage after batch sub-ops")
    return ops


def _encode_sub_reply(reply: BatchReply, out: bytearray) -> None:
    """One sub-reply -- status, length, payload -- appended to ``out``."""
    if reply.status == "ok":
        payload = reply.payload or b""
    elif reply.status == "conflict":
        payload = _pack_presence(reply.payload)
    elif reply.status == "fenced":
        payload = struct.pack(">Q", reply.epoch or 0)
    elif reply.status == "error":
        payload = _error_payload(reply.message, reply.transient)
    else:  # missing / unattempted
        payload = b""
    out.append(_STATUS_TO_CODE[reply.status])
    out += struct.pack(">I", len(payload))
    out += payload


def _error_payload(message: str, transient: bool) -> bytes:
    """An ERROR's payload, whole-frame or sub-reply: the transient flag
    byte, then the message."""
    return bytes([1 if transient else 0]) + message.encode()


def _error_reply(raw: bytes) -> BatchReply:
    """The inverse of :func:`_error_payload`."""
    if not raw:
        raise StorageError("error reply missing flag byte")
    return BatchReply("error", message=raw[1:].decode(errors="replace"),
                      transient=bool(raw[0]))


def _encode_batch_reply(replies, out: bytearray | None = None) -> bytearray:
    """The OK payload -- count, sub-replies -- appended to ``out`` (a new
    buffer by default), each payload copied into it once."""
    out = bytearray() if out is None else out
    out += struct.pack(">I", len(replies))
    for reply in replies:
        _encode_sub_reply(reply, out)
    return out


def _decode_batch_reply(payload: bytes, expected: int) -> list[BatchReply]:
    """Client-side strict parse of a batch reply (defects never crash)."""
    if len(payload) < 4:
        raise StorageError("batch reply missing count")
    (count,) = struct.unpack_from(">I", payload, 0)
    if count != expected:
        raise StorageError(
            f"batch reply count {count} != request count {expected}")
    replies: list[BatchReply] = []
    offset = 4
    for _ in range(count):
        if offset + 5 > len(payload):
            raise StorageError("truncated batch sub-reply header")
        code = payload[offset]
        status = _CODE_TO_STATUS.get(code)
        if status is None:
            raise StorageError(f"unknown batch sub-status {code}")
        (length,) = struct.unpack_from(">I", payload, offset + 1)
        offset += 5
        if offset + length > len(payload):
            raise StorageError("truncated batch sub-reply payload")
        raw = payload[offset:offset + length]
        offset += length
        if status == "ok":
            replies.append(BatchReply("ok", payload=raw))
        elif status == "conflict":
            replies.append(BatchReply("conflict",
                                      payload=_unpack_presence(raw)))
        elif status == "fenced":
            replies.append(BatchReply("fenced", epoch=_parse_epoch(raw)))
        elif status == "error":
            replies.append(_error_reply(raw))
        else:  # missing / unattempted
            replies.append(BatchReply(status))
    if offset != len(payload):
        raise StorageError("trailing garbage after batch sub-replies")
    return replies


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            # Transient: the peer (or the network) dropped the
            # connection; a fresh connection may well succeed.
            raise TransientStorageError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_message(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > _MAX_MESSAGE:
        raise StorageError("wire message exceeds limit")
    return _recv_exact(sock, length)


def _send_message(sock: socket.socket, body) -> None:
    """``body`` behind its u32 length, gathered into one ``sendmsg``
    (never copied to join them, never split into two sends that would
    meet Nagle and delayed ACK); a partial send resumes where it
    stopped."""
    views = [memoryview(struct.pack(">I", len(body))), memoryview(body)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if views:
            views[0] = views[0][sent:]


def dispatch_message(backend: StorageServer, message: bytes) -> bytearray:
    """One request frame body -> one response frame body.

    The request is parsed through one ``memoryview`` and the response
    built in one buffer: a payload is copied once on each side.

    An ``OP_BATCH`` frame is validated in full, then applied by
    ``backend.batch``; anything else -- an empty frame, another opcode,
    a malformed frame, a backend refusing the frame whole -- is one
    top-level ERROR, transient exactly when the refusal was.
    """
    try:
        if not message:
            raise StorageError("empty request frame")
        if message[0] != OP_BATCH:
            raise StorageError(f"unknown opcode {message[0]}")
        replies = backend.batch(
            _decode_batch_request(memoryview(message)[1:]))
        return _encode_batch_reply(replies, bytearray([STATUS_OK]))
    except Exception as exc:  # surfaced to the client as ERROR
        return bytearray([STATUS_ERROR]) + _error_payload(
            str(exc), isinstance(exc, TransientStorageError))


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        backend: StorageServer = self.server.backend  # type: ignore
        while True:
            try:
                message = _recv_message(self.request)
            except (StorageError, OSError):
                return  # client hung up / sent garbage framing
            response = dispatch_message(backend, message)
            try:
                _send_message(self.request, response)
            except OSError:
                return  # client vanished mid-reply; thread stays clean


class SspServer:
    """Threaded TCP front-end for a storage backend."""

    def __init__(self, backend: StorageServer, host: str = "127.0.0.1",
                 port: int = 0):
        self.backend = backend

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._server.backend = backend  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> "SspServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="ssp-server")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SspServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class RemoteStorageClient(OpMethods, StorageServer):
    """Client-side proxy: the StorageServer interface over a socket.

    Subclasses :class:`StorageServer` so everything that takes a server
    (volumes, clients, migration) works unchanged; local stats track the
    client's view of its own traffic.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        super().__init__(name=f"remote-ssp@{host}:{port}")
        self._lock = threading.Lock()
        self._addr = (host, port)
        self._timeout = timeout
        # Connect eagerly so misconfiguration fails at construction; the
        # socket reconnects lazily after any transient failure.
        self._sock: socket.socket | None = socket.create_connection(
            self._addr, timeout=timeout)

    def close(self) -> None:
        """Drop the socket; the next request opens a fresh one.

        Also the only safe recovery after a timeout or a mid-message
        disconnect: the stream position is unknown there (a late
        response would be mis-framed as the next reply).
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, body: bytes) -> bytes:
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self._addr, timeout=self._timeout)
                _send_message(self._sock, body)
                return _recv_message(self._sock)
            except TransientStorageError:
                self.close()
                raise
            except OSError as exc:
                # Covers socket.timeout and connection resets: report as
                # retryable instead of crashing the filesystem client.
                self.close()
                raise TransientStorageError(
                    f"{self.name}: {exc}") from exc

    @staticmethod
    def _check(response: bytes) -> bytes:
        """An OK response's payload; an ERROR raises, transient exactly
        when its flag says so."""
        status = response[0] if response else None
        if status == STATUS_OK:
            return response[1:]
        if status == STATUS_ERROR:
            _error_reply(response[1:]).raise_for_status()
        raise StorageError(f"SSP response with status {status}")

    def _record(self, op: BatchOp, reply: BatchReply, sent: int) -> None:
        """Local stats for one *acknowledged* sub-op: a refused, fenced
        or timed-out request is not traffic served.  ``sent`` is the
        payload bytes the op put on the wire."""
        if reply.status == "ok":
            if op.kind in PUT_KINDS:
                self.stats.record_put(op.blob_id.kind, sent)
            elif op.kind == "get":
                self.stats.record_get(op.blob_id.kind,
                                      len(reply.payload or b""))
            elif op.kind in DELETE_KINDS:
                # Bytes freed are unknowable through the wire protocol: 0.
                self.stats.record_delete(op.blob_id.kind)
        elif reply.status == "missing" and op.kind == "get":
            self.stats.record_miss()

    # The base class implements the named methods against its own dict;
    # the proxy ships every one of them to the real backend instead, as
    # a frame of one.

    def _forward(self, op: BatchOp):
        (reply,) = self.batch([op])
        reply.raise_for_status()
        return reply_value(op, reply)

    def batch(self, ops) -> list[BatchReply]:
        """Ship all sub-ops in one OP_BATCH frame: one round trip."""
        if not ops:
            return []
        refs = payload_refs(ops)
        payload = self._check(self._roundtrip(
            _encode_batch_request(ops, refs)))
        replies = _decode_batch_reply(payload, len(ops))
        for op, reply, sent in zip(ops, replies, payload_bytes(ops, refs)):
            self._record(op, reply, sent)
        return replies

    # The proxy cannot enumerate or audit the remote store.
    def list_kind(self, kind: str):
        raise StorageError("remote SSP does not support enumeration")

    def blob_count(self) -> int:
        raise StorageError("remote SSP does not expose its census")

    def stored_bytes(self, kind: str | None = None) -> int:
        raise StorageError("remote SSP does not expose its census")

    def raw_blobs(self) -> dict:
        raise StorageError("remote SSP does not expose raw blobs")
