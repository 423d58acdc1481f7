"""Wire ledger taken from outside the client.

``SharoesFilesystem.request_count`` and the cost model both miss traffic
(``_exists`` issues a real ``server.exists`` round trip per create that
neither records), so the benchmark counts at the ``StorageServer``
interface itself: a :class:`WireCounter` is handed to each client through
the ``SharoesFilesystem(server=...)`` seam and sees every frame, every
sub-op and every payload byte, split by blob kind.
"""

from __future__ import annotations

from repro.errors import CasConflictError
from repro.storage.resilient import ServerWrapper

#: blob classes the ledger splits bytes by.  Directory tables and file
#: blocks share the SSP kind ``data`` and are told apart by selector.
KINDS = ("meta", "table", "data", "journal", "lease", "other")

_EPOCH_BYTES = 8


def blob_class(blob_id) -> str:
    kind = blob_id.kind
    if kind == "data":
        return "table" if blob_id.selector.startswith("t:") else "data"
    if kind in ("meta", "journal", "lease"):
        return kind
    return "other"


class WireCounter(ServerWrapper):
    """Counts frames, sub-ops and bytes crossing to the wrapped server.

    One call on this object is one wire frame (a batch is one frame
    carrying several sub-ops).  Up bytes are blob ids plus payloads sent;
    down bytes are payloads returned.
    """

    def __init__(self, inner):
        super().__init__(inner, name=f"counted({inner.name})")
        self.frames = 0
        self.subops = 0
        self.lease_cas_frames = 0
        self.up = dict.fromkeys(KINDS, 0)
        self.down = dict.fromkeys(KINDS, 0)
        #: frames carrying at least one sub-op of the kind.
        self.touching = dict.fromkeys(KINDS, 0)

    def snapshot(self) -> dict[str, int]:
        out = {"frames": self.frames, "subops": self.subops,
               "lease_cas_frames": self.lease_cas_frames}
        for kind in KINDS:
            out[f"up.{kind}"] = self.up[kind]
            out[f"down.{kind}"] = self.down[kind]
            out[f"touching.{kind}"] = self.touching[kind]
        return out

    # -- single-op frames ----------------------------------------------------

    def _frame(self, blob_id, *sent: bytes | None) -> str:
        kind = blob_class(blob_id)
        self.frames += 1
        self.subops += 1
        self.touching[kind] += 1
        self.up[kind] += len(str(blob_id)) + sum(
            len(part) for part in sent if part)
        return kind

    def put(self, blob_id, payload):
        self._frame(blob_id, payload)
        self.inner.put(blob_id, payload)

    def get(self, blob_id):
        kind = self._frame(blob_id)
        payload = self.inner.get(blob_id)
        self.down[kind] += len(payload)
        return payload

    def delete(self, blob_id):
        self._frame(blob_id)
        self.inner.delete(blob_id)

    def exists(self, blob_id):
        kind = self._frame(blob_id)
        self.down[kind] += 1
        return self.inner.exists(blob_id)

    def put_if(self, blob_id, payload, expected):
        kind = self._frame(blob_id, payload, expected)
        if kind == "lease":
            self.lease_cas_frames += 1
        try:
            self.inner.put_if(blob_id, payload, expected)
        except CasConflictError as exc:
            self.down[kind] += len(exc.current or b"")
            raise

    def put_fenced(self, blob_id, payload, fence, epoch):
        kind = self._frame(blob_id, payload)
        self.up[kind] += len(str(fence)) + _EPOCH_BYTES
        self.inner.put_fenced(blob_id, payload, fence, epoch)

    def delete_fenced(self, blob_id, fence, epoch):
        kind = self._frame(blob_id)
        self.up[kind] += len(str(fence)) + _EPOCH_BYTES
        self.inner.delete_fenced(blob_id, fence, epoch)

    # -- batch frames --------------------------------------------------------

    def batch(self, ops):
        self.frames += 1
        self.subops += len(ops)
        kinds = [blob_class(op.blob_id) for op in ops]
        for kind in set(kinds):
            self.touching[kind] += 1
        lease_cas = False
        for op, kind in zip(ops, kinds):
            sent = len(str(op.blob_id)) + len(op.payload or b"")
            if op.expected is not None:
                sent += len(op.expected)
            if op.fence is not None:
                sent += len(str(op.fence)) + _EPOCH_BYTES
            self.up[kind] += sent
            lease_cas = lease_cas or (kind == "lease"
                                      and op.kind == "put_if")
        if lease_cas:
            self.lease_cas_frames += 1
        replies = self.inner.batch(ops)
        for kind, reply in zip(kinds, replies):
            if reply.payload:
                self.down[kind] += len(reply.payload)
        return replies
