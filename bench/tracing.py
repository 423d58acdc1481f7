"""Traced run: per-layer self time and counts, measured from outside.

The program is not edited.  Benchmark-owned wrappers are installed around
public functions of each layer (module = layer), patched where the
*caller* binds the name (``repro.caps.record.new_signature_pair``, not
only ``repro.crypto.keys``).  Each wrapper pushes a frame on a per-thread
stack and records name, layer, start, end and parent; a span's self time
is its duration minus its children's.  Aggregates are kept per
(layer, group, function, op kind) plus the first RAW_SPAN_LIMIT raw
spans, all in memory, and written out when the run ends.

Timings are reported as *shares* of the traced stretch's wall time
(dimensionless, so machine drift cancels); the shares of all groups plus
``harness.untraced_share`` (time under no wrapper: the harness's own
checks) sum to 1.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from typing import Callable

from .harness import harness_notes

RAW_SPAN_LIMIT = 2000

#: op kinds that get their own ``op.<kind>.*`` per-layer metrics.
OP_KINDS = ("create", "unlink", "append", "read", "write", "pwrite",
            "getattr", "readdir", "chmod", "rekey", "rename")

#: group -> name of its share metric.
SHARE_METRICS = {
    "crypto.keygen": "crypto.keygen.share",
    "crypto.sym": "crypto.sym.share",
    "crypto.sig": "crypto.sig.share",
    "crypto.pk": "crypto.pk.share",
    "serialize": "serialize.share",
    "caps": "caps.share",
    "cache": "cache.share",
    "mdcache": "mdcache.share",
    "dirtable": "dirtable.share",
    "client": "client.share",
    "scheduler": "scheduler.share",
    "journal": "journal.share",
    "lease": "lease.share",
    "transport": "transport.share",
    "wire.client": "wire.client_share",
    "wire.server": "wire.server_share",
    "ssp": "ssp.share",
    "sim": "sim.share",
    "obs": "obs.share",
}


class _ThreadState:
    __slots__ = ("stack", "agg", "root_ns", "ident")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        #: (layer, group, label, op kind) -> [calls, self_ns, total_ns, units]
        self.agg: dict[tuple, list[int]] = {}
        self.root_ns = 0
        self.ident = threading.get_ident()


class Recorder:
    """Owns the wrappers, the per-thread stacks and the aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        #: kind of the op the generator thread is running (set by the
        #: driver); spans on server threads inherit it, the loop being
        #: closed.
        self.op_kind = ""
        self.raw: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._generator = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, group: str, label: str,
             units: Callable | None = None) -> Callable:
        perf_ns = time.perf_counter_ns
        get_state = self._state
        ids = self._ids
        raw = self.raw
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            state = get_state()
            stack = state.stack
            parent = stack[-1][2] if stack else 0
            frame = [0, perf_ns(), next(ids)]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_ns()
                stack.pop()
                total = end - frame[1]
                if stack:
                    stack[-1][0] += total
                else:
                    state.root_ns += total
                key = (layer, group, label, recorder.op_kind)
                row = state.agg.get(key)
                if row is None:
                    row = state.agg[key] = [0, 0, 0, 0]
                row[0] += 1
                row[1] += total - frame[0]
                row[2] += total
                if units is not None:
                    row[3] += units(args, result)
                if len(raw) < RAW_SPAN_LIMIT:
                    raw.append({"id": frame[2], "parent": parent,
                                "name": label, "layer": layer,
                                "start_ns": frame[1], "end_ns": end,
                                "thread": state.ident})

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def patch(self, owner: object, attr: str, layer: str, group: str,
              units: Callable | None = None) -> None:
        """Replace ``owner.attr`` (module function, method, classmethod
        or staticmethod) by its wrapped form."""
        static = inspect.getattr_static(owner, attr)
        where = (owner.__name__ if inspect.ismodule(owner)
                 else f"{owner.__module__}.{owner.__qualname__}")
        label = f"{where}.{attr}".removeprefix("repro.")
        if isinstance(static, classmethod):
            new = classmethod(self.wrap(static.__func__, layer, group,
                                        label, units))
        elif isinstance(static, staticmethod):
            new = staticmethod(self.wrap(static.__func__, layer, group,
                                         label, units))
        else:
            new = self.wrap(static, layer, group, label, units)
        self._patched.append((owner, attr, static))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, layer, group, units in _targets():
            self.patch(owner, attr, layer, group, units)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def aggregates(self) -> dict[tuple, list[int]]:
        """(layer, group, label, op kind) -> [calls, self, total, units],
        merged over threads."""
        merged: dict[tuple, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, row in state.agg.items():
                into = merged.setdefault(key, [0, 0, 0, 0])
                for i in range(4):
                    into[i] += row[i]
        return merged

    def root_ns(self) -> tuple[int, int]:
        """(generator thread, other threads) time under root spans."""
        own = other = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            if state.ident == self._generator:
                own += state.root_ns
            else:
                other += state.root_ns
        return own, other

    def dump(self) -> dict:
        rows = [{"layer": k[0], "group": k[1], "function": k[2],
                 "op": k[3], "calls": v[0], "self_ns": v[1],
                 "total_ns": v[2], "units": v[3]}
                for k, v in sorted(self.aggregates().items())]
        return {"aggregates": rows, "spans": self.raw}


# -- what is wrapped -----------------------------------------------------------


def _len_arg(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def _hit(args, result) -> int:
    return 0 if result is None else 1


def _frame_bytes(args, result) -> int:
    # u32 length prefix on both the request and the response frame.
    return len(args[1]) + _len_result(args, result) + 8


def _targets() -> list[tuple]:
    """(owner, attribute, layer, group, units) for every wrapped name."""
    from repro.caps import record as caps_record
    from repro.caps.record import ObjectRecord
    from repro.caps.schemes import ReplicationScheme, Scheme2
    from repro.crypto import keys as crypto_keys
    from repro.crypto import rsa
    from repro.crypto.provider import CryptoProvider
    from repro.fs import client as fs_client
    from repro.fs import journal
    from repro.fs.cache import LruCache
    from repro.fs.client import OpenFile, SharoesFilesystem
    from repro.fs.dirtable import TableView
    from repro.fs.lease import LeaseManager, LeaseRecord
    from repro.fs.mdcache import VerifiedMetadataCache
    from repro.fs.metadata import MetadataView
    from repro.fs.scheduler import RequestScheduler
    from repro.obs.tracing import Tracer
    from repro.sim.costmodel import CostModel
    from repro.storage import wire
    from repro.storage.resilient import ResilientTransport
    from repro.storage.server import StorageServer
    from repro.storage.wire import RemoteStorageClient

    out: list[tuple] = []

    def add(owner, names, layer, group, units=None):
        for name in names.split():
            out.append((owner, name, layer, group, units))

    # crypto: key generation is patched where its callers bind it.
    add(caps_record, "new_signature_pair", "crypto", "crypto.keygen")
    add(crypto_keys, "new_signature_pair", "crypto", "crypto.keygen")
    add(CryptoProvider, "sym_encrypt sym_decrypt", "crypto", "crypto.sym",
        _len_arg(2))
    add(CryptoProvider, "derive_row_key", "crypto", "crypto.sym")
    add(CryptoProvider, "sign verify", "crypto", "crypto.sig")
    add(CryptoProvider, "pk_encrypt pk_decrypt", "crypto", "crypto.pk")
    add(rsa, "sign verify", "crypto", "crypto.pk")

    add(MetadataView, "to_bytes", "serialize", "serialize", _len_result)
    add(MetadataView, "from_bytes", "serialize", "serialize", _len_arg(1))
    add(TableView, "to_bytes", "serialize", "serialize", _len_result)
    add(TableView, "from_bytes", "serialize", "serialize", _len_arg(1))
    add(LeaseRecord, "to_bytes", "serialize", "serialize", _len_result)
    add(LeaseRecord, "from_bytes", "serialize", "serialize", _len_arg(1))
    add(journal, "encode_records", "serialize", "serialize", _len_result)
    add(journal, "decode_records", "serialize", "serialize", _len_arg(0))

    add(ObjectRecord, "create from_owner_view view_for metadata_blob "
        "rekey_data rekey_metadata ensure_selector_keys drop_selectors",
        "caps", "caps")
    add(fs_client, "open_metadata_blob lockbox_payload "
        "parse_lockbox_payload", "caps", "caps")
    add(ReplicationScheme, "child_pointer", "caps", "caps")
    add(Scheme2, "selectors lockbox_map", "caps", "caps")

    add(LruCache, "get put invalidate invalidate_prefix clear",
        "fs.cache", "cache")
    add(VerifiedMetadataCache, "get_view get_table get_listing",
        "fs.mdcache", "mdcache", _hit)
    add(VerifiedMetadataCache, "put_view put_table put_listing "
        "invalidate_inode revalidate", "fs.mdcache", "mdcache")
    add(TableView, "build lookup list_names add remove",
        "fs.dirtable", "dirtable")

    add(SharoesFilesystem, "mount unmount revalidate flush_staged getattr "
        "readdir access read_file open write_file append_file mknod mkdir "
        "create_file unlink rename chmod set_acl rekey renew_leases",
        "fs.client", "client")
    add(OpenFile, "read write pwrite close", "fs.client", "client")

    add(RequestScheduler, "staged_read staged_exists covers "
        "note_invalidation stage_put stage_put_many stage_delete "
        "stage_delete_many flush fetch_many", "fs.scheduler", "scheduler")
    add(journal, "seal_journal open_journal roll_forward fences_stale",
        "fs.journal", "journal")
    add(journal.MutationBatch, "stage read exists record",
        "fs.journal", "journal")
    add(LeaseManager, "acquire release release_all renew_all forget "
        "forget_all held_epoch", "fs.lease", "lease")

    frame_ops = "put get delete exists put_if put_fenced delete_fenced batch"
    add(ResilientTransport, frame_ops, "storage.resilient", "transport")
    add(RemoteStorageClient, frame_ops, "storage.wire", "wire.client")
    add(wire, "dispatch_message", "storage.wire", "wire.server",
        _frame_bytes)
    add(StorageServer, frame_ops, "storage.server", "ssp")

    add(CostModel, "charge_request charge_flight charge_other charge_wait "
        "on_crypto_event", "sim", "sim")
    add(Tracer, "span on_charge", "obs", "obs")
    # The cost of a span is in entering and leaving its scope; the scope
    # type is whatever the public Tracer.span() hands out.
    add(type(Tracer().span("probe")), "__enter__ __exit__", "obs", "obs")
    return out


# -- per-layer metrics -----------------------------------------------------------


def per_layer_metrics(result, recorder: Recorder) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json from one traced run."""
    phase = result.traced
    ops = phase.ops
    total_ns = phase.wall_s * 1e9
    agg = recorder.aggregates()
    d = result.deltas

    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    units: dict[str, int] = {}
    for (layer, group, label, op_kind), row in agg.items():
        self_ns[group] = self_ns.get(group, 0) + row[1]
        for key in (group, label):
            calls[key] = calls.get(key, 0) + row[0]
            units[key] = units.get(key, 0) + row[3]

    own_root_ns, foreign_root_ns = recorder.root_ns()
    # Server threads work while the generator thread waits inside the
    # wire client: that time is theirs, not the wire client's.
    self_ns["wire.client"] = self_ns.get("wire.client", 0) - foreign_root_ns

    out = {metric: self_ns.get(group, 0) / total_ns
           for group, metric in SHARE_METRICS.items()}
    out["harness.untraced_share"] = 1.0 - own_root_ns / total_ns

    def per_op(value: float) -> float:
        return value / ops

    def rate(label: str) -> float:
        return units.get(label, 0) / calls[label] if calls.get(label) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["crypto.keygen.calls_per_op"] = per_op(calls.get("crypto.keygen", 0))
    out["crypto.sym.bytes_per_op"] = per_op(units.get("crypto.sym", 0))
    out["crypto.sign.calls_per_op"] = per_op(
        calls.get("crypto.provider.CryptoProvider.sign", 0))
    out["crypto.verify.calls_per_op"] = per_op(
        calls.get("crypto.provider.CryptoProvider.verify", 0))
    out["crypto.pk.calls_per_op"] = per_op(calls.get("crypto.pk", 0))
    out["serialize.calls_per_op"] = per_op(calls.get("serialize", 0))
    out["serialize.bytes_per_op"] = per_op(units.get("serialize", 0))
    out["caps.record_creates_per_op"] = per_op(
        calls.get("caps.record.ObjectRecord.create", 0))
    out["caps.lockbox_opens_per_op"] = per_op(
        calls.get("fs.client.parse_lockbox_payload", 0))

    for tag, name in (("all", "cache.hit_rate"), ("fit", "cache.hit_rate_fit"),
                      ("small", "cache.hit_rate_small")):
        hits = d.get(f"cache.{tag}.hits", 0.0)
        out[name] = ratio(hits, hits + d.get(f"cache.{tag}.misses", 0.0))
    out["cache.evictions_per_op"] = per_op(d.get("cache.evictions", 0.0))
    prefix = "fs.mdcache.VerifiedMetadataCache."
    out["mdcache.view_hit_rate"] = rate(prefix + "get_view")
    out["mdcache.table_hit_rate"] = rate(prefix + "get_table")
    out["mdcache.listing_hit_rate"] = rate(prefix + "get_listing")
    out["mdcache.stale_rejects_per_op"] = per_op(
        d.get("mdcache.stale_rejects", 0.0))
    out["dirtable.lookups_per_op"] = per_op(
        calls.get("fs.dirtable.TableView.lookup", 0))
    out["dirtable.rebuilds_per_op"] = per_op(
        calls.get("fs.dirtable.TableView.build", 0))

    frames = d["wire.frames"]
    out["client.uncounted_frames_per_op"] = per_op(
        frames - d["client.request_count"])
    for kind in OP_KINDS:
        index = [i for i, k in enumerate(phase.kinds) if k == kind]
        count = len(index)
        out[f"op.{kind}.cal_ms"] = ratio(
            sum(phase.cal_ms[i] for i in index), count)
        out[f"op.{kind}.sim_s"] = ratio(
            sum(phase.sim_s[i] for i in index), count)
        out[f"op.{kind}.frames"] = ratio(
            sum(phase.frames[i] for i in index), count)

    waves = d.get("scheduler.waves", 0.0)
    out["scheduler.waves_per_op"] = per_op(waves)
    out["scheduler.subops_per_wave"] = ratio(
        d.get("scheduler.subops", 0.0), waves)
    out["scheduler.fetch_flights_per_op"] = per_op(
        d.get("scheduler.fetch_flights", 0.0))
    out["scheduler.dedup_hits_per_op"] = per_op(
        d.get("scheduler.dedup_hits", 0.0))
    out["journal.frames_per_op"] = per_op(d["wire.touching.journal"])
    out["journal.up_bytes_per_op"] = per_op(d["wire.up.journal"])
    out["lease.cas_frames_per_op"] = per_op(d["wire.lease_cas_frames"])
    out["lease.waits_per_op"] = per_op(d.get("lease.waits", 0.0))
    out["transport.attempts_per_frame"] = ratio(
        d.get("transport.attempts", 0.0), frames)
    out["wire.bytes_per_frame"] = rate("storage.wire.dispatch_message")

    out["ssp.subops_per_frame"] = ratio(d["wire.subops"], frames)
    for kind in ("meta", "table", "data"):
        out[f"ssp.{kind}_up_bytes_per_op"] = per_op(d[f"wire.up.{kind}"])
        out[f"ssp.{kind}_down_bytes_per_op"] = per_op(d[f"wire.down.{kind}"])
    out["ssp.other_frames_per_op"] = per_op(d["wire.touching.other"])

    out["sim.network_s_per_op"] = per_op(d.get("sim.network_s", 0.0))
    out["sim.crypto_s_per_op"] = per_op(d.get("sim.crypto_s", 0.0))

    notes = harness_notes(result)
    out["harness.cal_share"] = notes["cal_share"]
    out["harness.cal_drift"] = notes["cal_drift"]
    out["harness.raw_ops_per_s"] = ratio(ops, sum(phase.raw_s))
    out["harness.raw_cpu_ms_per_op"] = per_op(phase.cpu_s * 1000.0)
    base = result.untraced
    out["harness.trace_overhead_share"] = (
        (sum(phase.cal_ms) / ops)
        / (sum(base.cal_ms) / base.ops) - 1.0)
    out["harness.op_fail_share"] = result.failed / result.attempted
    return out
