"""Chaos suite: a full filesystem workload against a flaky SSP.

A seeded random workload (creates, overwrites, reads, deletes, listings)
runs through the resilient transport against a :class:`FlakyServer`
injecting transient faults at p in {0.05, 0.2}.  The invariants:

* every operation either succeeds or raises the *typed*
  :class:`TransientStorageError` -- nothing else escapes, nothing hangs;
* no undetected corruption: reads of paths whose every mutation fully
  succeeded must return exactly the modelled bytes (a giveup mid-write
  legitimately leaves old/new/mixed content, so those paths are
  quarantined until repaired);
* after healing the SSP and repairing quarantined paths, a full
  :class:`VolumeAuditor` fsck is clean (orphaned blobs from interrupted
  operations are allowed; integrity/structural errors are not);
* the transport's retry/backoff/breaker counters reconcile exactly with
  the injector's fault count, and total backoff shows up in the
  simulated-clock :class:`CostBreakdown` (FREE profile: the NETWORK
  bucket is *only* backoff);
* the same seed replays the same run, event for event.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import (ClientCrashed, FileNotFound, SharoesError,
                          StaleEpochError, TransientStorageError)
from repro.fs.blobio import _BATCH_SIZE_BUCKETS
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.costmodel import CostModel
from repro.sim.profiles import FREE
from repro.storage.blobs import data_blob, lease_blob
from repro.storage.resilient import (FlakyServer, MutationTrigger,
                                     ResilientTransport, RetryPolicy,
                                     ServerWrapper, crash)
from repro.storage.server import BatchOp, StorageServer
from repro.tools.fsck import VolumeAuditor

DIRS = ("/d0", "/d1", "/d2")
OPS = ("create", "read", "overwrite", "read", "delete", "readdir")


def _no_faults(flaky: FlakyServer) -> dict[str, float]:
    previous = dict(flaky.rates)
    flaky.rates = {op: 0.0 for op in FlakyServer.OPS}
    return previous


def run_chaos(registry, p: float, seed: int, ops: int = 120):
    """One full chaos run; returns the replay-comparable event log."""
    server = StorageServer()
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()

    flaky = FlakyServer(server, failure_rate=p, seed=seed)
    cost = CostModel(FREE)
    # cache_bytes=0: every read genuinely crosses the (flaky) transport.
    config = ClientConfig(cache_bytes=0,
                          retry_policy=RetryPolicy(seed=seed))
    fs = SharoesFilesystem(volume, registry.user("alice"),
                           cost_model=cost, config=config, server=flaky)

    # Deterministic fault-free setup: mount + a few work directories.
    saved_rates = _no_faults(flaky)
    fs.mount()
    for directory in DIRS:
        fs.mkdir(directory)
    flaky.rates = saved_rates
    transport = fs.server
    assert transport is not server  # the resilient layer is in place

    rng = random.Random(seed)
    model: dict[str, bytes] = {}  # path -> bytes the SSP must hold
    uncertain: set[str] = set()  # a mutation gave up: content unknown
    events: list[tuple] = []
    max_size = volume.block_size * 3

    for index in range(ops):
        op = rng.choice(OPS)
        certain = sorted(model)
        if op == "create" or not certain:
            op, path = "create", f"{rng.choice(DIRS)}/f{index}"
            data = rng.randbytes(rng.randrange(0, max_size))
        elif op == "overwrite":
            path = rng.choice(certain)
            data = rng.randbytes(rng.randrange(0, max_size))
        elif op == "readdir":
            path, data = rng.choice(DIRS), b""
        else:
            path, data = rng.choice(certain), b""
        try:
            if op == "create":
                fs.create_file(path, data)
                model[path] = data
            elif op == "overwrite":
                fs.write_file(path, data)
                model[path] = data
            elif op == "delete":
                fs.unlink(path)
                del model[path]
            elif op == "readdir":
                listed = set(fs.readdir(path))
                for known in model:
                    parent, name = known.rsplit("/", 1)
                    if parent == path:
                        assert name in listed, (
                            f"{known}: committed file missing from "
                            f"readdir -- undetected corruption")
            else:
                degraded_before = transport.degraded_reads
                content = fs.read_file(path)
                if transport.degraded_reads == degraded_before:
                    assert content == model[path], (
                        f"{path}: fresh read diverged from model -- "
                        f"undetected corruption")
            events.append((index, op, path, "ok"))
        except TransientStorageError:
            # The one failure every caller must be prepared for.  A
            # mutation that gave up leaves the path indeterminate (the
            # SSP may hold old, new or partially-uploaded state), so it
            # is quarantined until the repair phase.
            events.append((index, op, path, "transient"))
            if op in ("create", "overwrite", "delete"):
                model.pop(path, None)
                uncertain.add(path)
        # Any other exception type is an undetected-corruption bug (or
        # a typing bug) and propagates to fail the test.

    # -- reconcile observability with ground truth ------------------------
    assert transport.failed_attempts == flaky.injected_faults
    assert (transport.failed_attempts
            == transport.retries + transport.giveups)
    assert transport.attempts >= flaky.injected_faults
    if flaky.injected_faults:
        assert transport.backoff_seconds > 0
    # FREE profile: requests cost zero, so NETWORK time *is* backoff.
    assert cost.totals.seconds["network"] == pytest.approx(
        transport.backoff_seconds)
    snap = fs.metrics.snapshot()
    assert snap["transport.failures"] == flaky.injected_faults
    assert snap["transport.backoff_seconds"] == pytest.approx(
        transport.backoff_seconds)

    # -- heal, repair quarantined paths, verify survivors ------------------
    _no_faults(flaky)
    healed = SharoesFilesystem(volume, registry.user("alice"),
                               config=ClientConfig(cache_bytes=0),
                               server=flaky)
    healed.mount()
    for path in sorted(uncertain):
        try:
            healed.read_file(path)
        except (FileNotFound, TransientStorageError):
            pass  # never materialized (or no entry in alice's replica)
        except SharoesError:
            # Partially-uploaded state: readable metadata pointing at
            # incomplete content.  Repair by removal.
            healed.unlink(path)
    for path, expected in sorted(model.items()):
        assert healed.read_file(path) == expected, (
            f"{path}: post-heal content diverged -- undetected "
            f"corruption")

    report = VolumeAuditor(volume).audit()
    assert report.clean, (report.summary(), report.integrity_errors,
                          report.structural_errors)

    counters = {"attempts": transport.attempts,
                "retries": transport.retries,
                "failed": transport.failed_attempts,
                "giveups": transport.giveups,
                "degraded": transport.degraded_reads,
                "breaker_opens": transport.breaker_opens,
                "backoff": transport.backoff_seconds,
                "injected": flaky.injected_faults,
                "faults_by_op": dict(flaky.faults_by_op)}
    return events, counters


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_chaos_workload_survives(registry, p):
    events, counters = run_chaos(registry, p=p, seed=2008, ops=120)
    assert counters["injected"] > 0  # the run actually hurt
    assert counters["retries"] > 0  # and the transport actually healed
    outcomes = {outcome for *_rest, outcome in events}
    assert "ok" in outcomes


def test_chaos_is_deterministic_per_seed(registry):
    first = run_chaos(registry, p=0.2, seed=77, ops=60)
    second = run_chaos(registry, p=0.2, seed=77, ops=60)
    assert first[0] == second[0]  # identical event logs
    assert first[1] == second[1]  # identical counters, backoff included
    third = run_chaos(registry, p=0.2, seed=78, ops=60)
    assert third[0] != first[0]  # a different seed is a different run


def test_chaos_high_rate_mostly_transient_not_crash(registry):
    # At p=0.5 with few attempts the transport gives up often; the
    # contract (typed error or success) must still hold.
    events, counters = run_chaos(registry, p=0.5, seed=5, ops=40)
    assert counters["giveups"] > 0
    transients = [e for e in events if e[-1] == "transient"]
    assert transients  # plenty of typed failures, zero crashes


# -- writeback crash points ---------------------------------------------------
#
# The flaky faults above model an SSP that misbehaves; a crash action
# models a *client* that dies.  For the write-back path (pwrite /
# truncate on close) every put boundary is a distinct crash point, and
# the journal must make each one recover to exactly-old or exactly-new
# content -- never a torn file.


def run_writeback_crashes(registry, seed: int, op: str):
    """Crash a journaled client at every mutation of one writeback.

    Returns ``(total_crash_points, outcome_log)`` where the log has one
    ``(k, "old" | "new")`` entry per crash point -- replay-comparable,
    like ``run_chaos``'s event log.
    """
    rng = random.Random(seed)
    server = StorageServer()
    volume = SharoesVolume(server, registry, block_size=128)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    config = ClientConfig(journal=True, cache_bytes=0)

    def client(backend=None) -> SharoesFilesystem:
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=config, server=backend)
        fs.mount()  # replays whatever the dead client left pending
        return fs

    old = rng.randbytes(128 * 3)
    new = rng.randbytes(200)
    offset = rng.randrange(0, 128 * 2)
    cut = rng.randrange(0, len(old))
    client().create_file("/f", old)
    if op == "pwrite":
        buf = bytearray(old)
        buf[offset:offset + len(new)] = new
        expected = bytes(buf)
    else:
        expected = old[:cut]

    def run(fs: SharoesFilesystem) -> None:
        with fs.open("/f", "rw") as handle:
            if op == "pwrite":
                handle.pwrite(new, offset)
            else:
                handle.truncate(cut)

    snapshot = server.snapshot_blobs()
    counting = MutationTrigger(server)
    run(client(counting))
    total = counting.mutations
    assert client().read_file("/f") == expected

    log = []
    for k in range(1, total + 1):
        server.restore_blobs(snapshot)
        crasher = MutationTrigger(server, {k: crash})
        with pytest.raises(ClientCrashed):
            run(client(crasher))
        fs = client()
        content = fs.read_file("/f")
        assert content in (old, expected), (
            f"{op} k={k}: torn writeback -- {len(content)} bytes "
            f"matching neither old nor new content")
        report = VolumeAuditor(volume).audit()
        assert report.clean and not report.orphaned_blobs, (
            f"{op} k={k}: {report.summary()}")
        log.append((k, "old" if content == old else "new"))
    return total, log


@pytest.mark.parametrize("op", ["pwrite", "truncate"])
def test_writeback_crash_every_put_boundary_recovers(registry, op):
    total, log = run_writeback_crashes(registry, seed=2008, op=op)
    assert total >= 3  # genuinely multi-blob: block 0 + data + journal
    # k=1 kills the intent append: nothing was sent, content stays old.
    assert log[0] == (1, "old")
    # Every later point is past the intent: recovery rolls forward.
    assert all(state == "new" for _, state in log[1:])


@pytest.mark.parametrize("op", ["pwrite", "truncate"])
def test_writeback_crash_sweep_deterministic_per_seed(registry, op):
    first = run_writeback_crashes(registry, seed=31, op=op)
    second = run_writeback_crashes(registry, seed=31, op=op)
    assert first == second


# -- faults inside a batch frame ----------------------------------------------
#
# Batching changes the failure surface: one OP_BATCH frame can die at
# sub-op k with a committed prefix behind it.  The transport's contract
# is that the retry frame carries *only* the unapplied tail (re-sending
# an applied put would be wasted WAN bytes; re-sending an applied
# delete or CAS would change semantics), that fencing stays terminal
# even mid-frame, and that a client crash mid-frame leaves exactly the
# prefix the crash point dictates.


class _PutLog(ServerWrapper):
    """Records every put reaching the backend; optionally fails once.

    ``fail_on_call=k`` raises a transient fault on the k-th put (1-based,
    counted across frames) *before* it touches the backend, then heals --
    a deterministic "SSP hiccup at sub-op k" for batch-retry tests.
    """

    def __init__(self, inner, fail_on_call: int | None = None):
        super().__init__(inner, name="put-log")
        self.calls: list = []
        self.fail_on_call = fail_on_call

    def put(self, blob_id, payload):
        self.calls.append(blob_id)
        if self.fail_on_call is not None and \
                len(self.calls) == self.fail_on_call:
            self.fail_on_call = None
            raise TransientStorageError(
                f"injected fault at put #{len(self.calls)}")
        self.inner.put(blob_id, payload)


def _transport(injector) -> tuple[ResilientTransport, CostModel]:
    cost = CostModel(FREE)
    policy = RetryPolicy(jitter=False, base_delay_s=0.01, seed=0)
    return ResilientTransport(injector, policy, cost=cost), cost


def test_batch_retry_resends_only_unapplied_tail():
    server = StorageServer()
    injector = _PutLog(server, fail_on_call=3)
    transport, _ = _transport(injector)
    blobs = [data_blob(100 + i) for i in range(5)]
    ops = [BatchOp.put(b, bytes([i]) * 32) for i, b in enumerate(blobs)]

    replies = transport.batch(ops)

    assert [r.status for r in replies] == ["ok"] * 5
    # Frame 1 applied blobs 0-1 and died at blob 2; frame 2 carried only
    # the unapplied tail.  The committed prefix was never re-sent.
    assert injector.calls == [blobs[0], blobs[1], blobs[2],
                              blobs[2], blobs[3], blobs[4]]
    assert transport.retries == 1
    assert transport.failed_attempts == 1
    assert transport.giveups == 0
    for i, blob_id in enumerate(blobs):
        assert server.get(blob_id) == bytes([i]) * 32


def test_batch_flaky_first_subop_resends_whole_frame():
    # The degenerate boundary: k=1 means nothing committed, so the
    # "tail" is the entire frame.
    server = StorageServer()
    injector = _PutLog(server, fail_on_call=1)
    transport, _ = _transport(injector)
    blobs = [data_blob(110 + i) for i in range(3)]

    replies = transport.batch([BatchOp.put(b, b"x") for b in blobs])

    assert [r.status for r in replies] == ["ok"] * 3
    assert injector.calls == [blobs[0], blobs[0], blobs[1], blobs[2]]
    assert transport.retries == 1


def test_batch_exhausted_retries_mark_tail_unattempted():
    # Every attempt dies at the same sub-op: the transport gives up with
    # the committed prefix ok, the poisoned sub-op a transient error,
    # and the tail unattempted -- safe to re-send verbatim later.
    server = StorageServer()

    class _AlwaysFailBlob(ServerWrapper):
        def __init__(self, inner, poison):
            super().__init__(inner, name="poison")
            self.poison = poison

        def put(self, blob_id, payload):
            if blob_id == self.poison:
                raise TransientStorageError(f"poisoned {blob_id}")
            self.inner.put(blob_id, payload)

    blobs = [data_blob(120 + i) for i in range(4)]
    transport, _ = _transport(_AlwaysFailBlob(server, blobs[2]))

    replies = transport.batch([BatchOp.put(b, b"y") for b in blobs])

    assert [r.status for r in replies] == ["ok", "ok", "error",
                                           "unattempted"]
    assert replies[2].transient  # typed, retryable -- not a crash
    assert transport.giveups == 1
    assert server.exists(blobs[0]) and server.exists(blobs[1])
    assert not server.exists(blobs[2]) and not server.exists(blobs[3])


def test_batch_fenced_subop_is_terminal_no_retry_burn():
    server = StorageServer()
    transport, _ = _transport(server)
    fence = lease_blob(7)
    server.put(fence, (5).to_bytes(8, "big") + b"lease-record")
    blobs = [data_blob(130 + i) for i in range(3)]

    replies = transport.batch([
        BatchOp.put(blobs[0], b"a"),
        BatchOp.put_fenced(blobs[1], b"b", fence, 3),  # zombie epoch
        BatchOp.put(blobs[2], b"c"),
    ])

    assert [r.status for r in replies] == ["ok", "fenced", "unattempted"]
    assert replies[1].epoch == 5  # the store reports who fenced us out
    # Fencing is a verdict, not a fault: zero retries, zero backoff.
    assert transport.retries == 0
    assert transport.failed_attempts == 0
    assert transport.backoff_seconds == 0
    assert server.exists(blobs[0])
    assert not server.exists(blobs[1]) and not server.exists(blobs[2])
    with pytest.raises(StaleEpochError) as exc:
        replies[1].raise_for_status()
    assert exc.value.current_epoch == 5


def test_batch_crash_midframe_applies_exact_prefix():
    # A client crash at sub-op k is not a storage outcome: it must
    # propagate (no retry!) leaving exactly k-1 sub-ops applied.
    blobs = [data_blob(140 + i) for i in range(4)]
    for k in range(1, len(blobs) + 1):
        server = StorageServer()
        crasher = MutationTrigger(server, {k: crash})
        transport, _ = _transport(crasher)
        with pytest.raises(ClientCrashed):
            transport.batch([BatchOp.put(b, b"z") for b in blobs])
        assert transport.retries == 0
        applied = [b for b in blobs if server.exists(b)]
        assert applied == blobs[:k - 1], f"crash at k={k}"


def test_batch_chaos_workload_heals_and_audits_clean(registry):
    """End-to-end: multi-blob writes ride OP_BATCH frames through a
    flaky SSP; faults land *inside* frames, the transport heals them,
    counters reconcile, and fsck audits the volume clean."""
    server = StorageServer()
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()

    flaky = FlakyServer(server, failure_rate={"put": 0.2}, seed=11)
    cost = CostModel(FREE)
    config = ClientConfig(cache_bytes=0, retry_policy=RetryPolicy(seed=11))
    fs = SharoesFilesystem(volume, registry.user("alice"),
                           cost_model=cost, config=config, server=flaky)
    saved = _no_faults(flaky)
    fs.mount()
    flaky.rates = saved
    transport = fs.server

    # Multi-block files force multi-blob frames; every put inside them
    # rolls the injector's dice individually.
    payload = b"batched under fire " * (volume.block_size // 8)
    fs.create_file("/big", payload)
    for i in range(8):
        fs.create_file(f"/f{i}", bytes([65 + i]) * 64)
    fs.write_file("/big", payload[::-1])

    hist = fs.metrics.histogram("client.batch.size",
                                buckets=_BATCH_SIZE_BUCKETS)
    assert hist.count > 0 and hist.total > hist.count  # real frames
    assert flaky.injected_faults > 0  # faults really fired mid-frame
    # The single-op reconciliation survives batching: one transient
    # reply = one recorded failure, however many sub-ops rode the frame.
    assert transport.failed_attempts == flaky.injected_faults
    assert (transport.failed_attempts
            == transport.retries + transport.giveups)
    assert transport.giveups == 0  # this seed heals everything

    _no_faults(flaky)
    assert fs.read_file("/big") == payload[::-1]
    for i in range(8):
        assert fs.read_file(f"/f{i}") == bytes([65 + i]) * 64

    report = VolumeAuditor(volume).audit()
    assert report.clean, (report.summary(), report.integrity_errors,
                          report.structural_errors)
