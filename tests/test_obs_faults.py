"""Fault-injecting SSPs through the observability surface.

test_security.py proves tampering/rollback are *detected* (the right
exception escapes).  These tests prove they are *observable*: every
detection increments the client's ``client.integrity_failures`` counter,
marks the failing operation's root span, and reconciles with the
fault-injecting server's own accounting.

The attempt-span tests close the same loop for *transient* faults: a
fault injected at attempt k yields exactly k+1 sibling ``attempt``
spans under the issuing ``network`` span, with backoff costs that
reconcile against the transport's own counters -- including for
speculative readahead frames.
"""

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import (CryptoError, IntegrityError,
                          TransientStorageError)
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.clock import SimClock
from repro.sim.costmodel import NETWORK, CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.faults import TamperingServer, RollbackServer
from repro.storage.resilient import RetryPolicy, ServerWrapper
from repro.storage.server import StorageServer


def _stack(registry, server):
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"))
    fs.tracer.record()
    fs.mount()
    return fs


def _counter(fs, name):
    metric = fs.metrics.get(name)
    return metric.value if metric is not None else 0


class TestTamperingObservability:
    def test_data_tampering_counted_and_reconciled(self, registry):
        server = TamperingServer(should_tamper=lambda bid: False)
        fs = _stack(registry, server)
        fs.create_file("/f", b"integrity matters", mode=0o600)
        server._should_tamper = lambda bid: bid.kind == "data"
        fs.cache.clear()
        data_gets_before = fs.metrics.value("ssp.gets_by_kind.data")

        attempts = 3
        for _ in range(attempts):
            with pytest.raises(IntegrityError):
                fs.read_file("/f")

        # client-side counters...
        assert _counter(fs, "client.integrity_failures") == attempts
        assert _counter(fs, "ops.errors") == attempts
        # ...reconcile with the malicious server's own accounting: the
        # single-block file costs one tampered data get per attempt.
        assert server.tamper_count == attempts
        assert (fs.metrics.value("ssp.gets_by_kind.data")
                - data_gets_before == attempts)

    def test_failing_root_spans_are_marked(self, registry):
        server = TamperingServer(should_tamper=lambda bid: False)
        fs = _stack(registry, server)
        fs.create_file("/f", b"x", mode=0o600)
        server._should_tamper = lambda bid: bid.kind == "data"
        fs.cache.clear()
        with pytest.raises(IntegrityError):
            fs.read_file("/f")
        root = fs.tracer.finished[-1]
        assert root.name == "read_file"
        assert root.error == "IntegrityError"
        assert root.attrs.get("path") == "/f"

    def test_metadata_tampering_counted(self, registry):
        server = TamperingServer(should_tamper=lambda bid: False)
        fs = _stack(registry, server)
        fs.mknod("/f")
        server._should_tamper = lambda bid: bid.kind == "meta"
        fs.cache.clear()
        with pytest.raises(IntegrityError):
            fs.getattr("/f")
        assert _counter(fs, "client.integrity_failures") == 1
        assert fs.tracer.finished[-1].error == "IntegrityError"

    def test_clean_run_counts_nothing(self, registry):
        server = TamperingServer(should_tamper=lambda bid: False)
        fs = _stack(registry, server)
        fs.create_file("/f", b"fine", mode=0o600)
        assert fs.read_file("/f") == b"fine"
        assert server.tamper_count == 0
        assert _counter(fs, "client.integrity_failures") == 0
        assert _counter(fs, "ops.errors") == 0


class TestRollbackObservability:
    def test_rekeyed_rollback_marks_span(self, registry):
        server = RollbackServer(should_rollback=lambda bid: False)
        fs = _stack(registry, server)
        fs.create_file("/f", b"version 1", mode=0o600)
        fs.rekey("/f")
        fs.cache.clear()
        inode = fs.getattr("/f").inode
        server._should_rollback = (
            lambda bid: bid.kind == "data" and bid.inode == inode)
        fs.cache.clear()
        errors_before = _counter(fs, "ops.errors")

        with pytest.raises(CryptoError) as excinfo:
            fs.read_file("/f")

        root = fs.tracer.finished[-1]
        assert root.name == "read_file"
        assert root.error == type(excinfo.value).__name__
        assert _counter(fs, "ops.errors") == errors_before + 1
        # rollback of a rekeyed object surfaces as a crypto failure; only
        # a MAC/signature mismatch counts as an integrity detection.
        if isinstance(excinfo.value, IntegrityError):
            assert _counter(fs, "client.integrity_failures") == 1


class _FailFirstK(ServerWrapper):
    """Deterministically fail the first ``k`` calls of one op.

    Unlike the seeded-probabilistic FlakyServer this makes "fault at
    attempt k" an exact statement, so span counts can be asserted
    instead of sampled.  Arm it (set ``k``) after mount so the setup
    traffic stays clean.
    """

    def __init__(self, inner, op="get", k=0):
        super().__init__(inner, name="fail-first-k")
        self.op = op
        self.k = k
        self.injected = 0

    def _maybe_fail(self, op):
        if op == self.op and self.injected < self.k:
            self.injected += 1
            raise TransientStorageError(
                f"injected fault #{self.injected} on {op}")

    def get(self, blob_id):
        self._maybe_fail("get")
        return self.inner.get(blob_id)

    def batch(self, ops):
        self._maybe_fail("batch")
        return self.inner.batch(ops)


def _resilient_stack(registry, config):
    """Full client stack over a _FailFirstK wrapper, cost model attached
    so backoff sleeps land in attempt-span self-costs."""
    cost = CostModel(PAPER_2008, SimClock())
    server = StorageServer()
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fault = _FailFirstK(server)
    fs = SharoesFilesystem(volume, registry.user("alice"),
                           cost_model=cost, config=config, server=fault)
    fs.tracer.record()
    fs.mount()
    return fs, fault


def _spans(root, name):
    return [node for node in root.walk() if node.name == name]


class TestAttemptSpanObservability:
    def test_fault_at_attempt_k_yields_k_plus_1_siblings(self, registry):
        k = 2
        fs, fault = _resilient_stack(
            registry,
            ClientConfig(retry_policy=RetryPolicy(jitter=False)))
        fs.create_file("/f", b"retry me", mode=0o600)
        fs.cache.clear()
        fault.op, fault.k, fault.injected = "get", k, 0
        attempts_before = fs.server.attempts
        failures_before = fs.server.failed_attempts
        retries_before = fs.server.retries
        backoff_before = fs.server.backoff_seconds

        assert fs.read_file("/f") == b"retry me"

        root = fs.tracer.finished[-1]
        assert root.name == "read_file"
        # Exactly one network span absorbed the injected fault: its
        # children are k+1 *sibling* attempt spans, the first k marked
        # with the transient error, the last one clean.
        faulted = [span for span in _spans(root, "network")
                   if sum(c.name == "attempt" for c in span.children) > 1]
        assert len(faulted) == 1
        (network,) = faulted
        attempts = [c for c in network.children if c.name == "attempt"]
        assert len(attempts) == k + 1
        assert all(a.parent_id == network.span_id for a in attempts)
        assert [a.attrs["attempt"] for a in attempts] == [1, 2, 3]
        assert ([a.error for a in attempts]
                == ["TransientStorageError"] * k + [None])
        assert attempts[0].attrs["delay"] == 0.0

        # Span counts reconcile with the transport's own counters...
        span_attempts = len(_spans(root, "attempt"))
        assert fs.server.attempts - attempts_before == span_attempts
        assert fs.server.failed_attempts - failures_before == k
        assert fs.server.retries - retries_before == k
        # ...and so do costs: backoff is charged as NETWORK time inside
        # the attempt span that waited, so attempt-span self-costs sum
        # to the transport's backoff total (jitterless doubling:
        # 0.05 + 0.10).
        backoff = fs.server.backoff_seconds - backoff_before
        charged = sum(span.self_costs.get(NETWORK, 0.0)
                      for span in _spans(root, "attempt"))
        assert charged == pytest.approx(backoff)
        assert backoff == pytest.approx(0.05 + 0.10)

    def test_exhausted_retries_mark_every_attempt_span(self, registry):
        policy = RetryPolicy(max_attempts=3, jitter=False,
                             cache_fallback=False)
        fs, fault = _resilient_stack(
            registry, ClientConfig(retry_policy=policy))
        fs.create_file("/f", b"doomed", mode=0o600)
        fs.cache.clear()
        fault.op, fault.k, fault.injected = "get", policy.max_attempts, 0

        with pytest.raises(TransientStorageError):
            fs.read_file("/f")

        root = fs.tracer.finished[-1]
        assert root.error == "TransientStorageError"
        faulted = [span for span in _spans(root, "network")
                   if any(c.name == "attempt" for c in span.children)]
        (network,) = faulted
        attempts = [c for c in network.children if c.name == "attempt"]
        assert len(attempts) == policy.max_attempts
        assert all(a.error == "TransientStorageError" for a in attempts)
        assert fs.server.giveups == 1

    def test_readahead_prefetch_spans_parent_under_walk(self, registry):
        fs, fault = _resilient_stack(
            registry,
            ClientConfig(retry_policy=RetryPolicy(jitter=False),
                         readahead=True))
        fs.mkdir("/d0", mode=0o755)
        fs.mkdir("/d0/d1", mode=0o755)
        fs.create_file("/d0/d1/f", b"deep", mode=0o644)
        fs.cache.clear()
        fault.op, fault.k, fault.injected = "batch", 1, 0

        assert fs.read_file("/d0/d1/f") == b"deep"

        root = fs.tracer.finished[-1]
        # Speculative readahead frames are issued *inside* the walk span
        # whose lookup triggered them -- the profile attributes their
        # cost to the resolve phase, not to a floating root.
        prefetches = [span for span in _spans(root, "network")
                      if span.attrs.get("op") == "get_many"]
        assert prefetches, "cold deep walk must issue readahead frames"
        walk_ids = {span.span_id for span in _spans(root, "walk")}
        assert all(span.parent_id in walk_ids for span in prefetches)
        # The injected batch fault produced two sibling attempt spans
        # (failed + retried) under the one network span that carried it.
        batch_attempts = [span for span in _spans(root, "attempt")
                          if span.attrs.get("op") == "batch"]
        failed = [span for span in batch_attempts
                  if span.error == "TransientStorageError"]
        assert len(failed) == 1
        (faulted_net,) = {span.parent_id for span in failed}
        siblings = [span for span in batch_attempts
                    if span.parent_id == faulted_net]
        assert [s.attrs["attempt"] for s in siblings] == [1, 2]
        assert fault.injected == 1
