"""Unit tests for the resilient SSP transport (the tentpole layer).

Covers the three transient-fault injectors (Flaky / Slow / Outage), the
retry loop (backoff, jitter determinism, deadline), the circuit breaker
state machine, graceful degradation through the last-known-good cache,
and the observability wiring (cost-model charges, attempt spans,
``bind_transport`` metrics).  Whole-filesystem chaos lives in
``test_chaos.py``; this file isolates each mechanism.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.errors import (BlobNotFound, CircuitOpenError, StorageError,
                          TransientStorageError)
from repro.obs.metrics import MetricsRegistry, bind_transport
from repro.obs.tracing import Tracer
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.profiles import FREE
from repro.storage.blobs import data_blob
from repro.storage.resilient import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                     BREAKER_OPEN, FlakyServer,
                                     OutageServer, ResilientTransport,
                                     RetryPolicy, ServerWrapper,
                                     SlowServer)
from repro.storage.server import BatchOp, StorageServer
from repro.storage.wire import (OP_BATCH, STATUS_ERROR, RemoteStorageClient,
                                SspServer)

BLOB = data_blob(1, "b0")
OTHER = data_blob(2, "b0")


class FailNTimes(ServerWrapper):
    """Fails the first ``fails`` requests, then behaves."""

    def __init__(self, inner, fails: int, exc=TransientStorageError):
        super().__init__(inner, name="fail-n")
        self.remaining = fails
        self._exc = exc

    def _gate(self):
        if self.remaining > 0:
            self.remaining -= 1
            raise self._exc("injected failure")

    def put(self, blob_id, payload):
        self._gate()
        self.inner.put(blob_id, payload)

    def get(self, blob_id):
        self._gate()
        return self.inner.get(blob_id)

    def delete(self, blob_id):
        self._gate()
        self.inner.delete(blob_id)

    def exists(self, blob_id):
        self._gate()
        return self.inner.exists(blob_id)


def seeded_backend() -> StorageServer:
    backend = StorageServer()
    backend.put(BLOB, b"payload-v1")
    return backend


# -- fault injectors ----------------------------------------------------------


class TestFlakyServer:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FlakyServer(StorageServer(), failure_rate=1.5)
        with pytest.raises(ValueError):
            FlakyServer(StorageServer(), failure_rate={"get": -0.1})

    def test_per_op_rates(self):
        flaky = FlakyServer(seeded_backend(),
                            failure_rate={"get": 1.0}, seed=1)
        flaky.put(OTHER, b"x")  # put rate defaults to 0: never fails
        with pytest.raises(TransientStorageError):
            flaky.get(BLOB)
        assert flaky.injected_faults == 1
        assert flaky.faults_by_op == {"put": 0, "get": 1, "delete": 0,
                                      "exists": 0}

    def test_seeded_determinism(self):
        def fault_pattern(seed):
            flaky = FlakyServer(seeded_backend(), failure_rate=0.5,
                                seed=seed)
            pattern = []
            for _ in range(40):
                try:
                    flaky.get(BLOB)
                    pattern.append(False)
                except TransientStorageError:
                    pattern.append(True)
            return pattern

        assert fault_pattern(7) == fault_pattern(7)
        assert fault_pattern(7) != fault_pattern(8)

    def test_delegates_unknown_attrs(self):
        backend = seeded_backend()
        flaky = FlakyServer(backend, failure_rate=0.0)
        assert flaky.blob_count() == backend.blob_count()
        assert flaky.stats is backend.stats


class TestSlowServer:
    def test_charges_network_time(self):
        cost = CostModel(FREE)
        slow = SlowServer(seeded_backend(), delay_s=0.25, cost=cost)
        slow.get(BLOB)
        slow.exists(BLOB)
        assert slow.delayed_requests == 2
        assert cost.totals.seconds["network"] == pytest.approx(0.5)
        assert cost.clock.now == pytest.approx(0.5)

    def test_clock_only_mode(self):
        clock = SimClock()
        slow = SlowServer(seeded_backend(), delay_s=1.5, clock=clock)
        slow.get(BLOB)
        assert clock.now == pytest.approx(1.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            SlowServer(StorageServer(), delay_s=-1.0)


class TestOutageServer:
    def test_fails_only_inside_window(self):
        clock = SimClock()
        outage = OutageServer(seeded_backend(), clock,
                              start_s=10.0, end_s=20.0)
        assert outage.get(BLOB) == b"payload-v1"  # before the window
        clock.advance(15.0)
        assert outage.in_outage
        with pytest.raises(TransientStorageError):
            outage.get(BLOB)
        clock.advance(5.0)  # t=20: window is half-open [start, end)
        assert outage.get(BLOB) == b"payload-v1"
        assert outage.rejected_requests == 1

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            OutageServer(StorageServer(), SimClock(), 5.0, 1.0)


# -- RetryPolicy --------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            RetryPolicy().max_attempts = 9


# -- retry loop ---------------------------------------------------------------


class TestRetryLoop:
    def test_success_needs_no_retry(self):
        transport = ResilientTransport(seeded_backend())
        assert transport.get(BLOB) == b"payload-v1"
        assert (transport.attempts, transport.retries,
                transport.failed_attempts) == (1, 0, 0)

    def test_masks_transient_failures(self):
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=2),
            RetryPolicy(max_attempts=4))
        assert transport.get(BLOB) == b"payload-v1"
        assert transport.retries == 2
        assert transport.failed_attempts == 2
        assert transport.giveups == 0
        assert transport.backoff_seconds > 0

    def test_exhaustion_raises_with_cause(self):
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=99),
            RetryPolicy(max_attempts=3, cache_fallback=False))
        with pytest.raises(TransientStorageError) as excinfo:
            transport.get(BLOB)
        assert isinstance(excinfo.value.__cause__, TransientStorageError)
        assert transport.giveups == 1
        assert transport.failed_attempts == 3
        assert transport.retries == 2
        # invariant the chaos suite reconciles against injected faults:
        assert (transport.failed_attempts
                == transport.retries + transport.giveups)

    def test_blob_not_found_is_not_retried(self):
        transport = ResilientTransport(StorageServer())
        with pytest.raises(BlobNotFound):
            transport.get(BLOB)
        assert transport.attempts == 1
        assert transport.retries == 0

    def test_plain_storage_error_is_not_retried(self):
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=99, exc=StorageError),
            RetryPolicy(cache_fallback=False))
        with pytest.raises(StorageError):
            transport.get(BLOB)
        assert transport.attempts == 1

    def test_jitter_off_doubles_deterministically(self):
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=3),
            RetryPolicy(max_attempts=4, base_delay_s=0.1,
                        max_delay_s=10.0, jitter=False))
        transport.get(BLOB)
        # delays: 0.1 + 0.2 + 0.4
        assert transport.backoff_seconds == pytest.approx(0.7)

    def test_jitter_is_seed_deterministic(self):
        def total_backoff(seed):
            transport = ResilientTransport(
                FailNTimes(seeded_backend(), fails=5),
                RetryPolicy(max_attempts=8, seed=seed))
            transport.get(BLOB)
            return transport.backoff_seconds

        assert total_backoff(3) == total_backoff(3)
        assert total_backoff(3) != total_backoff(4)

    def test_jitter_delays_respect_bounds(self):
        policy = RetryPolicy(base_delay_s=0.05, max_delay_s=0.4, seed=11)
        transport = ResilientTransport(StorageServer(), policy)
        delay = policy.base_delay_s
        for _ in range(200):
            delay = transport._next_delay(delay)
            assert policy.base_delay_s <= delay <= policy.max_delay_s

    def test_deadline_caps_total_backoff(self):
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=99),
            RetryPolicy(max_attempts=50, base_delay_s=1.0,
                        max_delay_s=4.0, deadline_s=3.0, jitter=False,
                        breaker_threshold=1000, cache_fallback=False))
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)
        # 1 + 2 = 3s spent; the next 4s delay would blow the deadline.
        assert transport.backoff_seconds == pytest.approx(3.0)
        assert transport.attempts == 3  # far fewer than max_attempts

    @pytest.mark.parametrize("fails", [1, 2, 3])
    def test_a_single_op_is_a_frame_of_one(self, fails):
        """Same counters, same backoff and the same next jitter draw
        after ``put`` as after ``batch([put])``: one loop, one order."""
        def state_after(send):
            transport = ResilientTransport(
                FailNTimes(StorageServer(), fails=fails),
                RetryPolicy(seed=3))
            send(transport)
            return (transport.attempts, transport.retries,
                    transport.failed_attempts, transport.backoff_seconds,
                    transport._rng.random())

        single = state_after(lambda t: t.put(BLOB, b"x"))
        framed = state_after(
            lambda t: t.batch([BatchOp.put(BLOB, b"x")])[0].raise_for_status())
        assert single == framed
        assert single[:3] == (fails + 1, fails, fails)

    def test_put_and_delete_retry_too(self):
        backend = seeded_backend()
        transport = ResilientTransport(FailNTimes(backend, fails=1))
        transport.put(OTHER, b"fresh")
        assert backend.get(OTHER) == b"fresh"
        inner = FailNTimes(backend, fails=1)
        transport2 = ResilientTransport(inner)
        transport2.delete(OTHER)
        assert not backend.exists(OTHER)
        assert transport.retries == transport2.retries == 1


# -- circuit breaker ----------------------------------------------------------


def _down_transport(policy=None, cost=None):
    """Transport over a permanently-failing backend."""
    return ResilientTransport(FailNTimes(seeded_backend(), fails=10**9),
                              policy, cost=cost)


class TestCircuitBreaker:
    POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                         breaker_threshold=3, breaker_cooldown_s=5.0,
                         cache_fallback=False, jitter=False)

    def test_opens_after_consecutive_failures(self):
        transport = _down_transport(self.POLICY)
        assert transport.breaker_state == BREAKER_CLOSED
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)  # 2 failed attempts
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)  # 2 more: threshold crossed at 3
        assert transport.breaker_state == BREAKER_OPEN
        assert transport.breaker_opens == 1

    def test_open_breaker_rejects_without_touching_server(self):
        transport = _down_transport(self.POLICY)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)
        attempts_when_open = transport.attempts
        with pytest.raises(CircuitOpenError):
            transport.get(BLOB)
        assert transport.attempts == attempts_when_open
        assert transport.breaker_rejections == 1

    def test_half_open_probe_closes_on_success(self):
        cost = CostModel(FREE)
        inner = FailNTimes(seeded_backend(), fails=4)
        transport = ResilientTransport(inner, self.POLICY, cost=cost)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)
        assert transport.breaker_state == BREAKER_OPEN
        cost.clock.advance(5.0)  # cooldown elapses on the sim clock
        assert transport.get(BLOB) == b"payload-v1"  # half-open probe
        assert transport.breaker_state == BREAKER_CLOSED

    @pytest.mark.parametrize("framed", [False, True],
                             ids=["single", "frame_of_one"])
    def test_an_answer_closes_a_half_open_breaker(self, framed):
        """A probe the server answers, even with ``missing``, proves it
        reachable: the breaker closes alone or in a frame."""
        cost = CostModel(FREE)
        transport = ResilientTransport(
            FailNTimes(StorageServer(), fails=4), self.POLICY, cost=cost)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)
        assert transport.breaker_state == BREAKER_OPEN
        cost.clock.advance(5.0)
        if framed:
            [reply] = transport.batch([BatchOp.get(BLOB)])
            assert reply.status == "missing"
        else:
            with pytest.raises(BlobNotFound):
                transport.get(BLOB)
        assert transport.breaker_state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        cost = CostModel(FREE)
        policy = RetryPolicy(max_attempts=1, breaker_threshold=3,
                             breaker_cooldown_s=5.0, cache_fallback=False,
                             jitter=False)
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=10**9), policy, cost=cost)
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)
        assert transport.breaker_state == BREAKER_OPEN
        cost.clock.advance(5.0)
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)  # the probe fails -> snap back open
        assert transport.breaker_state == BREAKER_OPEN
        assert transport.breaker_opens == 2

    def test_half_open_state_is_reachable(self):
        cost = CostModel(FREE)
        transport = _down_transport(self.POLICY, cost=cost)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)
        cost.clock.advance(5.0)
        assert transport._breaker_allows()
        assert transport.breaker_state == BREAKER_HALF_OPEN

    def test_full_lifecycle_on_shared_clock(self):
        # No cost model: the cooldown elapses on a clock the *rest of
        # the system* advances (the volume clock, the sharded router's
        # clock) -- the transport's own backoff never moves it.  Before
        # the explicit ``clock=`` plumbing the breaker timed out on a
        # private clock nothing advanced, so OPEN was forever.
        clock = SimClock()
        inner = FailNTimes(seeded_backend(), fails=4)
        transport = ResilientTransport(inner, self.POLICY, clock=clock)
        assert transport.breaker_state == BREAKER_CLOSED
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(BLOB)  # 2x2 attempts: threshold crossed
        assert transport.breaker_state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError):
            transport.get(BLOB)  # cooldown has not elapsed
        clock.advance(4.99)  # simulated time passes elsewhere...
        with pytest.raises(CircuitOpenError):
            transport.get(BLOB)  # ...but not enough of it
        clock.advance(0.01)
        assert transport.breaker_state == BREAKER_OPEN
        assert transport.get(BLOB) == b"payload-v1"  # half-open probe
        assert transport.breaker_state == BREAKER_CLOSED
        assert transport.breaker_opens == 1
        assert transport.breaker_rejections == 2


# -- graceful degradation -----------------------------------------------------


class TestDegradedReads:
    def test_stale_serve_after_retry_exhaustion(self):
        backend = seeded_backend()
        gate = FailNTimes(backend, fails=0)
        transport = ResilientTransport(
            gate, RetryPolicy(max_attempts=2, base_delay_s=0.0))
        assert transport.get(BLOB) == b"payload-v1"  # caches fallback
        gate.remaining = 10**9  # SSP goes dark
        assert transport.get(BLOB) == b"payload-v1"  # stale, not raise
        assert transport.degraded_reads == 1
        assert BLOB in transport.stale_blob_ids

    def test_put_write_through_feeds_fallback(self):
        backend = seeded_backend()
        gate = FailNTimes(backend, fails=0)
        transport = ResilientTransport(
            gate, RetryPolicy(max_attempts=2, base_delay_s=0.0))
        transport.put(OTHER, b"my own write")
        gate.remaining = 10**9
        assert transport.get(OTHER) == b"my own write"
        assert transport.degraded_reads == 1

    def test_fresh_fetch_clears_stale_mark(self):
        backend = seeded_backend()
        gate = FailNTimes(backend, fails=0)
        transport = ResilientTransport(
            gate, RetryPolicy(max_attempts=2, base_delay_s=0.0))
        transport.get(BLOB)
        gate.remaining = 10**9
        transport.get(BLOB)  # stale
        gate.remaining = 0  # SSP heals
        assert transport.get(BLOB) == b"payload-v1"
        assert BLOB not in transport.stale_blob_ids

    def test_delete_invalidates_fallback(self):
        backend = seeded_backend()
        gate = FailNTimes(backend, fails=0)
        transport = ResilientTransport(
            gate, RetryPolicy(max_attempts=2, base_delay_s=0.0))
        transport.get(BLOB)
        transport.delete(BLOB)
        gate.remaining = 10**9
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)  # no fallback copy survives a delete
        assert transport.degraded_reads == 0

    def test_open_breaker_serves_stale(self):
        policy = RetryPolicy(max_attempts=1, breaker_threshold=2,
                             breaker_cooldown_s=100.0)
        backend = seeded_backend()
        gate = FailNTimes(backend, fails=0)
        transport = ResilientTransport(gate, policy)
        transport.get(BLOB)
        gate.remaining = 10**9
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                transport.get(OTHER)  # never cached: must raise
        assert transport.breaker_state == BREAKER_OPEN
        assert transport.get(BLOB) == b"payload-v1"  # rejected -> stale
        assert transport.breaker_rejections == 1
        assert transport.degraded_reads == 1

    def test_fallback_disabled(self):
        gate = FailNTimes(seeded_backend(), fails=0)
        transport = ResilientTransport(
            gate, RetryPolicy(max_attempts=2, base_delay_s=0.0,
                              cache_fallback=False))
        transport.get(BLOB)
        gate.remaining = 10**9
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)

    @pytest.mark.parametrize("framed", [False, True],
                             ids=["single", "frame_of_one"])
    def test_a_failed_delete_is_never_resurrected(self, framed):
        """A delete that runs out of retries drops the fallback copy all
        the same, alone or riding a frame: the blob is not served back."""
        flaky = FlakyServer(StorageServer(), failure_rate=0.0)
        transport = ResilientTransport(flaky)
        transport.put(BLOB, b"secret-v1")
        flaky.rates.update(get=1.0, delete=1.0)
        if framed:
            [reply] = transport.batch([BatchOp.delete(BLOB)])
            assert (reply.status, reply.transient) == ("error", True)
        else:
            with pytest.raises(TransientStorageError):
                transport.delete(BLOB)
        with pytest.raises(TransientStorageError):
            transport.get(BLOB)
        assert transport.degraded_reads == 0
        assert transport.stale_blob_ids == set()


# -- degraded reads x client caches (PR 7 regression) -------------------------


class TestDegradedCacheInteraction:
    """A last-known-good payload is served once and never cached.

    If the client cached the decrypted view of a degraded blob, the
    outage would outlive itself: the stale entry would keep serving old
    state long after the SSP healed.  The client checks the transport's
    ``stale_blob_ids`` ledger before every cache fill -- both the legacy
    metadata/data caches and the PR 7 verified metadata cache.
    """

    def _mounted(self, volume, registry, mdcache: bool):
        from repro.fs.client import ClientConfig, SharoesFilesystem
        gate = FailNTimes(volume.server, fails=0)
        # Huge breaker threshold: degradation comes purely from retry
        # exhaustion.  (An *open* breaker also serves stale, but this
        # volume carries no shared clock, so the cooldown would elapse
        # on a private simulated clock nothing here advances and the
        # healed reads below would still be rejected.)
        config = ClientConfig(
            mdcache=mdcache,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                     breaker_threshold=10**9))
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               config=config, server=gate)
        fs.mount()
        return fs, gate

    @pytest.mark.parametrize("mdcache", [False, True],
                             ids=["legacy-cache", "mdcache"])
    def test_degraded_payloads_never_populate_caches(self, volume,
                                                     registry, mdcache):
        fs, gate = self._mounted(volume, registry, mdcache)
        fs.mkdir("/deg")
        fs.mknod("/deg/f", mode=0o644)
        fs.write_file("/deg/f", b"survives the outage")

        fs.cache.clear()  # cold client caches; transport fallback warm
        gate.remaining = 10**9  # SSP goes dark

        assert fs.read_file("/deg/f") == b"survives the outage"
        first_wave = fs.server.degraded_reads
        assert first_wave > 0
        skips = fs.metrics.snapshot()["client.cache.degraded_skips"]
        assert skips > 0
        if mdcache:
            assert fs.mdcache.degraded_skips == skips

        # Nothing was cached: a second dark read crosses the transport
        # for every blob again instead of hitting a poisoned cache.
        assert fs.read_file("/deg/f") == b"survives the outage"
        assert fs.server.degraded_reads >= 2 * first_wave

        # SSP heals: the fresh fetch repopulates the caches normally...
        gate.remaining = 0
        assert fs.read_file("/deg/f") == b"survives the outage"
        assert not fs.server.stale_blob_ids
        # ...so a warm read needs no transport attempts at all.
        attempts = fs.server.attempts
        assert fs.read_file("/deg/f") == b"survives the outage"
        assert fs.server.attempts == attempts

    def test_degraded_read_still_verifies(self, volume, registry):
        """Degradation weakens availability, never integrity: the stale
        payload is validly signed old bytes, decrypted and verified on
        the normal path."""
        fs, gate = self._mounted(volume, registry, mdcache=True)
        fs.mkdir("/v")
        fs.mknod("/v/f", mode=0o600)
        fs.write_file("/v/f", b"signed")
        fs.cache.clear()
        gate.remaining = 10**9
        attrs = fs.getattr("/v/f")
        assert attrs.mode & 0o777 == 0o600
        assert fs.read_file("/v/f") == b"signed"


class DarkGets(ServerWrapper):
    """While ``dark``, fails every ``get`` whose blob id ``match`` picks."""

    def __init__(self, inner, match):
        super().__init__(inner)
        self.match = match
        self.dark = False

    def _forward(self, op):
        if self.dark and op.kind == "get" and self.match(op.blob_id):
            raise TransientStorageError(f"dark: {op.blob_id}")
        return op.call(self.inner)


class TestDegradedReadsNeverFeedWrites:
    """A mutation must not launder a degraded read.

    Serving a read from the last-known-good copy trades freshness for
    availability, once, for that read.  A mutation that edits such a
    copy and uploads the result makes the stale state the *current*
    state: whatever another client wrote in between is gone, and no
    error was ever raised.  Loading for a write raises the
    ``TransientStorageError`` the fallback swallowed.
    """

    def _stack(self, volume, registry, match):
        from repro.fs.client import ClientConfig, SharoesFilesystem

        def mount(user_id, config=None, server=None):
            fs = SharoesFilesystem(volume, registry.user(user_id),
                                   config=config, server=server)
            fs.mount()
            return fs

        gate = DarkGets(volume.server, match)
        mount("alice").mkdir("/s", mode=0o770)
        bob = mount("bob", ClientConfig(
            cache_bytes=0, retry_policy=RetryPolicy(
                jitter=False, breaker_threshold=1000)), gate)
        return mount, bob, gate

    def test_create_does_not_edit_a_stale_table(self, volume, registry):
        mount, bob, gate = self._stack(
            volume, registry, lambda blob_id: blob_id.kind == "data"
            and blob_id.selector.startswith("t:"))
        bob.create_file("/s/b0", b"x")  # every view of /s: in the fallback
        mount("alice").create_file("/s/a", b"y")
        gate.dark = True
        with pytest.raises(TransientStorageError):
            bob.create_file("/s/b", b"z")
        gate.dark = False
        assert mount("alice").readdir("/s") == ["a", "b0"]
        bob.create_file("/s/b", b"z")
        assert mount("alice").readdir("/s") == ["a", "b", "b0"]

    def test_append_does_not_extend_a_stale_block(self, volume, registry):
        mount, bob, gate = self._stack(
            volume, registry, lambda blob_id: blob_id.kind == "data"
            and blob_id.selector.startswith("b"))
        mount("alice").create_file("/s/f", b"A" * 10, mode=0o660)
        assert bob.read_file("/s/f") == b"A" * 10
        mount("alice").write_file("/s/f", b"B" * 20)
        gate.dark = True
        assert bob.read_file("/s/f") == b"A" * 10  # degraded, and flagged
        assert bob.server.degraded_reads > 0
        with pytest.raises(TransientStorageError):
            bob.append_file("/s/f", b"x")
        gate.dark = False
        assert mount("alice").read_file("/s/f") == b"B" * 20
        bob.append_file("/s/f", b"x")
        assert mount("alice").read_file("/s/f") == b"B" * 20 + b"x"


# -- refusals over the socket -------------------------------------------------


@contextmanager
def _proxy(backend):
    """A RemoteStorageClient to ``backend`` behind a loopback SspServer."""
    with SspServer(backend) as ssp:
        client = RemoteStorageClient(*ssp.address, timeout=2.0)
        try:
            yield client
        finally:
            client.close()


class TestRefusalsOverTheSocket:
    """A refusal crosses the socket with the class it has in process: a
    transient one stays transient (so a transport above the proxy
    retries it), a malformed frame stays permanent."""

    def test_a_flaky_single_op_refusal_is_transient(self):
        flaky = FlakyServer(seeded_backend(), {"get": 1.0})
        with _proxy(flaky) as client:
            with pytest.raises(TransientStorageError):
                client.get(BLOB)
        assert flaky.injected_faults == 1

    def test_an_outage_refusing_a_whole_frame_is_transient(self):
        outage = OutageServer(seeded_backend(), SimClock(), 0.0, 10.0)
        with _proxy(outage) as client:
            with pytest.raises(TransientStorageError):
                client.batch([BatchOp.get(BLOB), BatchOp.put(OTHER, b"x")])
            with pytest.raises(TransientStorageError):
                client.get(BLOB)
        assert outage.rejected_requests == 2

    @pytest.mark.parametrize("behind", ["fail_once", "outage"])
    def test_a_transport_over_the_proxy_retries_the_refusal(self, behind):
        clock = SimClock()
        backend = (FailNTimes(seeded_backend(), 1) if behind == "fail_once"
                   else OutageServer(seeded_backend(), clock, 0.0, 0.1))
        with _proxy(backend) as client:
            transport = ResilientTransport(
                client, RetryPolicy(jitter=False, cache_fallback=False),
                clock=clock)
            assert transport.get(BLOB) == b"payload-v1"
        assert transport.retries >= 1 and transport.giveups == 0

    def test_a_malformed_frame_is_a_permanent_error(self):
        with _proxy(seeded_backend()) as client:
            reply = client._roundtrip(bytes([OP_BATCH, 0, 0, 0, 0]))
            assert reply == (bytes([STATUS_ERROR, 0])
                             + b"batch frame with zero sub-ops")
            with pytest.raises(StorageError) as raised:
                client._check(reply)
        assert raised.type is StorageError


# -- observability wiring -----------------------------------------------------


class TestObservability:
    def test_backoff_charged_to_network_bucket(self):
        cost = CostModel(FREE)  # zero request costs: only backoff lands
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=2),
            RetryPolicy(base_delay_s=0.1, jitter=False), cost=cost)
        transport.get(BLOB)
        assert cost.totals.seconds["network"] == pytest.approx(
            transport.backoff_seconds)
        assert transport.backoff_seconds == pytest.approx(0.3)

    def test_attempt_spans_emitted(self):
        """Every attempt gets a sibling span -- the first included -- so
        a fault at attempt k leaves k+1 spans, the failures marked."""
        tracer = Tracer(max_finished=100)
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=2),
            RetryPolicy(base_delay_s=0.1, jitter=False), tracer=tracer)
        transport.get(BLOB)
        spans = [s for s in tracer.finished if s.name == "attempt"]
        assert [s.attrs["attempt"] for s in spans] == [1, 2, 3]
        assert [s.attrs["delay"] for s in spans] == \
            pytest.approx([0.0, 0.1, 0.2])
        assert [s.error for s in spans] == \
            ["TransientStorageError", "TransientStorageError", None]
        assert len(spans) == transport.attempts

    def test_bind_transport_snapshot(self):
        registry = MetricsRegistry()
        transport = ResilientTransport(
            FailNTimes(seeded_backend(), fails=2),
            RetryPolicy(base_delay_s=0.0))
        bind_transport(registry, transport)
        transport.get(BLOB)
        snap = registry.snapshot()
        assert snap["transport.attempts"] == 3
        assert snap["transport.retries"] == 2
        assert snap["transport.failures"] == 2
        assert snap["transport.giveups"] == 0
        assert snap["transport.breaker.state"] == 0
        assert snap["transport.degraded_reads"] == 0
