"""Resilient SSP transport: surviving an *unreliable* storage provider.

The paper's threat model (section VII) worries about a malicious SSP --
tampering, rollback -- and :mod:`repro.storage.faults` models those.  A
production client mounted over a WAN must also survive an SSP that is
merely flaky: dropped connections, slow responses, transient refusals.
This module supplies both halves of that story:

* **transient-fault injectors** -- delegating server wrappers that make
  any :class:`~repro.storage.server.StorageServer` unreliable on demand:
  :class:`FlakyServer` (seeded per-op failure probability),
  :class:`SlowServer` (extra simulated latency per request) and
  :class:`OutageServer` (a hard failure window on the simulated clock);

* :class:`ResilientTransport` -- the client-side wrapper that masks those
  faults: deadline-bounded retries with exponential backoff and
  decorrelated jitter charged *on the simulated clock* (so retry cost
  shows up in :class:`~repro.sim.costmodel.CostBreakdown` and span
  traces), a circuit breaker (open after N consecutive failures,
  half-open probe after a cooldown), and graceful degradation: a read
  that exhausts its retries falls back to the last blob this client
  verified-and-cached, flagged stale.

:class:`MutationTrigger` is the crash/preempt sweeps' injection point:
it runs a registered action just before a client's k-th SSP mutation.

Only :class:`~repro.errors.TransientStorageError` is retried.  A plain
:class:`~repro.errors.StorageError` (protocol corruption) or
:class:`~repro.errors.BlobNotFound` (a definitive answer) propagates
immediately -- retrying cannot change either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..errors import (CircuitOpenError, ClientCrashed, StorageError,
                      TransientStorageError)
from ..fs.cache import LruCache
from ..sim.clock import SimClock
from ..sim.costmodel import NETWORK, CostModel
from .blobs import DATA, BlobId, in_tail
from .server import (BATCH_KINDS, DELETE_KINDS, MUTATION_KINDS, PUT_KINDS,
                     STOPS, TAIL_KINDS, BatchOp, BatchReply, OpMethods,
                     StorageServer, apply_batch, failure_reply, ok_reply,
                     reply_value)


class ServerWrapper(OpMethods):
    """Delegating base for transparent StorageServer decorators.

    Unlike the subclass-style fault servers in :mod:`repro.storage.
    faults`, a wrapper composes with *any* backend -- in-memory, disk,
    remote proxy, or another wrapper -- without owning blob state.

    A decorator implements its rule once, in ``_forward(op)``; the nine
    named methods (:class:`~repro.storage.server.OpMethods`) and every
    sub-op of a batch arrive there.
    """

    def __init__(self, inner: StorageServer, name: str | None = None):
        self.inner = inner
        self.name = name or f"wrapped({inner.name})"

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def _forward(self, op: BatchOp):
        """The decorator's hook: run its rule, then pass the op on --
        always as ``op.call(self.inner)``, the inner layer's own named
        method, never a private fast path."""
        return op.call(self.inner)

    def batch(self, ops) -> list[BatchReply]:
        """Apply sub-ops through *this wrapper's own* single-op methods.

        This keeps every decorator honest inside a batch: a flaky wrapper
        can fail at sub-op k, a mutation trigger counts each mutation,
        and per-blob stats are identical to the unbatched sequence.
        Wrappers that model per-*request* cost (slow, outage) override
        this to pay once per frame instead.
        """
        return apply_batch(self, ops)


class MutationTrigger(ServerWrapper):
    """Runs the action registered for the k-th SSP mutation.

    Counts *mutations* (``MUTATION_KINDS``: puts, deletes, tail deletes,
    their CAS and fenced forms, each sub-op of a batch on its own, a
    tail delete once however many blocks it removes) -- reads never
    change SSP state, so a point between two reads is the same point as
    the next mutation.  ``actions`` maps k to a callable that runs once,
    just before the k-th mutation reaches the backend.  The sweeps
    register :func:`crash` there, a pause that lets other clients run
    (a deterministic context switch), or a rebalance stage.  With no
    actions the trigger only counts: that is how a sweep learns T.

    An action that raises kills the client: that mutation and every
    later one raise the same error without touching the backend.  The
    paper's SSP applies a request atomically or not at all, so the
    interesting partial states come from dying *between* the blobs of a
    multi-blob op, which per-mutation counting covers exhaustively.
    """

    def __init__(self, inner: StorageServer,
                 actions: dict[int, Callable[[], None]] | None = None):
        super().__init__(inner, name=f"trigger({inner.name})")
        self._death: Exception | None = None
        self.arm(actions)

    def arm(self, actions: dict[int, Callable[[], None]] | None = None
            ) -> None:
        """Count afresh from here: the next mutation is k = 1."""
        self.actions = dict(actions or {})
        self.mutations = 0

    def _forward(self, op: BatchOp):
        if op.kind in MUTATION_KINDS:
            self.mutations += 1
            if self._death is not None:
                raise self._death
            action = self.actions.pop(self.mutations, None)
            if action is not None:
                try:
                    action()
                except Exception as exc:
                    self._death = exc
                    raise
        return op.call(self.inner)


def crash() -> None:
    """The crash action: the client process dies at this mutation."""
    raise ClientCrashed("injected crash")


# -- transient-fault injectors ------------------------------------------------


class FlakyServer(ServerWrapper):
    """Fails a seeded fraction of requests with TransientStorageError.

    ``failure_rate`` is either one probability for every operation or a
    ``{op: probability}`` map over ``"put" | "get" | "delete" |
    "exists"`` (missing ops never fail).  Deterministic given the seed,
    so chaos tests can replay exact failure sequences.
    """

    OPS = ("put", "get", "delete", "exists")
    #: CAS and fenced forms fail at the rate of the plain op they guard.
    _RATE_OF = {kind: "put" if kind in PUT_KINDS
                else "delete" if kind in DELETE_KINDS else kind
                for kind in BATCH_KINDS}

    def __init__(self, inner: StorageServer,
                 failure_rate: float | dict[str, float] = 0.1,
                 seed: int = 0, name: str = "flaky-ssp"):
        super().__init__(inner, name)
        if isinstance(failure_rate, dict):
            unknown = sorted(set(failure_rate) - set(self.OPS))
            if unknown:
                raise ValueError(
                    f"unknown op(s) {unknown} in failure_rate; "
                    f"allowed: {list(self.OPS)}")
            rates = {op: float(failure_rate.get(op, 0.0))
                     for op in self.OPS}
        else:
            rates = {op: float(failure_rate) for op in self.OPS}
        for op, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"failure rate for {op!r} must be within [0, 1]")
        self.rates = rates
        self._rng = random.Random(seed)
        self.injected_faults = 0
        self.faults_by_op = {op: 0 for op in self.OPS}

    def _maybe_fail(self, op: str, blob_id: BlobId) -> None:
        if self._rng.random() < self.rates[op]:
            self.injected_faults += 1
            self.faults_by_op[op] += 1
            raise TransientStorageError(
                f"{self.name}: injected {op} failure for {blob_id}")

    def _forward(self, op: BatchOp):
        self._maybe_fail(self._RATE_OF[op.kind], op.blob_id)
        return op.call(self.inner)


class SlowServer(ServerWrapper):
    """Charges extra simulated latency on every request.

    With a cost model the delay lands in the NETWORK bucket (and in the
    innermost open span); with only a clock it just advances time --
    enough for deadline and breaker-cooldown tests.
    """

    def __init__(self, inner: StorageServer, delay_s: float,
                 cost: CostModel | None = None,
                 clock: SimClock | None = None, name: str = "slow-ssp"):
        super().__init__(inner, name)
        if delay_s < 0:
            raise ValueError("delay must be >= 0")
        self.delay_s = delay_s
        self._cost = cost
        self._clock = clock if clock is not None else (
            cost.clock if cost is not None else None)
        self.delayed_requests = 0

    def _stall(self) -> None:
        self.delayed_requests += 1
        if self._cost is not None:
            self._cost.charge(NETWORK, self.delay_s)
        elif self._clock is not None:
            self._clock.advance(self.delay_s)

    def _forward(self, op: BatchOp):
        self._stall()
        return op.call(self.inner)

    def batch(self, ops) -> list[BatchReply]:
        """One frame = one request = one stall; sub-ops ride for free.

        This is the whole point of batching under a per-request latency
        model, so the stall is charged once and the sub-ops go straight
        to the inner backend."""
        self._stall()
        return self.inner.batch(ops)


class OutageServer(ServerWrapper):
    """Fails every request inside a simulated-clock time window."""

    def __init__(self, inner: StorageServer, clock: SimClock,
                 start_s: float, end_s: float, name: str = "outage-ssp"):
        super().__init__(inner, name)
        if end_s < start_s:
            raise ValueError("outage window must not end before it starts")
        self._clock = clock
        self.start_s = start_s
        self.end_s = end_s
        self.rejected_requests = 0

    @property
    def in_outage(self) -> bool:
        return self.start_s <= self._clock.now < self.end_s

    def _gate(self, op: str, blob_id: BlobId) -> None:
        if self.in_outage:
            self.rejected_requests += 1
            raise TransientStorageError(
                f"{self.name}: outage until t={self.end_s:g}s "
                f"(now {self._clock.now:g}s, {op} {blob_id})")

    def _forward(self, op: BatchOp):
        self._gate(op.kind, op.blob_id)
        return op.call(self.inner)

    def batch(self, ops) -> list[BatchReply]:
        """An outage rejects the whole frame at the door (one request)."""
        if ops:
            self._gate("batch", ops[0].blob_id)
        return self.inner.batch(ops)


# -- the retry / breaker / degradation layer ----------------------------------

#: byte budget of the last-known-good cache (``cache_fallback``).
_FALLBACK_CACHE_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for one client's resilient transport.

    Delays are *simulated* seconds.  ``deadline_s`` bounds the total
    backoff spent on one request; attempts themselves are priced by the
    cost model like any other request, so the deadline is a promise
    about added waiting, not total operation latency.
    """

    #: total tries per request (first attempt included).
    max_attempts: int = 4
    #: first backoff delay; subsequent delays grow exponentially.
    base_delay_s: float = 0.05
    #: cap on any single backoff delay.
    max_delay_s: float = 2.0
    #: total backoff budget per request; exhausted -> give up early.
    deadline_s: float = 10.0
    #: decorrelated jitter (uniform in [base, 3*previous]) on by default;
    #: False gives pure exponential doubling for byte-reproducible tests.
    jitter: bool = True
    #: consecutive failed attempts that open the circuit breaker.
    breaker_threshold: int = 5
    #: simulated seconds the breaker stays open before a half-open probe.
    breaker_cooldown_s: float = 5.0
    #: serve the last-known-good cached blob (flagged stale) when a read
    #: exhausts its retries or hits an open breaker.
    cache_fallback: bool = True
    #: seeds the jitter RNG: same seed -> identical retry schedule.
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")


#: Circuit-breaker states, in escalation order (gauge values 0/1/2).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class ResilientTransport(ServerWrapper):
    """Deadline-bounded retries + circuit breaker + degraded reads.

    Sits between a :class:`~repro.fs.client.SharoesFilesystem` and any
    backend (including the fault injectors above).  All waiting happens
    on the *simulated* clock via the cost model's NETWORK bucket, so
    chaos runs report retry cost exactly like any other network time.

    Instrumentation: plain integer counters on the instance (adapted
    into a :class:`~repro.obs.metrics.MetricsRegistry` by
    ``bind_transport``) and, on the tracer it is given (default: an
    unobserved one), an ``attempt`` child span per attempt -- the first
    included -- carrying the attempt's backoff charge; failed attempts
    are error-marked.  An
    injected fault at attempt k therefore yields k+1 sibling attempt
    spans under the issuing ``network`` span, and the total attempt-span
    count reconciles with the ``attempts`` counter.
    """

    def __init__(self, inner: StorageServer,
                 policy: RetryPolicy | None = None,
                 cost: CostModel | None = None, tracer=None,
                 name: str | None = None,
                 clock: SimClock | None = None):
        super().__init__(inner, name or f"resilient({inner.name})")
        self.policy = policy or RetryPolicy()
        self._cost = cost
        # Breaker cooldowns and backoff must elapse on *one* simulated
        # clock.  A cost model's clock always wins (backoff is charged
        # through it); without a cost model, callers that share a clock
        # (the client's volume clock, the sharded router, tests) pass it
        # explicitly.  The old behaviour -- a private SimClock only this
        # transport's own backoff ever advanced -- meant an open breaker
        # could never cool down however much simulated time the rest of
        # the system spent.
        if cost is not None:
            self._clock = cost.clock
        elif clock is not None:
            self._clock = clock
        else:
            self._clock = SimClock()
        if tracer is None:
            from ..obs.tracing import Tracer  # obs/ imports this module
            tracer = Tracer()
        self._tracer = tracer
        self._rng = random.Random(self.policy.seed)
        self._fallback = LruCache(
            _FALLBACK_CACHE_BYTES if self.policy.cache_fallback else 0)
        # breaker state
        self.breaker_state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # counters (see obs.metrics.bind_transport for the exported names)
        self.attempts = 0
        self.retries = 0
        self.failed_attempts = 0
        self.giveups = 0
        self.degraded_reads = 0
        self.breaker_opens = 0
        self.breaker_rejections = 0
        self.backoff_seconds = 0.0
        #: blob ids ever served from the stale fallback path.
        self.stale_blob_ids: set[BlobId] = set()

    # -- clock / instrumentation helpers -----------------------------------

    def _now(self) -> float:
        return self._clock.now

    def _sleep(self, seconds: float) -> None:
        """Backoff on the simulated clock; charged as NETWORK time so it
        lands in the CostBreakdown and the innermost open span."""
        self.backoff_seconds += seconds
        if self._cost is not None:
            self._cost.charge(NETWORK, seconds)
        else:
            self._clock.advance(seconds)

    def _attempt_scope(self, op: str, attempt: int, delay: float):
        """One span per attempt (attempt 1 included, delay 0.0)."""
        return self._tracer.span("attempt", op=op, attempt=attempt,
                                 delay=round(delay, 6))

    # -- circuit breaker ----------------------------------------------------

    def _breaker_allows(self) -> bool:
        if self.breaker_state != BREAKER_OPEN:
            return True
        if self._now() - self._opened_at >= self.policy.breaker_cooldown_s:
            self.breaker_state = BREAKER_HALF_OPEN
            return True
        return False

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self.breaker_state = BREAKER_CLOSED

    def _record_failure(self) -> None:
        self.failed_attempts += 1
        self._consecutive_failures += 1
        if (self.breaker_state == BREAKER_HALF_OPEN
                or self._consecutive_failures
                >= self.policy.breaker_threshold):
            if self.breaker_state != BREAKER_OPEN:
                self.breaker_opens += 1
            self.breaker_state = BREAKER_OPEN
            self._opened_at = self._now()

    # -- the retry loop -----------------------------------------------------

    def _execute(self, label: str, ops: list[BatchOp],
                 send: Callable[[list[BatchOp]], list[BatchReply]]
                 ) -> list[BatchReply]:
        """The one attempt loop: a frame, or a single op as a frame of one.

        ``send`` ships the sub-ops not yet resolved and returns a reply
        per sub-op.  Each attempt's replies extend the resolved prefix
        (:meth:`_settle`); a transient sub-reply, a short reply or a lost
        frame (``send`` raising ``TransientStorageError``) is a failed
        attempt, retried from the first unresolved sub-op -- applied
        sub-ops are never re-sent.  ``fenced`` or a hard ``error`` ends
        the frame (a revoked fence only moves further away; a server
        that answers is healthy).  Exhausted retries put a transient
        ``error`` at the first unresolved sub-op and the tail reads
        ``unattempted``.  An open breaker raises ``CircuitOpenError``
        before any attempt; ``ClientCrashed`` propagates unhandled.

        Backoff: the first retry waits ``base_delay_s``; a retry that
        fails draws the next wait (:meth:`_next_delay`), so one request
        draws the same jitter whether it is a frame or a single op.
        """
        policy = self.policy
        for op in ops:
            if op.kind in DELETE_KINDS:
                # Invalidate before the first attempt: even when every
                # try fails, a blob this client asked to delete is never
                # served back from the fallback cache.
                self._forget(op)
        if not self._breaker_allows():
            self.breaker_rejections += 1
            raise CircuitOpenError(
                f"{self.name}: circuit open for another "
                f"{self._opened_at + policy.breaker_cooldown_s - self._now():.3f}s "
                f"({label} of {len(ops)})")

        merged: list[BatchReply] = []  # the resolved prefix
        backoff_spent = 0.0
        delay = policy.base_delay_s
        wait = 0.0  # backoff before the next attempt (0 for the first)
        tries = 0
        last_error: TransientStorageError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                if backoff_spent + wait > policy.deadline_s:
                    break  # deadline: give up before sleeping again
                self.retries += 1
            last_error = None
            with self._attempt_scope(label, attempt, wait) as span:
                if wait:
                    self._sleep(wait)
                    backoff_spent += wait
                self.attempts += 1
                tries = attempt
                try:
                    self._settle(ops, merged, send(ops[len(merged):]),
                                 resent=attempt > 1)
                except TransientStorageError as exc:
                    last_error = exc
                    if span is not None:
                        span.error = type(exc).__name__
            if last_error is None:
                self._record_success()
                return merged
            self._record_failure()
            if attempt > 1:
                delay = self._next_delay(delay)
            wait = delay

        self.giveups += 1
        failed_op = ops[len(merged)]
        merged.append(BatchReply(
            "error", transient=True,
            message=(f"{self.name}: {failed_op.kind} {failed_op.blob_id} "
                     f"failed after {tries} attempts "
                     f"({backoff_spent:.3f}s backoff): {last_error}")))
        merged += [BatchReply("unattempted")] * (len(ops) - len(merged))
        return merged

    def _settle(self, ops: list[BatchOp], merged: list[BatchReply],
                replies: list[BatchReply], resent: bool) -> None:
        """Fold one attempt's replies into the resolved prefix ``merged``.

        Raises ``TransientStorageError`` to retry from the first sub-op
        still unresolved (a transient sub-reply or a short reply).
        """
        for op, reply in zip(ops[len(merged):], replies):
            if (resent and reply.status == "conflict"
                    and op.kind == "put_if"
                    and reply.payload == bytes(op.payload or b"")):
                # Only on a re-sent attempt: an earlier one applied
                # before its ack was lost, so the "conflict" is our own
                # landed write.  On a first attempt it is a lost race --
                # another writer can produce identical bytes.
                reply = BatchReply("ok")
            if reply.status == "unattempted":
                break
            if reply.status == "error" and reply.transient:
                raise TransientStorageError(reply.message)
            merged.append(reply)
            self._absorb_subop(op, reply)
            if reply.status in STOPS:
                merged += [BatchReply("unattempted")] * (
                    len(ops) - len(merged))
                return
        if len(merged) < len(ops):
            raise TransientStorageError("short batch reply")

    def _next_delay(self, previous: float) -> float:
        policy = self.policy
        if policy.base_delay_s == 0:
            return 0.0
        if policy.jitter:
            # Decorrelated jitter (Brooker, AWS architecture blog):
            # uniform in [base, 3 * previous], capped.
            candidate = self._rng.uniform(policy.base_delay_s,
                                          max(policy.base_delay_s,
                                              previous * 3.0))
        else:
            candidate = previous * 2.0
        return min(policy.max_delay_s, candidate)

    # -- the fallback cache -------------------------------------------------

    @staticmethod
    def _slot(blob_id: BlobId) -> tuple:
        """A blob's fallback key, filed under its kind and inode (so a
        tail delete visits only its inode's copies)."""
        return blob_id.kind, blob_id.inode, blob_id

    def _forget(self, op: BatchOp) -> None:
        """Drop the fallback copies of what ``op`` deletes."""
        if op.kind not in TAIL_KINDS:
            self._fallback.invalidate(self._slot(op.blob_id))
            self.stale_blob_ids.discard(op.blob_id)
            return
        self._fallback.invalidate_prefix(
            (DATA, op.blob_id.inode),
            where=lambda key: in_tail(op.blob_id, key[2]))
        self.stale_blob_ids -= {blob_id for blob_id in self.stale_blob_ids
                                if in_tail(op.blob_id, blob_id)}

    def _serve_stale(self, op: BatchOp):
        """The last-known-good copy for a read that could not be served
        (None: not a read, or nothing cached)."""
        if op.kind != "get" or not self.policy.cache_fallback:
            return None
        payload = self._fallback.get(self._slot(op.blob_id))
        if payload is None:
            return None
        self.degraded_reads += 1
        self.stale_blob_ids.add(op.blob_id)
        return payload

    def _absorb_subop(self, op: BatchOp, reply: BatchReply) -> None:
        """Fallback-cache upkeep for one acknowledged sub-op."""
        if not self.policy.cache_fallback or reply.status != "ok":
            return
        if op.kind in PUT_KINDS:
            # Write-through: this client's own upload is the freshest
            # possible fallback copy.
            payload = op.payload or b""
            self._fallback.put(self._slot(op.blob_id), bytes(payload),
                               len(payload))
        elif op.kind == "get":
            # A genuinely fresh fetch: refresh the fallback copy and
            # clear any stale mark from an earlier degraded serve.
            payload = reply.payload or b""
            self._fallback.put(self._slot(op.blob_id), payload,
                               len(payload))
            self.stale_blob_ids.discard(op.blob_id)
        elif op.kind in DELETE_KINDS:
            self._forget(op)

    # -- the StorageServer interface ----------------------------------------

    def _forward(self, op: BatchOp):
        """A single op: a frame of one through :meth:`_execute`.

        It still reaches the layer below as its named method, so its
        wire frame is unchanged, and it returns what that method returns
        and raises what it raised.  A read that gives up, or meets an
        open breaker, is served from the fallback cache when it can be.
        """
        raised: list[StorageError] = []

        def send(_unresolved):
            try:
                return [ok_reply(op, op.call(self.inner))]
            except StorageError as exc:
                raised.append(exc)
                if isinstance(exc, TransientStorageError):
                    raise  # the frame of one was lost: re-send it
                return [failure_reply(exc)]

        try:
            [reply] = self._execute(op.kind, [op], send)
        except CircuitOpenError:
            stale = self._serve_stale(op)
            if stale is None:
                raise
            return stale
        if reply.ok:
            return reply_value(op, reply)
        if reply.status == "error" and reply.transient:  # gave up
            stale = self._serve_stale(op)
            if stale is not None:
                return stale
            raise TransientStorageError(reply.message) from raised[-1]
        raise raised[-1]

    def batch(self, ops) -> list[BatchReply]:
        """A frame through :meth:`_execute`: partial-failure retry that
        re-sends only the unresolved suffix, so the applied / failed /
        remaining contract survives retries intact.  The caller maps a
        ``fenced`` or ``error`` reply onto ``StaleEpochError`` /
        ``PartialWriteError`` exactly as for single ops."""
        ops = list(ops)
        if not ops:
            return []
        return self._execute("batch", ops, self.inner.batch)
