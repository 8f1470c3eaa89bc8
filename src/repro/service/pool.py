"""The transport-agnostic worker-pool core.

Everything the two front doors (the in-process
:class:`~repro.service.gateway.ServiceGateway` and the asyncio socket
server in :mod:`repro.service.netserver`) have in common lives here:
starting the worker processes, shard-affine routing, ticket
bookkeeping, response collection and dead-worker detection.  Neither
front door touches a queue or a process directly — they submit
requests and wait on tickets, which is exactly the discipline the
network path needs anyway.

One daemon **collector thread** owns the shared response queue.  It
parks every response under its ticket and notifies waiters, so any
number of threads — a blocking caller per ticket batch, or the socket
server's per-request executor waits — can gather concurrently without
stealing each other's responses off the queue.  The collector also
watches worker liveness: a ticket whose worker died (after a short
grace for responses the worker flushed before dying) fails fast with
:class:`~repro.errors.ServiceError` instead of waiting out the full
response timeout.

Correctness never depends on the routing: the per-shard stores
serialize racing writers at the SQLite lock, so even a token
deliberately submitted to two workers is spent exactly once.

The pool is also where the service stack *measures and bounds* itself
(see ``docs/metrics.md`` / ``docs/runbook.md``): every ticket feeds
per-op latency histograms and outcome counters in a
:class:`~repro.service.metrics.MetricsRegistry`, queue-depth and
inflight gauges track the books, and **admission control** sheds load
at submit time — a pool-wide ``max_inflight`` ceiling and a per-worker
``max_pending`` queue bound refuse further requests with a typed
:class:`~repro.errors.OverloadedError` (retry-later, no side effects)
instead of buffering without bound.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time

from ..core.messages import (
    DepositRequest,
    ExchangeRequest,
    PurchaseRequest,
    RedeemRequest,
    WithdrawRequest,
)
from ..errors import OverloadedError, ServiceError
from . import tracing, wire
from .metrics import MetricsRegistry, ensure_service_metrics
from .sharding import shard_index
from .workers import ServiceConfig, require_start_method, worker_main

#: How long a gather waits for any worker response before declaring
#: the pool broken.  Generous: smoke-sized crypto on a loaded CI box.
RESPONSE_TIMEOUT = 300.0

#: Grace between noticing a worker died and failing its tickets —
#: responses the worker flushed just before dying drain out first.
_DEATH_GRACE = 2.0

#: Upper bound on the parked/abandoned ticket books (see ``WorkerPool``).
_BOOKKEEPING_CAP = 4096


class WorkerPool:
    """Worker processes plus the ticket discipline over them."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        workers: int = 2,
        start_method: str | None = None,
        clock=None,
        max_inflight: int | None = None,
        max_pending: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if workers < 1:
            raise ServiceError("need at least one worker")
        if max_inflight is not None and max_inflight < 1:
            raise ServiceError("need max_inflight >= 1 (or None for unbounded)")
        if max_pending is not None and max_pending < 1:
            raise ServiceError("need max_pending >= 1 (or None for unbounded)")
        if workers > len(config.shard_paths):
            # Affinity maps shard -> worker, so surplus workers would
            # never see a request; refuse rather than silently idle.
            raise ServiceError(
                f"{workers} workers but only {len(config.shard_paths)} shards;"
                " use shards >= workers"
            )
        self._config = config
        self._workers = workers
        self._shard_count = len(config.shard_paths)
        # The operator's clock.  Every queue item is stamped with it at
        # submit time and workers follow *only* these stamps — time is
        # distributed from the trusted side of the wire, never taken
        # from client-controlled request fields (a signed-but-bogus
        # timestamp must not be able to drag a worker's clock).
        from ..clock import SimClock

        self._clock = clock if clock is not None else SimClock(config.clock_start)
        self._next_request_id = 0
        #: One condition guards every book below.  Ticket-id allocation
        #: additionally never leaves this lock, so concurrent
        #: submitting threads can never mint duplicate ids.
        self._cond = threading.Condition()
        #: Admission ceilings (``None`` = unbounded, the pre-overload
        #: behaviour): total outstanding tickets, and outstanding per
        #: worker queue.  Checked in ``_enqueue`` under ``_cond``.
        self._max_inflight = max_inflight
        self._max_pending = max_pending
        self._pending_per_worker = [0] * workers
        #: Which worker each outstanding ticket went to — lets the
        #: collector fail exactly the tickets a dead worker owed.
        self._ticket_worker: dict[int, int] = {}
        #: Per-ticket metrics/trace context:
        #: ``(op kind, submit monotonic, trace context or None)``.
        self._ticket_meta: dict[int, tuple[str, float, tracing.TraceContext | None]] = {}
        #: The stack's metrics registry (shared with the socket
        #: front-end; rendered by the Prometheus endpoint and the
        #: ``metrics`` control frame).
        self._registry = ensure_service_metrics(
            registry if registry is not None else MetricsRegistry()
        )
        self._m_requests = self._registry.get("p2drm_requests_total")
        self._m_errors = self._registry.get("p2drm_errors_total")
        self._m_shed = self._registry.get("p2drm_shed_total")
        self._m_latency = self._registry.get("p2drm_request_latency_seconds")
        self._m_queue_depth = self._registry.get("p2drm_queue_depth")
        self._m_inflight = self._registry.get("p2drm_inflight_requests")
        self._m_workers_alive = self._registry.get("p2drm_workers_alive")
        self._m_workers_alive.set(workers)
        self._m_warmup = self._registry.get("p2drm_worker_warmup_seconds")
        #: Worker warmup reports (worker index -> (mode, seconds)),
        #: filled by the collector as each worker finishes
        #: ``warm_fastexp`` and announces how it got its tables
        #: ("build" / "attach" / "cow").  Read via ``warmup_reports``.
        self._warmup: dict[int, tuple[str, float]] = {}
        # Tail-based capture: when a trace is kept, stamp its pool
        # latency as an exemplar on the request-latency histogram so a
        # slow bucket links to an inspectable trace.
        trace_recorder = tracing.recorder()
        if trace_recorder is not None:
            trace_recorder.on_keep(self._annotate_exemplars)
        #: Responses parked by the collector until their gather claims
        #: them (ticket -> raw payload bytes).
        self._parked: dict[int, bytes] = {}
        #: Tickets the collector failed (their worker died): gathers
        #: raise the recorded error instead of timing out.
        self._failed: dict[int, ServiceError] = {}
        #: Tickets whose gather gave up (timeout / dead worker): their
        #: late responses are dropped on arrival instead of parking in
        #: ``_parked`` forever.  Both books are bounded (oldest entries
        #: evicted past ``_BOOKKEEPING_CAP``) so a long-lived pool
        #: surviving repeated failures cannot leak memory — an evicted
        #: abandoned id at worst re-parks one late response in the
        #: (equally bounded) parked book.
        self._abandoned: set[int] = set()
        #: When the collector first saw each worker dead (grace timer),
        #: and when it last scanned at all (``is_alive`` is a syscall
        #: per worker — at high throughput the scan is rate-limited
        #: instead of running once per response).
        self._dead_since: dict[int, float] = {}
        self._last_liveness_scan = 0.0
        self._closed = False

        context = multiprocessing.get_context(start_method or require_start_method())
        self._request_queues = [context.Queue() for _ in range(workers)]
        self._response_queue = context.Queue()
        self._processes = []
        for index in range(workers):
            process = context.Process(
                target=worker_main,
                args=(index, config, self._request_queues[index], self._response_queue),
                daemon=True,
                name=f"p2drm-worker-{index}",
            )
            process.start()
            self._processes.append(process)
        # Started only after every fork: the collector must exist in
        # the parent alone (a forked child cloning a running thread's
        # lock state is exactly the kind of inheritance workers avoid).
        self._collector = threading.Thread(
            target=self._collect_forever, name="p2drm-pool-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle ---------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def shards(self) -> int:
        return self._shard_count

    @property
    def clock(self):
        return self._clock

    @property
    def processes(self) -> list:
        """The live worker process handles (tests kill these)."""
        return self._processes

    @property
    def metrics(self) -> MetricsRegistry:
        """The stack's metrics registry (shared with the socket
        front-end; see ``docs/metrics.md`` for every exported name)."""
        return self._registry

    @property
    def warmup_reports(self) -> dict[int, tuple[str, float]]:
        """Worker index -> ``(mode, seconds)`` warmup announcements
        collected so far ("build" / "attach" / "cow")."""
        with self._cond:
            return dict(self._warmup)

    def wait_warmup(self, timeout: float = 60.0) -> dict[int, tuple[str, float]]:
        """Block until every worker announced its warmup (or timeout);
        returns the reports.  Benches use this to separate warmup cost
        from steady-state throughput."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._warmup) < self._workers and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 0.25))
            return dict(self._warmup)

    def close(self) -> None:
        """Stop the workers and the collector; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for request_queue in self._request_queues:
            try:
                request_queue.put(None)
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=30)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._collector.join(timeout=5)

    # -- routing -----------------------------------------------------------

    def _affinity_token(self, request) -> bytes:
        if isinstance(request, RedeemRequest):
            return request.anonymous_license.license_id
        if isinstance(request, ExchangeRequest):
            return request.license_id
        if isinstance(request, PurchaseRequest):
            return request.certificate.fingerprint
        if isinstance(request, DepositRequest):
            # The actual spend key (value||serial), so the deposit
            # lands on the worker whose slot owns the coin's shard.
            return request.coins[0].spent_token() if request.coins else b"deposit"
        if isinstance(request, WithdrawRequest):
            # Account-affine: the debit lands on the account's home
            # shard, so route to the worker whose slot owns it.
            return request.account.encode("utf-8")
        raise ServiceError(f"unroutable request {type(request).__name__}")

    def worker_for(self, request) -> int:
        """The shard-affine worker index for a request (exposed so
        tests can *defeat* affinity and race two workers)."""
        return self._worker_for_token(self._affinity_token(request))

    def _worker_for_token(self, token: bytes) -> int:
        return shard_index(token, self._shard_count) % self._workers

    # -- submission --------------------------------------------------------

    def submit(
        self, request, *, worker: int | None = None, nonce: bytes | None = None
    ) -> int:
        """Encode and enqueue one request; returns a gather ticket.

        Raises :class:`~repro.errors.OverloadedError` when an
        admission ceiling is full — before the request touches any
        queue or store, so a shed submit is always safe to retry.

        ``nonce`` stamps the envelope with an idempotency key (see
        :mod:`repro.service.replay`) so queue-path retries — chaos
        transports, the sim — get the same exactly-once replay the
        socket clients do.
        """
        ctx = tracing.current_context()
        return self._enqueue(
            wire.encode_request(request, trace=ctx, nonce=nonce),
            self.worker_for(request) if worker is None else worker % self._workers,
            wire.request_kind(request),
            ctx,
        )

    def submit_encoded(
        self,
        payload: bytes | memoryview,
        envelope: wire.RequestEnvelope,
        *,
        worker: int | None = None,
        trace: tracing.TraceContext | None = None,
    ) -> int:
        """Enqueue an already-encoded request envelope, verbatim.

        The network path lands here: the client's bytes go onto the
        worker queue untouched, routed by ``envelope`` — the caller's
        one :func:`~repro.service.wire.parse_request` of ``payload``,
        whose :meth:`~repro.service.wire.RequestEnvelope.routing_token`
        is byte-equal to the typed request's — so the socket transport
        is byte-transparent end to end without parsing twice.
        ``payload`` may be a ``memoryview`` straight out of
        :class:`~repro.service.transport.FrameDecoder`: the bytes are
        materialized exactly once, at the process-queue boundary
        (``_enqueue``), the first place an owned copy is unavoidable
        (the queue pickles).  A body too malformed to route raises —
        pinned or not — so the caller answers the peer directly
        instead of burning a worker round trip.

        ``trace`` attaches the caller's span context to the ticket
        (the payload bytes stay verbatim — the socket path's trace
        context rides the envelope's own ``meta`` field, written by
        the *client*, not rewritten here).
        """
        token = envelope.routing_token()
        return self._enqueue(
            payload,
            self._worker_for_token(token) if worker is None else worker % self._workers,
            envelope.kind,
            trace,
        )

    def _enqueue(
        self,
        payload: bytes | memoryview,
        target: int,
        kind: str,
        ctx: tracing.TraceContext | None = None,
    ) -> int:
        if not isinstance(payload, bytes):
            # The one deliberate copy on the zero-copy path: the mp
            # queue pickles its items, so the view must become owned
            # bytes here — and nowhere earlier.
            payload = bytes(payload)
        with self._cond:
            if self._closed:
                raise ServiceError("worker pool is closed")
            # Admission control: shed *here*, before the ticket exists,
            # so an over-ceiling request has no side effects anywhere —
            # the typed refusal is the whole transaction.
            if (
                self._max_inflight is not None
                and len(self._ticket_worker) >= self._max_inflight
            ):
                self._shed_locked(kind, "pool", f"{self._max_inflight} in flight")
            if (
                self._max_pending is not None
                and self._pending_per_worker[target] >= self._max_pending
            ):
                self._shed_locked(
                    kind, "worker",
                    f"worker {target} at {self._max_pending} pending",
                )
            ticket = self._next_request_id
            self._next_request_id += 1
            submitted_at = time.monotonic()
            self._ticket_worker[ticket] = target
            self._ticket_meta[ticket] = (kind, submitted_at, ctx)
            self._pending_per_worker[target] += 1
            self._m_queue_depth.set(self._pending_per_worker[target], worker=target)
            self._m_inflight.set(len(self._ticket_worker))
        # The fourth element is the submit monotonic: CLOCK_MONOTONIC is
        # system-wide on the platforms the pool supports, so the worker
        # can measure queue wait as (its drain time - this stamp).
        self._request_queues[target].put(
            (ticket, payload, self._clock.now(), submitted_at)
        )
        return ticket

    def _shed_locked(self, kind: str, reason: str, detail: str) -> None:
        """Refuse admission: count the shed and raise the typed error."""
        self._m_shed.inc(op=kind, reason=reason)
        self._m_requests.inc(op=kind, outcome="shed")
        raise OverloadedError(f"service overloaded ({detail}); retry later")

    def _resolve_ticket_locked(self, ticket: int):
        """Retire one outstanding ticket from every book and gauge;
        returns ``(kind, submitted_at, trace ctx, worker)`` or ``None``
        (``_cond`` held)."""
        target = self._ticket_worker.pop(ticket, None)
        if target is not None:
            self._pending_per_worker[target] -= 1
            self._m_queue_depth.set(self._pending_per_worker[target], worker=target)
            self._m_inflight.set(len(self._ticket_worker))
        meta = self._ticket_meta.pop(ticket, None)
        if meta is None:
            return None
        return (*meta, target if target is not None else -1)

    # -- collection --------------------------------------------------------

    def gather_raw(self, tickets: list[int]) -> list[bytes]:
        """Raw response payloads aligned with ``tickets`` (blocking).

        Raises :class:`~repro.errors.ServiceError` when a ticket's
        worker died or nothing answered within ``RESPONSE_TIMEOUT``;
        responses already claimed are re-parked first (their side
        effects committed — a caller holding the tickets can still
        gather them) and the missing tickets are marked abandoned so a
        late response is dropped instead of parked forever.
        """
        with tracing.span("pool.collect", n=len(tickets)):
            return self._gather_raw(tickets)

    def _gather_raw(self, tickets: list[int]) -> list[bytes]:
        wanted = set(tickets)
        gathered: dict[int, bytes] = {}
        deadline = time.monotonic() + RESPONSE_TIMEOUT
        with self._cond:
            while wanted:
                for ticket in list(wanted):
                    payload = self._parked.pop(ticket, None)
                    if payload is not None:
                        gathered[ticket] = payload
                        wanted.discard(ticket)
                        continue
                    failure = self._failed.pop(ticket, None)
                    if failure is not None:
                        self._fail_locked(wanted, gathered)
                        raise failure
                if not wanted:
                    break
                if time.monotonic() > deadline:
                    self._fail_locked(wanted, gathered)
                    raise ServiceError(
                        f"no worker response within {RESPONSE_TIMEOUT}s"
                    )
                if self._closed:
                    self._fail_locked(wanted, gathered)
                    raise ServiceError("worker pool is closed")
                self._cond.wait(timeout=0.25)
        return [gathered[ticket] for ticket in tickets]

    def gather(self, tickets: list[int]) -> list:
        """Decoded results (or rejecting exceptions) for ``tickets``."""
        return [wire.decode_response(raw) for raw in self.gather_raw(tickets)]

    def _fail_locked(self, wanted: set, gathered: dict) -> None:
        """Bookkeeping for a gather about to raise (``_cond`` held)."""
        self._parked.update(gathered)
        self._abandoned.update(wanted)
        for ticket in wanted:
            meta = self._resolve_ticket_locked(ticket)
            if meta is not None:
                self._m_requests.inc(op=meta[0], outcome="abandoned")
        while len(self._parked) > _BOOKKEEPING_CAP:
            self._parked.pop(next(iter(self._parked)))
        while len(self._abandoned) > _BOOKKEEPING_CAP:
            self._abandoned.discard(min(self._abandoned))

    # -- the collector thread ---------------------------------------------

    def _collect_forever(self) -> None:
        """Drain the response queue and watch worker liveness."""
        while True:
            with self._cond:
                if self._closed:
                    return
            try:
                item = self._response_queue.get(timeout=0.25)
                ticket, payload = item[0], item[1]
                spans = item[2] if len(item) > 2 else ()
            except queue_module.Empty:
                ticket, payload, spans = None, None, ()
            except (EOFError, OSError, ValueError):
                # Queue torn down under us — close() is racing; loop
                # around and observe the flag.
                continue
            if ticket is None and payload is not None:
                # A worker's warmup announcement (no ticket): record
                # how it obtained its fastexp tables and at what cost.
                try:
                    tag, index, mode, seconds = payload
                except (TypeError, ValueError):
                    tag = None
                if tag == "warmup":
                    self._m_warmup.observe(seconds, mode=mode)
                    with self._cond:
                        self._warmup[index] = (mode, seconds)
                        self._cond.notify_all()
                continue
            if ticket is not None:
                # Classify before taking the lock: the outcome peek
                # decodes the envelope, and submitters must not wait on
                # that behind the condition variable.
                outcome, error_type = wire.peek_response_outcome(payload)
                if spans:
                    # Worker-side spans land in the recorder *before*
                    # the waiting gather is notified, so a boundary
                    # span ending right after sees the full trace.
                    trace_recorder = tracing.recorder()
                    if trace_recorder is not None:
                        trace_recorder.ingest(spans)
            with self._cond:
                if ticket is not None:
                    meta = self._resolve_ticket_locked(ticket)
                    if meta is not None:
                        kind, submitted_at, ctx, target = meta
                        self._m_latency.observe(
                            time.monotonic() - submitted_at, op=kind
                        )
                        self._m_requests.inc(op=kind, outcome=outcome)
                        if error_type is not None:
                            self._m_errors.inc(op=kind, type=error_type)
                        if ctx is not None:
                            tracing.record_span(
                                "pool.request",
                                trace_id=ctx.trace_id,
                                parent_id=ctx.span_id,
                                start=submitted_at,
                                duration=time.monotonic() - submitted_at,
                                status="error" if error_type is not None else "ok",
                                error=error_type or "",
                                attrs={"op": kind, "worker": target,
                                       "outcome": outcome},
                            )
                    if ticket in self._abandoned:
                        self._abandoned.discard(ticket)
                    else:
                        self._parked[ticket] = payload
                        while len(self._parked) > _BOOKKEEPING_CAP:
                            self._parked.pop(next(iter(self._parked)))
                        self._cond.notify_all()
                self._check_liveness_locked()

    def _check_liveness_locked(self) -> None:
        """Fail tickets owed by workers that stayed dead past grace."""
        now = time.monotonic()
        if now - self._last_liveness_scan < 0.2:
            return
        self._last_liveness_scan = now
        expired: list[int] = []
        alive = 0
        for index, process in enumerate(self._processes):
            if process.is_alive():
                alive += 1
                self._dead_since.pop(index, None)
                continue
            first_seen = self._dead_since.setdefault(index, now)
            if now - first_seen > _DEATH_GRACE:
                expired.append(index)
        self._m_workers_alive.set(alive)
        if not expired:
            return
        dead_names = [self._processes[index].name for index in expired]
        doomed = [
            ticket
            for ticket, owner in self._ticket_worker.items()
            if owner in expired
        ]
        for ticket in doomed:
            meta = self._resolve_ticket_locked(ticket)
            if meta is not None:
                kind, submitted_at, ctx, target = meta
                self._m_requests.inc(op=kind, outcome="error")
                self._m_errors.inc(op=kind, type="ServiceError")
                if ctx is not None:
                    # A SIGKILLed worker cannot ship its spans; this
                    # error span is what makes the trace a *kept* error
                    # trace, pointing at the worker that died.
                    tracing.record_span(
                        "pool.request",
                        trace_id=ctx.trace_id,
                        parent_id=ctx.span_id,
                        start=submitted_at,
                        duration=now - submitted_at,
                        status="error",
                        error="ServiceError",
                        attrs={"op": kind, "worker": target, "outcome": "dead"},
                    )
            self._failed[ticket] = ServiceError(
                f"worker(s) died with requests outstanding: {dead_names}"
            )
        while len(self._failed) > _BOOKKEEPING_CAP:
            self._failed.pop(next(iter(self._failed)))
        if doomed:
            self._cond.notify_all()

    def _annotate_exemplars(self, trace_id: bytes, entry: dict) -> None:
        """On-keep hook: link the latency histogram to the kept trace."""
        trace_hex = trace_id.hex()
        for rec in list(entry["spans"]):
            if rec["name"] == "pool.request":
                self._m_latency.annotate_exemplar(
                    rec["duration"], trace_hex, op=rec["attrs"].get("op", "unknown")
                )


__all__ = ["WorkerPool", "RESPONSE_TIMEOUT"]
