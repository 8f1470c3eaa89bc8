"""The asyncio socket front-end and its blocking client.

One :class:`NetServer` process fronts a whole worker pool: it accepts
many concurrent client connections on a single event loop, reads
length-prefixed frames (:mod:`repro.service.transport`), and
multiplexes every request onto the shared
:class:`~repro.service.pool.WorkerPool` with the same shard-affine
routing the in-process gateway uses.  Responses travel back as the
*exact bytes* the worker produced — the server never re-encodes a
protocol payload — so the socket path is byte-identical to the
in-process path by construction, not by luck.

Concurrency model:

- the event loop owns all socket I/O; nothing on it ever blocks;
- each request frame is handed to a small thread pool that performs
  the blocking pool submit/gather (cheap waits on the pool's
  condition variable), then the response frame is written back under
  a per-connection lock;
- **per-connection backpressure**: a connection may have at most
  ``max_inflight`` requests outstanding.  The read loop stops pulling
  bytes off the socket while at the limit, so a firehosing client is
  throttled by TCP flow control instead of ballooning the server's
  memory — and one greedy connection cannot starve the others.

The read surface (catalog, prices, packages, revocation sync,
non-revocation proofs) crosses as **control frames**: codec-encoded
``{"op", "args"}`` bodies answered from the gateway's WAL read views.
Errors cross with full fidelity via the wire error marshalling, so a
remote client sees the same typed exceptions an in-process caller
does.

Trust boundary: the TCP surface is **deposit-only by default**.  The
``withdraw`` wire kind debits a named account with no credential
beyond the name, which is the in-process bank's library-level trust
model — fine inside one process, remotely drainable balances on an
open socket.  ``NetServer(allow_withdraw=True)`` opts a deployment in
when every client is trusted.

:class:`NetClient` is the blocking counterpart: it speaks the framing
protocol over one TCP connection, pipelines freely (requests correlate
by id, so batch submits don't wait turn-by-turn), and exposes the same
provider-surface facade as :class:`~repro.service.gateway.
ServiceGateway` — code written against one drives the other.
"""

from __future__ import annotations

import asyncio
import itertools
import socket as socket_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.actors.bank import decompose_amount
from ..core.content import ContentPackage
from ..core.messages import Coin
from ..crypto.blind_rsa import verify_blind_signature
from ..errors import (
    PaymentError,
    OverloadedError,
    ReproError,
    ServiceError,
    TruncatedFrameError,
    WireError,
)
from ..storage.contents import CatalogEntry
from ..storage.ledger import LedgerEntry
from ..storage.merkle import InclusionProof, NonInclusionProof
from ..storage.revocation import RevocationEntry, SignedSnapshot
from . import tracing, wire
from .gateway import BankSurface, ProviderSurface, ServiceGateway
from .transport import (
    FRAME_CONTROL,
    FRAME_CONTROL_REPLY,
    FRAME_REQUEST,
    FRAME_REQUEST_PINNED,
    FRAME_RESPONSE,
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    Listener,
    decode_pinned,
    encode_frame,
    encode_pinned,
)

__all__ = ["NetServer", "NetClient", "DEFAULT_MAX_INFLIGHT"]

#: Default per-connection ceiling on outstanding requests.  Matches a
#: worker's ``max_batch``: one pipelining client can keep a full batch
#: queued for the next drain, but cannot queue unbounded work.
DEFAULT_MAX_INFLIGHT = 32

_READ_CHUNK = 65536

#: Frame-type label values for ``p2drm_net_frames_total``.
_FRAME_NAMES = {
    FRAME_REQUEST: "request",
    FRAME_REQUEST_PINNED: "request_pinned",
    FRAME_CONTROL: "control",
    FRAME_RESPONSE: "response",
    FRAME_CONTROL_REPLY: "control_reply",
}


def _parse_request_frame(frame):
    """``(worker pin, envelope bytes, parse)`` for one request frame.

    The frame's single :func:`~repro.service.wire.parse_request`: the
    withdraw gate, replay lookup, shed label, spans and pool routing
    all read the one result.  ``parse`` is the
    :class:`~repro.service.wire.RequestEnvelope`, or the typed error
    that refused the frame (a short pin prefix, an undecodable
    envelope) for the request path to answer with.
    """
    worker, envelope = None, frame.payload
    try:
        if frame.type == FRAME_REQUEST_PINNED:
            worker, envelope = decode_pinned(envelope)
        return worker, envelope, wire.parse_request(envelope)
    except ReproError as exc:
        return worker, envelope, exc


# -- control-channel marshalling --------------------------------------------


def _catalog_entry_dict(entry: CatalogEntry) -> dict:
    return {
        "content_id": entry.content_id,
        "title": entry.title,
        "price_cents": entry.price_cents,
        "added_at": entry.added_at,
        "package_size": entry.package_size,
    }


def _catalog_entry_from(data: dict) -> CatalogEntry:
    return CatalogEntry(
        content_id=str(data["content_id"]),
        title=str(data["title"]),
        price_cents=int(data["price_cents"]),
        added_at=int(data["added_at"]),
        package_size=int(data["package_size"]),
    )


def _revocation_entry_dict(entry: RevocationEntry) -> dict:
    return {
        "license_id": entry.license_id,
        "version": entry.version,
        "revoked_at": entry.revoked_at,
        "reason": entry.reason,
    }


def _revocation_entry_from(data: dict) -> RevocationEntry:
    return RevocationEntry(
        license_id=bytes(data["license_id"]),
        version=int(data["version"]),
        revoked_at=int(data["revoked_at"]),
        reason=str(data["reason"]),
    )


def _inclusion_dict(proof: InclusionProof | None) -> dict | None:
    return None if proof is None else proof.as_dict()


def _inclusion_from(data: dict | None) -> InclusionProof | None:
    return None if data is None else InclusionProof.from_dict(data)


def _non_inclusion_dict(proof: NonInclusionProof) -> dict:
    return {
        "left": proof.left_leaf,
        "left_proof": _inclusion_dict(proof.left_proof),
        "right": proof.right_leaf,
        "right_proof": _inclusion_dict(proof.right_proof),
    }


def _non_inclusion_from(data: dict) -> NonInclusionProof:
    return NonInclusionProof(
        left_leaf=None if data["left"] is None else bytes(data["left"]),
        left_proof=_inclusion_from(data["left_proof"]),
        right_leaf=None if data["right"] is None else bytes(data["right"]),
        right_proof=_inclusion_from(data["right_proof"]),
    )


# -- the server --------------------------------------------------------------


class NetServer(Listener):
    """Asyncio acceptor multiplexing client connections onto the pool."""

    def __init__(
        self,
        gateway: ServiceGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_payload: int = MAX_FRAME_PAYLOAD,
        max_server_inflight: int | None = None,
        metrics_port: int | None = None,
        allow_withdraw: bool = False,
    ):
        if max_inflight < 1:
            raise ServiceError("need max_inflight >= 1")
        if max_server_inflight is not None and max_server_inflight < 1:
            raise ServiceError("need max_server_inflight >= 1 (or None)")
        self._gateway = gateway
        #: The TCP surface is deposit-only by default.  Withdrawals
        #: debit a *named* account on nothing but the account name —
        #: the in-process bank's library-level trust model — so serving
        #: them to arbitrary network clients would make every balance
        #: (the provider's revenue account in the hello reply included)
        #: remotely drainable.  ``allow_withdraw=True`` opts in for
        #: deployments whose clients are trusted (a benchmark arm, a
        #: private network); the queue transport is unaffected.
        self._allow_withdraw = allow_withdraw
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._max_payload = max_payload
        #: Whole-server ceiling on request frames dispatched to the
        #: pool at once (None = unbounded).  The per-connection limit
        #: throttles one greedy client; this one bounds the *sum* over
        #: many polite clients, shedding with a typed retry-later
        #: error instead of queueing without bound.
        self._max_server_inflight = max_server_inflight
        #: Loop-confined: touched only on the event-loop thread.
        self._server_inflight = 0
        self._metrics_port = metrics_port
        self._metrics_address: tuple[str, int] | None = None
        self._conn_ids = itertools.count()
        #: Loop-confined: live connection handlers (task -> writer),
        #: registered at accept and retired in each handler's finally;
        #: shutdown closes the writers and awaits the tasks so no
        #: handler is ever left for blanket task cancellation.
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        registry = gateway.metrics
        self._registry = registry
        self._m_connections = registry.get("p2drm_net_connections")
        self._m_conn_inflight = registry.get("p2drm_net_connection_inflight")
        self._m_frames = registry.get("p2drm_net_frames_total")
        self._m_shed = registry.get("p2drm_shed_total")
        self._m_requests = registry.get("p2drm_requests_total")
        self._m_replay_hits = registry.get("p2drm_replay_hits_total")
        self._m_zero_copy = registry.get("p2drm_frames_zero_copy_total")
        # Sized for the blocking pool waits: every slot is a thread
        # parked on a condition variable, so the cap is about bounding
        # bookkeeping, not CPU.
        self._executor = ThreadPoolExecutor(
            max_workers=min(128, max(16, 4 * max_inflight)),
            thread_name_prefix="p2drm-net",
        )
        #: Control ops touch the gateway's SQLite read views from
        #: executor threads; one lock serializes them so the views
        #: never see interleaved cross-thread statements.  They are
        #: cheap local reads — contention here is not a hot path.
        self._control_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background event-loop thread; returns
        the bound ``(host, port)`` (port 0 resolves to a real one)."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="p2drm-netserver", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("socket server failed to start in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"socket server failed to bind: {self._startup_error!r}"
            )
        assert self._address is not None
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServiceError("server not started")
        return self._address

    @property
    def metrics_address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the Prometheus scrape endpoint
        (only exists when the server was built with ``metrics_port``)."""
        if self._metrics_address is None:
            raise ServiceError("server has no metrics endpoint")
        return self._metrics_address

    @property
    def metrics(self):
        """The registry shared with the gateway's worker pool."""
        return self._registry

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "NetServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event loop --------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - defensive
            if self._startup_error is None:
                self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        metrics_server = None
        if self._metrics_port is not None:
            try:
                metrics_server = await asyncio.start_server(
                    self._on_metrics_connection, self._host, self._metrics_port
                )
            except OSError as exc:
                server.close()
                await server.wait_closed()
                self._startup_error = exc
                self._started.set()
                return
            msockname = metrics_server.sockets[0].getsockname()
            self._metrics_address = (msockname[0], msockname[1])
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            # Both listeners are closed: no new connections can arrive.
            # Retire the live ones by closing their transports — the
            # handlers see EOF and exit their normal path — instead of
            # leaving them for asyncio.run's blanket task cancellation
            # (which 3.11's streams machinery reports as an unhandled
            # exception per connection).
            for writer in self._conns.values():
                writer.close()
            if self._conns:
                await asyncio.gather(
                    *self._conns, return_exceptions=True
                )

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder(max_payload=self._max_payload)
        zero_copy_seen = 0
        inflight = asyncio.Semaphore(self._max_inflight)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        conn = f"c{next(self._conn_ids)}"
        me = asyncio.current_task()
        assert me is not None
        self._conns[me] = writer
        self._m_connections.inc()
        self._m_conn_inflight.set(0, conn=conn)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    # A close between frames is a normal goodbye; one
                    # mid-frame lost a request, worth nothing more
                    # than the typed error (nobody is left to tell).
                    try:
                        decoder.finish()
                    except TruncatedFrameError:
                        pass
                    break
                decode_start = time.monotonic() if tracing.enabled() else 0.0
                try:
                    frames = decoder.feed(data)
                except WireError:
                    # Framing violations are unrecoverable: the stream
                    # has no trustworthy boundaries any more.  Drop the
                    # connection; in-flight work still answers nothing
                    # (its frames may be the corrupted ones).
                    break
                parses = [
                    _parse_request_frame(frame)
                    if frame.type in (FRAME_REQUEST, FRAME_REQUEST_PINNED)
                    else None
                    for frame in frames
                ]
                if tracing.enabled() and frames:
                    self._record_decode(
                        parses, decode_start, time.monotonic() - decode_start
                    )
                if decoder.zero_copy_frames != zero_copy_seen:
                    self._m_zero_copy.inc(decoder.zero_copy_frames - zero_copy_seen)
                    zero_copy_seen = decoder.zero_copy_frames
                for frame, parsed in zip(frames, parses):
                    self._m_frames.inc(
                        type=_FRAME_NAMES.get(frame.type, "unknown"),
                        direction="in",
                    )
                    if frame.type not in (
                        FRAME_REQUEST,
                        FRAME_REQUEST_PINNED,
                        FRAME_CONTROL,
                    ):
                        # Clients must not send response-direction
                        # frames; treat as a protocol violation.
                        frames = None
                        break
                    # Backpressure: stop reading while at the limit.
                    await inflight.acquire()
                    self._m_conn_inflight.inc(1, conn=conn)
                    task = asyncio.ensure_future(
                        self._handle_frame(
                            frame, parsed, writer, write_lock, inflight, conn
                        )
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                if frames is None:
                    break
        except OSError:
            # A peer reset mid-stream is the abrupt spelling of the
            # mid-frame close above: any half-sent request is lost and
            # nobody is left to answer.  The read loop is the only
            # place the reset surfaces (response writes park behind
            # the gather below), so catching it here keeps the event
            # loop's log clean without hiding a real defect.
            pass
        finally:
            self._conns.pop(me, None)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._m_connections.dec()
            self._m_conn_inflight.remove(conn=conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the loop is shutting down mid-close;
                # nothing left to wait for.
                pass

    def _record_decode(self, parses, start: float, duration: float) -> None:
        """Attribute one chunk's framing and envelope parse to the first
        traced request frame it produced (``net.frame.decode``).  The
        event loop decodes whole chunks, so the span carries the frame
        count rather than pretending per-frame timing exists."""
        ctx = next(
            (
                envelope.trace
                for _worker, _data, envelope in filter(None, parses)
                if isinstance(envelope, wire.RequestEnvelope)
                and envelope.trace is not None
            ),
            None,
        )
        if ctx is None:
            return
        tracing.record_span(
            "net.frame.decode",
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            start=start,
            duration=duration,
            attrs={"frames": len(parses)},
        )

    async def _handle_frame(
        self,
        frame,
        parsed,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        inflight: asyncio.Semaphore,
        conn: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        counted = False
        try:
            if frame.type == FRAME_CONTROL:
                reply_type = FRAME_CONTROL_REPLY
                payload = await loop.run_in_executor(
                    self._executor, self._serve_control, frame.payload
                )
            elif (
                self._max_server_inflight is not None
                and self._server_inflight >= self._max_server_inflight
            ):
                # Whole-server ceiling: answer a typed retry-later shed
                # right here on the loop — no executor slot, no pool
                # submit, no side effects, so the request is safe to
                # retry.  The ceiling counter is loop-confined, so the
                # check needs no lock.
                reply_type = FRAME_RESPONSE
                envelope = parsed[2]
                kind = (
                    envelope.kind
                    if isinstance(envelope, wire.RequestEnvelope)
                    else "unknown"
                )
                self._m_shed.inc(op=kind, reason="server")
                self._m_requests.inc(op=kind, outcome="shed")
                payload = wire.encode_response(
                    OverloadedError(
                        "server overloaded"
                        f" ({self._server_inflight} requests in flight);"
                        " retry later"
                    )
                )
            else:
                reply_type = FRAME_RESPONSE
                self._server_inflight += 1
                counted = True
                payload = await loop.run_in_executor(
                    self._executor, self._serve_request, frame.type, *parsed
                )
            try:
                data = encode_frame(
                    reply_type,
                    frame.request_id,
                    payload,
                    max_payload=self._max_payload,
                )
            except WireError as exc:
                # A reply too large for the frame ceiling (a huge
                # package through a small-frame server, say) must
                # still *answer* — a typed error beats a ticket the
                # client waits out.
                data = encode_frame(
                    reply_type,
                    frame.request_id,
                    self._error_payload(reply_type, exc),
                )
            self._m_frames.inc(
                type=_FRAME_NAMES.get(reply_type, "unknown"), direction="out"
            )
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; the pool side effects stand
        finally:
            if counted:
                self._server_inflight -= 1
            self._m_conn_inflight.dec(conn=conn)
            inflight.release()

    # -- the Prometheus scrape endpoint ------------------------------------

    async def _on_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP/1.1 request on the metrics port.

        Deliberately minimal: the only resource is ``GET /metrics``
        (text exposition 0.0.4), the connection always closes after
        one response, and a malformed request head costs the server
        nothing but the 404.  This is a scrape target, not a web
        server.
        """
        me = asyncio.current_task()
        assert me is not None
        self._conns[me] = writer
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10
                )
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
            parts = request_line.split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) >= 2 else ""
            if method == "GET" and path in ("/metrics", "/"):
                loop = asyncio.get_running_loop()
                text = await loop.run_in_executor(
                    self._executor, self._render_metrics_text
                )
                body = text.encode("utf-8")
                status = b"200 OK"
                ctype = b"text/plain; version=0.0.4; charset=utf-8"
            elif method == "GET" and path == "/traces":
                loop = asyncio.get_running_loop()
                text = await loop.run_in_executor(
                    self._executor, self._render_traces_json
                )
                body = text.encode("utf-8")
                status = b"200 OK"
                ctype = b"application/json; charset=utf-8"
            else:
                body = b"try GET /metrics\n"
                status = b"404 Not Found"
                ctype = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + ctype + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n"
                b"\r\n" + body
            )
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # scraper went away; nothing to clean up
        finally:
            self._conns.pop(me, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- blocking halves (executor threads) --------------------------------

    def _render_metrics_text(self) -> str:
        """Prometheus text with the ledger 2PC counts freshly folded
        in (the sequencer runs in worker processes; only a durable
        shard scan sees the pool-wide truth)."""
        with self._control_lock:
            self._gateway.refresh_ledger_metrics()
        return self._registry.render_text()

    def _render_traces_json(self) -> str:
        """``GET /traces``: kept traces plus latency-histogram exemplars.

        The exemplar block is the join key back into ``/metrics``: each
        request-latency label set lists which kept trace exemplifies
        which bucket, so an operator staring at a slow histogram can
        jump straight to a representative trace."""
        import json

        exemplars = []
        latency = self._registry.get("p2drm_request_latency_seconds")
        for labels, _state in latency.samples():
            buckets = latency.exemplars(**labels)
            if buckets:
                exemplars.append({"labels": labels, "buckets": buckets})
        return json.dumps(
            {"traces": tracing.kept_traces(), "exemplars": exemplars},
            sort_keys=True,
        )

    def _serve_request(self, frame_type: int, worker, data, parsed) -> bytes:
        """Submit one client request to the pool; ALWAYS returns
        response bytes — every failure mode becomes a typed error
        envelope, never an unanswered ticket the client waits out.

        ``worker``, ``data`` and ``parsed`` are the frame's one parse
        (:func:`_parse_request_frame`).  The envelope bytes cross
        untouched, so whatever the worker answers is what the client
        receives — byte-identity with the in-process path needs no
        re-encoding step that could drift.
        """
        pool = self._gateway.pool
        try:
            if isinstance(parsed, ReproError):
                return wire.encode_response(parsed)
            if not self._allow_withdraw and parsed.kind == wire.KIND_WITHDRAW:
                # Unauthenticated network clients must not reach the
                # mint: see the allow_withdraw note in __init__.
                return wire.encode_response(
                    ServiceError(
                        "this server is deposit-only: network"
                        " withdrawals are disabled (the operator must"
                        " start NetServer(allow_withdraw=True) to serve"
                        " the mint, and only to trusted clients)"
                    )
                )
            if parsed.nonce is not None:
                # Front-door idempotent replay: a retry whose original
                # already committed is answered with the original bytes
                # right here — no worker round trip, no second 2PC run.
                # A lookup refusal (original still mid-commit) raises a
                # retryable ServiceError that the arms below encode.
                # Same lock as the control ops: the gateway's SQLite
                # views must not see interleaved cross-thread reads.
                with self._control_lock:
                    cached = self._gateway.replay.lookup(parsed.nonce)
                if cached is not None:
                    self._m_replay_hits.inc()
                    return cached
            ctx = parsed.trace if tracing.enabled() else None
            if ctx is None:
                ticket = pool.submit_encoded(data, parsed, worker=worker)
                [raw] = pool.gather_raw([ticket])
                return raw
            # The server-side boundary span: parented to the client's
            # root, it owns the tail-based keep decision for requests
            # arriving without a co-resident client.call span.  Typed
            # failures escape through it (auto-marked) before the
            # except arms below turn them into response bytes.
            with tracing.span(
                "net.request",
                ctx=ctx,
                boundary=True,
                op=parsed.kind,
                frame=_FRAME_NAMES.get(frame_type, "unknown"),
            ) as sp:
                ticket = pool.submit_encoded(
                    data, parsed, worker=worker, trace=tracing.current_context()
                )
                [raw] = pool.gather_raw([ticket])
                outcome, error_type = wire.peek_response_outcome(raw)
                if outcome == "error" and error_type:
                    sp.mark_error(error_type)
            return raw
        except ReproError as exc:
            # Undecodable, unroutable, or pool trouble: answer directly
            # (the same exception an in-process caller sees).
            return wire.encode_response(exc)
        except Exception as exc:
            # Anything else is a server-side defect, but the client
            # still deserves an answer instead of a timeout.
            return wire.encode_response(
                ServiceError(f"request failed: {exc!r}")
            )

    def _error_payload(self, reply_type: int, error: BaseException) -> bytes:
        """A typed-error payload in whichever channel the reply uses."""
        from .. import codec

        failure = (
            error
            if isinstance(error, ReproError)
            else ServiceError(f"reply failed: {error!r}")
        )
        if reply_type == FRAME_RESPONSE:
            return wire.encode_response(failure)
        return codec.encode({"ok": False, "error": wire.encode_error(failure)})

    def _serve_control(self, payload: bytes) -> bytes:
        """Answer one read-surface call from the gateway's read views."""
        from .. import codec

        try:
            body = codec.decode(payload)
            if not isinstance(body, dict):
                raise WireError("control body must be a dict")
            op = body.get("op")
            args = body.get("args")
            if not isinstance(args, dict):
                raise WireError("control args must be a dict")
            handler = _CONTROL_OPS.get(op)
            if handler is None:
                raise WireError(f"unknown control op {op!r}")
            with self._control_lock:
                value = handler(self._gateway, args)
        except ReproError as exc:
            return codec.encode({"ok": False, "error": wire.encode_error(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            failure = ServiceError(f"control op failed: {exc!r}")
            return codec.encode({"ok": False, "error": wire.encode_error(failure)})
        return codec.encode({"ok": True, "value": value})


def _op_hello(gateway: ServiceGateway, args: dict) -> dict:
    key = gateway.license_key
    return {
        "name": gateway.name,
        "license_key": {"n": key.n, "e": key.e},
        "workers": gateway.workers,
        "shards": gateway.shards,
        "bank_account": gateway.bank_account,
        # Largest-first, matching gateway.denominations; the client
        # rebuilds its coin-verification keyring from this one reply.
        "bank_keys": [
            [denom, {"n": pub.n, "e": pub.e}]
            for denom in gateway.denominations
            for pub in (gateway.public_key(denom),)
        ],
    }


def _op_catalog(gateway: ServiceGateway, args: dict) -> list:
    return [_catalog_entry_dict(entry) for entry in gateway.catalog()]


def _op_price(gateway: ServiceGateway, args: dict) -> int:
    return gateway.price(str(args["content_id"]))


def _op_package(gateway: ServiceGateway, args: dict) -> bytes:
    return gateway.package(str(args["content_id"]))


def _op_revocation_sync(gateway: ServiceGateway, args: dict) -> dict:
    # "cursor" is the resume token (int watermark or per-shard version
    # list); older clients send "since_version", which degrades to a
    # full resync on the sharded LRL.
    if "cursor" in args:
        cursor = args["cursor"]
        if not isinstance(cursor, int):
            cursor = tuple(int(version) for version in cursor)
    else:
        cursor = int(args.get("since_version", 0))
    entries, snapshot, new_cursor = gateway.revocation_sync(cursor)
    return {
        "entries": [_revocation_entry_dict(entry) for entry in entries],
        "snapshot": snapshot.as_dict(),
        "cursor": list(new_cursor),
    }


def _op_prove_not_revoked(gateway: ServiceGateway, args: dict) -> dict:
    snapshot, proof = gateway.prove_not_revoked(bytes(args["license_id"]))
    return {
        "snapshot": snapshot.as_dict(),
        "proof": _non_inclusion_dict(proof),
    }


def _op_bank_balance(gateway: ServiceGateway, args: dict) -> int:
    return gateway.balance(str(args["account"]))


def _op_bank_statement(gateway: ServiceGateway, args: dict) -> list:
    limit = args.get("limit")
    entries = gateway.statement(
        str(args["account"]), limit=None if limit is None else int(limit)
    )
    return [entry.as_dict() for entry in entries]


def _op_traces(gateway: ServiceGateway, args: dict) -> list:
    """Kept traces from this process's tail-based recorder (empty when
    tracing is off — the op itself is always available)."""
    return tracing.kept_traces()


def _op_metrics(gateway: ServiceGateway, args: dict) -> dict:
    gateway.refresh_ledger_metrics()
    return gateway.metrics.snapshot()


def _op_metrics_text(gateway: ServiceGateway, args: dict) -> str:
    gateway.refresh_ledger_metrics()
    return gateway.metrics.render_text()


_CONTROL_OPS = {
    "hello": _op_hello,
    "catalog": _op_catalog,
    "price": _op_price,
    "package": _op_package,
    "revocation_sync": _op_revocation_sync,
    "prove_not_revoked": _op_prove_not_revoked,
    "bank_balance": _op_bank_balance,
    "bank_statement": _op_bank_statement,
    "metrics": _op_metrics,
    "metrics_text": _op_metrics_text,
    "traces": _op_traces,
}


# -- the client --------------------------------------------------------------


class NetClient(ProviderSurface, BankSurface):
    """Blocking client presenting the provider and bank surfaces over
    one socket.

    Pipelining: :meth:`submit` only writes; :meth:`gather` reads until
    its tickets are answered, parking any responses that belong to
    other outstanding tickets.  Responses correlate by request id, so
    order on the wire never matters.  One instance serves one thread
    (concurrent benchmark clients each open their own connection —
    exactly what a real client would do).
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        timeout: float = 300.0,
        max_payload: int = MAX_FRAME_PAYLOAD,
    ):
        self._address = (str(address[0]), int(address[1]))
        self._timeout = timeout
        self._max_payload = max_payload
        self._next_id = itertools.count()
        #: Frames received but not yet claimed, by request id.
        self._received: dict[int, tuple[int, bytes]] = {}
        self._lock = threading.RLock()
        self._hello: dict | None = None
        self._closed = False
        #: Sticky connection failure.  Once the stream breaks, every
        #: outstanding correlation must resolve to the same typed
        #: error instead of hanging on a dead socket — and new work
        #: must be refused until (a subclass) re-dials.
        self._broken: ServiceError | None = None
        self._connect()

    def _connect(self) -> None:
        """Dial (or re-dial) the server: fresh socket, fresh decoder.

        Parked frames in ``self._received`` survive on purpose — a
        fully received response is a valid answer no matter what
        happened to the connection afterwards."""
        self._socket = socket_module.create_connection(
            self._address, timeout=self._timeout
        )
        self._socket.setsockopt(
            socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
        )
        self._decoder = FrameDecoder(max_payload=self._max_payload)
        self._broken = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framing I/O -------------------------------------------------------

    def _send(self, frame_type: int, request_id: int, payload: bytes) -> None:
        if self._closed:
            raise ServiceError("client is closed")
        if self._broken is not None:
            raise self._broken
        data = encode_frame(
            frame_type, request_id, payload, max_payload=self._max_payload
        )
        try:
            self._socket.sendall(data)
        except OSError as exc:
            self._broken = ServiceError(f"send failed: {exc}")
            raise self._broken from exc
        # Opportunistically drain replies the server already produced.
        # A submit-all-then-gather batch would otherwise leave early
        # responses unread while still writing: once they overflow the
        # kernel buffers, the server's drain() blocks holding that
        # connection's in-flight slots, its read loop pauses, and both
        # sides stall until a timeout — a distributed deadlock.
        # Consuming eagerly keeps the reply stream flowing no matter
        # how deep the pipeline gets.
        self._drain_ready_frames()

    def _drain_ready_frames(self) -> None:
        """Park whatever complete frames are already readable, without
        blocking (the socket is briefly switched to non-blocking)."""
        self._socket.setblocking(False)
        try:
            while True:
                try:
                    data = self._socket.recv(_READ_CHUNK)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    # Same typed contract as the blocking reads: a
                    # reset mid-drain surfaces as ServiceError, not a
                    # bare socket exception out of submit().
                    self._broken = ServiceError(f"receive failed: {exc}")
                    raise self._broken from exc
                if not data:
                    # Server hung up; the next blocking read reports it
                    # with the proper typed error.
                    break
                for frame in self._decoder.feed(data):
                    self._received[frame.request_id] = (frame.type, frame.payload)
        finally:
            self._socket.settimeout(self._timeout)

    def _receive_into_parked(self) -> None:
        """Read one chunk off the socket; park every completed frame.

        Connection failures are **sticky**: the first one poisons the
        client (``self._broken``), and every later wait for a frame
        that never arrived re-raises the *same* typed error — so a
        mid-gather disconnect resolves all outstanding correlations
        instead of hanging the next one on a dead socket.
        """
        if self._broken is not None:
            raise self._broken
        try:
            data = self._socket.recv(_READ_CHUNK)
        except socket_module.timeout:
            # A timeout is not a broken stream: the decoder is still
            # frame-aligned and a slow server may yet answer.
            raise ServiceError(
                f"no server response within {self._timeout}s"
            ) from None
        except OSError as exc:
            self._broken = ServiceError(f"receive failed: {exc}")
            raise self._broken from exc
        if not data:
            # Typed truncation beats a silent hang: mid-frame close is
            # TruncatedFrameError, between-frames close a ServiceError.
            try:
                self._decoder.finish()
            except TruncatedFrameError as exc:
                self._broken = exc
                raise
            self._broken = ServiceError("server closed the connection")
            raise self._broken
        for frame in self._decoder.feed(data):
            self._received[frame.request_id] = (frame.type, frame.payload)

    def _await_frame(self, request_id: int, expected_type: int) -> bytes:
        with self._lock:
            while request_id not in self._received:
                self._receive_into_parked()
            frame_type, payload = self._received.pop(request_id)
        if frame_type != expected_type:
            raise WireError(
                f"server answered frame type 0x{frame_type:02x} where"
                f" 0x{expected_type:02x} was expected"
            )
        return payload

    # -- the transport -----------------------------------------------------

    def submit(self, request, *, worker: int | None = None) -> int:
        """Frame and send one request; returns the correlation ticket.

        ``worker`` pins the request past shard affinity (the socket
        twin of the gateway override tests use to stage races)."""
        envelope = wire.encode_request(request, trace=tracing.current_context())
        return self.submit_encoded(envelope, worker=worker)

    def submit_encoded(self, envelope: bytes, *, worker: int | None = None) -> int:
        """Frame and send already-encoded request bytes, verbatim.

        The reconnecting client retries through here: replaying the
        *same* envelope bytes keeps retries byte-identical (same
        idempotency nonce, same trace ids) across re-dials."""
        with self._lock:
            ticket = next(self._next_id)
            if worker is None:
                self._send(FRAME_REQUEST, ticket, envelope)
            else:
                self._send(
                    FRAME_REQUEST_PINNED, ticket, encode_pinned(worker, envelope)
                )
        return ticket

    def gather(self, tickets: list[int]) -> list:
        """Decoded results (or rejecting exceptions) for ``tickets``."""
        return [
            wire.decode_response(self._await_frame(ticket, FRAME_RESPONSE))
            for ticket in tickets
        ]

    # -- the control channel -----------------------------------------------

    def _control(self, op: str, **args):
        from .. import codec

        with self._lock:
            ticket = next(self._next_id)
            self._send(
                FRAME_CONTROL, ticket, codec.encode({"op": op, "args": args})
            )
        reply = codec.decode(self._await_frame(ticket, FRAME_CONTROL_REPLY))
        # Untrusted shape, typed rejection: a version-skewed or hostile
        # server must never leak a raw KeyError out of price()/hello.
        if not isinstance(reply, dict) or not isinstance(reply.get("ok"), bool):
            raise WireError("malformed control reply")
        if not reply["ok"]:
            if not isinstance(reply.get("error"), dict):
                raise WireError("malformed control error reply")
            raise wire.decode_error(reply["error"])
        if "value" not in reply:
            raise WireError("malformed control reply: no value")
        return reply["value"]

    def _hello_info(self) -> dict:
        if self._hello is None:
            self._hello = self._control("hello")
        return self._hello

    # -- the provider read surface -----------------------------------------

    @property
    def name(self) -> str:
        return str(self._hello_info()["name"])

    @property
    def license_key(self):
        from ..crypto.rsa import RsaPublicKey

        key = self._hello_info()["license_key"]
        return RsaPublicKey(n=int(key["n"]), e=int(key["e"]))

    @property
    def workers(self) -> int:
        return int(self._hello_info()["workers"])

    @property
    def shards(self) -> int:
        return int(self._hello_info()["shards"])

    def catalog(self) -> list[CatalogEntry]:
        return [_catalog_entry_from(entry) for entry in self._control("catalog")]

    def price(self, content_id: str) -> int:
        return int(self._control("price", content_id=content_id))

    def package(self, content_id: str) -> bytes:
        return bytes(self._control("package", content_id=content_id))

    def download(self, content_id: str) -> ContentPackage:
        return ContentPackage.from_bytes(self.package(content_id))

    def revocation_sync(self, cursor=0):
        """Delta entries, signed snapshot, advanced cursor — the same
        3-tuple surface as the gateway; ``cursor`` is opaque (int
        watermark or the per-shard tuple a previous call returned)."""
        if isinstance(cursor, int):
            body = self._control("revocation_sync", cursor=cursor)
        else:
            body = self._control(
                "revocation_sync", cursor=[int(v) for v in cursor]
            )
        entries = [_revocation_entry_from(entry) for entry in body["entries"]]
        new_cursor = tuple(int(version) for version in body["cursor"])
        return entries, SignedSnapshot.from_dict(body["snapshot"]), new_cursor

    def prove_not_revoked(self, license_id: bytes):
        body = self._control("prove_not_revoked", license_id=license_id)
        return (
            SignedSnapshot.from_dict(body["snapshot"]),
            _non_inclusion_from(body["proof"]),
        )

    # -- the bank read surface ---------------------------------------------

    @property
    def bank_account(self) -> str:
        """The provider's ledger account, from the hello reply."""
        return str(self._hello_info()["bank_account"])

    @property
    def denominations(self) -> list[int]:
        return [int(denom) for denom, _key in self._hello_info()["bank_keys"]]

    def public_key(self, denomination: int):
        from ..crypto.rsa import RsaPublicKey

        for denom, key in self._hello_info()["bank_keys"]:
            if int(denom) == denomination:
                return RsaPublicKey(n=int(key["n"]), e=int(key["e"]))
        raise PaymentError(f"unsupported denomination {denomination}")

    def decompose(self, amount: int) -> list[int]:
        return decompose_amount(amount, self.denominations)

    def verify_coin(self, coin: Coin) -> None:
        """Signature-only check against the hello keyring (raises
        :class:`~repro.errors.InvalidSignature` on mismatch)."""
        verify_blind_signature(
            coin.payload(), coin.signature, self.public_key(coin.value)
        )

    def balance(self, account: str) -> int:
        return int(self._control("bank_balance", account=account))

    def statement(
        self, account: str, *, limit: int | None = None
    ) -> list[LedgerEntry]:
        entries = self._control("bank_statement", account=account, limit=limit)
        return [LedgerEntry.from_dict(entry) for entry in entries]

    def metrics(self) -> dict:
        """The server's metrics snapshot (codec form: numeric values as
        ``repr`` strings — see :meth:`~repro.service.metrics.
        MetricsRegistry.snapshot`)."""
        return self._control("metrics")

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition, over the control
        channel (same bytes the HTTP scrape endpoint serves)."""
        return str(self._control("metrics_text"))

    def traces(self) -> list:
        """Kept traces from the server's tail-based recorder (hex ids,
        integer-microsecond timings; empty when tracing is off)."""
        return list(self._control("traces"))
