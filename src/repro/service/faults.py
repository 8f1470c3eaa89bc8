"""Deterministic fault injection for the service transports.

Robustness claims need an adversarial network you can *rerun*: a retry
bug that only shows under one interleaving of resets and truncations
is worthless to chase with a real flaky link.  This module injects
faults on a seeded, reproducible schedule at the two seams the stack
already has:

- :class:`ChaosListener` — a frame-aware TCP proxy implementing the
  :class:`~repro.service.transport.Listener` surface.  It sits between
  a real client and a real :class:`~repro.service.netserver.NetServer`
  and, per forwarded frame, can **reset** the connection, **truncate**
  mid-frame, **blackhole** (drop) the frame, **duplicate** it, or
  **delay** it.  Clean frames are re-encoded via the canonical
  framer, so byte-identity through the proxy is by construction.
- :class:`ChaosTransport` — the queue-path twin, wrapping any
  :class:`~repro.service.transport.Transport`.  Its faults model the
  two sides of a lost message: *lost request* (fails before the inner
  submit — no side effect) and *lost response* (inner submit happens,
  then the caller sees a failure — the side effect **stands**), plus
  duplicate submission of the same verbatim envelope.

Determinism: every connection (or submit) draws from its own
``random.Random`` seeded by ``(plan seed, serial, direction)``, so a
schedule replays exactly regardless of thread interleaving — two runs
with the same seed fault the same frames the same way.
"""

from __future__ import annotations

import random
import socket as socket_module
import threading
import time
from dataclasses import dataclass

from ..errors import ServiceError
from .transport import (
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    Listener,
    Transport,
    encode_frame,
)

__all__ = ["FaultSpec", "FaultPlan", "ChaosListener", "ChaosTransport"]

_READ_CHUNK = 65536

#: Frame-level fault actions, in the order the plan's single uniform
#: draw is bucketed.  ``deliver`` is the remainder.
ACTIONS = ("reset", "truncate", "drop", "duplicate", "deliver")


@dataclass(frozen=True)
class FaultSpec:
    """Per-frame fault probabilities (independent uniform draw each).

    Rates are bucketed in declaration order — ``reset`` wins over
    ``truncate`` wins over ``drop`` wins over ``duplicate`` — and the
    remainder delivers cleanly.  ``delay_rate``/``delay_s`` are drawn
    separately and compose with any action (a delayed reset is a
    perfectly good network)."""

    reset_rate: float = 0.0
    truncate_rate: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.002

    def __post_init__(self):
        total = (
            self.reset_rate
            + self.truncate_rate
            + self.drop_rate
            + self.duplicate_rate
        )
        if total > 1.0:
            raise ServiceError("fault rates must sum to <= 1.0")
        for name in (
            "reset_rate",
            "truncate_rate",
            "drop_rate",
            "duplicate_rate",
            "delay_rate",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1]")


class FaultPlan:
    """A seeded factory of per-connection fault schedules."""

    def __init__(self, spec: FaultSpec, *, seed: int = 0):
        self.spec = spec
        self.seed = seed

    def schedule(self, serial: int, direction: str = "") -> "FaultSchedule":
        """The deterministic schedule for one connection direction.

        Seeding on ``(seed, serial, direction)`` keeps every pump
        thread's draws independent of scheduler interleaving."""
        return FaultSchedule(
            self.spec, random.Random(f"{self.seed}:{serial}:{direction}")
        )


class FaultSchedule:
    """One direction's stream of per-frame decisions."""

    def __init__(self, spec: FaultSpec, rng: random.Random):
        self._spec = spec
        self._rng = rng

    def next_action(self) -> str:
        draw = self._rng.random()
        spec = self._spec
        for action, rate in (
            ("reset", spec.reset_rate),
            ("truncate", spec.truncate_rate),
            ("drop", spec.drop_rate),
            ("duplicate", spec.duplicate_rate),
        ):
            if draw < rate:
                return action
            draw -= rate
        return "deliver"

    def next_delay(self) -> float:
        """Seconds to stall before acting on this frame (0 = none)."""
        if self._spec.delay_rate and self._rng.random() < self._spec.delay_rate:
            return self._spec.delay_s
        return 0.0

    def truncate_point(self, frame_bytes: bytes) -> int:
        """How many bytes of the encoded frame to leak before closing.

        Always strictly inside the frame (at least 1 byte short), so
        the victim's decoder is guaranteed a mid-frame stream end —
        the fault this action exists to stage."""
        return self._rng.randrange(0, len(frame_bytes) - 1) if len(frame_bytes) > 1 else 0


class ChaosListener(Listener):
    """Frame-aware faulting TCP proxy in front of a real listener.

    Clients dial :attr:`address`; each accepted connection gets its own
    upstream connection to ``upstream`` and two pump threads (one per
    direction), each with its own deterministic
    :class:`FaultSchedule`.  A ``reset``/``truncate`` action tears down
    *both* sockets of that proxied connection — exactly what a NAT
    timeout or a mid-datagram line cut does to TCP — after which a
    reconnecting client is expected to dial again (reaching a fresh
    proxied connection with the next serial's schedule).
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: FaultPlan,
        *,
        host: str = "127.0.0.1",
        max_payload: int = MAX_FRAME_PAYLOAD,
    ):
        self._upstream = (str(upstream[0]), int(upstream[1]))
        self._plan = plan
        self._max_payload = max_payload
        self._closed = False
        self._serial = 0
        self._serial_lock = threading.Lock()
        self._conns: list[socket_module.socket] = []
        self._listen = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        self._listen.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        self._listen.bind((host, 0))
        self._listen.listen(128)
        self._address = self._listen.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="p2drm-chaos-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self._address[0], self._address[1])

    @property
    def connections_accepted(self) -> int:
        """How many client connections the proxy has seen (each one is
        a reconnect after the first)."""
        with self._serial_lock:
            return self._serial

    def close(self) -> None:
        # Flag and snapshot under the accept loop's registration lock:
        # a pair registered before this point is torn down below, and
        # one still mid-dial sees the flag and tears itself down.
        with self._serial_lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
        try:
            # shutdown() wakes a concurrently blocked accept();
            # close() alone does not on Linux.
            self._listen.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listen.close()
        except OSError:
            pass
        for sock in conns:
            _hard_close(sock)
        self._accept_thread.join(timeout=10)

    def __enter__(self) -> "ChaosListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- proxy machinery ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _addr = self._listen.accept()
            except OSError:
                return  # listener closed
            with self._serial_lock:
                serial = self._serial
                self._serial += 1
            try:
                server = socket_module.create_connection(
                    self._upstream, timeout=30
                )
            except OSError:
                _hard_close(client)
                continue
            for sock in (client, server):
                sock.setsockopt(
                    socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
                )
            with self._serial_lock:
                closed = self._closed
                if not closed:
                    self._conns.extend((client, server))
            if closed:
                # close() ran while the upstream dial was in flight and
                # never saw this pair: tear it down, start no pumps.
                _hard_close(client)
                _hard_close(server)
                return
            for source, sink, direction in (
                (client, server, "c2s"),
                (server, client, "s2c"),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(
                        source,
                        sink,
                        self._plan.schedule(serial, direction),
                        client,
                        server,
                    ),
                    name=f"p2drm-chaos-{serial}-{direction}",
                    daemon=True,
                ).start()

    def _pump(self, source, sink, schedule: FaultSchedule, client, server) -> None:
        """Forward frames one way, applying the schedule per frame."""
        decoder = FrameDecoder(max_payload=self._max_payload)
        try:
            while True:
                data = source.recv(_READ_CHUNK)
                if not data:
                    # Clean upstream goodbye: mirror it (shutdown lets
                    # in-flight opposite-direction bytes finish).
                    try:
                        sink.shutdown(socket_module.SHUT_WR)
                    except OSError:
                        pass
                    return
                for frame in decoder.feed(data):
                    delay = schedule.next_delay()
                    if delay:
                        time.sleep(delay)
                    action = schedule.next_action()
                    encoded = encode_frame(
                        frame.type,
                        frame.request_id,
                        frame.payload,
                        max_payload=self._max_payload,
                    )
                    if action == "drop":
                        continue
                    if action == "reset":
                        _hard_close(client)
                        _hard_close(server)
                        return
                    if action == "truncate":
                        point = schedule.truncate_point(encoded)
                        if point:
                            try:
                                sink.sendall(encoded[:point])
                            except OSError:
                                pass
                        _hard_close(client)
                        _hard_close(server)
                        return
                    sink.sendall(encoded)
                    if action == "duplicate":
                        sink.sendall(encoded)
        except OSError:
            # Either side vanished (often our own twin pump's reset);
            # nothing to mirror — both sockets are already going down.
            _hard_close(client)
            _hard_close(server)
        except Exception:
            # A framing violation from a hostile peer: drop the pair.
            _hard_close(client)
            _hard_close(server)


def _hard_close(sock: socket_module.socket) -> None:
    """Abortive close: RST if possible, never raising."""
    try:
        sock.setsockopt(
            socket_module.SOL_SOCKET,
            socket_module.SO_LINGER,
            # l_onoff=1, l_linger=0 → RST on close.
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ChaosTransport(Transport):
    """Faulting wrapper over any in-process transport.

    The queue path has no wire to cut, so faults act on the call
    surface instead — the three failures a lossy RPC layer can hand a
    client:

    - ``lost_request``: raise a retryable error *before* the inner
      submit.  No side effect happened; a retry is trivially safe.
    - ``lost_response``: perform the inner submit, then raise the same
      retryable error.  The side effect **stands** — exactly the case
      the idempotent-replay cache must absorb on retry.
    - ``duplicate``: submit twice; the duplicate's ticket is gathered
      and discarded internally, modelling at-least-once delivery.

    Rates are drawn per submit from one seeded schedule (the transport
    is used single-threaded, like every other transport here).
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        *,
        lost_request_rate: float = 0.0,
        lost_response_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ):
        self._inner = inner
        self._rng = random.Random(f"{plan.seed}:transport")
        self._lost_request_rate = lost_request_rate
        self._lost_response_rate = lost_response_rate
        self._duplicate_rate = duplicate_rate
        self._extra_tickets: list[int] = []

    def submit(
        self, request, *, worker: int | None = None, nonce: bytes | None = None
    ) -> int:
        draw = self._rng.random()
        if draw < self._lost_request_rate:
            raise ServiceError("chaos: request lost before the server")
        draw -= self._lost_request_rate
        # Older transports may not speak the nonce kwarg; only pass it
        # through when the caller actually set one.
        if nonce is None:
            ticket = self._inner.submit(request, worker=worker)
        else:
            ticket = self._inner.submit(request, worker=worker, nonce=nonce)
        if draw < self._lost_response_rate:
            self._extra_tickets.append(ticket)
            raise ServiceError("chaos: response lost after the server")
        draw -= self._lost_response_rate
        if draw < self._duplicate_rate:
            if nonce is None:
                self._extra_tickets.append(self._inner.submit(request, worker=worker))
            else:
                self._extra_tickets.append(
                    self._inner.submit(request, worker=worker, nonce=nonce)
                )
        return ticket

    def gather(self, tickets: list[int]) -> list:
        extras, self._extra_tickets = self._extra_tickets, []
        results = self._inner.gather(list(tickets) + extras)
        return results[: len(tickets)]

    def close(self) -> None:
        self._inner.close()
