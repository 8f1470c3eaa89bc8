"""The fault-injection layer: deterministic schedules, the faulting
TCP proxy (clean pass-through byte-identity, and each fault action
producing a *typed* client-side failure), and the queue-path
:class:`ChaosTransport` semantics.
"""

import socket
import threading
import time

import pytest

from repro.core.protocols.payment import withdraw_coins
from repro.core.system import build_deployment
from repro.errors import ServiceError
from repro.service import faults
from repro.service.faults import (
    ChaosListener,
    ChaosTransport,
    FaultPlan,
    FaultSpec,
)
from repro.service.gateway import build_gateway
from repro.service.netserver import NetClient, NetServer
from repro.service.transport import Transport, encode_frame


# -- spec and schedule -------------------------------------------------------


def test_spec_rejects_rates_over_one():
    with pytest.raises(ServiceError):
        FaultSpec(reset_rate=0.6, truncate_rate=0.6)
    with pytest.raises(ServiceError):
        FaultSpec(drop_rate=-0.1)
    with pytest.raises(ServiceError):
        FaultSpec(delay_rate=1.5)


def test_schedule_is_deterministic_per_seed_and_direction():
    spec = FaultSpec(
        reset_rate=0.2, truncate_rate=0.2, drop_rate=0.2, duplicate_rate=0.2
    )
    plan = FaultPlan(spec, seed=42)
    draws = lambda serial, direction: [  # noqa: E731
        plan.schedule(serial, direction).next_action() for _ in range(64)
    ]
    assert draws(0, "c2s") == draws(0, "c2s")
    assert draws(0, "c2s") != draws(0, "s2c")
    assert draws(0, "c2s") != draws(1, "c2s")
    assert set(draws(0, "c2s")) <= {
        "reset", "truncate", "drop", "duplicate", "deliver"
    }


def test_zero_rates_always_deliver():
    schedule = FaultPlan(FaultSpec(), seed=1).schedule(0, "c2s")
    assert all(schedule.next_action() == "deliver" for _ in range(100))
    assert schedule.next_delay() == 0.0


def test_truncate_point_is_strictly_inside_the_frame():
    schedule = FaultPlan(FaultSpec(truncate_rate=1.0), seed=3).schedule(0, "c2s")
    frame = encode_frame(1, 7, b"x" * 100)
    for _ in range(50):
        point = schedule.truncate_point(frame)
        assert 0 <= point < len(frame)


# -- the TCP proxy -----------------------------------------------------------


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    d = build_deployment(seed="faults-test", rsa_bits=512)
    d.provider.publish("song-1", b"SONG-ONE" * 32, title="Song One", price=3)
    directory = tmp_path_factory.mktemp("faults-shards")
    gateway = build_gateway(d, str(directory), workers=2, shards=2)
    server = NetServer(gateway)
    address = server.start()
    yield d, gateway, address
    server.close()
    gateway.close()


def test_clean_proxy_is_byte_transparent(stack):
    """At zero fault rates the proxy re-frames every byte faithfully:
    the full client surface behaves exactly as if dialed directly."""
    d, gateway, address = stack
    with ChaosListener(address, FaultPlan(FaultSpec(), seed=0)) as proxy:
        direct = NetClient(address)
        proxied = NetClient(proxy.address)
        try:
            assert proxied.catalog() == direct.catalog()
            assert proxied.balance(gateway.bank_account) == direct.balance(
                gateway.bank_account
            )
            user = d.add_user("proxy-clean-user", balance=1_000)
            coins = withdraw_coins(user, d.bank, 26)
            receipt = proxied.deposit(gateway.bank_account, coins)
            assert receipt["credited"] == 26
        finally:
            direct.close()
            proxied.close()
        assert proxy.connections_accepted == 1


def test_reset_surfaces_as_typed_error(stack):
    _d, gateway, address = stack
    plan = FaultPlan(FaultSpec(reset_rate=1.0), seed=0)
    with ChaosListener(address, plan) as proxy:
        client = NetClient(proxy.address, timeout=5.0)
        try:
            with pytest.raises(ServiceError):
                client.balance(gateway.bank_account)
            # The base client stays honestly poisoned: instant typed
            # failure, no hang, until someone reconnects.
            with pytest.raises(ServiceError):
                client.balance(gateway.bank_account)
        finally:
            client.close()


def test_truncate_surfaces_as_typed_error(stack):
    _d, gateway, address = stack
    plan = FaultPlan(FaultSpec(truncate_rate=1.0), seed=1)
    with ChaosListener(address, plan) as proxy:
        client = NetClient(proxy.address, timeout=5.0)
        try:
            with pytest.raises(ServiceError):
                client.balance(gateway.bank_account)
        finally:
            client.close()


def test_duplicate_frames_are_absorbed(stack):
    """Duplicated *request* frames hit the replay cache (same nonce
    envelope bytes); duplicated response frames are de-correlated by
    ticket.  Either way the caller sees exactly one answer."""
    _d, gateway, address = stack
    plan = FaultPlan(FaultSpec(duplicate_rate=1.0), seed=2)
    with ChaosListener(address, plan) as proxy:
        client = NetClient(proxy.address, timeout=5.0)
        try:
            before = client.balance(gateway.bank_account)
            assert client.balance(gateway.bank_account) == before
        finally:
            client.close()


# -- the queue-path chaos wrapper --------------------------------------------


class _FakeTransport(Transport):
    """Records every submit; answers ``ok:<ticket>`` on gather."""

    def __init__(self):
        self.submits = []
        self.gathered = []
        self.closed = False
        self._next = 0

    def submit(self, request, *, worker=None, nonce=None):
        ticket = self._next
        self._next += 1
        self.submits.append((ticket, request, worker, nonce))
        return ticket

    def gather(self, tickets):
        self.gathered.append(list(tickets))
        return [f"ok:{ticket}" for ticket in tickets]

    def close(self):
        self.closed = True


def test_chaos_transport_lost_request_never_reaches_inner():
    inner = _FakeTransport()
    chaos = ChaosTransport(
        inner, FaultPlan(FaultSpec(), seed=0), lost_request_rate=1.0
    )
    with pytest.raises(ServiceError, match="request lost"):
        chaos.submit("req")
    assert inner.submits == []


def test_chaos_transport_lost_response_side_effect_stands():
    inner = _FakeTransport()
    chaos = ChaosTransport(
        inner, FaultPlan(FaultSpec(), seed=0), lost_response_rate=1.0
    )
    with pytest.raises(ServiceError, match="response lost"):
        chaos.submit("req", nonce=b"n" * 16)
    # The inner submit happened — the side effect stands, exactly the
    # ambiguity the idempotency nonce exists to make retry-safe.
    assert [s[1] for s in inner.submits] == ["req"]
    assert inner.submits[0][3] == b"n" * 16
    # The orphaned ticket is drained (and discarded) by the next gather.
    assert chaos.gather([]) == []
    assert inner.gathered[-1] == [0]


def test_chaos_transport_duplicate_submits_twice():
    inner = _FakeTransport()
    chaos = ChaosTransport(
        inner, FaultPlan(FaultSpec(), seed=0), duplicate_rate=1.0
    )
    ticket = chaos.submit("req", worker=1)
    assert [s[1] for s in inner.submits] == ["req", "req"]
    assert chaos.gather([ticket]) == [f"ok:{ticket}"]
    chaos.close()
    assert inner.closed


def test_chaos_transport_is_deterministic():
    def run():
        inner = _FakeTransport()
        chaos = ChaosTransport(
            inner,
            FaultPlan(FaultSpec(), seed=9),
            lost_request_rate=0.3,
            lost_response_rate=0.3,
            duplicate_rate=0.3,
        )
        outcomes = []
        for i in range(40):
            try:
                chaos.submit(f"r{i}")
                outcomes.append("ok")
            except ServiceError as exc:
                outcomes.append(str(exc))
        return outcomes

    assert run() == run()


def test_proxy_close_during_upstream_dial_tears_down_the_client(monkeypatch):
    """close() racing an accept whose upstream dial is still in flight
    must not leave that connection proxied: the accept loop sees the
    close and hard-closes both sockets instead of starting pumps."""
    upstream = socket.socket()
    upstream.bind(("127.0.0.1", 0))
    upstream.listen(8)
    dialing, release = threading.Event(), threading.Event()
    real_dial = faults.socket_module.create_connection

    def stalled_dial(address, *args, **kwargs):
        if threading.current_thread().name == "p2drm-chaos-accept":
            dialing.set()
            release.wait(10)
        return real_dial(address, *args, **kwargs)

    monkeypatch.setattr(faults.socket_module, "create_connection", stalled_dial)
    proxy = ChaosListener(upstream.getsockname(), FaultPlan(FaultSpec(), seed=0))
    client = socket.create_connection(proxy.address, timeout=5)
    try:
        assert dialing.wait(10)
        closer = threading.Thread(target=proxy.close, daemon=True)
        closer.start()
        deadline = time.monotonic() + 10
        while not proxy._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        closer.join(timeout=10)
        client.settimeout(2)
        try:
            data = client.recv(1)
        except ConnectionResetError:
            data = b""
        assert data == b""
    finally:
        release.set()
        client.close()
        proxy.close()
        upstream.close()


def test_proxy_close_tears_down_live_connections(stack):
    _d, _gateway, address = stack
    proxy = ChaosListener(address, FaultPlan(FaultSpec(), seed=0))
    client = NetClient(proxy.address, timeout=5.0)
    try:
        proxy.close()
        failed = threading.Event()

        def poke():
            try:
                client.catalog()
            except ServiceError:
                failed.set()

        thread = threading.Thread(target=poke, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert failed.is_set()
    finally:
        client.close()
