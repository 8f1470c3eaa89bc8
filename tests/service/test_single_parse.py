"""One request parse per process.

Every request envelope is decoded exactly once by the socket server
(withdraw gate, replay lookup, spans and routing all read the one
parse) and exactly once by the worker that serves it — traced or not.
The tests count :func:`repro.codec.decode` calls on each request's own
bytes, so response decodes and control frames do not muddy the count.
"""

import os
import queue
from collections import Counter

import pytest

from repro import codec
from repro.core.messages import DepositRequest
from repro.core.protocols.acquisition import build_purchase_request
from repro.core.protocols.transfer import build_exchange_request, build_redeem_request
from repro.core.system import build_deployment
from repro.service import tracing, wire
from repro.service.gateway import build_gateway
from repro.service.netserver import NetClient, NetServer
from repro.service.sharding import ShardSet
from repro.service.workers import ServiceConfig, _process_batch, build_worker_provider


def _deployment(seed):
    d = build_deployment(seed=seed, rsa_bits=512)
    d.provider.publish("song-1", b"SONG-ONE" * 32, title="Song One", price=3)
    return d


@pytest.fixture()
def decode_counts(monkeypatch):
    """Counts ``codec.decode`` calls per input, keyed by the bytes."""
    counts: Counter = Counter()
    real_decode = codec.decode

    def counting_decode(data):
        counts[bytes(data)] += 1
        return real_decode(data)

    monkeypatch.setattr(codec, "decode", counting_decode)
    return counts


def _trace_context():
    return tracing.TraceContext(
        os.urandom(tracing.TRACE_ID_BYTES), os.urandom(tracing.SPAN_ID_BYTES)
    )


@pytest.fixture(scope="module")
def net_stack(tmp_path_factory):
    d = _deployment("single-parse-net")
    gateway = build_gateway(
        d, str(tmp_path_factory.mktemp("single-parse-net")), workers=1, shards=1
    )
    server = NetServer(gateway)
    client = NetClient(server.start())
    yield d, gateway, client
    client.close()
    server.close()
    gateway.close()


@pytest.mark.parametrize("traced", [False, True])
def test_netserver_parses_a_sell_once(net_stack, decode_counts, traced):
    d, gateway, client = net_stack
    buyer = d.add_user(f"single-parse-buyer-{traced}", balance=1_000)
    request = build_purchase_request(buyer, gateway, d.issuer, d.bank, "song-1")
    envelope = wire.encode_request(
        request,
        trace=_trace_context() if traced else None,
        nonce=os.urandom(wire.NONCE_BYTES),
    )
    if traced:
        tracing.configure(latency_threshold=0.0)
    try:
        [license_] = client.gather([client.submit_encoded(envelope)])
    finally:
        tracing.disable()
    assert license_.content_id == "song-1"
    assert decode_counts[envelope] == 1


@pytest.fixture()
def worker_desk(tmp_path):
    d = _deployment("single-parse-worker")
    config = ServiceConfig.from_deployment(
        d, ShardSet.paths_in_directory(str(tmp_path), 1)
    )
    shards = ShardSet(config.shard_paths)
    provider, desk, clock = build_worker_provider(config, 0, shards)
    yield d, provider, desk, clock
    shards.close()


def _mixed_batch(d, provider):
    """A sell, a redeem, an exchange and a deposit, as typed requests."""
    alice = d.add_user("single-parse-alice", balance=1_000)
    bob = d.add_user("single-parse-bob", balance=1_000)
    owned = []
    for _ in range(2):
        purchase = build_purchase_request(alice, provider, d.issuer, d.bank, "song-1")
        license_ = provider.sell(purchase)
        alice.add_license(license_)
        owned.append(license_)
    anonymous = provider.exchange(
        build_exchange_request(alice, owned[0], restrict_to=("play",))
    )
    return [
        build_purchase_request(alice, provider, d.issuer, d.bank, "song-1"),
        build_redeem_request(bob, provider, d.issuer, anonymous),
        build_exchange_request(alice, owned[1], restrict_to=("play",)),
        DepositRequest(account="single-parse-merchant", coins=tuple(alice.coins_for(3, d.bank))),
    ]


@pytest.mark.parametrize("traced", [False, True])
def test_worker_parses_each_payload_once(worker_desk, decode_counts, traced):
    d, provider, desk, clock = worker_desk
    requests = _mixed_batch(d, provider)
    payloads = [
        wire.encode_request(
            request,
            trace=_trace_context() if traced else None,
            nonce=os.urandom(wire.NONCE_BYTES),
        )
        for request in requests
    ]
    items = [
        (request_id, payload, d.clock.now(), 0.0)
        for request_id, payload in enumerate(payloads)
    ]
    responses: queue.Queue = queue.Queue()
    if traced:
        tracing.install(tracing.SpanCollector())
    try:
        _process_batch(provider, desk, clock, items, responses)
    finally:
        tracing.disable()

    answered = {}
    while not responses.empty():
        response = responses.get_nowait()
        assert len(response) == (3 if traced else 2)
        answered[response[0]] = wire.decode_response(response[1])
    assert sorted(answered) == list(range(len(requests)))
    assert not any(isinstance(r, BaseException) for r in answered.values()), answered
    for payload in payloads:
        assert decode_counts[payload] == 1
