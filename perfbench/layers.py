"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions on the same
request bytes the layer below it was timed on, so differences between
paths attribute wall time to the layer in between:

- ``core``: the in-process ``ContentProvider`` desk (single sells, one
  64-item bulk round, exchanges) and the in-process bank's
  ``deposit_batch``, with exact ``instrument.measure()`` op counts;
- ``service.pool``: queue-transport calls on an in-process gateway
  minus the desk;
- ``service.netserver``: TCP calls on a server child minus the queue
  (and minus the in-process ``gateway.revocation_sync`` for syncs);
- ``crypto``: ``schnorr.batch_verify`` and
  ``batch_verify_blind_signatures`` over one bulk round;
- ``service.wire`` / ``codec`` and ``service.transport``: envelope and
  frame round trips;
- ``storage`` / ``service.sharding`` / ``service.ledger``: spends, LRL
  sync, Merkle builds and 2PC deposits on a temporary shard set at the
  ``market`` LRL size.

The desk, queue and TCP calls of one request run back to back, so a
change in the machine's speed during the probe shifts all three paths
alike instead of landing in one difference.  Every pool and TCP answer
is checked against the desk's reference.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import stack
from stack import BenchError, median, now

WARMUP = 3
PROBE_SELLS = 40
PROBE_DEPOSITS = 16
PROBE_SYNCS = 16
PROBE_SPENDS = 200
REPEATS = 5
ROUND = 64

#: Op counters reported per sell and per bulk item.
COUNTERS = (
    "modexp",
    "modexp.fixed_base",
    "modexp.multi",
    "rsa.private_op",
    "rsa.public_op",
    "schnorr.batch_verify.signatures",
    "rsa.batch_verify.signatures",
)


def _median_time(fn, *, loops: int = 1) -> float:
    """Median over ``REPEATS`` timed loops of seconds per call of ``fn``."""
    times = []
    for _ in range(REPEATS):
        start = now()
        for _ in range(loops):
            fn()
        times.append((now() - start) / loops)
    return median(times)


def _timed(fn):
    start = now()
    result = fn()
    return result, now() - start


def _require(result, reference: bytes, what: str) -> None:
    if not stack.matches(result, reference):
        raise BenchError(f"{what} differs from the in-process reference")


def measure(inputs, workdir: str) -> dict[str, float]:
    from repro.service.netserver import NetClient

    out: dict[str, float] = {}
    gateway, _, _, _ = stack.start_stack(
        inputs.deployment, os.path.join(workdir, "queue"), trace=False,
        setups=1, serve=False,
    )
    try:
        stack.prepare_serving(gateway, inputs.seed, stack.LRL_PRELOAD)
        with stack.ServerChild(
            inputs.seed, os.path.join(workdir, "tcp"),
            lrl=stack.LRL_PRELOAD, setups=1,
        ) as server, NetClient(server.info.address, timeout=60.0) as client:
            _sells(inputs, gateway, client, out)
            round_requests, licenses = _bulk_round(inputs, gateway, out)
            _syncs(gateway, client, out)
    finally:
        gateway.close()
    _crypto(inputs, round_requests, out)
    payments = _deposits(inputs, out)
    _wire(round_requests[0], licenses[0], payments[0], out)
    _storage(inputs, os.path.join(workdir, "shards"), payments, out)
    return out


def _sells(inputs, gateway, client, out) -> None:
    """Desk, queue and TCP sell of each request, back to back."""
    from repro import instrument

    provider = inputs.deployment.provider
    desk, queue, tcp, counts = [], [], [], Counter()
    pairs = inputs.purchase_requests(WARMUP + PROBE_SELLS)
    for index, (request, _user) in enumerate(pairs):
        with instrument.measure() as ops:
            license_, desk_s = _timed(lambda: provider.sell(request))
        reference = stack.encoded(license_)
        result, queue_s = _timed(lambda: gateway.sell(request))
        _require(result, reference, "queue sell")
        result, tcp_s = _timed(lambda: client.sell(request))
        _require(result, reference, "TCP sell")
        if index >= WARMUP:
            desk.append(desk_s)
            queue.append(queue_s)
            tcp.append(tcp_s)
            counts.update(ops.counts)
    out["core.sell_ms"] = median(desk) * 1e3
    out["pool.sell_overhead_ms"] = median(q - d for q, d in zip(queue, desk)) * 1e3
    out["netserver.sell_overhead_ms"] = median(t - q for t, q in zip(tcp, queue)) * 1e3
    for name in COUNTERS:
        out[f"crypto.ops.{name}.per_sell"] = counts[name] / PROBE_SELLS


def _bulk_round(inputs, gateway, out):
    """One bulk round on the desk, with the queue ``sell_batch`` of the
    same 64 requests right after the desk's."""
    from repro import instrument
    from repro.core.protocols.transfer import (
        build_exchange_request,
        build_redeem_request,
    )

    d = inputs.deployment
    provider = d.provider
    pairs = inputs.purchase_requests(ROUND)
    requests = [request for request, _ in pairs]
    counts = Counter()
    with instrument.measure() as ops:
        licenses, desk_s = _timed(lambda: provider.sell_batch(requests))
    counts.update(ops.counts)
    sold, queue_s = _timed(lambda: gateway.sell_batch(requests))
    for license_, result in zip(licenses, sold):
        if isinstance(license_, Exception):
            raise BenchError("reference sell_batch refused a request")
        _require(result, stack.encoded(license_), "queue sell_batch")
    exchange_times, anonymous = [], []
    for (_, user), license_ in zip(pairs, licenses):
        request = build_exchange_request(user, license_)
        with instrument.measure() as ops:
            anon, elapsed = _timed(lambda: provider.exchange(request))
        counts.update(ops.counts)
        exchange_times.append(elapsed)
        anonymous.append(anon)
    redeem_requests = [
        build_redeem_request(inputs.receiver, provider, d.issuer, anon)
        for anon in anonymous
    ]
    with instrument.measure() as ops:
        redeemed, redeem_s = _timed(lambda: provider.redeem_batch(redeem_requests))
    counts.update(ops.counts)
    if any(isinstance(r, Exception) for r in redeemed):
        raise BenchError("reference redeem_batch refused a request")
    out["core.sell_batch_item_ms"] = desk_s / ROUND * 1e3
    out["pool.bulk_overhead_ms"] = (queue_s - desk_s) / ROUND * 1e3
    out["core.exchange_ms"] = median(exchange_times) * 1e3
    out["core.redeem_batch_item_ms"] = redeem_s / ROUND * 1e3
    for name in COUNTERS:
        out[f"crypto.ops.{name}.per_bulk_item"] = counts[name] / ROUND
    return requests, licenses


def _syncs(gateway, client, out) -> None:
    """In-process and TCP ``revocation_sync`` at the same cursor,
    alternating; both LRLs hold the same preloaded ids."""
    _, _, cursor = gateway.revocation_sync(0)
    _, _, tcp_cursor = client.revocation_sync(0)
    if tuple(tcp_cursor) != tuple(cursor):
        raise BenchError("TCP and in-process LRL cursors differ")
    local, tcp = [], []
    for _ in range(PROBE_SYNCS):
        local.append(_timed(lambda: gateway.revocation_sync(cursor))[1])
        tcp.append(_timed(lambda: client.revocation_sync(cursor))[1])
    out["netserver.sync_overhead_ms"] = median(
        t - s for t, s in zip(tcp, local)
    ) * 1e3


def _crypto(inputs, requests, out) -> None:
    from repro.crypto import schnorr
    from repro.crypto.blind_rsa import batch_verify_blind_signatures
    from repro.crypto.rand import DeterministicRandomSource

    signatures = [
        (r.certificate.pseudonym.signing_key, r.signing_payload(), r.signature)
        for r in requests
    ]
    out["crypto.schnorr_batch_verify_ms"] = _median_time(
        lambda: schnorr.batch_verify(
            signatures, rng=DeterministicRandomSource(b"perfbench-probe")
        )
    ) * 1e3
    by_value: dict[int, list] = {}
    for request in requests:
        for coin in request.coins:
            by_value.setdefault(coin.value, []).append(
                (coin.payload(), coin.signature)
            )
    keys = inputs.deployment.bank.public_keys()

    def screen_coins():
        for value, items in by_value.items():
            batch_verify_blind_signatures(items, keys[value])

    out["crypto.blind_batch_verify_ms"] = _median_time(screen_coins) * 1e3


def _deposits(inputs, out) -> list:
    """In-process bank deposits of 3-coin payments; returns the payments
    (the storage probe replays them on its own shards)."""
    bank = inputs.deployment.bank
    payments = [inputs.withdraw_payment() for _ in range(PROBE_DEPOSITS)]
    times = [
        _timed(lambda: bank.deposit_batch(stack.MERCHANTS[0], coins))[1]
        for coins in payments
    ]
    out["core.deposit_ms"] = median(times) * 1e3
    return payments


def _wire(sell_request, sell_license, coins, out) -> None:
    from repro.core.messages import DepositRequest
    from repro.service import wire
    from repro.service.transport import FRAME_REQUEST, FrameDecoder, encode_frame

    deposit_request = DepositRequest(account=stack.MERCHANTS[0], coins=tuple(coins))
    receipt = {"account": stack.MERCHANTS[0], "credited": stack.DEPOSIT_AMOUNT}

    def roundtrip(request, result):
        def run():
            wire.decode_request(wire.encode_request(request))
            wire.decode_response(wire.encode_response(result))

        return run

    out["wire.sell_roundtrip_us"] = _median_time(
        roundtrip(sell_request, sell_license), loops=50
    ) * 1e6
    out["wire.deposit_roundtrip_us"] = _median_time(
        roundtrip(deposit_request, receipt), loops=50
    ) * 1e6
    envelope = wire.encode_request(sell_request)
    out["wire.sell_request_bytes"] = len(envelope)
    out["wire.sell_response_bytes"] = len(wire.encode_response(sell_license))

    def frame_roundtrip():
        frames = FrameDecoder().feed(encode_frame(FRAME_REQUEST, 1, envelope))
        if len(frames) != 1:
            raise BenchError("frame decoder lost the probe frame")

    out["transport.frame_us"] = _median_time(frame_roundtrip, loops=200) * 1e6


def _storage(inputs, directory: str, payments, out) -> None:
    from repro.clock import SimClock
    from repro.crypto.rand import DeterministicRandomSource
    from repro.crypto.rsa import generate_rsa_key
    from repro.service.ledger import DepositSequencer, ShardedLedger
    from repro.service.sharding import (
        ShardedRevocationList,
        ShardedSpentTokenStore,
        ShardSet,
    )
    from repro.storage.merkle import MerkleTree

    clock = SimClock(inputs.deployment.clock.now())
    shards = ShardSet(ShardSet.paths_in_directory(directory, stack.SHARDS))
    try:
        spent = ShardedSpentTokenStore(shards, "perfbench-probe")
        rng = random.Random(f"{stack.seed_label(inputs.seed)}-spend")
        spend_times = []
        for _ in range(PROBE_SPENDS):
            token = rng.randbytes(32)
            spend_times.append(
                _timed(lambda: spent.try_spend(token, at=clock.now()))[1]
            )
        out["storage.spend_us"] = median(spend_times) * 1e6

        lrl = ShardedRevocationList(shards)
        for license_id in stack.lrl_ids(inputs.seed, stack.LRL_PRELOAD):
            lrl.revoke(license_id, at=clock.now(), reason="exchanged")
        # Any RSA key signs the snapshot; the provider's stays private.
        key = generate_rsa_key(
            stack.RSA_BITS, rng=DeterministicRandomSource(b"perfbench-lrl-key")
        )
        _, _, cursor = lrl.sync_since(0, key)
        out["storage.sync_since_ms"] = _median_time(
            lambda: lrl.sync_since(cursor, key)
        ) * 1e3
        all_ids = lrl.all_ids()
        out["storage.merkle_build_ms"] = _median_time(lambda: MerkleTree(all_ids)) * 1e3

        sequencer = DepositSequencer(
            ledger=ShardedLedger(shards),
            spent=ShardedSpentTokenStore(shards, "ecash"),
            clock=clock,
        )
        deposit_times = []
        for coins in payments:
            credited, elapsed = _timed(
                lambda: sequencer.deposit(stack.MERCHANTS[1], list(coins))
            )
            if credited != stack.DEPOSIT_AMOUNT:
                raise BenchError(f"probe deposit credited {credited}")
            deposit_times.append(elapsed)
        out["ledger.deposit_ms"] = median(deposit_times) * 1e3
    finally:
        shards.close()
