"""E14 — overload: open-loop arrivals past capacity, shed-rate and
tail latency.

Closed-loop drivers (E11/E13) can never overload the pool — each
client waits for its answer before sending the next request — so this
experiment switches to **open-loop** arrivals: requests are released
on a fixed schedule (``offered_per_s``) whether or not earlier ones
have finished, the way real traffic behaves.  The schedule sweeps
from half the measured capacity to twice it, against a one-worker
gateway whose admission ceiling is deliberately small, and reports
what the runbook cares about: achieved throughput, shed rate, and
p50/p99/p999 latency.  The quantiles come from the raw per-request
samples the pool's ``p2drm_request_latency_seconds`` histogram
observes (submit to response, queue wait included), recorded as they
happen — not from interpolation over the histogram's 13 fixed
buckets, which would pin a p50 anywhere in the 50-100 ms bucket to
75 ms.  The histogram's own count is cross-checked against the
requests answered, so the samples and the scrape describe the same
population.

Two invariants are *asserted*, not just reported:

- past capacity the service sheds **loudly and typed** — every refusal
  is an :class:`~repro.errors.OverloadedError` (synchronous on the
  queue transport, a wire error envelope over TCP), never a hang or a
  silent drop;
- shedding is **side-effect-free and exactly-once** — after the open
  loop, every shed request is retried to completion and every licence
  (first-try or retried) is byte-identical to the in-process desk's
  deterministic-issuance reference.  A shed that half-applied would
  surface here as a double-spend or a diverging licence.

Timings are advisory in the regression lane (runner-dependent); the
rows' presence is enforced.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

from repro import codec
from repro.core.protocols.acquisition import build_purchase_request
from repro.core.system import build_deployment
from repro.crypto.backend import backend_name
from repro.errors import OverloadedError
from repro.service.gateway import build_gateway
from repro.service.netserver import NetClient, NetServer

BENCH_SMOKE = os.environ.get("P2DRM_BENCH_SMOKE", "") not in ("", "0")

N_REQUESTS = 16 if BENCH_SMOKE else 64
RSA_BITS = 512 if BENCH_SMOKE else 1024
#: Pool/server admission ceiling for the open-loop arms: small enough
#: that a 2x-capacity schedule must shed, big enough to ride out the
#: arrival jitter of a half-capacity schedule.
CEILING = 4
RATE_MULTIPLIERS = (0.5, 2.0)


class _LatencySamples:
    """Every ``sell`` latency the pool's request-latency histogram
    observes, kept raw (seconds) beside the histogram's buckets."""

    def __init__(self, registry):
        self.histogram = registry.get("p2drm_request_latency_seconds")
        self.values: list[float] = []
        observe = self.histogram.observe

        def recording_observe(value, **labels):
            if labels.get("op") == "sell":
                self.values.append(value)
            observe(value, **labels)

        self.histogram.observe = recording_observe

    def quantiles_ms(self, answered: int) -> dict:
        """p50/p99/p999 (ms) over the raw samples, after checking that
        the histogram counted exactly the ``answered`` requests."""
        samples = list(self.values)
        assert self.histogram.count(op="sell") == len(samples) == answered, (
            f"histogram count {self.histogram.count(op='sell')}, raw samples"
            f" {len(samples)}, answered {answered}"
        )
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        return {
            "p50_ms": cuts[499] * 1000.0,
            "p99_ms": cuts[989] * 1000.0,
            "p999_ms": cuts[998] * 1000.0,
        }


def _open_loop_queue(gateway, requests, rate):
    """Release ``requests`` at ``rate``/s against the gateway; returns
    ``(results_by_index, shed_indices, elapsed)``.  Submits never
    block on earlier answers — that is the open loop."""
    tickets: dict[int, int] = {}
    shed: list[int] = []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        target = start + index / rate
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            tickets[index] = gateway.submit(request)
        except OverloadedError:
            shed.append(index)
    answered = gateway.gather(list(tickets.values()))
    elapsed = time.perf_counter() - start
    results = dict(zip(tickets.keys(), answered))
    return results, shed, elapsed


def _open_loop_tcp(client, requests, rate):
    """The same schedule over one pipelined socket: submits only write
    frames, so arrivals keep their times; sheds come back as typed
    error envelopes in the gathered results."""
    tickets: list[int] = []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        target = start + index / rate
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        tickets.append(client.submit(request))
    answered = client.gather(tickets)
    elapsed = time.perf_counter() - start
    results, shed = {}, []
    for index, result in enumerate(answered):
        if isinstance(result, OverloadedError):
            shed.append(index)
        else:
            results[index] = result
    return results, shed, elapsed


def _drain(submit_one, requests, shed: list[int], results: dict) -> None:
    """Retry every shed request until admitted (closed loop now —
    draining, not offering).  Exactly-once means each retry succeeds;
    a shed with side effects would reject its own retry here."""
    for index in shed:
        deadline = time.monotonic() + 60
        while True:
            try:
                results[index] = submit_one(requests[index])
                break
            except OverloadedError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)


def _assert_byte_identical(results: dict, reference: list[bytes], label: str):
    assert len(results) == len(reference), f"{label}: lost requests"
    for index, result in results.items():
        assert not isinstance(result, Exception), f"{label}[{index}]: {result!r}"
        assert codec.encode(result.as_dict()) == reference[index], (
            f"{label}[{index}] diverged from the in-process reference"
        )


class TestOverload:
    def test_open_loop_sweep(self, experiment):
        deployment = build_deployment(seed="bench-e14", rsa_bits=RSA_BITS)
        deployment.provider.publish(
            "bench-song", b"BENCH-PAYLOAD" * 256, title="Bench Song", price=3
        )
        deployment.provider.deterministic_issuance = True
        buyers = [
            deployment.add_user(f"e14-buyer-{i}", balance=1_000_000)
            for i in range(4)
        ]
        requests = [
            build_purchase_request(
                buyers[i % len(buyers)],
                deployment.provider,
                deployment.issuer,
                deployment.bank,
                "bench-song",
            )
            for i in range(N_REQUESTS)
        ]

        # -- in-process desk: the byte-identity oracle ------------------
        reference_licenses = deployment.provider.sell_batch(requests)
        assert not any(isinstance(r, Exception) for r in reference_licenses)
        reference = [codec.encode(r.as_dict()) for r in reference_licenses]

        # -- closed-loop capacity: what one worker can actually do ------
        directory = tempfile.mkdtemp(prefix="p2drm-e14-cap-")
        gateway = build_gateway(deployment, directory, workers=1, shards=1)
        try:
            samples = _LatencySamples(gateway.metrics)
            start = time.perf_counter()
            sold = gateway.sell_batch(requests)
            capacity = N_REQUESTS / (time.perf_counter() - start)
            quantiles = samples.quantiles_ms(N_REQUESTS)
        finally:
            gateway.close()
            shutil.rmtree(directory, ignore_errors=True)
        assert not any(isinstance(r, Exception) for r in sold)
        experiment.row(
            case="capacity-w1",
            transport="queue",
            offered_per_s=None,
            achieved_per_s=capacity,
            shed=0,
            shed_rate=0.0,
            backend=backend_name(),
            byte_identical=True,
            **quantiles,
        )

        # -- open-loop queue arms: sweep the offered rate ---------------
        for multiplier in RATE_MULTIPLIERS:
            rate = capacity * multiplier
            directory = tempfile.mkdtemp(prefix=f"p2drm-e14-q{multiplier}-")
            gateway = build_gateway(
                deployment, directory, workers=1, shards=1,
                max_inflight=CEILING,
            )
            try:
                samples = _LatencySamples(gateway.metrics)
                results, shed, elapsed = _open_loop_queue(
                    gateway, requests, rate
                )
                quantiles = samples.quantiles_ms(N_REQUESTS - len(shed))
                _drain(
                    lambda r: gateway.sell(r), requests, shed, results
                )
            finally:
                gateway.close()
                shutil.rmtree(directory, ignore_errors=True)
            if multiplier > 1.0:
                # Past capacity behind a small ceiling the open loop
                # cannot fit: the server must shed (and did so typed —
                # _open_loop_queue only counts OverloadedError).
                assert shed, (
                    f"no shed at {multiplier}x capacity with a"
                    f" {CEILING}-deep ceiling"
                )
            _assert_byte_identical(results, reference, f"queue-{multiplier}x")
            experiment.row(
                case=f"open-queue-{multiplier}x",
                transport="queue",
                offered_per_s=rate,
                achieved_per_s=(N_REQUESTS - len(shed)) / elapsed,
                shed=len(shed),
                shed_rate=len(shed) / N_REQUESTS,
                backend=backend_name(),
                byte_identical=True,
                **quantiles,
            )

        # -- open-loop TCP arm at 2x: sheds cross the wire typed --------
        directory = tempfile.mkdtemp(prefix="p2drm-e14-tcp-")
        gateway = build_gateway(deployment, directory, workers=1, shards=1)
        server = NetServer(gateway, max_server_inflight=CEILING)
        client = None
        try:
            client = NetClient(server.start())
            samples = _LatencySamples(gateway.metrics)
            rate = capacity * 2.0
            results, shed, elapsed = _open_loop_tcp(client, requests, rate)
            quantiles = samples.quantiles_ms(N_REQUESTS - len(shed))
            assert shed, (
                f"no typed shed over TCP at 2x capacity with a"
                f" {CEILING}-deep server ceiling"
            )

            def submit_one(request):
                [result] = client.gather([client.submit(request)])
                if isinstance(result, OverloadedError):
                    raise result
                return result

            _drain(submit_one, requests, shed, results)
        finally:
            if client is not None:
                client.close()
            server.close()
            gateway.close()
            shutil.rmtree(directory, ignore_errors=True)
        _assert_byte_identical(results, reference, "tcp-2.0x")
        experiment.row(
            case="open-tcp-2.0x",
            transport="tcp",
            offered_per_s=rate,
            achieved_per_s=(N_REQUESTS - len(shed)) / elapsed,
            shed=len(shed),
            shed_rate=len(shed) / N_REQUESTS,
            backend=backend_name(),
            byte_identical=True,
            **quantiles,
        )
