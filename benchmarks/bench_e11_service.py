"""E11 — service-layer throughput: the sharded worker pool under load.

Measures sustained provider-side throughput (sales + redemptions)
through the :mod:`repro.service` gateway at 1/2/4/8 workers, against
the in-process desk as the zero-IPC reference.  The workload is
prepared once (user-side certification, payment and signing are off
the clock) and replayed against a fresh shard set per arm, so every
arm validates and personalizes the *same* request bytes.

Deterministic issuance makes the arms cross-check themselves: every
worker count — and the in-process desk — must produce byte-identical
licences for the same requests, and the ``byte_identical`` column
records that the run actually verified it.

Scaling expectation: verification is pure CPU, so throughput scales
with *cores actually available* (the ``cores`` column); a 1-core
runner shows queueing overhead instead of speedup, which is the
honest number for that machine.  Smoke mode trims the sweep to 1/2
workers and small keys; the nightly run sweeps the full 1/2/4/8 at
real key sizes.

A second arm, ``sequential``, guards the idle floor: one ``sell`` at a
time through a 1-worker gateway against the in-process desk selling
the same request bytes one at a time.  Its ``pool_vs_inprocess`` ratio
(pool p50 / in-process p50) is what every request pays for queue
hand-off and IPC on an idle pool; both medians come from the same run
on the same runner, so runner speed cancels and ``check_regression``
can enforce the ratio where it cannot enforce absolute timings.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

from repro import codec
from repro.core.protocols.acquisition import build_purchase_request
from repro.core.protocols.transfer import build_exchange_request, build_redeem_request
from repro.core.system import build_deployment
from repro.crypto.backend import backend_name
from repro.service.gateway import build_gateway

BENCH_SMOKE = os.environ.get("P2DRM_BENCH_SMOKE", "") not in ("", "0")

WORKER_SWEEP = (1, 2) if BENCH_SMOKE else (1, 2, 4, 8)
#: Requests per family and arm: every arm sells N and redeems N.
N_REQUESTS = 16 if BENCH_SMOKE else 96
#: Single sells timed one at a time, per side, in the sequential arm.
N_SEQUENTIAL = 16 if BENCH_SMOKE else 32
RSA_BITS = 512 if BENCH_SMOKE else 1024


def _deployment():
    deployment = build_deployment(seed="bench-e11", rsa_bits=RSA_BITS)
    deployment.provider.publish(
        "bench-song", b"BENCH-PAYLOAD" * 256, title="Bench Song", price=3
    )
    deployment.provider.deterministic_issuance = True
    return deployment


def _timed(sell, request, samples: list):
    start = time.perf_counter()
    result = sell(request)
    samples.append(time.perf_counter() - start)
    return result


class TestServiceThroughput:
    def test_worker_sweep(self, experiment):
        deployment = _deployment()
        senders = [
            deployment.add_user(f"e11-sender-{i}", balance=1_000_000)
            for i in range(4)
        ]
        receiver = deployment.add_user("e11-receiver", balance=1_000_000)

        purchase_requests = [
            build_purchase_request(
                senders[i % len(senders)],
                deployment.provider,
                deployment.issuer,
                deployment.bank,
                "bench-song",
            )
            for i in range(N_REQUESTS)
        ]

        # -- in-process reference arm (also births the redeem queue) ----
        start = time.perf_counter()
        local_licenses = deployment.provider.sell_batch(purchase_requests)
        sell_seconds = time.perf_counter() - start
        assert not any(isinstance(r, Exception) for r in local_licenses)
        exchange_requests = [
            build_exchange_request(senders[i % len(senders)], license_)
            for i, license_ in enumerate(local_licenses)
        ]
        anonymous = [
            deployment.provider.exchange(request) for request in exchange_requests
        ]
        redeem_requests = [
            build_redeem_request(
                receiver, deployment.provider, deployment.issuer, anon
            )
            for anon in anonymous
        ]
        start = time.perf_counter()
        local_redeemed = deployment.provider.redeem_batch(redeem_requests)
        redeem_seconds = time.perf_counter() - start
        assert not any(isinstance(r, Exception) for r in local_redeemed)
        reference = {
            "licenses": [codec.encode(r.as_dict()) for r in local_licenses],
            "anonymous": [codec.encode(a.as_dict()) for a in anonymous],
            "redeemed": [codec.encode(r.as_dict()) for r in local_redeemed],
        }
        experiment.row(
            case="in-process",
            workers=0,
            shards=0,
            cores=os.cpu_count(),
            backend=backend_name(),
            sells_per_s=N_REQUESTS / sell_seconds,
            redemptions_per_s=N_REQUESTS / redeem_seconds,
            ops_per_s=2 * N_REQUESTS / (sell_seconds + redeem_seconds),
        )

        # -- gateway arms -----------------------------------------------
        baseline_ops_per_s = None
        for workers in WORKER_SWEEP:
            directory = tempfile.mkdtemp(prefix=f"p2drm-e11-w{workers}-")
            gateway = build_gateway(
                deployment, directory, workers=workers, shards=workers
            )
            try:
                start = time.perf_counter()
                sold = gateway.sell_batch(purchase_requests)
                sell_seconds = time.perf_counter() - start
                assert not any(isinstance(r, Exception) for r in sold)
                exchanged = gateway.call_many(exchange_requests)
                assert not any(isinstance(r, Exception) for r in exchanged)
                start = time.perf_counter()
                redeemed = gateway.redeem_batch(redeem_requests)
                redeem_seconds = time.perf_counter() - start
                assert not any(isinstance(r, Exception) for r in redeemed)
            finally:
                gateway.close()
                shutil.rmtree(directory, ignore_errors=True)

            byte_identical = (
                [codec.encode(r.as_dict()) for r in sold] == reference["licenses"]
                and [codec.encode(a.as_dict()) for a in exchanged]
                == reference["anonymous"]
                and [codec.encode(r.as_dict()) for r in redeemed]
                == reference["redeemed"]
            )
            assert byte_identical, (
                f"{workers}-worker gateway output diverged from in-process desk"
            )
            ops_per_s = 2 * N_REQUESTS / (sell_seconds + redeem_seconds)
            if baseline_ops_per_s is None:
                baseline_ops_per_s = ops_per_s
            experiment.row(
                case=f"workers-{workers}",
                workers=workers,
                shards=workers,
                cores=os.cpu_count(),
                backend=backend_name(),
                sells_per_s=N_REQUESTS / sell_seconds,
                redemptions_per_s=N_REQUESTS / redeem_seconds,
                ops_per_s=ops_per_s,
                speedup_vs_1=ops_per_s / baseline_ops_per_s,
                byte_identical=byte_identical,
            )

    def test_sequential_sell(self, experiment):
        deployment = _deployment()
        buyer = deployment.add_user("e11-sequential", balance=1_000_000)
        requests = [
            build_purchase_request(
                buyer,
                deployment.provider,
                deployment.issuer,
                deployment.bank,
                "bench-song",
            )
            for _ in range(N_SEQUENTIAL)
        ]
        directory = tempfile.mkdtemp(prefix="p2drm-e11-seq-")
        gateway = build_gateway(deployment, directory, workers=1, shards=1)
        inprocess_s, pool_s, byte_identical = [], [], True
        try:
            gateway.pool.wait_warmup()
            # Interleaved, one request at a time on each side: whatever
            # the runner does to one side's timing it does to the other.
            for request in requests:
                local = _timed(deployment.provider.sell, request, inprocess_s)
                pooled = _timed(gateway.sell, request, pool_s)
                byte_identical &= codec.encode(pooled.as_dict()) == codec.encode(
                    local.as_dict()
                )
        finally:
            gateway.close()
            shutil.rmtree(directory, ignore_errors=True)
        inprocess_ms = statistics.median(inprocess_s) * 1000.0
        pool_ms = statistics.median(pool_s) * 1000.0
        assert byte_identical, "sequential pool sells diverged from the desk"
        experiment.row(
            case="sequential",
            workers=1,
            shards=1,
            cores=os.cpu_count(),
            backend=backend_name(),
            requests=N_SEQUENTIAL,
            inprocess_p50_ms=inprocess_ms,
            pool_p50_ms=pool_ms,
            pool_vs_inprocess=pool_ms / inprocess_ms,
            byte_identical=byte_identical,
        )
