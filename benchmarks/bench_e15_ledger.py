"""E15 — the durable ledger: cross-shard 2PC deposits, crash recovery,
and the offline audit.

Three questions, each an arm:

1. **Byte identity** — the BankSurface must not change a single byte
   of the money protocol.  Three same-seeded deployments run the same
   withdrawals and deposits through the in-process bank, the queue
   gateway and the TCP client; every coin and every deposit receipt
   must encode identically across the arms.
2. **Throughput** — what the sequencer's intent protocol costs: the
   closed-loop deposit rate through a 2-worker pool (advisory; op
   counts are the regression signal, wall-clock only ever warns).
3. **Crash window** — the acceptance scenario: a worker is SIGKILLed
   mid-deposit-stream, the pool is restarted over the same shard
   directory (startup recovery runs presumed-abort), the failed
   payments are retried, and ``tools/ledger_audit.py`` must report
   **zero** problems — no lost credits, no double credits — with
   every account reconciling to exactly its payment amount.

The retry path deliberately tolerates :class:`~repro.errors.
DoubleSpendError`: a payment whose worker died *after* the commit
point is already credited, and the truthful refusal of its retry is
the 2PC contract working, not a failure.  The per-account balance
check below is what actually proves exactly-once.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro import codec
from repro.core.messages import DepositRequest
from repro.core.protocols.payment import withdraw_coins
from repro.core.system import build_deployment
from repro.crypto.backend import backend_name
from repro.errors import DoubleSpendError, ServiceError
from repro.service.gateway import build_gateway
from repro.service.netserver import NetClient, NetServer

BENCH_SMOKE = os.environ.get("P2DRM_BENCH_SMOKE", "") not in ("", "0")

RSA_BITS = 512 if BENCH_SMOKE else 1024
N_PAYMENTS = 6 if BENCH_SMOKE else 24
PAYMENT_AMOUNT = 26  # decomposes to [20, 5, 1]: every deposit is multi-coin
SEED = "bench-e15"

_AUDIT_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "ledger_audit.py",
)


def _deployment():
    return build_deployment(seed=SEED, rsa_bits=RSA_BITS)


def _payer(deployment, index):
    """Same-seeded deployments produce identical users, wallets and
    coin serials — the cross-arm identity hinges on this."""
    return deployment.add_user(f"e15-payer-{index:02d}", balance=1_000)


def _coin_bytes(coins) -> list[bytes]:
    return [codec.encode(coin.as_dict()) for coin in coins]


def _run_audit(directory: str) -> dict:
    """The offline audit exactly as CI runs it: the CLI, not the
    library — a green arm certifies the operator-facing tool."""
    completed = subprocess.run(
        [sys.executable, _AUDIT_TOOL, directory, "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = json.loads(completed.stdout)
    report["exit_code"] = completed.returncode
    return report


class TestLedger:
    def test_byte_identity_and_throughput(self, experiment):
        # -- in-process reference ---------------------------------------
        reference = _deployment()
        ref_coins, ref_receipts = [], []
        for index in range(N_PAYMENTS):
            user = _payer(reference, index)
            coins = withdraw_coins(user, reference.bank, PAYMENT_AMOUNT)
            account = f"merchant-{index:02d}"
            reference.bank.open_account(account)
            reference.bank.deposit_batch(account, coins)
            ref_coins.append(_coin_bytes(coins))
            ref_receipts.append(
                codec.encode(
                    {
                        "account": account,
                        "credited": reference.bank.balance(account),
                    }
                )
            )

        # -- queue arm ---------------------------------------------------
        queue_side = _deployment()
        directory = tempfile.mkdtemp(prefix="p2drm-e15-queue-")
        gateway = build_gateway(queue_side, directory, workers=2, shards=4)
        try:
            payments = []
            for index in range(N_PAYMENTS):
                user = _payer(queue_side, index)
                gateway.open_account(user.bank_account, initial_balance=1_000)
                coins = withdraw_coins(user, gateway, PAYMENT_AMOUNT)
                assert _coin_bytes(coins) == ref_coins[index], (
                    f"queue withdrawal {index} diverged from the in-process"
                    " reference"
                )
                payments.append((index, coins))
            start = time.perf_counter()
            for index, coins in payments:
                receipt = gateway.deposit(f"merchant-{index:02d}", coins)
                assert codec.encode(receipt) == ref_receipts[index], (
                    f"queue receipt {index} diverged"
                )
            elapsed = time.perf_counter() - start
        finally:
            gateway.close()
            shutil.rmtree(directory, ignore_errors=True)
        experiment.row(
            case="deposit-byte-identity",
            transport="queue",
            payments=N_PAYMENTS,
            coins_per_payment=len(ref_coins[0]),
            deposits_per_s=N_PAYMENTS / elapsed,
            backend=backend_name(),
            byte_identical=True,
        )

        # -- TCP arm -----------------------------------------------------
        tcp_side = _deployment()
        directory = tempfile.mkdtemp(prefix="p2drm-e15-tcp-")
        gateway = build_gateway(tcp_side, directory, workers=2, shards=4)
        try:
            # This arm IS the trusted-client case the withdraw opt-in
            # exists for (the TCP surface is deposit-only by default).
            with NetServer(gateway, allow_withdraw=True) as server:
                with NetClient(server.address) as client:
                    payments = []
                    for index in range(N_PAYMENTS):
                        user = _payer(tcp_side, index)
                        gateway.open_account(
                            user.bank_account, initial_balance=1_000
                        )
                        coins = withdraw_coins(user, client, PAYMENT_AMOUNT)
                        assert _coin_bytes(coins) == ref_coins[index], (
                            f"TCP withdrawal {index} diverged"
                        )
                        payments.append((index, coins))
                    # Withdrawals stay off the clock, as in the queue
                    # arm: both rows time the same deposits.
                    start = time.perf_counter()
                    for index, coins in payments:
                        receipt = client.deposit(
                            f"merchant-{index:02d}", coins
                        )
                        assert codec.encode(receipt) == ref_receipts[index], (
                            f"TCP receipt {index} diverged"
                        )
                    elapsed = time.perf_counter() - start
                    # The read surface agrees across transports too.
                    for index in range(N_PAYMENTS):
                        account = f"merchant-{index:02d}"
                        assert client.balance(account) == gateway.balance(
                            account
                        ) == PAYMENT_AMOUNT
        finally:
            gateway.close()
            shutil.rmtree(directory, ignore_errors=True)
        experiment.row(
            case="deposit-byte-identity",
            transport="tcp",
            payments=N_PAYMENTS,
            coins_per_payment=len(ref_coins[0]),
            deposits_per_s=N_PAYMENTS / elapsed,
            backend=backend_name(),
            byte_identical=True,
        )

    def test_crash_recovery_audit_clean(self, experiment):
        deployment = _deployment()
        directory = tempfile.mkdtemp(prefix="p2drm-e15-crash-")
        try:
            gateway = build_gateway(deployment, directory, workers=2, shards=4)
            payments = []
            try:
                for index in range(N_PAYMENTS):
                    user = _payer(deployment, index)
                    coins = withdraw_coins(
                        user, deployment.bank, PAYMENT_AMOUNT
                    )
                    payments.append((f"merchant-{index:02d}", coins))
                # Open loop: submit everything, then kill one worker
                # while the stream is in flight.
                tickets = [
                    (account, gateway.submit(
                        DepositRequest(account=account, coins=tuple(coins))
                    ))
                    for account, coins in payments
                ]
                os.kill(gateway._processes[0].pid, signal.SIGKILL)
                failed = []
                for account, ticket in tickets:
                    try:
                        [result] = gateway.gather([ticket])
                    except ServiceError:
                        failed.append(account)
                        continue
                    if isinstance(result, Exception):
                        failed.append(account)
            finally:
                gateway.close()

            # Restart the pool over the same shard files: startup
            # recovery rolls every torn deposit back (presumed-abort).
            reopened = build_gateway(deployment, directory, workers=2, shards=4)
            try:
                recovery = reopened.recovery_summary
                retried = 0
                for account, coins in payments:
                    if account not in failed:
                        continue
                    retried += 1
                    try:
                        reopened.deposit(account, coins)
                    except DoubleSpendError:
                        # The worker died after the commit point: the
                        # credit is durable and the refusal truthful.
                        pass
                # Exactly-once, per account, no matter which path ran.
                lost = sum(
                    1
                    for account, _coins in payments
                    if reopened.balance(account) != PAYMENT_AMOUNT
                )
                doubled = sum(
                    1
                    for account, _coins in payments
                    if reopened.balance(account) > PAYMENT_AMOUNT
                )
                counts = reopened.refresh_ledger_metrics()
            finally:
                reopened.close()
            assert lost == 0, f"{lost} accounts lost credits"
            assert doubled == 0, f"{doubled} accounts double-credited"
            assert counts["pending"] == 0

            # The offline auditor must agree, from the files alone.
            report = _run_audit(directory)
            assert report["exit_code"] == 0, report
            assert report["problems"] == [], report["problems"]
            assert report["stats"]["total_balance"] == (
                N_PAYMENTS * PAYMENT_AMOUNT
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        experiment.row(
            case="crash-recovery",
            transport="queue",
            payments=N_PAYMENTS,
            failed_first_pass=len(failed),
            retried=retried,
            recovery_aborted=recovery["aborted"],
            recovery_released=recovery["released"],
            lost_credits=0,
            double_credits=0,
            audit_problems=0,
            backend=backend_name(),
        )
