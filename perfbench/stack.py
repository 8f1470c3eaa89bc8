"""Shared pieces of the service benchmark.

- the deterministic deployment every process of a run rebuilds from the
  workload seed;
- input preparation, which also records the in-process reference output
  of every request (deterministic issuance makes these byte-comparable
  with what the pool returns);
- the server child (gateway + ``NetServer`` in its own process) and the
  ``/proc`` readings taken of it;
- the offline ledger audit.

Nothing here is timed against the workload clock except where a caller
says so; preparation runs before the timed phase.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Deployment shape shared by every workload.
RSA_BITS = 512
GROUP = "test-512"
WORKERS = 1
SHARDS = 2
CONTENT_ID = "perfbench-track"
PRICE = 3
BUYERS = 4
#: Market deposits: 26 credits, i.e. coins 20 + 5 + 1, so a payment
#: spans both shards and takes the cross-shard 2PC path.
DEPOSIT_AMOUNT = 26
MERCHANTS = tuple(f"merchant-{index:02d}" for index in range(16))
#: Licence revocation list size the market server starts with.
LRL_PRELOAD = 4000
#: Gateway builds per server start-up; ``setup_s`` is their median.
SETUPS = 9
#: Kept traces per traced gateway (threshold 0 keeps every trace).
TRACE_KEEP = 100_000
TRACE_KNOBS = {"tracing": True, "trace_threshold": 0.0, "trace_keep": TRACE_KEEP}


class BenchError(RuntimeError):
    """A run could not produce a valid measurement."""


def seed_label(seed: int) -> str:
    return f"perfbench-{seed}"


def make_deployment(seed: int):
    """The deployment every process of a run builds for ``seed``.

    ``build_deployment`` is deterministic per seed, so the server child
    and the load generator hold the same keys and catalog without
    shipping key material between processes.
    """
    from repro.core.system import build_deployment

    deployment = build_deployment(
        seed=seed_label(seed), group_name=GROUP, rsa_bits=RSA_BITS
    )
    payload = random.Random(f"{seed_label(seed)}-content").randbytes(4096)
    deployment.provider.publish(
        CONTENT_ID, payload, title="Perfbench Track", price=PRICE
    )
    deployment.provider.deterministic_issuance = True
    return deployment


def lrl_ids(seed: int, count: int) -> list[bytes]:
    """Random 32-byte licence ids preloaded into the market LRL."""
    rng = random.Random(f"{seed_label(seed)}-lrl")
    return [rng.randbytes(32) for _ in range(count)]


def encoded(result) -> bytes:
    from repro import codec

    return codec.encode(result.as_dict())


def matches(result, reference: bytes) -> bool:
    """Whether a pool answer is byte-identical to the desk's reference."""
    return not isinstance(result, BaseException) and encoded(result) == reference


def start_stack(deployment, directory: str, *, trace: bool, setups: int, serve: bool):
    """Start the service ``setups`` times and keep the last start.

    Each start is timed from ``build_gateway`` through
    ``pool.wait_warmup()`` (and, with ``serve``, until the ``NetServer``
    listens); earlier starts are torn down again.  Returns ``(gateway,
    server or None, setup times, shard directory of the kept start)``.
    """
    from repro.service.gateway import build_gateway
    from repro.service.netserver import NetServer

    gateway = server = None
    times = []
    try:
        for index in range(setups):
            if server is not None:
                server.close()
                server = None
            if gateway is not None:
                gateway.close()
                gateway = None
            shard_dir = os.path.join(directory, f"setup-{index}")
            started = time.perf_counter()
            gateway = build_gateway(
                deployment, shard_dir, workers=WORKERS, shards=SHARDS,
                **(TRACE_KNOBS if trace else {}),
            )
            warm = gateway.pool.wait_warmup()
            if serve:
                server = NetServer(gateway)
                server.start()
            times.append(time.perf_counter() - started)
            if len(warm) != WORKERS:
                raise BenchError(f"workers did not warm up: {warm}")
    except BaseException:
        if server is not None:
            server.close()
        if gateway is not None:
            gateway.close()
        raise
    return gateway, server, times, shard_dir


def prepare_serving(gateway, seed: int, lrl: int) -> None:
    """Serving state set up off the setup clock: the merchant accounts
    and ``lrl`` revoked licence ids."""
    at = gateway.pool.clock.now()
    for account in MERCHANTS:
        gateway.open_account(account)
    for license_id in lrl_ids(seed, lrl):
        gateway.revocation_list.revoke(license_id, at=at, reason="exchanged")


@dataclass
class Sell:
    request: object
    user: object
    reference: bytes
    license: object


@dataclass
class Exchange:
    request: object
    reference: bytes
    anonymous: object


@dataclass
class Redeem:
    request: object
    reference: bytes


@dataclass
class Deposit:
    account: str
    coins: list
    receipt: dict


@dataclass
class BulkRound:
    sells: list[Sell]
    exchanges: list[Exchange]
    redeems: list[Redeem]


class Inputs:
    """Request generator with in-process references.

    Every request is prepared user-side and immediately run through the
    in-process desk (``ContentProvider`` with deterministic issuance, or
    the in-process ``Bank`` for deposits); the desk's output is the
    reference the pool's answer must equal byte for byte.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.deployment = make_deployment(seed)
        deployment = self.deployment
        self.buyers = [
            deployment.add_user(f"buyer-{index}", balance=10**9)
            for index in range(BUYERS)
        ]
        self.receiver = deployment.add_user("receiver", balance=10**9)
        for account in MERCHANTS:
            deployment.bank.open_account(account)
        self._turn = 0

    @property
    def license_key(self):
        return self.deployment.provider.license_key

    def _next_buyer(self):
        user = self.buyers[self._turn % len(self.buyers)]
        self._turn += 1
        return user

    def purchase_requests(self, count: int) -> list[tuple[object, object]]:
        """``(request, buyer)`` pairs, not yet run through the desk."""
        from repro.core.protocols.acquisition import build_purchase_request

        d = self.deployment
        pairs = []
        for _ in range(count):
            user = self._next_buyer()
            pairs.append(
                (
                    build_purchase_request(
                        user, d.provider, d.issuer, d.bank, CONTENT_ID
                    ),
                    user,
                )
            )
        return pairs

    def sells(self, count: int) -> list[Sell]:
        pairs = self.purchase_requests(count)
        out: list[Sell] = []
        for start in range(0, len(pairs), 64):
            part = pairs[start : start + 64]
            results = self.deployment.provider.sell_batch([r for r, _ in part])
            for (request, user), result in zip(part, results):
                if isinstance(result, Exception):
                    raise BenchError(f"reference sell refused: {result!r}")
                out.append(Sell(request, user, encoded(result), result))
        return out

    def exchanges(self, sells: list[Sell]) -> list[Exchange]:
        from repro.core.protocols.transfer import build_exchange_request

        out = []
        for sell in sells:
            request = build_exchange_request(sell.user, sell.license)
            anonymous = self.deployment.provider.exchange(request)
            out.append(Exchange(request, encoded(anonymous), anonymous))
        return out

    def redeems(self, exchanges: list[Exchange]) -> list[Redeem]:
        from repro.core.protocols.transfer import build_redeem_request

        d = self.deployment
        requests = [
            build_redeem_request(self.receiver, d.provider, d.issuer, x.anonymous)
            for x in exchanges
        ]
        results = d.provider.redeem_batch(requests)
        out = []
        for request, result in zip(requests, results):
            if isinstance(result, Exception):
                raise BenchError(f"reference redeem refused: {result!r}")
            out.append(Redeem(request, encoded(result)))
        return out

    def bulk_round(self, size: int) -> BulkRound:
        sells = self.sells(size)
        exchanges = self.exchanges(sells)
        return BulkRound(sells, exchanges, self.redeems(exchanges))

    def withdraw_payment(self, amount: int = DEPOSIT_AMOUNT) -> list:
        """Coins for one payment, taken out of a buyer's wallet."""
        return self._next_buyer().coins_for(amount, self.deployment.bank)

    def deposits(self, count: int) -> list[Deposit]:
        """Payments to the merchant accounts, round-robin; the reference
        receipt carries the in-process bank's actual balance change."""
        bank = self.deployment.bank
        out = []
        for index in range(count):
            account = MERCHANTS[index % len(MERCHANTS)]
            coins = self.withdraw_payment()
            before = bank.balance(account)
            bank.deposit_batch(account, coins)
            credited = bank.balance(account) - before
            out.append(
                Deposit(account, coins, {"account": account, "credited": credited})
            )
        return out


# -- /proc ------------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def steal_seconds() -> float:
    """CPU time the hypervisor gave other tenants instead of this
    machine, summed over its CPUs (the ``steal`` column of /proc/stat)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


@dataclass
class ProcessSet:
    """The server process plus its pool workers."""

    server_pid: int
    worker_pids: list[int]

    def cpu(self) -> tuple[float, float, float]:
        """Server CPU, worker CPU and machine-wide steal, in seconds."""
        return (
            cpu_seconds(self.server_pid),
            sum(cpu_seconds(pid) for pid in self.worker_pids),
            steal_seconds(),
        )

    def rss_mb(self) -> float:
        return sum(
            peak_rss_mb(pid) for pid in [self.server_pid, *self.worker_pids]
        )


# -- the server child ---------------------------------------------------------


@dataclass
class ServerInfo:
    address: tuple[str, int]
    setup_s: list[float]
    processes: ProcessSet
    directory: str


class ServerChild:
    """``perfbench/server.py`` in its own session.

    The child prints one JSON line once it is serving and a second one
    after a clean shutdown (triggered by closing its stdin).  ``close``
    is safe on every path: whatever is still alive in the child's
    process group (its pool worker included) is killed and reaped.
    """

    def __init__(
        self,
        seed: int,
        directory: str,
        *,
        lrl: int = 0,
        trace: bool = False,
        setups: int = SETUPS,
    ):
        env = dict(os.environ, PYTHONPATH=SRC)
        command = [
            sys.executable,
            os.path.join(HERE, "server.py"),
            "--seed", str(seed),
            "--dir", directory,
            "--setups", str(setups),
            "--lrl", str(lrl),
            "--trace", "1" if trace else "0",
        ]
        self._proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            body = self._read_line("start-up")
            self.info = ServerInfo(
                address=(body["host"], body["port"]),
                setup_s=body["setup_s"],
                processes=ProcessSet(body["server_pid"], body["worker_pids"]),
                directory=body["directory"],
            )
        except BaseException:
            self.close()
            raise

    def _read_line(self, phase: str) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            code = self._proc.poll()
            raise BenchError(f"server child ended during {phase} (exit {code})")
        return json.loads(line)

    def stop(self) -> dict:
        """Clean shutdown; returns the child's closing report."""
        self._proc.stdin.close()
        closing = self._read_line("shutdown")
        self._proc.wait(timeout=60)
        return closing

    def close(self) -> None:
        proc = self._proc
        if proc.stdin is not None and not proc.stdin.closed:
            try:
                proc.stdin.close()
            except OSError:
                pass  # child already gone; the group kill below reaps it
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def audit_ledger(directory: str) -> list[str]:
    """``tools/ledger_audit.py <dir> --json``: the list of problems."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ledger_audit.py"),
         directory, "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        report = json.loads(result.stdout)
    except json.JSONDecodeError:
        return [f"ledger audit gave no report (exit {result.returncode})"]
    return list(report.get("problems", []))


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile of raw samples (inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def now() -> float:
    return time.perf_counter()
