"""The three workloads: ``checkout``, ``bulk`` and ``market``.

Each workload has a ``prepare`` step (off the clock: user-side request
building plus the in-process reference for every request) and a
``run`` step that drives one fresh stack with the prepared requests and
returns a :class:`PassResult`.  A traced run calls ``run`` twice on the
same inputs, once untraced and once traced, on separate stacks.

- ``checkout``: closed loop, one thread, one ``NetClient``, sequential
  ``sell`` calls against the server child.
- ``bulk``: closed loop, one thread, queue transport, gateway in this
  process; each round is ``sell_batch`` (64), ``call_many`` of the 64
  exchanges, ``redeem_batch`` of the 64 anonymous licences.
- ``market``: two paced clients on two connections to the server child,
  whose revocation list starts with 4000 entries.  The buyer sends
  10 req/s (per five: sell, sell, deposit, deposit, exchange of the
  block's first sell); the device sends 10 req/s (per four: three
  ``revocation_sync`` calls carrying the cursor forward, one
  ``balance``).  Latency counts from each request's due time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import stack
from stack import BenchError, now

#: Nominal seed-commit rates used to size a run's inputs to
#: ``--seconds``; a run ends when its inputs are used up or its time is.
CHECKOUT_SELLS_PER_S = 30
BULK_ROUND_S = 1.0
BULK_SIZE = 64
#: Market pacing.  A buyer block (two sells, two deposits, one exchange)
#: holds its connection for about 150 ms on a 2-core host; at 10 req/s
#: that is 30 % of the schedule, so the host can run 3x slower for a
#: while (as shared 2-core machines do) before the schedule slips.
BUYER_RATE = 10.0
DEVICE_RATE = 10.0
#: Market generator validity: a run whose paced clients ran later than
#: this (p95 of send time minus due time) or ended with more than
#: ``MAX_BACKLOG`` requests still unsent half a period after the last
#: one fell due is invalid, not slow.  Each client has one connection
#: and waits for each reply, so replies slower than the period make it
#: late; a period of lateness means the offered rate was not delivered.
MAX_LAG_P95_MS = 100.0
MAX_BACKLOG = 3


@dataclass
class Sample:
    """One request: its kind, latency, outcome and generator lag."""

    kind: str
    latency: float
    ok: bool
    lag: float = 0.0


@dataclass
class PassResult:
    samples: list[Sample]
    elapsed: float
    setup_s: list[float]
    rss_mb: float
    server_cpu_s: float
    worker_cpu_s: float
    #: Machine-wide hypervisor steal during the timed phase.
    steal_s: float
    #: Ledger intents written, and the payments (sells + deposits) that
    #: went through the deposit sequencer.
    intents: int
    payments: int
    problems: list[str] = field(default_factory=list)
    backlog: int = 0
    spans: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples) + len(self.problems)

    @property
    def completed(self) -> int:
        return sum(s.ok for s in self.samples)

    @property
    def steal_share(self) -> float:
        """Share of the machine's CPU time lost to steal while timing."""
        return self.steal_s / (self.elapsed * (os.cpu_count() or 1))


def _read_spans(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


@contextmanager
def _tracing(workdir: str, enabled: bool):
    """Span capture for a traced pass: this process records client-side
    spans, and ``P2DRM_TRACE_DUMP`` (inherited by the server child and
    the pool workers started inside the block) makes every process
    append each finished span to one file.  Yields the span list reader.
    """
    if not enabled:
        yield lambda: []
        return
    from repro.service import tracing

    path = os.path.join(workdir, "spans.jsonl")
    os.environ["P2DRM_TRACE_DUMP"] = path
    tracing.configure(latency_threshold=0.0, keep=stack.TRACE_KEEP)
    try:
        yield lambda: _read_spans(path)
    finally:
        tracing.disable()
        os.environ.pop("P2DRM_TRACE_DUMP", None)


def _check_key(client, inputs, problems: list[str]) -> None:
    key, expected = client.license_key, inputs.license_key
    if (key.n, key.e) != (expected.n, expected.e):
        problems.append("server licence key differs from the reference deployment")


class _Credits:
    """Credits sent and acknowledged per merchant, shared by the two
    market clients for the balance bounds check."""

    def __init__(self):
        self.lock = threading.Lock()
        self.sent = {account: 0 for account in stack.MERCHANTS}
        self.acked = {account: 0 for account in stack.MERCHANTS}


# -- checkout -----------------------------------------------------------------


def prepare_checkout(inputs, seconds: int):
    return inputs.sells(max(20, round(seconds * CHECKOUT_SELLS_PER_S)))


def run_checkout(inputs, sells, seconds: int, workdir: str, *, trace: bool) -> PassResult:
    from repro.service.netserver import NetClient

    with _tracing(workdir, trace) as spans, stack.ServerChild(
        inputs.seed, os.path.join(workdir, "shards"), trace=trace
    ) as server:
        info = server.info
        problems: list[str] = []
        with NetClient(info.address, timeout=60.0) as client:
            _check_key(client, inputs, problems)
            results, times = [], []
            cpu0 = info.processes.cpu()
            start = previous = now()
            for sell in sells:
                sent = now()
                if sent - start > seconds:
                    break
                try:
                    results.append(client.sell(sell.request))
                except Exception as exc:  # a refused sell is a counted failure
                    results.append(exc)
                done = now()
                times.append((done - sent, sent - previous))
                previous = done
            elapsed = previous - start
            cpu1 = info.processes.cpu()
        rss = info.processes.rss_mb()
        closing = server.stop()
        recorded = spans()
    problems += stack.audit_ledger(info.directory)
    samples = [
        Sample("sell", latency, stack.matches(result, sell.reference), lag)
        for sell, result, (latency, lag) in zip(sells, results, times)
    ]
    return PassResult(
        samples=samples,
        elapsed=elapsed,
        setup_s=info.setup_s,
        rss_mb=rss,
        server_cpu_s=cpu1[0] - cpu0[0],
        worker_cpu_s=cpu1[1] - cpu0[1],
        steal_s=cpu1[2] - cpu0[2],
        intents=sum(closing["intents"].values()),
        payments=len(samples),
        problems=problems,
        spans=recorded,
    )


# -- bulk ---------------------------------------------------------------------


def prepare_bulk(inputs, seconds: int):
    rounds = max(2, round(seconds / BULK_ROUND_S))
    return [inputs.bulk_round(BULK_SIZE) for _ in range(rounds)]


def run_bulk(inputs, rounds, seconds: int, workdir: str, *, trace: bool) -> PassResult:
    with _tracing(workdir, trace) as spans:
        gateway, _, setup_s, directory = stack.start_stack(
            inputs.deployment, os.path.join(workdir, "shards"), trace=trace,
            setups=stack.SETUPS, serve=False,
        )
        try:
            procs = stack.ProcessSet(
                os.getpid(), [p.pid for p in gateway.pool.processes]
            )
            calls = []
            cpu0 = procs.cpu()
            start = now()
            for batch in rounds:
                if now() - start > seconds:
                    break
                t0 = now()
                sold = gateway.sell_batch([s.request for s in batch.sells])
                t1 = now()
                swapped = gateway.call_many([x.request for x in batch.exchanges])
                t2 = now()
                redeemed = gateway.redeem_batch([r.request for r in batch.redeems])
                t3 = now()
                calls.append((batch, sold, swapped, redeemed, (t0, t1, t2, t3)))
            elapsed = now() - start
            cpu1 = procs.cpu()
            rss = procs.rss_mb()
            intents = sum(gateway.ledger.intent_counts().values())
        finally:
            gateway.close()
        recorded = spans()
    samples: list[Sample] = []
    previous = start
    for batch, sold, swapped, redeemed, (t0, t1, t2, t3) in calls:
        for kind, items, results, begin, end in (
            ("sell", batch.sells, sold, t0, t1),
            ("exchange", batch.exchanges, swapped, t1, t2),
            ("redeem", batch.redeems, redeemed, t2, t3),
        ):
            lag = begin - previous
            samples += [
                Sample(kind, end - begin, stack.matches(result, item.reference), lag)
                for item, result in zip(items, results)
            ]
            previous = end
    return PassResult(
        samples=samples,
        elapsed=elapsed,
        setup_s=setup_s,
        rss_mb=rss,
        server_cpu_s=cpu1[0] - cpu0[0],
        worker_cpu_s=cpu1[1] - cpu0[1],
        steal_s=cpu1[2] - cpu0[2],
        intents=intents,
        payments=sum(len(c[0].sells) for c in calls),
        problems=stack.audit_ledger(directory),
        spans=recorded,
    )


# -- market -------------------------------------------------------------------


@dataclass
class MarketInputs:
    buyer: list[tuple[str, object]]
    device: int


def prepare_market(inputs, seconds: int) -> MarketInputs:
    blocks = max(1, round(seconds * BUYER_RATE / 5))
    sells = inputs.sells(2 * blocks)
    exchanges = inputs.exchanges(sells[0::2])
    deposits = inputs.deposits(2 * blocks)
    buyer: list[tuple[str, object]] = []
    for block in range(blocks):
        buyer += [
            ("sell", sells[2 * block]),
            ("sell", sells[2 * block + 1]),
            ("deposit", deposits[2 * block]),
            ("deposit", deposits[2 * block + 1]),
            ("exchange", exchanges[block]),
        ]
    return MarketInputs(buyer=buyer, device=max(4, round(seconds * DEVICE_RATE)))


def _paced(ops, rate: float, t0: float, call, out: list, errors: list) -> None:
    """Send ``ops`` on a fixed schedule; latency counts from due time."""
    try:
        for index, op in enumerate(ops):
            due = t0 + index / rate
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            sent = now()
            kind, ok = call(op)
            out.append((Sample(kind, now() - due, ok, sent - due), due, sent))
    except Exception as exc:  # re-raised by the main thread
        errors.append(exc)


def run_market(inputs, prepared: MarketInputs, seconds: int, workdir: str, *, trace: bool) -> PassResult:
    from repro.service.netserver import NetClient

    credits = _Credits()
    license_key = inputs.license_key
    with _tracing(workdir, trace) as spans, stack.ServerChild(
        inputs.seed, os.path.join(workdir, "shards"),
        lrl=stack.LRL_PRELOAD, trace=trace,
    ) as server:
        info = server.info
        problems: list[str] = []
        with NetClient(info.address, timeout=60.0) as buyer, NetClient(
            info.address, timeout=60.0
        ) as device:
            _check_key(buyer, inputs, problems)
            # The device's bootstrap sync is off the clock.
            entries, snapshot, cursor = device.revocation_sync(0)
            synced = {entry.license_id for entry in entries}
            snapshot.verify(license_key)
            if snapshot.count != len(synced) or len(synced) != stack.LRL_PRELOAD:
                problems.append("bootstrap sync does not cover the preloaded LRL")
            state = {"cursor": cursor}

            def buy(op):
                kind, item = op
                try:
                    if kind == "deposit":
                        with credits.lock:
                            credits.sent[item.account] += stack.DEPOSIT_AMOUNT
                        receipt = buyer.deposit(item.account, item.coins)
                        ok = receipt == item.receipt
                        if ok:
                            with credits.lock:
                                credits.acked[item.account] += receipt["credited"]
                        return kind, ok
                    result = getattr(buyer, kind)(item.request)
                    return kind, stack.matches(result, item.reference)
                except Exception:  # a refused request is a counted failure
                    return kind, False

            def sync_or_balance(index):
                try:
                    if index % 4 == 3:
                        account = stack.MERCHANTS[(index // 4) % len(stack.MERCHANTS)]
                        with credits.lock:
                            low = credits.acked[account]
                        balance = device.balance(account)
                        with credits.lock:
                            high = credits.sent[account]
                        ok = low <= balance <= high and balance % stack.DEPOSIT_AMOUNT == 0
                        return "balance", ok
                    entries, snapshot, state["cursor"] = device.revocation_sync(
                        state["cursor"]
                    )
                    synced.update(entry.license_id for entry in entries)
                    snapshot.verify(license_key)
                    return "sync", snapshot.count == len(synced)
                except Exception:  # a failed sync or balance is counted
                    return ("balance" if index % 4 == 3 else "sync"), False

            buyer_out, device_out, errors = [], [], []
            cpu0 = info.processes.cpu()
            t0 = now() + 0.05
            # Daemon threads: a budget abort in the main thread closes their
            # sockets, and the process must not wait on a sleeping client.
            threads = [
                threading.Thread(
                    target=_paced,
                    args=(prepared.buyer, BUYER_RATE, t0, buy, buyer_out, errors),
                    daemon=True,
                ),
                threading.Thread(
                    target=_paced,
                    args=(range(prepared.device), DEVICE_RATE, t0,
                          sync_or_balance, device_out, errors),
                    daemon=True,
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                while thread.is_alive():
                    thread.join(0.5)
            cpu1 = info.processes.cpu()
            if errors:
                raise BenchError(f"market client crashed: {errors[0]!r}")
            for account in stack.MERCHANTS:
                if device.balance(account) != credits.acked[account]:
                    problems.append(f"balance of {account} differs from its deposits")
        rss = info.processes.rss_mb()
        closing = server.stop()
        recorded = spans()
    problems += stack.audit_ledger(info.directory)
    samples, backlog, last_done = [], 0, t0
    for out, rate in ((buyer_out, BUYER_RATE), (device_out, DEVICE_RATE)):
        # Still unsent half a period after the last request fell due.
        cutoff = out[-1][1] + 0.5 / rate
        backlog += sum(sent > cutoff for _, _, sent in out)
        samples += [sample for sample, _, _ in out]
        last_done = max(last_done, out[-1][1] + out[-1][0].latency)
    payments = sum(s.kind in ("sell", "deposit") for s in samples)
    return PassResult(
        samples=samples,
        elapsed=last_done - t0,
        setup_s=info.setup_s,
        rss_mb=rss,
        server_cpu_s=cpu1[0] - cpu0[0],
        worker_cpu_s=cpu1[1] - cpu0[1],
        steal_s=cpu1[2] - cpu0[2],
        intents=sum(closing["intents"].values()),
        payments=payments,
        problems=problems,
        backlog=backlog,
        spans=recorded,
    )


WORKLOADS = {
    "checkout": (prepare_checkout, run_checkout),
    "bulk": (prepare_bulk, run_bulk),
    "market": (prepare_market, run_market),
}
