"""Service benchmark: ``checkout``, ``bulk`` and ``market`` workloads.

Run from the repository root (only ``src/`` and the standard library
are needed)::

    python3 perfbench/run.py --workload checkout --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it drives the workload once
untraced and once traced (``build_gateway(tracing=True,
trace_threshold=0.0)``, spans dumped through ``P2DRM_TRACE_DUMP``) on
the same inputs, then runs the per-layer probes of ``layers.py``, and
reports the per-layer metrics.  A pass waits for the machine to stop
losing CPU time to other tenants before it starts, and an untraced pass
that still lost more than 2 % is run once more (see ``MAX_STEAL_SHARE``).

Every deployment is ``build_deployment(seed=..., rsa_bits=512)`` on the
``test-512`` group with deterministic issuance, served by a gateway with
one worker and two shards at the default batching knobs.  Inputs come
from ``--seed`` and are prepared off the clock, each with its in-process
reference output; every answer is checked against it byte for byte, and
any mismatch is a failed operation that fails the run.

Human-readable lines (``#``-prefixed, including the per-op latency
table and ``failed_ratio``) come first; the last line of standard output
is the JSON result.  Scratch state (shard files, span dumps) lives in a
per-run directory under ``.perfbench-tmp/`` at the repository root,
which is also the run's ``TMPDIR``, and is removed on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time

import layers
import stack
import workloads
from stack import ROOT

#: Seed set aside for checking a claimed gain on inputs that were not
#: used while the change was written.
HELD_OUT_SEED = 90017
#: Wall-clock budget of one run, inside the 180 s a run may take.
BUDGET_S = 150
RUN_SECONDS = 10
#: Hypervisor steal.  A timed phase during which the machine lost more
#: than MAX_STEAL_SHARE of its CPU time to other tenants (the ``steal``
#: column of /proc/stat) measured the host, not the program: on shared
#: 2-core machines such bursts last from seconds to minutes and slow
#: every request by 30-80 %.  Each pass first waits up to QUIET_WAIT_S
#: for a second with little steal; an untraced pass that still saw more
#: is run once more on a fresh stack with the same inputs, and the
#: attempt with less steal is reported.  Both attempts are printed, and
#: failed operations of every attempt count.
MAX_STEAL_SHARE = 0.02
QUIET_WAIT_S = 10

WORKLOADS = (
    ("checkout", "one buyer sends sequential TCP sells to an idle pool, so per-request"
     " fixed costs dominate: framing, queue hand-off, batch window, IPC, single-item desk"),
    ("bulk", "full 64-request batches on the in-process queue transport, so batch"
     " verification, fastexp tables and SQLite writes dominate; no TCP, no batch-window wait"),
    ("market", "a paced buyer (sells, cross-shard deposits, exchanges) beside a device"
     " syncing a 4000-entry growing LRL on one server process: reads beside writes"),
)

#: (name, unit, better, bound, what it is).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of 9 gateway starts: build_gateway through pool.wait_warmup()"
     " until the server listens"),
    ("rss_mb", "MiB", "lower", 0.1,
     "peak RSS (VmHWM) of the process hosting the gateway plus its worker"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "operations answered correctly per second of the timed phase"),
    ("latency_ms", "ms", "lower", 0.25,
     "median latency of each op kind, weighted by the kind's share of requests"
     " (the plain median when one kind is sent)"),
    ("p95_ms", "ms", "lower", 0.25,
     "95th percentile latency over all requests (batch items carry their call's"
     " latency; paced requests count from their due time)"),
)

#: (name, unit, better, layer, what it should move).
PER_LAYER = (
    ("client.lag_p95_ms", "ms", "lower", "client",
     "generator validity: paced send minus due time (closed loops: gap"
     " between a reply and the next send)"),
    ("client.backlog", "count", "lower", "client",
     "requests due but unsent when the last one fell due (market validity)"),
    ("netserver.sell_overhead_ms", "ms", "lower", "service.netserver",
     "TCP sell minus queue sell on the same bytes: checkout/market p50"),
    ("netserver.sync_overhead_ms", "ms", "lower", "service.netserver",
     "TCP revocation_sync minus gateway.revocation_sync: market p50"),
    ("server.cpu_ms_per_op", "ms", "lower", "service.netserver",
     "server-process CPU per op: market p95"),
    ("transport.frame_us", "us", "lower", "service.transport",
     "encode_frame + FrameDecoder.feed of one sell envelope: checkout p50"),
    ("wire.sell_roundtrip_us", "us", "lower", "service.wire",
     "encode/decode request + encode/decode response: checkout p50, bulk ops_per_s"),
    ("wire.deposit_roundtrip_us", "us", "lower", "service.wire",
     "the same for a 3-coin deposit and its receipt"),
    ("wire.sell_request_bytes", "bytes", "lower", "codec",
     "encoded sell request envelope size"),
    ("wire.sell_response_bytes", "bytes", "lower", "codec",
     "encoded sell response envelope size"),
    ("pool.sell_overhead_ms", "ms", "lower", "service.pool",
     "queue sell minus desk sell on the same bytes (the batch window): checkout p50"),
    ("pool.bulk_overhead_ms", "ms", "lower", "service.pool",
     "(queue sell_batch minus desk sell_batch) / 64: bulk ops_per_s"),
    ("pool.queue_wait_ms", "ms", "lower", "service.pool",
     "median pool.queue span in the traced pass: checkout/market p50"),
    ("pool.batch_items", "count", "higher", "service.workers",
     "mean n of worker.stage spans in the traced pass: bulk ops_per_s"),
    ("worker.cpu_ms_per_op", "ms", "lower", "service.workers",
     "worker CPU per op: busy time versus waiting"),
    ("core.sell_ms", "ms", "lower", "core", "in-process desk sell: checkout p50"),
    ("core.sell_batch_item_ms", "ms", "lower", "core",
     "in-process sell_batch(64) per item: bulk ops_per_s"),
    ("core.exchange_ms", "ms", "lower", "core", "in-process exchange"),
    ("core.redeem_batch_item_ms", "ms", "lower", "core",
     "in-process redeem_batch(64) per item: bulk ops_per_s"),
    ("core.deposit_ms", "ms", "lower", "core",
     "in-process bank deposit_batch of one 3-coin payment: market p50"),
    *(
        (f"crypto.ops.{counter}.{per}", "count", "lower", "crypto",
         f"instrument.measure() count {per.replace('_', ' ')} around the desk")
        for per in ("per_sell", "per_bulk_item")
        for counter in (
            "modexp", "modexp.fixed_base", "modexp.multi", "rsa.private_op",
            "rsa.public_op", "schnorr.batch_verify.signatures",
            "rsa.batch_verify.signatures",
        )
    ),
    ("crypto.schnorr_batch_verify_ms", "ms", "lower", "crypto",
     "schnorr.batch_verify over one round's 64 request signatures: bulk ops_per_s"),
    ("crypto.blind_batch_verify_ms", "ms", "lower", "crypto",
     "batch_verify_blind_signatures over one round's coins: bulk ops_per_s"),
    ("storage.spend_us", "us", "lower", "storage",
     "ShardedSpentTokenStore.try_spend on temporary shards: bulk, market deposits"),
    ("storage.sync_since_ms", "ms", "lower", "storage",
     "ShardedRevocationList.sync_since at 4000 entries: market sync"),
    ("storage.merkle_build_ms", "ms", "lower", "storage",
     "MerkleTree over 4000 ids: market sync"),
    ("ledger.deposit_ms", "ms", "lower", "service.ledger",
     "DepositSequencer.deposit of a 3-coin payment: market p50"),
    ("ledger.intents_per_deposit", "count", "lower", "service.ledger",
     "ledger intents per payment (sells + deposits) in the untraced pass"),
    ("tracing.overhead_ratio", "ratio", "lower", "service.tracing",
     "traced p50 / untraced p50 on the same inputs"),
    ("unattributed_ms", "ms", "lower", "service",
     "traced sell p50 minus its layers (TCP: netserver + pool + core.sell;"
     " bulk, per item: pool.bulk_overhead + core.sell_batch_item)"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


class BudgetExceeded(Exception):
    """The run overran its wall-clock budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"run exceeded its {BUDGET_S} s wall-clock budget")


def _stop_resource_tracker() -> None:
    """End the shared-memory resource tracker the in-process gateway
    started, so the run leaves no process behind when it exits."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _wait_for_quiet() -> None:
    """Wait up to QUIET_WAIT_S for one second of little steal."""
    deadline = stack.now() + QUIET_WAIT_S
    while stack.now() < deadline:
        before = stack.steal_seconds()
        time.sleep(1.0)
        lost = (stack.steal_seconds() - before) / (os.cpu_count() or 1)
        if lost <= MAX_STEAL_SHARE:
            return


def _say(line: str = "") -> None:
    print(f"# {line}", flush=True)


def _latency_table(samples) -> dict[str, float]:
    """Per-op percentiles, named <op>_p50_ms and <op>_p95_ms; a p95
    only where at least 200 samples leave ten beyond it."""
    percentile = stack.percentile
    table = {}
    for kind in sorted({s.kind for s in samples}):
        values = [s.latency * 1e3 for s in samples if s.kind == kind]
        table[f"{kind}_p50_ms"] = percentile(values, 50)
        if len(values) >= 200:
            table[f"{kind}_p95_ms"] = percentile(values, 95)
        table[f"{kind}_samples"] = len(values)
    return table


def end_to_end(result) -> dict[str, float]:
    median, percentile = stack.median, stack.percentile
    # A plain median of a mix of op kinds sits on the boundary between two
    # kinds' latency clusters and jumps between them from run to run; the
    # share-weighted per-kind medians move smoothly with every kind.
    by_kind: dict[str, list[float]] = {}
    for sample in result.samples:
        by_kind.setdefault(sample.kind, []).append(sample.latency)
    total = len(result.samples)
    return {
        "setup_s": median(result.setup_s),
        "rss_mb": result.rss_mb,
        "ops_per_s": result.completed / result.elapsed,
        "latency_ms": sum(
            len(values) / total * median(values) for values in by_kind.values()
        ) * 1e3,
        "p95_ms": percentile([s.latency for s in result.samples], 95) * 1e3,
    }


def _lag_p95_ms(result) -> float:
    return stack.percentile([s.lag for s in result.samples], 95) * 1e3


def _report(workload: str, result, label: str) -> list[str]:
    """Print a pass's numbers; return reasons it is invalid."""
    attempted = len(result.samples)
    _say(f"{label}: {attempted} ops in {result.elapsed:.2f} s,"
         f" failed {result.failed}, failed_ratio {result.failed / attempted:.4f}")
    for name, value in _latency_table(result.samples).items():
        _say(f"{label}: {name} {value:.6g}")
    lag = _lag_p95_ms(result)
    _say(f"{label}: client.lag_p95_ms {lag:.3f}  final backlog {result.backlog}")
    invalid = []
    if workload == "market" and (
        lag > workloads.MAX_LAG_P95_MS or result.backlog > workloads.MAX_BACKLOG
    ):
        invalid.append(
            f"paced clients fell behind (lag p95 {lag:.1f} ms,"
            f" backlog {result.backlog}); the run is invalid, not slower"
        )
    return invalid


def _span_stats(spans) -> tuple[float, float]:
    queue = [s["duration_micros"] / 1e3 for s in spans if s["name"] == "pool.queue"]
    stages = [s["attrs"]["n"] for s in spans if s["name"] == "worker.stage"]
    if not queue or not stages:
        raise RuntimeError("traced pass recorded no pool.queue / worker.stage spans")
    return stack.median(queue), sum(stages) / len(stages)


def _sell_p50_ms(result, workload: str) -> float:
    """Traced sell p50; per item for bulk's batch calls."""
    values = [s.latency * 1e3 for s in result.samples if s.kind == "sell"]
    if workload == "bulk":
        values = [v / workloads.BULK_SIZE for v in values]
    return stack.percentile(values, 50)


def per_layer(workload: str, inputs, base, traced, workdir: str) -> dict[str, float]:
    """Probe results plus the layer figures of the two workload passes."""
    metrics = layers.measure(inputs, workdir)
    queue_wait, batch_items = _span_stats(traced.spans)
    ops = base.completed or 1
    traced_sell = _sell_p50_ms(traced, workload)
    if workload == "bulk":
        layers_sum = metrics["pool.bulk_overhead_ms"] + metrics["core.sell_batch_item_ms"]
    else:
        layers_sum = (
            metrics["netserver.sell_overhead_ms"]
            + metrics["pool.sell_overhead_ms"]
            + metrics["core.sell_ms"]
        )
    metrics.update(
        {
            "client.lag_p95_ms": _lag_p95_ms(base),
            "client.backlog": base.backlog,
            "server.cpu_ms_per_op": base.server_cpu_s / ops * 1e3,
            "worker.cpu_ms_per_op": base.worker_cpu_s / ops * 1e3,
            "pool.queue_wait_ms": queue_wait,
            "pool.batch_items": batch_items,
            "ledger.intents_per_deposit": base.intents / max(1, base.payments),
            "tracing.overhead_ratio": end_to_end(traced)["latency_ms"]
            / end_to_end(base)["latency_ms"],
            "unattributed_ms": traced_sell - layers_sum,
        }
    )
    _say(f"traced sell p50 {traced_sell:.3f} ms, of which layers {layers_sum:.3f} ms,"
         f" unattributed {traced_sell - layers_sum:.3f} ms"
         f" ({(traced_sell - layers_sum) / traced_sell:.1%})")
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    prepare, drive = workloads.WORKLOADS[workload]
    started = stack.now()
    inputs = stack.Inputs(seed)
    prepared = prepare(inputs, seconds)
    _say(f"inputs for seed {seed} prepared in {stack.now() - started:.2f} s"
         " (not a metric)")

    passes = [("untraced", False)] + ([("traced", True)] if trace else [])
    results, attempts = {}, []
    for label, traced in passes:
        for attempt in range(1 if trace else 2):
            _wait_for_quiet()
            directory = os.path.join(workdir, f"{label}-{attempt}")
            os.makedirs(directory)
            result = drive(inputs, prepared, seconds, directory, trace=traced)
            attempts.append(result)
            _say(f"{label}: attempt {attempt + 1} lost"
                 f" {result.steal_share:.2%} of CPU time to steal,"
                 f" {result.failed} failed")
            for problem in result.problems:
                _say(f"{label}: attempt {attempt + 1} PROBLEM {problem}")
            if label not in results or result.steal_share < results[label].steal_share:
                results[label] = result
            if result.steal_share <= MAX_STEAL_SHARE:
                break
    invalid = []
    for label, result in results.items():
        invalid += _report(workload, result, label)
    base = results["untraced"]
    if trace:
        metrics = per_layer(
            workload, inputs, base, results["traced"], os.path.join(workdir, "probes")
        )
        units = {n: u for n, u, *_ in PER_LAYER}
    else:
        metrics = end_to_end(base)
        units = {n: u for n, u, *_ in END_TO_END}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"run lacks metrics {sorted(missing)}")
    for name, unit in units.items():
        _say(f"{name} {metrics[name]:.6g} {unit}")
    for reason in invalid:
        _say(f"INVALID: {reason}")
    failed = sum(r.failed for r in attempts)
    return {
        "correct": failed == 0 and not invalid,
        "attempted": sum(len(r.samples) for r in attempts),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="write BENCHMARK.json from the definitions in this file and exit",
    )
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(BUDGET_S)
    try:
        from repro.crypto.backend import backend_name

        _say(
            f"workload={args.workload} seed={args.seed} seconds={args.seconds}"
            f" trace={args.trace} held_out_seed={HELD_OUT_SEED}"
            f" backend={backend_name()} rsa_bits={stack.RSA_BITS} group={stack.GROUP}"
            f" workers={stack.WORKERS} shards={stack.SHARDS} nproc={os.cpu_count()}"
            f" python={platform.python_version()}"
        )
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BudgetExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other failure: no result line, non-zero exit
        import traceback

        traceback.print_exc()
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
