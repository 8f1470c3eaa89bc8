"""Compare a benchmark JSON dump against a committed baseline.

The ``bench-regression`` CI lane runs the smoke benchmarks with
``P2DRM_BENCH_JSON=BENCH_smoke.json`` and then::

    python benchmarks/check_regression.py BENCH_smoke.json \
        benchmarks/baselines/BENCH_smoke_baseline.json

**Op-count metrics are enforced, timings are advisory.**  Operation
counts (modexp chains, RSA operations, message counts, wire bytes) are
deterministic functions of the protocol code, so a >20% increase is a
real regression — someone dropped a batch path or added a redundant
verification — and fails the job.  Throughput/latency numbers depend on
the runner and are only reported as warnings, never failures.

**In-run ratios are enforced with their own band.**  A ratio of two
medians taken in the same run on the same runner (E11's
``pool_vs_inprocess``: a sequential ``sell`` through a 1-worker pool
over the in-process desk's) cancels the runner's speed, so it can be
gated where the absolute timings cannot.  Each ratio fails when it
exceeds its multiple of the baseline value (``ENFORCED_RATIOS``) — a
band wide enough for runner noise, narrow enough that a fixed wait
returning to the idle path (which triples the ratio) fails the job.

**Backends change wall time, never op counts.**  The arithmetic
backend a run executed under (``meta.backend``; rows that sweep
backends explicitly carry it in their ``arm`` label) does not alter
how many modexp chains the protocol code issues, so op-count bands
stay strict across backends.  When the current run and the baseline
were produced under *different* process-default backends (the
``backend-gmpy2`` CI lane comparing against a pure-backend baseline),
wall-time deltas are expected and not even worth warning about, so
timing drift lines are suppressed and replaced by one informational
note.  Deliberately, the ``backend`` *column* (attribution on e11
rows) is **not** part of a row's identity — the same sweep run under
a different backend must keep matching its baseline rows.

Rows marked ``conditional`` in the baseline (E12's gmpy2 and speedup
arms, which only exist where gmpy2 is installed) downgrade "row
missing" to a warning: a pure-only runner losing them is expected,
losing anything else is still a hard failure.

A metric, row or experiment that exists in the baseline but not in the
current run also fails: silently losing benchmark coverage is how
regressions go unnoticed.  New rows/metrics are fine (the baseline is
updated by re-running with ``P2DRM_BENCH_JSON`` and committing).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Metrics that count operations (deterministic per code version) —
#: enforced against the tolerance band.  Everything else is advisory.
ENFORCED_METRICS = {
    "modexp",
    "modexp_warm",
    "modexp_multi",
    "rsa_ops",
    "rsa_private",
    "messages",
    "bytes",
}

#: In-run ratio metrics -> the multiple of the baseline value above
#: which the current run fails.
ENFORCED_RATIOS = {
    "pool_vs_inprocess": 2.0,
}

#: Keys that identify a row within its experiment table (categorical
#: axes), and numeric sweep parameters that disambiguate repeated
#: categories (e.g. the same object measured at several key sizes).
_LABEL_KEYS = (
    "protocol",
    "mode",
    "arm",
    "case",
    "name",
    "op",
    "design",
    "object",
    "engine",
    "path",
    "adversary",
    "config",
)
_PARAM_KEYS = (
    "rsa_bits",
    "keysize",
    "store_size",
    "spent_db_size",
    "lrl_size",
    "window_s",
)


def row_label(row: dict, index: int) -> str:
    parts = [f"{key}={row[key]}" for key in _LABEL_KEYS if key in row]
    parts += [f"{key}={row[key]}" for key in _PARAM_KEYS if key in row]
    if parts:
        return " ".join(parts)
    for key, value in row.items():
        if isinstance(value, str):
            return f"{key}={value}"
    return f"row[{index}]"


def index_rows(tables: dict) -> dict[tuple[str, str], dict]:
    indexed: dict[tuple[str, str], dict] = {}
    for experiment_id, rows in tables.items():
        for position, row in enumerate(rows):
            indexed[(experiment_id, row_label(row, position))] = row
    return indexed


def compare(current: dict, baseline: dict, tolerance: float):
    """Returns ``(failures, warnings)`` as lists of human-readable lines."""
    failures: list[str] = []
    warnings: list[str] = []
    if current.get("meta", {}).get("smoke") != baseline.get("meta", {}).get("smoke"):
        failures.append(
            "smoke-mode mismatch between current run and baseline"
            " (comparing different key-size regimes is meaningless)"
        )
        return failures, warnings
    current_backend = current.get("meta", {}).get("backend", "pure")
    baseline_backend = baseline.get("meta", {}).get("backend", "pure")
    cross_backend = current_backend != baseline_backend
    if cross_backend:
        warnings.append(
            f"cross-backend comparison ({baseline_backend} baseline vs"
            f" {current_backend} run): wall-time deltas are expected and"
            " suppressed; op-count bands stay strict"
        )

    current_rows = index_rows(current.get("experiments", {}))
    baseline_rows = index_rows(baseline.get("experiments", {}))

    for key, base_row in sorted(baseline_rows.items()):
        experiment_id, label = key
        where = f"{experiment_id} / {label}"
        row = current_rows.get(key)
        if row is None:
            if base_row.get("conditional"):
                warnings.append(
                    f"{where}: conditional row absent from current run"
                    " (backend-dependent arm; expected on pure-only hosts)"
                )
            else:
                failures.append(f"{where}: row missing from current run")
            continue
        for metric, base_value in base_row.items():
            if not isinstance(base_value, (int, float)) or isinstance(base_value, bool):
                continue
            value = row.get(metric)
            if value is None:
                if metric in ENFORCED_METRICS or metric in ENFORCED_RATIOS:
                    failures.append(f"{where}: metric {metric!r} missing")
                continue
            if metric in ENFORCED_RATIOS:
                band = ENFORCED_RATIOS[metric]
                if value > base_value * band:
                    failures.append(
                        f"{where}: {metric} regressed {base_value:.4g} ->"
                        f" {value:.4g} (>{band:g}x baseline)"
                    )
            elif metric in ENFORCED_METRICS:
                if value > base_value * (1 + tolerance):
                    failures.append(
                        f"{where}: {metric} regressed {base_value} -> {value}"
                        f" (>{tolerance:.0%} above baseline)"
                    )
                elif base_value > 0 and value < base_value * (1 - tolerance):
                    warnings.append(
                        f"{where}: {metric} improved {base_value} -> {value};"
                        " consider refreshing the baseline"
                    )
            elif base_value > 0 and value < base_value * (1 - tolerance):
                # Throughput-style metric: lower is worse, but timing on
                # shared runners is noise — advisory only.  Across
                # backends the delta is the whole point of the sweep,
                # so not even a warning.
                if not cross_backend:
                    warnings.append(
                        f"{where}: {metric} {base_value:.4g} -> {value:.4g}"
                        " (timing drift, advisory)"
                    )
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="JSON dump from this run")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="relative band before an op-count change fails (default 0.2)",
    )
    args = parser.parse_args(argv)
    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures, warnings = compare(current, baseline, args.tolerance)
    for line in warnings:
        print(f"WARN  {line}")
    for line in failures:
        print(f"FAIL  {line}")
    if failures:
        print(f"{len(failures)} benchmark regression(s) against {args.baseline}")
        return 1
    print(f"benchmarks within tolerance of {args.baseline} ({len(warnings)} warnings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
