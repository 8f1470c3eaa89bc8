"""Dependency-free metrics for the service layer: what the operator
*may* see.

The paper's E10 comparison is about what running the marketplace
forces the operator to know; this module is the positive half of the
answer — **aggregate** counters, gauges and fixed-bucket latency
histograms (requests per op and outcome, queue depth, shed rate,
p50/p99/p999) carrying no per-pseudonym labels, so observability never
becomes a linkage side channel (see ``docs/metrics.md`` for the
reference table and ``docs/runbook.md`` for alert thresholds).

Three metric kinds, all thread-safe behind one registry lock:

- :class:`Counter` — monotonically increasing (``inc``);
- :class:`Gauge` — a settable level (``set`` / ``inc`` / ``dec``; label
  sets can be ``remove``\\d when their object — a connection — goes
  away);
- :class:`Histogram` — fixed bucket bounds chosen at registration;
  ``observe`` is one bisect + three adds, and quantiles (p50/p99/p999)
  are estimated by linear interpolation inside the owning bucket, the
  same estimate PromQL's ``histogram_quantile`` computes.

The registry renders two ways: :meth:`MetricsRegistry.render_text`
emits the Prometheus text exposition format (version 0.0.4 — what the
:class:`~repro.service.netserver.NetServer` metrics endpoint serves),
and :meth:`MetricsRegistry.snapshot` emits a codec-friendly structure
(floats as ``repr`` strings — the canonical codec has no float type)
for the ``metrics`` control frame.

Every metric the service stack exports is declared up front in
:data:`SERVICE_METRIC_SPECS` and instantiated by
:func:`build_service_registry`, so the registry's contents are a
static, documentable surface — ``tools/check_docs.py`` fails CI when
``docs/metrics.md`` and this list drift apart.
"""

from __future__ import annotations

import bisect
import re
import threading
from dataclasses import dataclass

from ..errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSpec",
    "SERVICE_METRIC_SPECS",
    "DEFAULT_LATENCY_BUCKETS",
    "build_service_registry",
    "ensure_service_metrics",
]

#: Default latency buckets (seconds): log-ish spacing from 1 ms to 10 s,
#: matched to the service layer's observed range — an idle pool's queue
#: hand-off is around a millisecond, one request's crypto a few to tens
#: of milliseconds, loaded-CI batches in the hundreds.  13 buckets keeps
#: a histogram cheap to ship and wide enough that p999 interpolation
#: has a bucket to land in.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """A number in exposition form: integral floats lose the ``.0``
    (Prometheus accepts both; the short form diffs cleanly)."""
    if isinstance(value, bool):  # bools are ints; be explicit anyway
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base: a named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...], lock):
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ParameterError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        #: label-value tuple -> sample state (kind-specific).
        self._children: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ParameterError(
                f"{self.name} takes labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_suffix(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def samples(self) -> list[tuple[dict, object]]:
        """``(labels_dict, state)`` snapshot pairs, insertion-ordered."""
        with self._lock:
            return [
                (dict(zip(self.label_names, key)), state)
                for key, state in self._children.items()
            ]


class Counter(Metric):
    """Monotonically increasing count (requests, errors, sheds)."""

    kind = "counter"

    def __init__(self, name, help_text, label_names, lock):
        super().__init__(name, help_text, label_names, lock)
        if not self.label_names:
            self._children[()] = 0.0

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ParameterError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def render(self) -> list[str]:
        with self._lock:
            return [
                f"{self.name}{self._label_suffix(key)} {format_value(value)}"
                for key, value in self._children.items()
            ]


class Gauge(Metric):
    """A level that goes up and down (queue depth, open connections)."""

    kind = "gauge"

    def __init__(self, name, help_text, label_names, lock):
        super().__init__(name, help_text, label_names, lock)
        if not self.label_names:
            self._children[()] = 0.0

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def remove(self, **labels) -> None:
        """Drop one label set (a closed connection must not linger as a
        stale zero forever)."""
        key = self._key(labels)
        with self._lock:
            self._children.pop(key, None)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def render(self) -> list[str]:
        with self._lock:
            return [
                f"{self.name}{self._label_suffix(key)} {format_value(value)}"
                for key, value in self._children.items()
            ]


class _HistogramState:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("bucket_counts", "total", "count", "exemplars")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count  # +Inf bucket included
        self.total = 0.0
        self.count = 0
        #: bucket index -> (value, trace id hex); written only by the
        #: tracing keep-hook, last writer wins per bucket.  Deliberately
        #: absent from ``render``/``snapshot`` — the text exposition and
        #: the codec snapshot are frozen shapes; exemplars surface on
        #: the ``GET /traces`` JSON endpoint instead.
        self.exemplars: dict[int, tuple[float, str]] = {}


class Histogram(Metric):
    """Fixed-bucket distribution with interpolated quantile estimates."""

    kind = "histogram"

    def __init__(self, name, help_text, label_names, lock, buckets):
        super().__init__(name, help_text, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ParameterError("histogram buckets must be sorted and distinct")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = _HistogramState(len(self.buckets) + 1)
            state.bucket_counts[index] += 1
            state.total += value
            state.count += 1

    def annotate_exemplar(self, value: float, exemplar: str, **labels) -> None:
        """Attach an exemplar (a kept trace id) to ``value``'s bucket.

        A no-op for label sets that never observed anything: an
        exemplar without a distribution would render a phantom series.
        """
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._children.get(self._key(labels))
            if state is not None:
                state.exemplars[index] = (float(value), str(exemplar))

    def exemplars(self, **labels) -> dict[str, dict]:
        """Exemplars by bucket upper bound (``le`` string form)."""
        with self._lock:
            state = self._children.get(self._key(labels))
            items = dict(state.exemplars) if state is not None else {}
        out: dict[str, dict] = {}
        for index, (value, trace_hex) in sorted(items.items()):
            le = ("+Inf" if index >= len(self.buckets)
                  else format_value(self.buckets[index]))
            out[le] = {"value": value, "trace": trace_hex}
        return out

    def count(self, **labels) -> int:
        with self._lock:
            state = self._children.get(self._key(labels))
            return 0 if state is None else state.count

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._children.get(self._key(labels))
            return 0.0 if state is None else state.total

    def quantile(self, q: float, **labels) -> float | None:
        """Estimated ``q``-quantile (0 < q < 1) by linear interpolation
        inside the owning bucket — the ``histogram_quantile`` estimate.
        ``None`` with no observations; observations in the +Inf bucket
        clamp to the largest finite bound (the estimate cannot know how
        far past the last bucket they landed)."""
        if not 0.0 < q < 1.0:
            raise ParameterError(f"quantile {q} outside (0, 1)")
        with self._lock:
            state = self._children.get(self._key(labels))
            if state is None or state.count == 0:
                return None
            counts = list(state.bucket_counts)
            total = state.count
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = 0.0 if index == 0 else self.buckets[index - 1]
                upper = self.buckets[index]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.buckets[-1]  # pragma: no cover - rank <= total always hits

    def render(self) -> list[str]:
        lines: list[str] = []
        with self._lock:
            snapshot = [
                (key, list(state.bucket_counts), state.total, state.count)
                for key, state in self._children.items()
            ]
        for key, counts, total, count in snapshot:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                suffix = self._label_suffix(key, f'le="{format_value(bound)}"')
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            cumulative += counts[-1]
            suffix = self._label_suffix(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            lines.append(
                f"{self.name}_sum{self._label_suffix(key)} {format_value(total)}"
            )
            lines.append(f"{self.name}_count{self._label_suffix(key)} {count}")
        return lines


class MetricsRegistry:
    """All metrics of one service stack, renderable as one page.

    Get-or-create constructors (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram`) make registration idempotent — the pool and the
    socket server share one registry without coordinating — but a
    re-registration that *disagrees* (kind or label names) is a loud
    :class:`~repro.errors.ParameterError`, never a silent second
    metric under the same name.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name, help_text, labels, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(labels):
                    raise ParameterError(
                        f"metric {name!r} already registered as"
                        f" {existing.kind}{existing.label_names}"
                    )
                return existing
            metric = cls(name, help_text, tuple(labels), self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "", labels=()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels=()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self, name: str, help_text: str = "", labels=(),
        buckets=DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> Metric:
        with self._lock:
            try:
                return self._metrics[name]
            except KeyError:
                raise ParameterError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def render_text(self) -> str:
        """The Prometheus text exposition (format version 0.0.4).

        Every registered metric appears with its ``# HELP`` / ``# TYPE``
        header even before its first labeled sample, so a scrape (or
        the docs cross-check) always sees the full declared surface.
        """
        lines: list[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A codec-encodable structure for the metrics control frame.

        Numeric values cross as ``repr`` strings (the canonical codec
        deliberately has no float type); histogram samples carry their
        cumulative ``buckets`` as ``[bound, count]`` string pairs plus
        ``sum``/``count``, mirroring the exposition exactly.
        """
        out: dict = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            samples: list[dict] = []
            for labels, state in metric.samples():
                if isinstance(metric, Histogram):
                    cumulative = 0
                    buckets: list[list[str]] = []
                    for bound, bucket_count in zip(
                        metric.buckets, state.bucket_counts
                    ):
                        cumulative += bucket_count
                        buckets.append([format_value(bound), str(cumulative)])
                    buckets.append(["+Inf", str(cumulative + state.bucket_counts[-1])])
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": buckets,
                            "sum": format_value(state.total),
                            "count": str(state.count),
                        }
                    )
                else:
                    samples.append(
                        {"labels": labels, "value": format_value(state)}
                    )
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out


# -- the service stack's declared metric surface ------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: the unit the docs cross-check keys on."""

    name: str
    kind: str
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None


#: Every metric the pool and the socket server export.  ``docs/
#: metrics.md`` documents exactly this list (enforced by
#: ``tools/check_docs.py``); adding a metric means adding it in both
#: places or failing CI.
SERVICE_METRIC_SPECS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "p2drm_requests_total",
        "counter",
        "Requests submitted to the worker pool by op and outcome"
        " (ok / error / shed / abandoned).",
        ("op", "outcome"),
    ),
    MetricSpec(
        "p2drm_errors_total",
        "counter",
        "Error responses by op and exception type.",
        ("op", "type"),
    ),
    MetricSpec(
        "p2drm_shed_total",
        "counter",
        "Requests refused with OverloadedError, by op and which ceiling"
        " shed them (pool / worker / server).",
        ("op", "reason"),
    ),
    MetricSpec(
        "p2drm_request_latency_seconds",
        "histogram",
        "Submit-to-response latency through the pool (queue wait"
        " included), per op.",
        ("op",),
        DEFAULT_LATENCY_BUCKETS,
    ),
    MetricSpec(
        "p2drm_queue_depth",
        "gauge",
        "Outstanding requests per worker queue (shard-affine).",
        ("worker",),
    ),
    MetricSpec(
        "p2drm_inflight_requests",
        "gauge",
        "Outstanding requests pool-wide (submitted, not yet answered).",
    ),
    MetricSpec(
        "p2drm_workers_alive",
        "gauge",
        "Worker processes currently alive.",
    ),
    MetricSpec(
        "p2drm_net_connections",
        "gauge",
        "Open client connections on the socket server.",
    ),
    MetricSpec(
        "p2drm_net_connection_inflight",
        "gauge",
        "In-flight requests per open connection (label set removed on"
        " disconnect).",
        ("conn",),
    ),
    MetricSpec(
        "p2drm_net_frames_total",
        "counter",
        "Frames handled by the socket server, by frame type and"
        " direction (in / out).",
        ("type", "direction"),
    ),
    MetricSpec(
        "p2drm_ledger_2pc_total",
        "counter",
        "Deposit-intent 2PC transitions by phase (prepare / commit /"
        " abort), refreshed by delta from the durable intent rows on"
        " the shard files — intent rows are never deleted, so the"
        " counts survive worker crashes and pool restarts.",
        ("phase",),
    ),
    MetricSpec(
        "p2drm_ledger_intents",
        "gauge",
        "Deposit-intent records currently on the shard files, by state"
        " (pending / committed / aborted).  Pending intents resolve in"
        " milliseconds; a sustained nonzero pending count is the"
        " LedgerIntentStuck alert.",
        ("state",),
    ),
    MetricSpec(
        "p2drm_ledger_latency_seconds",
        "histogram",
        "Gateway-side ledger operation latency, per op (balance /"
        " statement / recover / refresh).",
        ("op",),
        DEFAULT_LATENCY_BUCKETS,
    ),
    MetricSpec(
        "p2drm_reconnects_total",
        "counter",
        "Successful client re-dials after a connection failure"
        " (client-side registry; a sustained climb means the network"
        " or the server is flapping).",
    ),
    MetricSpec(
        "p2drm_retries_total",
        "counter",
        "Client request retries, per op and per reason (the bare"
        " error class that made the attempt retryable).",
        ("op", "reason"),
    ),
    MetricSpec(
        "p2drm_replay_hits_total",
        "counter",
        "Retries answered from the idempotent-replay cache with the"
        " original receipt instead of re-execution (front-door hits;"
        " worker-side hits surface as fast deposits, not here).",
    ),
    MetricSpec(
        "p2drm_worker_warmup_seconds",
        "histogram",
        "Per-worker fastexp warmup cost, by how the tables were"
        " obtained: mode=build (computed from scratch), attach"
        " (deserialized lazily from the gateway's shared-memory"
        " segment) or cow (inherited by fork, zero work).",
        ("mode",),
        DEFAULT_LATENCY_BUCKETS,
    ),
    MetricSpec(
        "p2drm_frames_zero_copy_total",
        "counter",
        "Frames whose payload was handed to the server as a view into"
        " the read buffer (the decoder's zero-copy fast path) instead"
        " of a copied slice; compare against p2drm_net_frames_total to"
        " see how often frames straddle reads.",
    ),
)


def ensure_service_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Register every declared service metric on ``registry``
    (idempotent — the get-or-create constructors make a second pass a
    no-op), and return it."""
    for spec in SERVICE_METRIC_SPECS:
        if spec.kind == "counter":
            registry.counter(spec.name, spec.help, spec.labels)
        elif spec.kind == "gauge":
            registry.gauge(spec.name, spec.help, spec.labels)
        elif spec.kind == "histogram":
            registry.histogram(
                spec.name, spec.help, spec.labels,
                buckets=spec.buckets or DEFAULT_LATENCY_BUCKETS,
            )
        else:  # pragma: no cover - specs are static
            raise ParameterError(f"unknown metric kind {spec.kind!r}")
    return registry


def build_service_registry() -> MetricsRegistry:
    """A registry pre-populated with every declared service metric, so
    the exposition covers the full surface from the first scrape."""
    return ensure_service_metrics(MetricsRegistry())
