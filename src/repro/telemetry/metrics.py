"""Typed metrics registry: counters, gauges, histograms.

The registry is the numeric half of the telemetry bus: every span the
bus sees is folded into a small set of named metrics (request latency
histograms per stream, kernel/memcpy time counters, the DVFS clock
gauge, fault counters), and the whole registry renders either as a
Prometheus-style text exposition or as a JSON-safe dict.

Histogram statistics follow the paper's convention: the spread of a
sample set is the *sample* standard deviation (``ddof=1``), exactly as
:class:`repro.metrics.performance.LatencyStats` computes it, so a
telemetry histogram over N timed runs reports the same mean/std as the
paper-methodology table cell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.metrics.performance import percentile

#: Summary quantiles rendered in the exposition (p50 / p95 / p99).
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

LabelSet = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Float format that round-trips through ``float()`` cleanly."""
    return f"{value:.10g}"


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Point-in-time value (clock frequency, RAM in use)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


@dataclass
class Histogram:
    """Sample accumulator with paper-convention (ddof=1) statistics."""

    name: str
    labels: LabelSet = ()
    samples: List[float] = field(default_factory=list)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def observe(self, value: float) -> None:
        with self._lock:
            self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(np.sum(self.samples)) if self.samples else 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples)) if self.samples else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1), 0 below two samples —
        the same convention as ``LatencyStats.from_us_samples``."""
        if len(self.samples) < 2:
            return 0.0
        return float(np.std(self.samples, ddof=1))

    def percentile(self, pct: float) -> float:
        return percentile(self.samples, pct)

    def quantiles(self) -> Dict[float, float]:
        return {q: self.percentile(100.0 * q) for q in SUMMARY_QUANTILES}

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "std": self.std,
            "min": float(np.min(self.samples)) if self.samples else 0.0,
            "max": float(np.max(self.samples)) if self.samples else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Get-or-create store of labelled counters, gauges, histograms.

    Thread-safe: get-or-create, family aggregation and the render
    paths hold a registry RLock, and each metric guards its own
    mutation, so concurrent serving streams can fold events while an
    exporter renders a consistent snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _freeze_labels(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _freeze_labels(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _freeze_labels(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, key[1])
        return metric

    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> float:
        """Sum of one counter family across every label set."""
        with self._lock:
            return sum(
                c.value for (n, _), c in self._counters.items() if n == name
            )

    def histogram_samples(self, name: str) -> List[float]:
        """All samples of one histogram family across label sets."""
        out: List[float] = []
        with self._lock:
            for (n, _), h in self._histograms.items():
                if n == name:
                    out.extend(h.samples)
        return out

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )

    # ------------------------------------------------------------------
    def prometheus(self) -> str:
        """Prometheus-style text exposition.

        Counters and gauges render one line per label set; histograms
        render as summaries (p50/p95/p99 ``quantile`` lines plus
        ``_sum`` and ``_count``).  Every non-comment line is
        ``name{labels} value`` and parses line-by-line.
        """
        lines: List[str] = []
        seen_types: set = set()
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, _), metric in counters:
            type_line(name, "counter")
            lines.append(
                f"{name}{_render_labels(metric.labels)} {_fmt(metric.value)}"
            )
        for (name, _), metric in gauges:
            type_line(name, "gauge")
            lines.append(
                f"{name}{_render_labels(metric.labels)} {_fmt(metric.value)}"
            )
        for (name, _), metric in histograms:
            type_line(name, "summary")
            for q, value in metric.quantiles().items():
                extra = (("quantile", _fmt(q)),)
                lines.append(
                    f"{name}{_render_labels(metric.labels, extra)} "
                    f"{_fmt(value)}"
                )
            lines.append(
                f"{name}_sum{_render_labels(metric.labels)} "
                f"{_fmt(metric.sum)}"
            )
            lines.append(
                f"{name}_count{_render_labels(metric.labels)} "
                f"{_fmt(float(metric.count))}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every metric."""
        with self._lock:
            return {
                "counters": [
                    {"name": n, "labels": dict(c.labels), "value": c.value}
                    for (n, _), c in sorted(self._counters.items())
                ],
                "gauges": [
                    {"name": n, "labels": dict(g.labels), "value": g.value}
                    for (n, _), g in sorted(self._gauges.items())
                ],
                "histograms": [
                    {"name": n, "labels": dict(h.labels), **h.stats()}
                    for (n, _), h in sorted(self._histograms.items())
                ],
            }
