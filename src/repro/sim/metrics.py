"""Lightweight metrics used by every subsystem.

The benchmark harness reads these to report activation rates, flip counts,
GC pressure, and attack progress.  They are plain in-memory objects — no I/O,
no background threads — so they cost almost nothing on the hot paths.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional


class Counter:
    """A monotonically increasing counter.

    Hot paths call :meth:`add` millions of times per campaign, so the class
    is slotted (no per-instance dict) and batched increments (``add(n)``)
    are preferred over per-I/O ``add()`` calls wherever a caller knows the
    batch size up front.  The very hottest paths (the DRAM access loop, the
    burst engines, the per-command path) may bump :attr:`value` directly
    when the amount is non-negative by construction — the method call
    itself is measurable there.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; got %d" % amount)
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one (sweep rollups)."""
        self.value += other.value

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A value that can go up and down (queue depth, staged pages, ...).

    Unlike :class:`Counter` a gauge is a point-in-time reading, so merging
    two gauges keeps the last-set value rather than summing.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def __repr__(self) -> str:
        return "Gauge(%s=%g)" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram for latency/size distributions.

    ``bounds`` are the inclusive upper edges of each bucket; values above the
    last bound, and NaN, land in an overflow bucket.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: List[float]):
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError("bounds must be a non-empty ascending list")
        self.name = name
        self.bounds = list(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        # The first bound at or above the value; NaN (unequal to itself)
        # compares below no bound.
        self.counts[bisect_left(self.bounds, value) if value == value else -1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper edge of the bucket containing ``q``."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0,1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        running = 0
        for i, count in enumerate(self.counts[:-1]):
            running += count
            if running >= target:
                return self.bounds[i]
        return float("inf")

    def percentile(self, q: float) -> float:
        """Exact-rank percentile: the upper edge of the bucket holding the
        ``ceil(q * total)``-th smallest observation.

        This is numpy's ``method="inverted_cdf"`` rank applied to bucketed
        data, so for observations that coincide with bucket edges it agrees
        with ``numpy.quantile`` exactly (property-tested).  Observations in
        the overflow bucket report ``inf`` — the bucket has no upper edge,
        and pretending otherwise would understate tail latency.
        """
        if not 0 <= q <= 1:
            raise ValueError("percentile must be in [0,1]")
        if self.total == 0:
            return 0.0
        rank = min(self.total, max(1, math.ceil(q * self.total)))
        running = 0
        for i, count in enumerate(self.counts[:-1]):
            running += count
            if running >= rank:
                return self.bounds[i]
        return float("inf")

    def percentiles(self) -> Dict[str, float]:
        """The standard latency summary: p50/p95/p99 in one dict."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's buckets into this one.

        Requires identical bounds — merging differently bucketed
        histograms would silently misplace observations.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bounds: %r vs %r"
                % (self.bounds, other.bounds)
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%.3g)" % (self.name, self.total, self.mean)


def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, labels[key]) for key in sorted(labels)
    )
    return "{%s}" % inner


class MetricRegistry:
    """A named collection of counters, gauges, and histograms.

    Components create their metrics through a registry so the benchmark
    harness can walk everything with :meth:`snapshot`.  Metrics may carry
    labels (``registry.counter("flips", bank="0")``): each distinct label
    set is its own time series, keyed ``name{bank="0"}``.
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _qualify(self, name: str, labels: Dict[str, str]) -> str:
        base = "%s.%s" % (self.prefix, name) if self.prefix else name
        return base + _label_suffix(labels)

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` (one series per label set)."""
        key = self._qualify(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter(key)
        return self._counters[key]

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` (one series per label set)."""
        key = self._qualify(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge(key)
        return self._gauges[key]

    def histogram(
        self,
        name: str,
        bounds: Optional[List[float]] = None,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name``.

        The first use must pass ``bounds``; later uses may omit them.
        Passing *different* bounds on re-use raises — silently returning
        the old buckets would misattribute every later observation.
        """
        key = self._qualify(name, labels)
        existing = self._histograms.get(key)
        if existing is not None:
            if bounds is not None and list(bounds) != existing.bounds:
                raise ValueError(
                    "histogram %r already registered with bounds %r; got %r"
                    % (key, existing.bounds, list(bounds))
                )
            return existing
        if bounds is None:
            raise ValueError("first use of histogram %r must pass bounds" % key)
        self._histograms[key] = Histogram(key, bounds)
        return self._histograms[key]

    def snapshot(self) -> Dict[str, float]:
        """Flat mapping of every metric to its current value."""
        out: Dict[str, float] = {}
        for key, counter in self._counters.items():
            out[key] = counter.value
        for key, gauge in self._gauges.items():
            out[key] = gauge.value
        for key, histogram in self._histograms.items():
            out[key + ".count"] = histogram.total
            out[key + ".mean"] = histogram.mean
        return out

    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry into this one (per-trial -> rollup).

        Counters and histograms sum; gauges take the other's reading.
        Metrics only present in ``other`` are created here first.
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter(key)
            mine.merge(counter)
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                mine = self._gauges[key] = Gauge(key)
            mine.merge(gauge)
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram(key, histogram.bounds)
            mine.merge(histogram)

    def exposition(self) -> str:
        """Prometheus text-format rendering of every metric.

        Dots become underscores (Prometheus name charset); label suffixes
        pass through unchanged.  Output is sorted, so two identical
        registries expose identical text.
        """
        lines: List[str] = []
        for key in sorted(self._counters):
            name, labels = _split_series(key)
            lines.append("# TYPE %s counter" % name)
            lines.append("%s%s %s" % (name, labels, _fmt(self._counters[key].value)))
        for key in sorted(self._gauges):
            name, labels = _split_series(key)
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s%s %s" % (name, labels, _fmt(self._gauges[key].value)))
        for key in sorted(self._histograms):
            name, labels = _split_series(key)
            histogram = self._histograms[key]
            lines.append("# TYPE %s histogram" % name)
            running = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                running += count
                lines.append(
                    "%s_bucket%s %d"
                    % (name, _with_le(labels, _fmt(bound)), running)
                )
            lines.append(
                "%s_bucket%s %d" % (name, _with_le(labels, "+Inf"), histogram.total)
            )
            lines.append("%s_sum%s %s" % (name, labels, _fmt(histogram.sum)))
            lines.append("%s_count%s %d" % (name, labels, histogram.total))
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        self._histograms.clear()


def _split_series(key: str) -> "tuple":
    """``a.b{x="1"}`` -> (``a_b``, ``{x="1"}``)."""
    if "{" in key:
        base, rest = key.split("{", 1)
        return base.replace(".", "_"), "{" + rest
    return key.replace(".", "_"), ""


def _with_le(labels: str, le: str) -> str:
    if labels:
        return labels[:-1] + ',le="%s"}' % le
    return '{le="%s"}' % le


def _fmt(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return "%d" % value
    return repr(value)


def merge_snapshots(*registries: MetricRegistry) -> Dict[str, float]:
    """One flat snapshot across several registries (trace footers use
    this to roll the whole stack's metrics into a single dict)."""
    out: Dict[str, float] = {}
    for registry in registries:
        out.update(registry.snapshot())
    return out
