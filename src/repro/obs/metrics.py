"""Metrics facade: named counters, gauges, and fixed-bucket histograms.

The discovery fabric already accounts every byte in
:class:`~repro.netsim.stats.TrafficStats`, but those are aggregate scalar
counters — they cannot answer "what is the p95 end-to-end query latency"
or "how many descriptions does the matchmaker evaluate per query". This
module adds the missing distribution layer:

* :class:`Counter` / :class:`Gauge` — the trivial named instruments;
* :class:`Histogram` — fixed upper-bound buckets with percentile
  estimation by linear interpolation inside the covering bucket, the
  classic Prometheus-style scheme. Fixed buckets keep observation O(log
  buckets) and — crucially for this repo — fully deterministic: the same
  observation stream always yields the same summary;
* :class:`MetricsRegistry` — a name-keyed collection owned by the
  :class:`~repro.netsim.network.Network`, so every instrument recorded
  anywhere in a run is reachable from one place for experiment tables
  and the ``repro metrics`` CLI.

Nothing here reads the wall clock or the simulator; values are whatever
the instrumented code observes (sim-time latencies, counts, bytes).
"""

from __future__ import annotations

import bisect
import re
from collections import deque
from typing import Any, Iterable

from repro.errors import ReproError

#: Default histogram bounds for sim-time latencies (seconds). Geometric
#: 1-2.5-5 ladder from 1 ms to 60 s; one-way LAN latency is 1 ms and the
#: aggregation timeout tops out in tens of seconds, so real observations
#: land mid-ladder where interpolation is tight.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0,
)

#: Bounds for small integer distributions (hop counts, fan-out widths).
HOP_BUCKETS: tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16)

#: Bounds for per-query work counts (descriptions evaluated, responders).
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n


class Gauge:
    """A named value that can move both ways (e.g. live lease count).

    Callers that pass ``now`` (sim time) to :meth:`set`/:meth:`add` also
    feed a bounded transition history, which :meth:`mean_over` turns into
    a **time-weighted** average over a trailing window — the difference
    between "the queue is empty right now" and "the queue averaged depth
    12 over the last five seconds". Untimed sets keep the original
    snapshot-only behavior.
    """

    __slots__ = ("name", "value", "last_set", "_history")

    #: Transition history bound: at one set per simulated event this
    #: comfortably covers any health detector window without unbounded growth.
    HISTORY = 4096

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        #: Sim time of the last *timed* set (None before the first one).
        self.last_set: float | None = None
        self._history: deque[tuple[float, float]] = deque(maxlen=self.HISTORY)

    def set(self, value: float, *, now: float | None = None) -> None:
        self.value = value
        if now is not None:
            self.last_set = now
            self._history.append((now, value))

    def add(self, delta: float, *, now: float | None = None) -> None:
        self.set(self.value + delta, now=now)

    def mean_over(self, window: float, *, now: float) -> float:
        """Time-weighted mean of the value over ``[now - window, now]``.

        Each recorded value is weighted by how long it was in effect;
        before the first timed set the gauge is taken as 0 (its initial
        value). With no timed history at all the current value is
        returned (the snapshot-only degenerate case).
        """
        if window <= 0:
            raise ReproError(f"gauge {self.name!r} window must be positive, got {window}")
        if not self._history:
            return self.value
        start = now - window
        current = 0.0
        integral = 0.0
        prev_t = start
        for t, value in self._history:
            if t <= start:
                current = value
                continue
            if t > now:
                break
            integral += (t - prev_t) * current
            prev_t = t
            current = value
        integral += (now - prev_t) * current
        return integral / window


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit overflow bucket catches everything beyond the last bound.
    Percentiles are estimated by walking the cumulative counts to the
    covering bucket and interpolating linearly inside it, then clamped to
    the observed ``[vmin, vmax]`` so estimates never leave the data range.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total",
                 "vmin", "vmax")

    def __init__(self, name: str, *, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ReproError(
                f"histogram {name!r} needs strictly increasing bucket bounds, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.counts[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def observe_many(self, value: float, n: int) -> None:
        """Record ``n`` observations of ``value``: every slot as after
        ``n`` calls of :meth:`observe`, ``total`` included bit for bit
        (``n`` additions, not one of ``n * value``). A zero of either sign
        is added once: ``x + 0.0`` is ``x`` for every ``x`` but ``-0.0``,
        which the first addition turns into ``0.0``, and ``x + -0.0`` is
        always ``x``."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.counts[index] += n
        else:
            self.overflow += n
        self.count += n
        total = self.total
        for _ in range(min(n, 1) if value == 0.0 else n):
            total += value
        self.total = total
        if n:
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations (same bounds) to this one."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-quantile (``p`` in (0, 1]) from the buckets."""
        if not 0.0 < p <= 1.0:
            raise ReproError(f"percentile must be in (0, 1], got {p}")
        if self.count == 0:
            return 0.0
        rank = p * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index > 0 else min(self.vmin, hi)
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return max(self.vmin, min(estimate, self.vmax))
        # The rank lands in the overflow bucket: all we know is "beyond
        # the last bound", so report the observed maximum.
        return self.vmax

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus the p50/p95/p99 estimates."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Fold an instrument name onto the Prometheus metric-name grammar."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class MetricsRegistry:
    """Name-keyed counters, gauges, and histograms for one run.

    Accessors create the instrument on first use (with the given buckets
    for histograms) and return the existing one afterwards, so call sites
    never need to coordinate registration.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  *, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, buckets=buckets)
        return instrument

    def tallies(self, family: str) -> dict[str, int]:
        """The counters named ``<family>.<kind>``, as ``kind → value`` in
        the order they were first counted (``tallies("recovery")``)."""
        prefix = family + "."
        return {name[len(prefix):]: counter.value
                for name, counter in self.counters.items() if name.startswith(prefix)}

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict dump of every instrument, names sorted."""
        return {
            "counters": {name: self.counters[name].value
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].value
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].summary()
                           for name in sorted(self.histograms)},
        }

    def render_prom(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument.

        Counters and gauges become single samples; histograms become the
        standard cumulative ``_bucket{le=...}`` series plus ``_sum`` and
        ``_count``. Instrument names are sanitized to the Prometheus
        grammar (dots and other separators fold to ``_``). The output is
        sorted and format-stable so a future real-transport scrape
        endpoint (and the CLI test) can rely on the exact shape.
        """
        lines: list[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.counters[name].value}")
        for name in sorted(self.gauges):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {self.gauges[name].value:g}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {histogram.total:g}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Aligned plain-text tables (the ``repro metrics`` output)."""
        lines: list[str] = []
        if self.counters:
            width = max(len(name) for name in self.counters)
            lines.append("counters:")
            lines.extend(
                f"  {name.ljust(width)}  {self.counters[name].value}"
                for name in sorted(self.counters)
            )
        if self.gauges:
            width = max(len(name) for name in self.gauges)
            lines.append("gauges:")
            lines.extend(
                f"  {name.ljust(width)}  {self.gauges[name].value:g}"
                for name in sorted(self.gauges)
            )
        if self.histograms:
            lines.append("histograms:")
            header = ["name", "count", "mean", "p50", "p95", "p99", "max"]
            rows = [header]
            for name in sorted(self.histograms):
                s = self.histograms[name].summary()
                rows.append([
                    name, str(s["count"]),
                    *(f"{s[key]:.6g}" for key in ("mean", "p50", "p95", "p99", "max")),
                ])
            widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
            for row in rows:
                lines.append("  " + "  ".join(cell.ljust(widths[i])
                                              for i, cell in enumerate(row)))
        return "\n".join(lines) if lines else "(no metrics recorded)"
