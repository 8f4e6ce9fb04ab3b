"""Windowed SLO tracking: per request class, the outcomes of the last
seconds of sim time.

Cumulative metrics (:mod:`repro.obs.metrics`) answer "how did the whole
run go"; an operator of a *dynamic* deployment needs "are we inside our
objectives **right now**". :class:`SLOTracker` keeps a ring of one-second
buckets per request class, each holding success/failure counts and a
:class:`~repro.obs.metrics.Histogram` of latencies; a windowed count sums
the buckets that cover the window, and a windowed percentile merges their
histograms. The burn-rate row of :mod:`repro.obs.health`'s detector
table reads two windows at once:

* a **fast** window (:data:`FAST_WINDOW`) that reacts quickly, and
* a **slow** window (:data:`SLOW_WINDOW`) that suppresses blips,

the classic multi-window burn-rate scheme: an objective *breaches* only
when the error budget burns faster than :data:`BURN_THRESHOLD` in *both*
windows, so a single lost query never pages but a sustained failure mode
does within seconds.

Determinism: buckets are keyed by ``floor(now / BUCKET)`` of the injected
sim-time clock and hold plain counts; two same-seed runs observe the same
outcome stream at the same times and therefore produce identical windows.
The wall clock is never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.obs.metrics import Histogram

#: The request classes the discovery fabric tracks objectives for.
CLASS_QUERY = "query"
CLASS_RENEW = "renew"
CLASS_PUBLISH = "publish"

REQUEST_CLASSES = (CLASS_QUERY, CLASS_RENEW, CLASS_PUBLISH)

#: Seconds of sim time per bucket. The fast window reacts quickly and the
#: slow one suppresses blips; an objective breaches at this error-budget
#: burn multiple in BOTH windows, and only with this many fast-window
#: samples.
BUCKET = 1.0
FAST_WINDOW = 5.0
SLOW_WINDOW = 30.0
BURN_THRESHOLD = 2.0
MIN_SAMPLES = 5


@dataclass(frozen=True)
class SLOObjective:
    """One request class's service-level objective.

    ``success_target`` is the windowed success-rate floor (e.g. 0.95 =
    at most 5% error budget); ``latency_target`` bounds the windowed
    ``latency_percentile`` estimate (seconds of sim time).
    """

    request_class: str
    success_target: float = 0.95
    latency_target: float = 2.0
    latency_percentile: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.success_target < 1.0:
            raise ReproError(
                f"success_target must be in (0, 1), got {self.success_target}"
            )
        if self.latency_target <= 0:
            raise ReproError(
                f"latency_target must be positive, got {self.latency_target}"
            )
        if not 0.0 < self.latency_percentile <= 1.0:
            raise ReproError(
                f"latency_percentile must be in (0, 1], got {self.latency_percentile}"
            )


class ClassWindow:
    """The rolling bucket ring for one request class: bucket index →
    ``[ok, err, latency histogram]``."""

    def __init__(self, objective: SLOObjective, retain: float) -> None:
        self.objective = objective
        #: Number of whole buckets retained (covers the slow window).
        self._keep = int(retain / BUCKET) + 1
        self._buckets: dict[int, list] = {}
        self.total_ok = 0
        self.total_err = 0

    def record(self, now: float, ok: bool, latency: float) -> None:
        """One outcome at ``now``. Opening a bucket evicts those that fell
        out of the retained horizon, so a ring never holds more than
        ``_keep + 1``; an answer reads only the buckets inside its window."""
        index = int(now // BUCKET)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = [0, 0, Histogram("slo")]
            for old in [i for i in self._buckets if i < index - self._keep]:
                del self._buckets[old]
        bucket[0 if ok else 1] += 1
        bucket[2].observe(latency)
        if ok:
            self.total_ok += 1
        else:
            self.total_err += 1

    def _covering(self, window: float, now: float) -> list[list]:
        first = int((now - window) // BUCKET) + 1
        last = int(now // BUCKET)
        return [self._buckets[i] for i in range(first, last + 1)
                if i in self._buckets]

    def counts(self, window: float, now: float) -> tuple[int, int]:
        """``(ok, err)`` totals inside the trailing ``window`` seconds."""
        covering = self._covering(window, now)
        return sum(b[0] for b in covering), sum(b[1] for b in covering)

    def burn(self, window: float, now: float) -> tuple[float, int]:
        """Error-budget burn over the trailing ``window`` (1.0 = on budget;
        0.0 with no samples) and the sample count it rests on."""
        ok, err = self.counts(window, now)
        total = ok + err
        if total == 0:
            return 0.0, 0
        return (err / total) / (1.0 - self.objective.success_target), total

    def latency(self, window: float, now: float) -> float:
        """The objective's latency percentile over the trailing window."""
        merged = Histogram("slo")
        for bucket in self._covering(window, now):
            merged.merge(bucket[2])
        return merged.percentile(self.objective.latency_percentile)


class SLOTracker:
    """Rolling-window outcomes for the request classes with an objective."""

    def __init__(self, clock: Callable[[], float], *,
                 objectives: tuple[SLOObjective, ...]) -> None:
        self.clock = clock
        #: :data:`SLOW_WINDOW` as this tracker was built with it.
        self.slow_window = SLOW_WINDOW
        #: Request class → its window, in sorted class order.
        self.windows = {obj.request_class: ClassWindow(obj, self.slow_window)
                        for obj in sorted(objectives, key=lambda o: o.request_class)}

    def record(self, request_class: str, *, ok: bool, latency: float = 0.0) -> None:
        """One finished request of ``request_class`` (from a span closure)."""
        window = self.windows.get(request_class)
        if window is not None:
            window.record(self.clock(), ok, latency)

    def snapshot(self) -> dict:
        """Whole-run totals plus the slow-window view (for reports)."""
        now = self.clock()
        out: dict = {}
        for cls, ring in self.windows.items():
            total = ring.total_ok + ring.total_err
            ok, err = ring.counts(self.slow_window, now)
            out[cls] = {
                "ok": ring.total_ok,
                "err": ring.total_err,
                "success_rate": ring.total_ok / total if total else 1.0,
                "success_target": ring.objective.success_target,
                "latency_target": ring.objective.latency_target,
                "window_success": ok / (ok + err) if ok + err else 1.0,
                "window_latency": ring.latency(self.slow_window, now),
            }
        return out
