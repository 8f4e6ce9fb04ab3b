"""Windowed SLO tracking with multi-window burn-rate alerting.

Cumulative metrics (:mod:`repro.obs.metrics`) answer "how did the whole
run go"; an operator of a *dynamic* deployment needs "are we inside our
objectives **right now**". :class:`SLOTracker` keeps rolling sim-time
windows of per-request-class outcomes — success/failure counts and a
fixed-bucket latency distribution per one-second bucket — and evaluates
:class:`SLOObjective` targets over two windows at once:

* a **fast** window (default 5 s of sim time) that reacts quickly, and
* a **slow** window (default 60 s) that suppresses blips,

the classic multi-window burn-rate scheme: an objective *breaches* only
when the error budget is burning faster than the configured threshold in
*both* windows, so a single lost query never pages but a sustained
failure mode does within seconds.

Determinism: buckets are keyed by ``floor(now / bucket)`` of the injected
sim-time clock and hold plain integer counts; two same-seed runs observe
the same outcome stream at the same times and therefore produce identical
windows, burn rates, and breach edges. The wall clock is never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

#: The request classes the discovery fabric tracks objectives for.
CLASS_QUERY = "query"
CLASS_RENEW = "renew"
CLASS_PUBLISH = "publish"

REQUEST_CLASSES = (CLASS_QUERY, CLASS_RENEW, CLASS_PUBLISH)

#: Burn-rate evaluation (one-second buckets): the fast window reacts
#: quickly (the slow one, ``HealthConfig.slow_window``, suppresses blips);
#: an objective breaches at this error-budget burn multiple in BOTH
#: windows, and only with this many fast-window samples.
FAST_WINDOW = 5.0
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


class _Bucket:
    """Outcomes observed inside one sim-time bucket."""

    __slots__ = ("index", "ok", "err", "lat_counts", "lat_overflow",
                 "lat_total", "lat_n", "vmin", "vmax")

    def __init__(self, index: int) -> None:
        self.index = index
        self.ok = 0
        self.err = 0
        self.lat_counts = [0] * len(DEFAULT_LATENCY_BUCKETS)
        self.lat_overflow = 0
        self.lat_total = 0.0
        self.lat_n = 0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def record(self, ok: bool, latency: float) -> None:
        if ok:
            self.ok += 1
        else:
            self.err += 1
        latency = float(latency)
        self.lat_n += 1
        self.lat_total += latency
        if latency < self.vmin:
            self.vmin = latency
        if latency > self.vmax:
            self.vmax = latency
        for i, bound in enumerate(DEFAULT_LATENCY_BUCKETS):
            if latency <= bound:
                self.lat_counts[i] += 1
                return
        self.lat_overflow += 1


class _ClassWindow:
    """The rolling bucket ring for one request class."""

    def __init__(self, bucket_width: float, retain: float) -> None:
        self._width = bucket_width
        #: Number of whole buckets retained (covers the slow window).
        self._keep = max(1, int(retain / bucket_width) + 1)
        self._buckets: dict[int, _Bucket] = {}
        self.total_ok = 0
        self.total_err = 0

    def _bucket(self, now: float) -> _Bucket:
        """The bucket of ``now``. Opening one evicts those that fell out of
        the retained horizon, so a ring never holds more than ``_keep + 1``;
        an answer reads only the buckets inside its window."""
        index = int(now // self._width)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket(index)
            for old in [i for i in self._buckets if i < index - self._keep]:
                del self._buckets[old]
        return bucket

    def record(self, now: float, ok: bool, latency: float) -> None:
        self._bucket(now).record(ok, latency)
        if ok:
            self.total_ok += 1
        else:
            self.total_err += 1

    def _covering(self, window: float, now: float) -> list[_Bucket]:
        first = int((now - window) // self._width) + 1
        last = int(now // self._width)
        return [self._buckets[i] for i in range(first, last + 1)
                if i in self._buckets]

    def counts(self, window: float, now: float) -> tuple[int, int]:
        """``(ok, err)`` totals inside the trailing ``window`` seconds."""
        ok = err = 0
        for bucket in self._covering(window, now):
            ok += bucket.ok
            err += bucket.err
        return ok, err

    def percentile(self, window: float, now: float, p: float) -> float:
        """Interpolated latency quantile over the trailing window."""
        covering = self._covering(window, now)
        count = sum(b.lat_n for b in covering)
        if count == 0:
            return 0.0
        vmin = min(b.vmin for b in covering if b.lat_n)
        vmax = max(b.vmax for b in covering if b.lat_n)
        rank = p * count
        cumulative = 0
        for i, bound in enumerate(DEFAULT_LATENCY_BUCKETS):
            in_bucket = sum(b.lat_counts[i] for b in covering)
            if in_bucket == 0:
                continue
            cumulative += in_bucket
            if cumulative >= rank:
                lo = DEFAULT_LATENCY_BUCKETS[i - 1] if i > 0 else min(vmin, bound)
                fraction = (rank - (cumulative - in_bucket)) / in_bucket
                estimate = lo + (bound - lo) * fraction
                return max(vmin, min(estimate, vmax))
        return vmax


@dataclass(frozen=True)
class SLOStatus:
    """One objective's evaluation at a point in sim time."""

    objective: SLOObjective
    time: float
    fast_burn: float
    slow_burn: float
    fast_samples: int
    slow_samples: int
    latency: float
    #: Error budget burning too fast in BOTH windows.
    burn_breached: bool
    #: Windowed latency percentile above target.
    latency_breached: bool

    @property
    def breached(self) -> bool:
        return self.burn_breached or self.latency_breached


class SLOTracker:
    """Rolling-window objective evaluation for the three request classes."""

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        objectives: tuple[SLOObjective, ...],
        bucket: float = 1.0,
        fast_window: float = FAST_WINDOW,
        slow_window: float = 60.0,
        burn_threshold: float = BURN_THRESHOLD,
        min_samples: int = MIN_SAMPLES,
    ) -> None:
        if bucket <= 0 or fast_window <= 0 or slow_window < fast_window:
            raise ReproError(
                f"SLO windows must satisfy 0 < bucket, 0 < fast <= slow "
                f"(got bucket={bucket}, fast={fast_window}, slow={slow_window})"
            )
        self.clock = clock
        self.objectives = {obj.request_class: obj for obj in objectives}
        self.bucket = bucket
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.burn_threshold = burn_threshold
        self.min_samples = min_samples
        self._windows = {
            cls: _ClassWindow(bucket, slow_window) for cls in self.objectives
        }

    # -- feeding -----------------------------------------------------------

    def record(self, request_class: str, *, ok: bool, latency: float = 0.0) -> None:
        """One finished request of ``request_class`` (from a span closure)."""
        window = self._windows.get(request_class)
        if window is not None:
            window.record(self.clock(), ok, latency)

    # -- evaluation --------------------------------------------------------

    def burn_rate(self, request_class: str, window: float) -> float:
        """Error-budget burn over the trailing ``window`` (1.0 = on budget)."""
        objective = self.objectives[request_class]
        ok, err = self._windows[request_class].counts(window, self.clock())
        total = ok + err
        if total == 0:
            return 0.0
        budget = 1.0 - objective.success_target
        return (err / total) / budget

    def success_rate(self, request_class: str, window: float) -> float:
        """Windowed success rate; 1.0 when no samples landed."""
        ok, err = self._windows[request_class].counts(window, self.clock())
        total = ok + err
        return ok / total if total else 1.0

    def latency(self, request_class: str, window: float) -> float:
        """Windowed latency at the objective's percentile."""
        objective = self.objectives[request_class]
        return self._windows[request_class].percentile(
            window, self.clock(), objective.latency_percentile
        )

    def check(self) -> list[SLOStatus]:
        """Evaluate every objective now; sorted by request class."""
        now = self.clock()
        statuses = []
        for cls in sorted(self.objectives):
            objective = self.objectives[cls]
            ring = self._windows[cls]
            fast_ok, fast_err = ring.counts(self.fast_window, now)
            slow_ok, slow_err = ring.counts(self.slow_window, now)
            budget = 1.0 - objective.success_target
            fast_n, slow_n = fast_ok + fast_err, slow_ok + slow_err
            fast_burn = (fast_err / fast_n) / budget if fast_n else 0.0
            slow_burn = (slow_err / slow_n) / budget if slow_n else 0.0
            latency = ring.percentile(
                self.fast_window, now, objective.latency_percentile
            )
            enough = fast_n >= self.min_samples
            statuses.append(SLOStatus(
                objective=objective,
                time=now,
                fast_burn=fast_burn,
                slow_burn=slow_burn,
                fast_samples=fast_n,
                slow_samples=slow_n,
                latency=latency,
                burn_breached=(
                    enough
                    and fast_burn >= self.burn_threshold
                    and slow_burn >= self.burn_threshold
                ),
                latency_breached=enough and latency > objective.latency_target,
            ))
        return statuses

    def snapshot(self) -> dict:
        """Whole-run totals plus the current windowed view (for reports)."""
        now = self.clock()
        out: dict = {}
        for cls in sorted(self.objectives):
            objective = self.objectives[cls]
            ring = self._windows[cls]
            total = ring.total_ok + ring.total_err
            out[cls] = {
                "ok": ring.total_ok,
                "err": ring.total_err,
                "success_rate": ring.total_ok / total if total else 1.0,
                "success_target": objective.success_target,
                "latency_target": objective.latency_target,
                "window_success": self.success_rate(cls, self.slow_window),
                "window_latency": ring.percentile(
                    self.slow_window, now, objective.latency_percentile
                ),
            }
        return out
