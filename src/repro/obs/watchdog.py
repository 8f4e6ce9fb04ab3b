"""Deterministic anomaly watchdogs over the metrics facade.

Each watchdog is a small detector evaluated on the health monitor's
periodic tick. Detectors read only deterministic inputs — instrument
values in the run's :class:`~repro.obs.metrics.MetricsRegistry`, the
lease and anti-entropy events the
:class:`~repro.obs.health.HealthMonitor` hears in the trace, and the injected sim-time
clock — so two same-seed runs raise byte-identical alarm streams.

Alarms fire on the **rising edge** only: a detector that stays in its
tripped condition across many ticks raises one alarm when the condition
appears and re-arms after it clears, so a dead registry produces one
staleness alarm, not one per second.

The five stock detectors map to the failure modes the experiments
inject:

* :class:`QueueDepthGrowth` — sustained admission-queue depth (the
  time-weighted gauge mean stays above threshold while still rising):
  an overload flood, before goodput visibly collapses;
* :class:`BreakerFlapping` — open→half-open→open cycles accumulating in
  the ``breaker.flaps`` counter: a neighbor that is down or unreachable
  long enough for probes to keep failing (crash, partition);
* :class:`AntiEntropyStaleness` — a replicating registry whose periodic
  reconciliation round has not been seen for too long: the node is dead
  or its periodic machinery wedged;
* :class:`LeaseExpirySpike` — a burst of lease expiries: renewals are
  not landing (partition starving replica refreshes, registry death
  taking a population of leases with it);
* :class:`ShedRateStep` — a step in the ``admission.shed`` counter:
  the registry started refusing work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.health import HealthMonitor


@dataclass(frozen=True)
class Alarm:
    """One watchdog (or SLO) firing at a point in sim time."""

    name: str
    node: str
    time: float
    details: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extra = " ".join(f"{k}={self.details[k]}" for k in sorted(self.details))
        where = f" [{self.node}]" if self.node else ""
        return f"t={self.time:g} {self.name}{where}{' ' + extra if extra else ''}"


class Watchdog:
    """Base detector: rising-edge alarm bookkeeping per scope key."""

    #: Detector name; becomes the alarm name and the per-detector counter.
    name = "watchdog"

    def __init__(self) -> None:
        #: Scope keys (node ids, or "" for global) currently tripped.
        self._tripped: set[str] = set()

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        """Evaluate the detector; returns newly raised alarms."""
        raise NotImplementedError

    def _edge(self, key: str, condition: bool) -> bool:
        """True exactly when ``condition`` newly became true for ``key``."""
        if condition:
            if key in self._tripped:
                return False
            self._tripped.add(key)
            return True
        self._tripped.discard(key)
        return False


class _CounterDelta:
    """Shared helper: counter increase over a trailing sim-time window."""

    def __init__(self, window: float) -> None:
        self.window = window
        self._history: deque[tuple[float, int]] = deque(maxlen=4096)

    def delta(self, now: float, value: int) -> int:
        self._history.append((now, value))
        horizon = now - self.window
        baseline = value
        for t, v in self._history:
            if t >= horizon:
                baseline = v
                break
        while self._history and self._history[0][0] < horizon:
            self._history.popleft()
        return value - baseline


class QueueDepthGrowth(Watchdog):
    """Admission queue staying deep and still growing."""

    name = "queue-growth"

    def __init__(self, *, window: float, threshold: float) -> None:
        super().__init__()
        self.window = window
        self.threshold = threshold

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        gauge = monitor.metrics.gauges.get("registry.queue_depth")
        if gauge is None:
            return []
        mean = gauge.mean_over(self.window, now=now)
        tripped = mean >= self.threshold and gauge.value >= mean
        if self._edge("", tripped):
            return [Alarm(self.name, "", now, {
                "mean_depth": round(mean, 3), "depth": gauge.value,
            })]
        return []


class BreakerFlapping(Watchdog):
    """Circuit breakers cycling open → half-open → open."""

    name = "breaker-flap"

    def __init__(self, *, window: float, threshold: int) -> None:
        super().__init__()
        self.threshold = threshold
        self._delta = _CounterDelta(window)

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        counter = monitor.metrics.counters.get("breaker.flaps")
        flaps = self._delta.delta(now, counter.value if counter else 0)
        if self._edge("", flaps >= self.threshold):
            return [Alarm(self.name, "", now, {"flaps_in_window": flaps})]
        return []


class AntiEntropyStaleness(Watchdog):
    """A replicating registry whose reconciliation rounds went quiet."""

    name = "antientropy-stale"

    def __init__(self, *, stale_after: float) -> None:
        super().__init__()
        self.stale_after = stale_after

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        alarms = []
        for node, last in sorted(monitor.liveness("antientropy-round").items()):
            if self._edge(node, now - last >= self.stale_after):
                alarms.append(Alarm(self.name, node, now, {
                    "silent_for": round(now - last, 3),
                }))
        return alarms


class LeaseExpirySpike(Watchdog):
    """A burst of lease expiries: renewals are not landing."""

    name = "lease-expiry-spike"

    def __init__(self, *, window: float, threshold: int) -> None:
        super().__init__()
        self.window = window
        self.threshold = threshold

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        expiries = monitor.lease_events("expire", since=now - self.window)
        if self._edge("", len(expiries) >= self.threshold):
            nodes = sorted({node for _t, node in expiries})
            return [Alarm(self.name, nodes[0] if len(nodes) == 1 else "", now, {
                "expiries_in_window": len(expiries), "nodes": nodes,
            })]
        return []


class ShedRateStep(Watchdog):
    """The admission controller started refusing work."""

    name = "shed-step"

    def __init__(self, *, window: float, threshold: int) -> None:
        super().__init__()
        self.threshold = threshold
        self._delta = _CounterDelta(window)

    def check(self, monitor: "HealthMonitor", now: float) -> list[Alarm]:
        counter = monitor.metrics.counters.get("admission.shed")
        shed = self._delta.delta(now, counter.value if counter else 0)
        if self._edge("", shed >= self.threshold):
            return [Alarm(self.name, "", now, {"shed_in_window": shed})]
        return []
