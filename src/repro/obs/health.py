"""Runtime health: flight recorders, SLO windows, watchdog alarms.

The observability built in earlier PRs is *post-hoc*: whole-run traces
and cumulative metrics answer "what happened" after the fact. A dynamic
deployment — the paper's whole premise — also needs "is the system
healthy right now, and how much headroom is left". This module is that
runtime layer:

* :class:`FlightRecorder` — a bounded per-node ring of recent spans,
  events, and state transitions. Cheap enough to leave on, dumpable on
  demand and dumped automatically on crash, invariant violation, or
  watchdog alarm: the forensic "last N records before the incident"
  without whole-run trace cost.
* :class:`HealthMonitor` — owns the per-node recorders, a windowed
  :class:`~repro.obs.slo.SLOTracker`, and the
  :mod:`~repro.obs.watchdog` detectors; evaluated on a periodic
  sim-time tick.

**Absent unless enabled.** A deployment builds a monitor only where its
:class:`HealthConfig` has ``enabled=True``. Under the default
``DiscoverySystem.health`` is ``None``: no tick is scheduled, no trace
observer is registered, and nobody asks whether the layer is on. A
monitor that exists is on.

Determinism: the monitor reads only the injected sim-time clock, the
metrics registry, the trace records it observes and the few feeds that
have no trace record to listen to; the tick never touches the simulator
RNG. Same-seed runs therefore produce identical
alarm streams and byte-identical flight-recorder dumps.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError
from repro.obs.slo import (
    CLASS_PUBLISH,
    CLASS_QUERY,
    CLASS_RENEW,
    SLOObjective,
    SLOTracker,
)
from repro.obs.watchdog import (
    Alarm,
    AntiEntropyStaleness,
    BreakerFlapping,
    LeaseExpirySpike,
    QueueDepthGrowth,
    ShedRateStep,
    Watchdog,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.simulator import Simulator
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import TraceRecorder

#: The objectives: queries may fail 5% and must answer within 2 s at
#: p95; renews are the soft-state lifeline and get a tighter target.
DEFAULT_OBJECTIVES: tuple[SLOObjective, ...] = (
    SLOObjective(CLASS_QUERY, success_target=0.95, latency_target=2.0),
    SLOObjective(CLASS_RENEW, success_target=0.99, latency_target=1.5),
    SLOObjective(CLASS_PUBLISH, success_target=0.95, latency_target=2.0),
)


#: Watchdog windows (sim-seconds): queue-depth mean, breaker flap
#: count, shed count, lease expiries.
QUEUE_WINDOW = 5.0
FLAP_WINDOW = 30.0
SHED_WINDOW = 5.0
LEASE_WINDOW = 10.0
#: Seconds between watchdog/SLO evaluation ticks.
WATCHDOG_INTERVAL = 1.0
#: Breaker flapping: open→half-open→open cycles within :data:`FLAP_WINDOW`.
BREAKER_FLAP_THRESHOLD = 2
#: Lease-expiry spike: expiries within :data:`LEASE_WINDOW`.
LEASE_EXPIRY_SPIKE = 3

#: Records retained per node ring (oldest evicted beyond this), and
#: automatic dumps retained per run (oldest dropped beyond this).
RECORDER_CAPACITY = 256
MAX_DUMPS = 32


@dataclass(frozen=True)
class HealthConfig:
    """What a deployment sets of the runtime health layer (no monitor is
    built when ``enabled=False``); everything else is a constant of this
    module."""

    #: Master switch. Off = no monitor, so nothing to feed or ask.
    enabled: bool = False
    #: Slow burn-rate window (suppresses blips; the fast one is
    #: :data:`repro.obs.slo.FAST_WINDOW`).
    slow_window: float = 60.0
    #: Queue-depth growth: time-weighted mean depth over
    #: :data:`QUEUE_WINDOW`.
    queue_depth_threshold: float = 8.0
    #: Anti-entropy staleness: silence bound for a registry's rounds.
    antientropy_stale_after: float = 30.0
    #: Shed-rate step: sheds within :data:`SHED_WINDOW`.
    shed_step_threshold: int = 10

    def __post_init__(self) -> None:
        if self.antientropy_stale_after <= 0:
            raise ReproError("watchdog windows must be positive, "
                             f"got {self.antientropy_stale_after}")


class FlightRecorder:
    """Bounded ring of one node's recent observability records.

    Records are the plain dicts the trace observer (and the monitor's
    explicit marks) produce; the ring keeps the most recent
    ``capacity`` of them, evicting oldest-first. :meth:`dump_jsonl`
    renders the ring with sorted keys and canonical separators, so the
    bytes are a pure function of the run — the determinism contract the
    health smoke asserts.
    """

    __slots__ = ("node_id", "records", "appended")

    def __init__(self, node_id: str, capacity: int) -> None:
        self.node_id = node_id
        self.records: deque[dict[str, Any]] = deque(maxlen=capacity)
        #: Total records ever offered (``appended - len(records)`` were evicted).
        self.appended = 0

    @property
    def evicted(self) -> int:
        return self.appended - len(self.records)

    def note(self, record: dict[str, Any]) -> None:
        self.appended += 1
        self.records.append(record)

    def dump_jsonl(self) -> str:
        """The ring as byte-stable JSON Lines (oldest first)."""
        return "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.records
        )


@dataclass
class HealthDump:
    """One captured flight-recorder dump (crash, alarm, or on demand)."""

    reason: str
    node: str
    time: float
    jsonl: str
    #: Records inside the dump (for quick assertions).
    records: int = 0


class HealthMonitor:
    """The per-run health brain: recorders + SLO windows + watchdogs.

    Built by :class:`~repro.core.system.DiscoverySystem` where the
    deployment enables the layer; :meth:`attach` then arms the periodic
    tick and the trace observer. Protocol agents reach it through their
    network's ``health`` slot, which holds it there and ``None``
    everywhere else.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        metrics: "MetricsRegistry",
        config: HealthConfig,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.trace: "TraceRecorder | None" = None
        self.recorders: dict[str, FlightRecorder] = {}
        self.alarms: list[Alarm] = []
        self.dumps: list[HealthDump] = []
        self._liveness: dict[str, dict[str, float]] = {}
        self._lease_events: deque[tuple[float, str, str]] = deque(maxlen=4096)
        self._slo_breached: set[str] = set()
        self.slo = SLOTracker(clock, objectives=DEFAULT_OBJECTIVES,
                              slow_window=config.slow_window)
        self.watchdogs: list[Watchdog] = [
            QueueDepthGrowth(window=QUEUE_WINDOW,
                             threshold=config.queue_depth_threshold),
            BreakerFlapping(window=FLAP_WINDOW,
                            threshold=BREAKER_FLAP_THRESHOLD),
            AntiEntropyStaleness(stale_after=config.antientropy_stale_after),
            LeaseExpirySpike(window=LEASE_WINDOW,
                             threshold=LEASE_EXPIRY_SPIKE),
            ShedRateStep(window=SHED_WINDOW,
                         threshold=config.shed_step_threshold),
        ]

    def attach(self, sim: "Simulator") -> None:
        """Listen to the run's trace and arm the periodic tick."""
        self.trace = sim.trace
        sim.trace.listen(self._on_trace_record)
        sim.every(WATCHDOG_INTERVAL, self.tick)

    # -- feeds -------------------------------------------------------------

    def _on_trace_record(self, record: dict[str, Any]) -> None:
        """Trace observer: mirror every span/event into its node's ring,
        and keep what the watchdogs ask about — a registry's lease
        lifecycle (``lease.<kind>``) and its anti-entropy heartbeat."""
        node = record.get("node") or ""
        self.recorder_for(node).note(record)
        name = record["name"]
        if name.startswith("lease."):
            self._lease_events.append((record["t"], name[6:], node))
        elif name == "antientropy-round":
            self._liveness.setdefault(name, {})[node] = record["t"]

    def recorder_for(self, node_id: str) -> FlightRecorder:
        recorder = self.recorders.get(node_id)
        if recorder is None:
            recorder = self.recorders[node_id] = FlightRecorder(
                node_id, RECORDER_CAPACITY
            )
        return recorder

    def note(self, node: str, name: str, **attrs: Any) -> None:
        """Record an explicit state transition into a node's ring."""
        self.recorder_for(node).note({
            "t": self.clock(), "kind": "mark", "name": name,
            "node": node, "attrs": attrs,
        })

    def record_request(self, request_class: str, *, ok: bool,
                       latency: float = 0.0) -> None:
        """SLO feed: one finished QUERY/RENEW/PUBLISH request."""
        self.slo.record(request_class, ok=ok, latency=latency)

    def liveness(self, name: str) -> dict[str, float]:
        """Last-seen time per node for heartbeat ``name``."""
        return self._liveness.get(name, {})

    def lease_events(self, kind: str, *, since: float) -> list[tuple[float, str]]:
        """``(time, node)`` lease events of ``kind`` since ``since``."""
        return [(t, node) for t, k, node in self._lease_events
                if k == kind and t >= since]

    # -- lifecycle events --------------------------------------------------

    def on_node_crash(self, node_id: str) -> None:
        """A node failed-stop: mark it and capture its flight recorder."""
        self.note(node_id, "node.crash")
        self.capture_dump("crash", node=node_id)

    def on_node_restart(self, node_id: str) -> None:
        self.note(node_id, "node.restart")

    def on_invariant_violation(self, summary: str) -> None:
        """An invariant sweep failed: dump everything we have."""
        self.metrics.counter("health.invariant_violations").inc()
        self.capture_dump("invariant-violation", detail=summary)

    # -- the tick ----------------------------------------------------------

    def tick(self) -> None:
        """Evaluate watchdogs and SLO burn rates (periodic, sim-time)."""
        now = self.clock()
        raised: list[Alarm] = []
        for watchdog in self.watchdogs:
            raised.extend(watchdog.check(self, now))
        raised.extend(self._check_slo(now))
        for alarm in raised:
            self._raise(alarm)

    def _check_slo(self, now: float) -> list[Alarm]:
        alarms = []
        for status in self.slo.check():
            cls = status.objective.request_class
            if status.breached:
                if cls not in self._slo_breached:
                    self._slo_breached.add(cls)
                    kind = "burn" if status.burn_breached else "latency"
                    alarms.append(Alarm(f"slo-{kind}", "", now, {
                        "class": cls,
                        "fast_burn": round(status.fast_burn, 3),
                        "slow_burn": round(status.slow_burn, 3),
                        "latency": round(status.latency, 4),
                    }))
            else:
                self._slo_breached.discard(cls)
        return alarms

    def _raise(self, alarm: Alarm) -> None:
        self.alarms.append(alarm)
        self.metrics.counter("health.alarms").inc()
        self.metrics.counter(f"health.alarm.{alarm.name}").inc()
        if self.trace is not None:
            self.trace.event(
                "health.alarm",
                node=alarm.node,
                attrs={"alarm": alarm.name, **alarm.details},
            )
        self.capture_dump(alarm.name, node=alarm.node or None)

    # -- dumps -------------------------------------------------------------

    def capture_dump(self, reason: str, *, node: str | None = None,
                     detail: str = "") -> HealthDump:
        """Snapshot flight recorders (one node's, or all) into a dump."""
        if node is not None:
            recorder = self.recorder_for(node)
            jsonl = recorder.dump_jsonl()
            count = len(recorder.records)
        else:
            parts = []
            count = 0
            for node_id in sorted(self.recorders):
                recorder = self.recorders[node_id]
                parts.append(recorder.dump_jsonl())
                count += len(recorder.records)
            jsonl = "\n".join(part for part in parts if part)
        dump = HealthDump(
            reason=reason if not detail else f"{reason}: {detail}",
            node=node or "",
            time=self.clock(),
            jsonl=jsonl,
            records=count,
        )
        self.dumps.append(dump)
        if len(self.dumps) > MAX_DUMPS:
            del self.dumps[0]
        self.metrics.counter("health.dumps").inc()
        return dump

    # -- reporting ---------------------------------------------------------

    def alarm_timeline(self) -> list[dict[str, Any]]:
        """The run's alarms as plain dicts, in firing order."""
        return [
            {"t": a.time, "alarm": a.name, "node": a.node, **a.details}
            for a in self.alarms
        ]

    def snapshot(self) -> dict[str, Any]:
        """Health state for reports: SLOs, alarms, dump inventory."""
        return {
            "slo": self.slo.snapshot(),
            "alarms": self.alarm_timeline(),
            "dumps": [
                {"reason": d.reason, "node": d.node, "t": d.time,
                 "records": d.records}
                for d in self.dumps
            ],
        }
