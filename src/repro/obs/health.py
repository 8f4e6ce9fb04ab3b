"""Runtime health: flight recorders, SLO windows, and one table of alarm rows.

The observability built in earlier PRs is *post-hoc*: whole-run traces
and cumulative metrics answer "what happened" after the fact. A dynamic
deployment — the paper's whole premise — also needs "is the system
healthy right now, and how much headroom is left". This module is that
runtime layer:

* :class:`FlightRecorder` — a bounded per-node ring of recent spans,
  events, and state transitions. Cheap enough to leave on, dumpable on
  demand and dumped automatically on crash, invariant violation, or
  alarm: the forensic "last N records before the incident" without
  whole-run trace cost.
* :class:`Detector` — one alarm row: a name, a help line, what it reads,
  its window and threshold, and a condition. :func:`detectors` is the
  table, one row per failure mode the experiments inject (the five
  registry-transience detectors, then the SLO burn-rate check over a
  :class:`~repro.obs.slo.SLOTracker`'s windows).
* :class:`HealthMonitor` — owns the recorders, the SLO windows and the
  table, and evaluates every row on a periodic sim-time tick. The tick
  keeps the only rising-edge bookkeeping, keyed by (row, scope key): a
  key that stays tripped across many ticks raises one alarm when it trips
  and re-arms after it clears, so a dead registry produces one staleness
  alarm, not one per second.

**Absent unless enabled.** A deployment builds a monitor only where its
:class:`HealthConfig` has ``enabled=True``. Under the default
``DiscoverySystem.health`` is ``None``: no tick is scheduled, no trace
observer is registered, and nobody asks whether the layer is on. A
monitor that exists is on.

Determinism: the rows read only the injected sim-time clock, the metrics
registry, the trace records the monitor observes and the few feeds that
have no trace record to listen to; the tick never touches the simulator
RNG. Same-seed runs therefore produce identical alarm streams and
byte-identical flight-recorder dumps.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.slo import (
    BURN_THRESHOLD,
    CLASS_PUBLISH,
    CLASS_QUERY,
    CLASS_RENEW,
    FAST_WINDOW,
    MIN_SAMPLES,
    SLOObjective,
    SLOTracker,
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


#: Detector windows (sim-seconds): queue-depth mean, shed count, lease
#: expiries.
QUEUE_WINDOW = 5.0
SHED_WINDOW = 5.0
LEASE_WINDOW = 10.0
#: Seconds between health ticks (every row evaluated on each).
TICK_INTERVAL = 1.0
#: Lease-expiry spike: expiries within :data:`LEASE_WINDOW`.
LEASE_EXPIRY_SPIKE = 3
#: Anti-entropy staleness: silence bound for a registry's rounds (four
#: missed rounds at a 2 s ``antientropy_interval``).
ANTIENTROPY_STALE_AFTER = 8.0

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
    #: Queue-depth growth: time-weighted mean depth over
    #: :data:`QUEUE_WINDOW`.
    queue_depth_threshold: float = 8.0
    #: Shed-rate step: sheds within :data:`SHED_WINDOW`.
    shed_step_threshold: int = 10


@dataclass(frozen=True)
class Alarm:
    """One detector row firing at a point in sim time."""

    name: str
    node: str
    time: float
    details: dict[str, Any] = field(default_factory=dict)


#: What a condition returns per scope key (a node id, a request class, or
#: ``""`` for the whole run): the alarm the key is tripped into, ``None``
#: when clear; the node the alarm names; its details.
Verdicts = dict[str, tuple["str | None", str, dict[str, Any]]]


@dataclass(frozen=True)
class Detector:
    """One row of the alarm table.

    ``condition(monitor, row, now)`` judges every scope key the row
    watches. A row raises the alarm named after it, except where
    ``alarms`` lists the names its condition picks from. ``selftest``
    names the test in ``tests/test_health.py`` that trips the row, asserts
    its alarm names and counters, and re-arms it.
    """

    name: str
    help: str
    #: The instrument, trace record or feed the condition reads.
    reads: str
    window: float
    threshold: float
    condition: Callable[["HealthMonitor", "Detector", float], Verdicts]
    selftest: str
    alarms: tuple[str, ...] = ()

    @property
    def raises(self) -> tuple[str, ...]:
        return self.alarms or (self.name,)


def _still_rising(monitor: "HealthMonitor", row: Detector, now: float) -> Verdicts:
    """The gauge's time-weighted mean over the window at or above the
    threshold, and the gauge no lower than that mean."""
    gauge = monitor.metrics.gauges.get(row.reads)
    if gauge is None:
        return {}
    mean = gauge.mean_over(row.window, now=now)
    tripped = mean >= row.threshold and gauge.value >= mean
    return {"": (row.name if tripped else None, "",
                 {"mean_depth": round(mean, 3), "depth": gauge.value})}


def _counter_rise(monitor: "HealthMonitor", row: Detector, now: float) -> Verdicts:
    """The counter rose by at least the threshold over the window,
    measured from the row's oldest sample inside it."""
    counter = monitor.metrics.counters.get(row.reads)
    value = counter.value if counter else 0
    samples = monitor._samples[row.name]
    samples.append((now, value))
    horizon = now - row.window
    while samples[0][0] < horizon:
        samples.popleft()
    rise = value - samples[0][1]
    return {"": (row.name if rise >= row.threshold else None, "", {"shed_in_window": rise})}


def _silent(monitor: "HealthMonitor", row: Detector, now: float) -> Verdicts:
    """Per node: no heartbeat within the window since the last one heard."""
    return {
        node: (row.name if now - last >= row.window else None, node,
               {"silent_for": round(now - last, 3)})
        for node, last in sorted(monitor._liveness.get(row.reads, {}).items())
    }


def _burst(monitor: "HealthMonitor", row: Detector, now: float) -> Verdicts:
    """At least the threshold of the trace events within the window; the
    alarm names the node when one node logged them all."""
    since = now - row.window
    heard = [node for t, name, node in monitor._lease_events
             if name == row.reads and t >= since]
    nodes = sorted(set(heard))
    return {"": (row.name if len(heard) >= row.threshold else None,
                 nodes[0] if len(nodes) == 1 else "",
                 {"expiries_in_window": len(heard), "nodes": nodes})}


def _slo_breach(monitor: "HealthMonitor", row: Detector, now: float) -> Verdicts:
    """Per request class, with at least :data:`MIN_SAMPLES` in the fast
    window: ``slo-burn`` when the error budget burns at the threshold in
    both the fast and the slow window, else ``slo-latency`` when the fast
    window's latency percentile is over target."""
    verdicts: Verdicts = {}
    for cls, ring in monitor.slo.windows.items():
        fast_burn, fast_n = ring.burn(row.window, now)
        slow_burn, _ = ring.burn(monitor.slo.slow_window, now)
        latency = ring.latency(row.window, now)
        alarm = None
        if fast_n >= MIN_SAMPLES:
            if fast_burn >= row.threshold and slow_burn >= row.threshold:
                alarm = "slo-burn"
            elif latency > ring.objective.latency_target:
                alarm = "slo-latency"
        verdicts[cls] = (alarm, "", {
            "class": cls, "fast_burn": round(fast_burn, 3),
            "slow_burn": round(slow_burn, 3), "latency": round(latency, 4),
        })
    return verdicts


def detectors(config: HealthConfig) -> tuple[Detector, ...]:
    """The alarm table in evaluation order, which is also the order of the
    alarms one tick raises."""
    return (
        Detector("queue-growth",
                 "admission queue deep and still growing: an overload flood, "
                 "before goodput collapses",
                 "registry.queue_depth", QUEUE_WINDOW, config.queue_depth_threshold,
                 _still_rising, "test_queue_growth_uses_time_weighted_mean"),
        Detector("antientropy-stale",
                 "a replicating registry's reconciliation rounds gone quiet: "
                 "the node is dead or its periodic machinery wedged",
                 "antientropy-round", ANTIENTROPY_STALE_AFTER, 1, _silent,
                 "test_antientropy_staleness_per_node_and_rearms"),
        Detector("lease-expiry-spike",
                 "a burst of lease expiries: renewals are not landing",
                 "lease.expire", LEASE_WINDOW, LEASE_EXPIRY_SPIKE, _burst,
                 "test_lease_expiry_spike_names_single_source_node"),
        Detector("shed-step", "the admission controller started refusing work",
                 "admission.shed", SHED_WINDOW, config.shed_step_threshold,
                 _counter_rise,
                 "test_shed_step_fires_on_rising_edge_only"),
        Detector("slo",
                 "a request class's error budget burning in both windows, or "
                 "its latency percentile over target",
                 "record_request", FAST_WINDOW, BURN_THRESHOLD, _slo_breach,
                 "test_slo_burn_breaches_in_both_windows",
                 alarms=("slo-burn", "slo-latency")),
    )


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
    """The per-run health brain: recorders + SLO windows + the alarm table.

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
        self.slo = SLOTracker(clock, objectives=DEFAULT_OBJECTIVES)
        self.detectors = detectors(config)
        #: The (row name, scope key) pairs tripped at the last tick.
        self._tripped: set[tuple[str, str]] = set()
        #: What the rows read beside the metrics: the last heartbeat per
        #: node by record name, the lease lifecycle ``(t, name, node)``,
        #: and each counter row's ``(t, value)`` samples.
        self._liveness: dict[str, dict[str, float]] = {}
        self._lease_events: deque[tuple[float, str, str]] = deque(maxlen=4096)
        self._samples: defaultdict[str, deque[tuple[float, int]]] = defaultdict(
            partial(deque, maxlen=4096))

    def attach(self, sim: "Simulator") -> None:
        """Listen to the run's trace and arm the periodic tick."""
        self.trace = sim.trace
        sim.trace.listen(self._on_trace_record)
        sim.every(TICK_INTERVAL, self.tick)

    # -- feeds -------------------------------------------------------------

    def _on_trace_record(self, record: dict[str, Any]) -> None:
        """Trace observer: mirror every span/event into its node's ring,
        and keep what the rows ask about — a registry's lease lifecycle
        (``lease.<kind>``) and its anti-entropy heartbeat."""
        node = record.get("node") or ""
        self.recorder_for(node).note(record)
        name = record["name"]
        if name.startswith("lease."):
            self._lease_events.append((record["t"], name, node))
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
        """Evaluate every row (periodic, sim-time); raise an alarm for each
        (row, scope key) that tripped since the last tick, in table order."""
        now = self.clock()
        raised: list[Alarm] = []
        for row in self.detectors:
            for key, (alarm, node, details) in row.condition(self, row, now).items():
                edge = (row.name, key)
                if alarm is None:
                    self._tripped.discard(edge)
                elif edge not in self._tripped:
                    self._tripped.add(edge)
                    raised.append(Alarm(alarm, node, now, details))
        for alarm in raised:
            self._raise(alarm)

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
