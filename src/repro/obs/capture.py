"""Canonical traced scenario runs backing ``repro trace``/``repro metrics``.

:func:`run_traced` builds a small, deterministic deployment shaped after
an experiment family, attaches a trace capture before anything runs,
plays a short anchored query workload through it, and returns the
capture and the run's metrics registry. Two calls with the same
``(experiment, seed)`` produce byte-identical
:meth:`~repro.obs.tracing.TraceCapture.export_jsonl` output — the
determinism contract ``make obs-smoke`` enforces.

This module imports the full system stack, which is why it is *not*
re-exported from :mod:`repro.obs` (see that package's docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import AdmissionPolicy
from repro.core.client_node import DiscoveryCall
from repro.core.config import DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.routing import ROUTING_LEAST_LOADED, RoutingConfig
from repro.core.system import DiscoverySystem
from repro.netsim.faults import FaultPlan
from repro.obs.health import HealthConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceCapture
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario

#: Experiment families whose canonical capture is a federated multi-LAN
#: (WAN) deployment; everything else is captured on a single LAN.
MULTI_LAN_EXPERIMENTS = frozenset(
    {"e2", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14", "e15", "e16"}
)

#: A deliberately tiny admission queue: a four-query burst saturates the
#: registry, so the trace shows admission.shed events and query.busy
#: retries (the e17, e18 and e20 captures, and E18's routing trace).
TINY_QUEUE = AdmissionPolicy(query_cost=0.4, queue_limit=1, degrade_at=1.0)


@dataclass
class TracedRun:
    """One finished capture: the system plus its observability artifacts."""

    experiment: str
    system: DiscoverySystem
    capture: TraceCapture
    metrics: MetricsRegistry
    calls: list[DiscoveryCall]
    #: Trace id of the first completed discovery call — the default trace
    #: the CLI renders (None when nothing completed).
    sample_trace: int | None


def run_traced(experiment: str = "e7", seed: int = 0) -> TracedRun:
    """Run the canonical traced capture for ``experiment``.

    The deployment is intentionally small (a few LANs, a handful of
    services, four queries) — the point is a readable trace and a
    representative metrics block, not experiment-scale numbers.
    """
    lans = 3 if experiment in MULTI_LAN_EXPERIMENTS else 1
    config = None
    if experiment == "e17":
        # The overload capture: the metrics block carries the admission.*
        # counters and the registry.queue_depth gauge.
        config = DiscoveryConfig(admission=TINY_QUEUE)
    if experiment == "e20":
        # The health capture: the e17 tiny-queue saturation with the
        # runtime health layer enabled and its thresholds tightened so
        # the four-query burst trips the shed-step row — the trace then
        # shows health.alarm events and the metrics block carries the
        # health.alarms / health.dumps counters.
        config = DiscoveryConfig(
            admission=TINY_QUEUE,
            health=HealthConfig(enabled=True, shed_step_threshold=2,
                                queue_depth_threshold=1.0),
        )
    registries_per_lan = 1
    if experiment == "e19":
        # The recovery capture: durability on, with the registry crashed
        # and restarted mid-capture — the trace then shows the
        # registry.recover span and the metrics block carries the
        # durability.wal_appends / durability.replayed counters.
        config = DiscoveryConfig(durability=DurabilityConfig(enabled=True))
    if experiment == "e18":
        # The routing capture: the e17 tiny-queue saturation plus a
        # sibling registry and the least-loaded strategy, so the trace
        # shows queries rerouting off the saturated registry and the
        # metrics block carries the routing.rtt histogram and the
        # routing.reroutes / routing.busy_observed counters.
        config = DiscoveryConfig(
            admission=TINY_QUEUE, routing=RoutingConfig(strategy=ROUTING_LEAST_LOADED),
        )
        registries_per_lan = 2
    spec = ScenarioSpec(
        lan_names=tuple(f"lan-{chr(ord('a') + i)}" for i in range(lans)),
        registries_per_lan=registries_per_lan,
        services_per_lan=2,
        federation="ring" if lans > 1 else "none",
        seed=seed,
    )
    built = build_scenario(spec, config=config)
    system = built.system
    capture = system.trace.capture()
    # Let bootstrap finish (probes, publishes, first federation round)
    # before the workload starts, so traces show steady-state behavior.
    system.run(until=12.0)
    if experiment == "e19":
        # Crash and restart the registry after bootstrap so the workload
        # below queries the *replayed* store.
        registry = system.registries[0].node_id
        (FaultPlan()
         .crash(system.sim.now + 0.5, registry)
         .restart(system.sim.now + 1.0, registry)
         .apply(system))
        system.run_for(1.5)
    # The tiny-queue captures issue their four queries as a burst.
    interval = 0.05 if experiment in ("e17", "e18", "e20") else 0.5
    calls = [q.call for q in play(built, 4, interval=interval).issued]
    sample = next(
        (c.trace_id for c in calls if c.completed and c.trace_id is not None), None
    )
    return TracedRun(
        experiment=experiment,
        system=system,
        capture=capture,
        metrics=system.metrics,
        calls=calls,
        sample_trace=sample,
    )
