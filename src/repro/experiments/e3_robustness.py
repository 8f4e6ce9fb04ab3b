"""E3 — §3.1/§3.2: robustness to registry failures, random and targeted.

"A completely centralized solution has problems related to robustness,
since we now have a single point of failure." Decentralized systems "are
extremely resilient to both targeted attacks and random failure"; the
federated hybrid should degrade gracefully (clients fail over to
surviving registries; LAN fallback still finds local services).

Four architectures are built on the same multi-LAN scenario; a growing
fraction of their registry population is crashed (uniformly at random, or
targeted highest-degree-first); a fixed query workload then measures
recall against the still-alive service population.
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.core.federation import BREAKER_FAILURE_THRESHOLD
from repro.core.invariants import assert_convergence, assert_invariants, check_convergence
from repro.experiments.common import ExperimentResult, radar
from repro.metrics.retrieval import score_queries
from repro.metrics.topology import degree_of, discovery_graph
from repro.netsim.faults import FaultPlan, removal_order
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids

ARCHITECTURES = ("federated", "cluster", "uddi", "wsd-adhoc")


def run(
    *,
    lans: int = 4,
    services_per_lan: int = 3,
    n_queries: int = 10,
    fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0),
    strategies: tuple[str, ...] = ("random", "targeted"),
    recovery: float = 2.0,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep registry-failure fraction × attack strategy × architecture.

    ``recovery`` is how long (simulated seconds) the system runs between
    the failures and the query workload: ~2 s measures the immediate
    impact; a couple of renew intervals (e.g. 90 s) lets orphaned service
    nodes fail over and republish, measuring the architecture's
    self-healing.
    """
    result = ExperimentResult(
        experiment="E3",
        description="recall under registry failures, random vs targeted (§3)",
    )
    for arch in ARCHITECTURES:
        for strategy in strategies:
            for fraction in fractions:
                if arch == "wsd-adhoc" and fraction > 0.0 and fraction < 1.0:
                    continue  # no registries to fail: endpoints identical
                result.add(**_run_one(arch, strategy, fraction, lans,
                                      services_per_lan, n_queries, recovery, seed))
    result.note(
        "uddi collapses at any failure touching its single registry; "
        "wsd-adhoc is registry-free (immune but LAN-local); federated "
        "degrades gracefully via failover + fallback (paper §3, §4)."
    )
    return result


def _run_one(
    arch: str,
    strategy: str,
    fraction: float,
    lans: int,
    services_per_lan: int,
    n_queries: int,
    recovery: float,
    seed: int,
) -> dict:
    built = build_scenario(ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan,
                                        seed=seed, architecture=arch))
    system = built.system
    system.run(until=12.0)  # bootstrap + a couple of signalling rounds

    registries = [r.node_id for r in system.registries]
    n_kill = round(fraction * len(registries))
    killed: list[str] = []
    if n_kill:
        graph = discovery_graph(system)
        killed = removal_order(
            registries, strategy, rng=system.sim.rng,
            value=lambda nid: degree_of(graph, nid),
        )[:n_kill]
        # A plan executes the crashes so they are scheduled, counted and
        # auditable like every other injected fault.
        plan = FaultPlan()
        for node_id in killed:
            plan.crash(system.sim.now, node_id)
        plan.apply(system)
        system.run_for(recovery)

    issued = play(built, n_queries, settle=1.0, drain=20.0).issued
    alive = frozenset(
        s.profile.service_name for s in system.services if s.alive
    )
    scores = score_queries(issued, alive_only=alive)
    return {
        "arch": arch,
        "attack": strategy,
        "killed_fraction": fraction,
        "registries_killed": len(killed),
        "recall": scores.recall,
        "completed": sum(1 for q in issued if q.call.completed),
        "queries": len(issued),
    }


def canonical_fault_plan(system, *, start: float | None = None) -> FaultPlan:
    """The standard E3/E11 fault scenario: crash + partition + loss burst.

    Relative to ``start`` (default: the system's current time): the first
    registry crashes at +2 s; at +4 s the WAN splits with the first LAN
    isolated from the rest while the isolated LAN also suffers a 40 % loss
    burst for 8 s; everything heals at +14 s and the registry returns at
    +16 s.
    """
    t0 = system.sim.now if start is None else start
    lans = sorted(system.network.lans)
    registry = system.registries[0].node_id
    plan = (
        FaultPlan()
        .crash(t0 + 2.0, registry)
        .loss_burst(t0 + 4.0, 8.0, 0.4, lan=lans[0])
        .restart(t0 + 16.0, registry)
    )
    if len(lans) > 1:
        plan.partition(t0 + 4.0, [[lans[0]], lans[1:]])
        plan.heal(t0 + 14.0)
    return plan


def run_fault_scenario(
    *,
    lans: int = 3,
    services_per_lan: int = 2,
    n_queries: int = 6,
    seed: int = 0,
) -> dict:
    """Run the canonical fault scenario on the federated architecture.

    Builds the E3 federated deployment, applies
    :func:`canonical_fault_plan`, plays a query workload *through* the
    fault window, lets the system quiesce, and asserts the bookkeeping
    invariants. Deterministic: the same seed returns an identical snapshot
    on every invocation.

    Returns a dict with the fault history counts, traffic snapshot, and
    completed-query count — the experiment row a robustness report cites.
    """
    built = build_scenario(ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan,
                                        seed=seed))
    system = built.system
    system.run(until=12.0)

    plan = canonical_fault_plan(system)
    applied = plan.apply(system)

    issued = play(built, n_queries, interval=2.0, settle=1.0, drain=30.0).issued
    # Let retries, renew cycles, and purge timers settle before sweeping.
    system.run_for(2 * system.config.lease_duration)
    assert_invariants(system)

    return {
        "faults": applied.counts(),
        "traffic": system.traffic(),
        "completed": sum(1 for q in issued if q.call.completed),
        "queries": len(issued),
        "alive_registries": sum(1 for r in system.registries if r.alive),
        "recoveries": system.network.metrics.tallies("recovery"),
    }


def run_convergence_scenario(
    *,
    lans: int = 3,
    services_per_lan: int = 2,
    interval: float = 5.0,
    max_rounds: int = 6,
    seed: int = 0,
) -> dict:
    """Partition a replicated cluster, diverge it, heal, and count the
    anti-entropy rounds until every live store agrees.

    The first LAN is split from the rest long enough for the federation
    failure detector to sever the links; new services publish on *both*
    sides mid-partition, so the replicas genuinely diverge. After the
    heal, the system is advanced one anti-entropy interval at a time
    until :func:`~repro.core.invariants.check_convergence` comes back
    clean — the bounded-round reconvergence the reconciliation protocol
    promises (asserted ≤ ``max_rounds``).
    """
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan, seed=seed,
                        architecture="cluster")
    built = build_scenario(spec, config=DiscoveryConfig(antientropy_interval=interval))
    system = built.system
    system.run(until=12.0)

    lan_names = sorted(system.network.lans)
    t0 = system.sim.now
    plan = (
        FaultPlan()
        .partition(t0 + 1.0, [[lan_names[0]], lan_names[1:]])
        .heal(t0 + 21.0)
    )
    applied = plan.apply(system)
    system.run_for(5.0)
    # Mid-partition publishes on both sides: replication floods cannot
    # cross the split, so the stores diverge for real.
    system.add_service(lan_names[0], radar("split-a"))
    system.add_service(lan_names[1], ServiceProfile.build(
        "split-b", "ncw:SensorService", outputs=["ncw:Track"]))
    system.run_for(17.0)  # rest of the partition + the heal

    diverged = bool(check_convergence(system))
    rounds = 0
    while rounds < max_rounds and check_convergence(system):
        system.run_for(interval)
        rounds += 1
    assert_convergence(system)
    assert_invariants(system)

    counters = {}
    for registry in system.registries:
        for key, value in registry.antientropy.counters().items():
            counters[key] = counters.get(key, 0) + value
    return {
        "faults": applied.counts(),
        "diverged_after_heal": diverged,
        "rounds_to_converge": rounds,
        "max_rounds": max_rounds,
        "antientropy": counters,
        "recoveries": system.network.metrics.tallies("recovery"),
    }


def run_degraded_latency(
    *,
    services_per_lan: int = 2,
    n_queries: int = 8,
    seed: int = 0,
) -> dict:
    """Query latency against a crashed neighbor, before and after the
    circuit breaker opens.

    Two federated LANs; the remote registry is crashed with the ping
    interval stretched far beyond the measurement window, so the missed-
    pong detector never drops the link — isolating the breaker's effect.
    The first ``BREAKER_FAILURE_THRESHOLD`` degraded queries each ride
    out the full aggregation timeout; once the breaker opens, the fan-out
    skips the dead neighbor and queries complete at healthy-path latency
    again. Only a pong closes the breaker, and the crashed neighbor sends
    none, so it stays open to the end.
    """
    config = DiscoveryConfig(
        ping_interval=120.0,
        signalling_interval=None,
        aggregation_timeout=0.5,
    )
    spec = ScenarioSpec(lan_names=lan_ids(2), services_per_lan=services_per_lan, seed=seed)
    built = build_scenario(spec, config=config)
    system = built.system
    system.run(until=6.0)

    client = system.clients[0]
    anchor = built.profiles[0]
    request = ServiceRequest.build(anchor.category, outputs=list(anchor.outputs))
    remote = system.registries[1]

    def measure(count: int) -> list[float]:
        latencies = []
        for _ in range(count):
            call = system.discover(client, request, timeout=10.0)
            latencies.append(call.latency if call.completed else 10.0)
            system.run_for(0.5)
        return latencies

    healthy = measure(n_queries)
    remote.crash()
    degraded = measure(BREAKER_FAILURE_THRESHOLD)
    after_open = measure(n_queries)
    assert_invariants(system)

    return {
        "healthy_mean": sum(healthy) / len(healthy),
        "degraded_mean": sum(degraded) / len(degraded),
        "after_open_mean": sum(after_open) / len(after_open),
        "aggregation_timeout": config.aggregation_timeout,
        "breaker_states": system.registries[0].federation.breaker_states(),
        "recoveries": system.network.metrics.tallies("recovery"),
    }
