"""E4 — §4.8/§2: aliveness information vs stale advertisements.

"To prevent non-existent services from being discovered, aliveness
information should be used to delete old service advertisements from the
registry … Lack of such mechanisms is a major problem with today's
technologies for Web Service discovery" — naming UDDI (no leasing, relies
on active deregistration) and proxy-mode WS-Discovery.

Service nodes churn (crash permanently) while each architecture runs;
afterwards we measure

* registry staleness — fraction of stored advertisements naming dead
  services, and
* response staleness — fraction of hits returned to clients naming dead
  services ("should not return obsolete service descriptions").

Architectures: the paper's federated registries with leasing, the same
with leasing disabled (ablation isolating the mechanism), UDDI, and
WS-Discovery in ad hoc mode (no registry: always fresh by construction)
and managed mode (proxy without leasing: stale like UDDI).
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult
from repro.metrics.staleness import registry_staleness, response_staleness
from repro.semantics.generator import emergency_ontology
from repro.netsim.faults import FaultPlan
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

ARCHITECTURES = ("leasing", "no-leasing", "uddi", "wsd-proxy", "wsd-adhoc")

#: Short leases so expiry effects appear within a short run.
LEASE = 10.0

#: The two leasing ablations of the federated architecture; every other
#: entry of :data:`ARCHITECTURES` names a row of the architecture table.
ABLATIONS = {
    "leasing": DiscoveryConfig(lease_duration=LEASE, purge_interval=2.0),
    "no-leasing": DiscoveryConfig(lease_duration=LEASE, purge_interval=2.0,
                                  leasing_enabled=False),
}


def run(
    *,
    n_services: int = 10,
    churn_rates: tuple[float, ...] = (0.05, 0.2),
    churn_window: float = 120.0,
    n_queries: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep churn rate × architecture; report both staleness measures."""
    result = ExperimentResult(
        experiment="E4",
        description="stale advertisements under churn: leasing vs none (§4.8)",
    )
    for rate in churn_rates:
        for arch in ARCHITECTURES:
            result.add(**_run_one(arch, rate, n_services, churn_window,
                                  n_queries, seed))
    result.note(
        "leasing bounds staleness by lease duration; without it (uddi, "
        "wsd-proxy, no-leasing ablation) dead services linger forever."
    )
    return result


def _run_one(
    arch: str,
    rate: float,
    n_services: int,
    churn_window: float,
    n_queries: int,
    seed: int,
) -> dict:
    spec = ScenarioSpec(
        lan_names=lans(1),
        ontology_factory=emergency_ontology,
        services_per_lan=n_services,
        federation="none",
        seed=seed,
        architecture="federated" if arch in ABLATIONS else arch,
    )
    built = build_scenario(spec, config=ABLATIONS.get(arch, DiscoveryConfig(lease_duration=LEASE)))
    system = built.system
    system.run(until=3.0)
    # A fixed fault schedule, not a live churn process: every architecture
    # in the comparison sees byte-identical crashes at identical instants
    # (the plan's randomness is consumed at build time from its own RNG).
    plan = FaultPlan.churn(
        [s.node_id for s in built.services], rate=rate, window=churn_window,
        seed=seed, mean_downtime=None, start=system.sim.now,
    )
    plan.apply(system)
    system.run_for(churn_window)
    # Let leases of the last victims expire before sampling.
    system.run_for(2 * LEASE)

    names = {s.node_id: s.profile.service_name for s in built.services}
    dead = frozenset(
        names[action.node_id]
        for action in plan.actions()
        if action.kind == "crash"
    )
    reg_staleness = registry_staleness(system)

    issued = play(built, n_queries, settle=0.5, drain=15.0).issued
    dead_at_completion = {
        q.call.query_id: dead for q in issued if q.call.completed
    }
    resp_staleness = response_staleness(issued, dead_at_completion)
    return {
        "arch": arch,
        "churn_per_s": rate,
        "services_dead": len(dead),
        "services_total": n_services,
        "registry_staleness": reg_staleness,
        "response_staleness": resp_staleness,
    }
