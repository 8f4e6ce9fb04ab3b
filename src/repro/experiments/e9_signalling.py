"""E9 — §4.5/§4.9: registry signalling and failover cost.

"Once connected to a registry node that in turn is connected to other
registry nodes on the WAN, it is possible to use what we call registry
signalling to provide the client node with alternative registry nodes'
addresses. These addresses may be used in the event of failure, and may
help reduce the amount of tedious, manual reconfiguration of registry
endpoints."

One client's local registry is crashed mid-run. With signalling the
client's alternatives cache (primed by registry-list exchanges) lets it
fail over with a single unicast re-dispatch; without signalling it knows
nothing beyond its LAN, so after the timeout it can only multicast-probe
(finding nothing locally) and drop to the LAN fallback — losing all
remote services.

Reported: post-crash success and recall, attempts used, failover latency,
and probes sent.
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.retrieval import score_queries
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids


def run(
    *,
    lans: int = 3,
    services_per_lan: int = 2,
    n_queries: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """Compare failover with and without registry signalling."""
    result = ExperimentResult(
        experiment="E9",
        description="failover via registry signalling vs re-bootstrap (§4.5)",
    )
    for signalling in (True, False):
        result.add(**_run_one(signalling, lans, services_per_lan, n_queries, seed))
    result.note(
        "with signalling, failover is one unicast re-dispatch to a cached "
        "alternative; without it the client re-probes its LAN, finds "
        "nothing, and degrades to LAN-local fallback."
    )
    return result


def _run_one(signalling: bool, lans: int, services_per_lan: int,
             n_queries: int, seed: int) -> dict:
    config = DiscoveryConfig(
        signalling_interval=10.0 if signalling else None,
        query_timeout=2.0,
        aggregation_timeout=0.3,  # keep dead-branch waits under the timeout
        lease_duration=15.0,      # orphaned services fail over within the run
        purge_interval=3.0,
    )
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan, seed=seed)
    built = build_scenario(spec, config=config)
    system = built.system
    system.run(until=15.0)  # a signalling round must have happened

    client = system.clients[0]
    victim = client.tracker.current
    assert victim is not None
    probes_before = client.tracker.probes_sent
    system.network.node(victim).crash()
    system.run_for(0.5)

    played = play(built, n_queries, interval=1.0, drain=20.0, clients=[client])
    completed = played.completed
    return {
        "signalling": "on" if signalling else "off",
        "killed": victim,
        "completed": len(completed),
        "recall": score_queries(played.issued).recall,
        "mean_attempts": mean(q.call.attempts for q in completed),
        "first_query_latency": completed[0].call.latency if completed else None,
        "probes_after_crash": client.tracker.probes_sent - probes_before,
        "failovers": client.tracker.failovers,
    }
