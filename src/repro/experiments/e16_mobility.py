"""E16 (extension) — roaming nodes in a multi-LAN deployment.

Dynamic environments are not only about churn: the paper's crisis scenario
has "members from several agencies, potentially at different locations"
whose devices join whatever segment they are near. This experiment roams
service nodes between LANs at increasing rates and measures how well
discovery tracks them:

* recall against the *current* placement (queries must find services
  wherever they are now),
* the publish/renew overhead mobility induces (each move costs a probe,
  a republish burst, and leaves a lease to lapse at the old registry),
* stale responses (hits naming a service's *old* registry record that has
  not lapsed yet — bounded by the lease, exactly like crash staleness).
"""

from __future__ import annotations

import random

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.retrieval import score_queries
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids


def run(
    *,
    lans: int = 3,
    services_per_lan: int = 2,
    move_intervals: tuple[float | None, ...] = (None, 30.0, 10.0),
    n_queries: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep the roaming rate (``None`` = static baseline)."""
    result = ExperimentResult(
        experiment="E16",
        description="roaming services: discovery tracks mobility via leases",
    )
    for interval in move_intervals:
        result.add(**_run_one(interval, lans, services_per_lan, n_queries, seed))
    result.note(
        "each move is a re-bootstrap on the new LAN; leases erase the old "
        "record within one lease duration, so recall stays high while "
        "maintenance bytes grow with the roaming rate."
    )
    return result


def _run_one(move_interval: float | None, lans: int, services_per_lan: int,
             n_queries: int, seed: int) -> dict:
    config = DiscoveryConfig(
        lease_duration=8.0, purge_interval=1.0, beacon_interval=2.0,
        aggregation_timeout=0.3, query_timeout=3.0,
    )
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan, seed=seed)
    built = build_scenario(spec, config=config)
    system = built.system
    system.run(until=5.0)

    moves = 0
    if move_interval is not None:
        rng = random.Random(seed)

        def roam() -> None:
            nonlocal moves
            service = built.services[rng.randrange(len(built.services))]
            if not service.alive:
                return
            others = [name for name in spec.lan_names if name != service.lan_name]
            system.move(service, rng.choice(others))
            moves += 1

        system.sim.every(move_interval, roam)

    played = play(built, n_queries, interval=6.0, settle=2.0, drain=15.0)
    return {
        "move_interval": move_interval if move_interval is not None else "static",
        "moves": moves,
        "recall": score_queries(played.issued).recall,
        "completed": len(played.completed),
        "maintenance_bytes_per_s": played.window.maintenance_bytes() / played.traffic["duration"],
        "mean_latency": mean(q.call.latency for q in played.completed),
    }
