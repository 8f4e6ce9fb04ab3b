"""E8 — §4.9: query forwarding strategies in the registry network.

"Several different strategies … can be used, including increasing the
reach of a query gradually in several rounds, random walks, or
broadcasting in the registry network."

The same ring-federated deployment runs the workload under each strategy.
Expected shape (and the paper's point about deterministic coverage):

* flooding — full recall, the most forwarded-query bytes;
* expanding ring — near-full recall, cheaper when matches are nearby, at
  extra latency from the rounds;
* random walk — the cheapest, but lossy: "all available advertisements
  should be queried in a deterministic way, not in a random way that does
  not guarantee discovery" — services are unique, so the walk's misses
  are real misses;
* informed — our instantiation of the paper's "summary information about
  the advertisements present in a registry": gossiped content summaries
  route each query directly to the registries that plausibly hold
  matches. Near-flooding recall at near-walk cost, paid for in summary
  gossip bytes and staleness risk.
"""

from __future__ import annotations

from repro.core.config import (
    DiscoveryConfig,
    STRATEGY_EXPANDING_RING,
    STRATEGY_FLOODING,
    STRATEGY_INFORMED,
    STRATEGY_RANDOM_WALK,
)
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.retrieval import score_queries
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids

STRATEGIES = (STRATEGY_FLOODING, STRATEGY_EXPANDING_RING,
              STRATEGY_RANDOM_WALK, STRATEGY_INFORMED)


def run(
    *,
    lans: int = 6,
    services_per_lan: int = 2,
    n_queries: int = 12,
    max_results: int | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Compare the three strategies on one ring-federated deployment."""
    result = ExperimentResult(
        experiment="E8",
        description="query forwarding strategies: flood vs ring vs walk (§4.9)",
    )
    for strategy in STRATEGIES:
        result.add(**_run_one(strategy, lans, services_per_lan, n_queries,
                              max_results, seed))
    result.note(
        "flooding gives deterministic full coverage; the walk is cheap "
        "but misses unique services — the paper's argument against "
        "random querying for service discovery."
    )
    return result


def _run_one(
    strategy: str,
    lans: int,
    services_per_lan: int,
    n_queries: int,
    max_results: int | None,
    seed: int,
) -> dict:
    config = DiscoveryConfig(
        strategy=strategy,
        default_ttl=lans,  # the ring diameter: also the last ring round and the walk length
        aggregation_timeout=0.5,
        signalling_interval=5.0,   # informed routing needs summary gossip
    )
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan, seed=seed)
    built = build_scenario(spec, config=config)
    system = built.system
    # Long enough for content summaries to gossip across the ring's
    # diameter (one hop per signalling round).
    system.run(until=6.0 * lans)
    played = play(built, n_queries, interval=1.0, drain=20.0, max_results=max_results)
    completed = played.completed
    by_type = played.window.bytes_by_type()
    return {
        "strategy": strategy,
        "recall": score_queries(played.issued).recall,
        "completed": len(completed),
        "query_bytes_per_q": played.window.query_bytes() / max(len(completed), 1),
        "forward_bytes": by_type.get("query-forward", 0) + by_type.get("walk", 0),
        "mean_latency": mean(q.call.latency for q in completed),
    }
