"""E2 — §3.1/§3.2: query response control and "response implosion".

"This lack of query response control can at worst, if a query is too
broad, lead to 'response implosion' at the querying node … Of course, the
number of responses from each node can be limited, but still, query
response control is very coarse-grained."

One broad query (a top-level service category, matching most of the
population) is issued under both topologies while sweeping the
``max_results`` cap:

* decentralized — every matching provider answers; the client receives
  one response message per provider no matter what the cap is (each
  provider can only cap *its own* answers: coarse-grained control);
* registry — the registry selects; the client receives one response
  message containing at most ``max_results`` hits (fine-grained control
  that also "relieves constrained clients" of selection work).
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult
from repro.semantics.profiles import ServiceRequest
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

#: A deliberately broad request: the root service category.
BROAD_CATEGORY = "ncw:Service"


def run(
    *,
    n_services: int = 16,
    caps: tuple[int | None, ...] = (None, 1, 3, 5),
    seed: int = 0,
) -> ExperimentResult:
    """Sweep the response cap under both topologies."""
    result = ExperimentResult(
        experiment="E2",
        description="query response control vs response implosion (§3.1)",
    )
    for arch in ("decentralized", "registry"):
        for cap in caps:
            result.add(**_run_one(arch, cap, n_services, seed))
    result.note(
        "decentralized response count tracks the matching population "
        "regardless of the cap (implosion); a registry returns one "
        "message with at most max_results hits."
    )
    return result


def _run_one(arch: str, cap: int | None, n_services: int, seed: int) -> dict:
    spec = ScenarioSpec(
        lan_names=lans(1),
        registries_per_lan=1 if arch == "registry" else 0,
        services_per_lan=n_services,
        federation="none",
        seed=seed,
    )
    built = build_scenario(
        spec,
        config=DiscoveryConfig(fallback_timeout=1.0),
        with_registries=(arch == "registry"),
    )
    system = built.system
    system.run(until=2.0)
    request = ServiceRequest.build(BROAD_CATEGORY, max_results=cap)
    client = system.clients[0]
    call = system.discover(client, request)
    return {
        "arch": arch,
        "max_results": cap if cap is not None else "none",
        "matching_services": sum(
            1 for p in built.profiles  # every service category is under the root
        ),
        "response_messages": call.responses,
        "hits_returned": len(call.hits),
        "response_bytes": call.response_bytes,
    }
