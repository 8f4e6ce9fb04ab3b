"""E17 — overload protection: admission control and priority shedding.

E1 established that registries are where the architecture concentrates
load; this experiment asks what happens when that load *exceeds* a
registry's service capacity. A two-LAN federated deployment is flooded
with client queries at an offered load swept from half to four times the
registries' aggregate service capacity, under two admission policies:

* **shedding** — the bounded priority queue of
  :mod:`repro.core.admission`: renews outrank publishes outrank queries
  outrank forwarded work, overflow is answered with ``BUSY(retry_after)``,
  and past the degrade threshold the registry skips WAN fan-out and
  serves local hits marked ``degraded=True``;
* **baseline** — the same service-time costs with an *unbounded FIFO*
  queue: nothing is shed, nothing degrades, everything just waits.

The headline metric is **lease-renew survival at the end of the flood
window**: the fraction of live services whose advertisement is still
present in some live registry store. The priority queue keeps renews
flowing through saturation (survival stays ≳ 0.9 at 4× load); the FIFO
baseline queues renews behind tens of seconds of query backlog, leases
expire, and the store collapses (survival drops below 0.5) — the
soft-state failure mode the paper's aliveness argument warns about.
Goodput and p99 latency across the sweep show the second story: explicit
BUSY back-off plus sibling failover plus the decentralized LAN fallback
keep completed-query goodput on a plateau instead of a cliff.

Determinism: the flood schedule uses an experiment-local
``random.Random`` for client choice (the simulator RNG stream is never
touched), so a fixed seed reproduces every number exactly.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.admission import RETRY_AFTER_BASE, AdmissionPolicy
from repro.core.config import DiscoveryConfig
from repro.core.invariants import assert_invariants
from repro.core.retry import RetryPolicy
from repro.experiments.common import ExperimentResult, schedule_discovers
from repro.obs.report import build_capacity_report, write_report
from repro.workloads.queries import QueryWorkload
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

MODES = ("shedding", "baseline")
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: Service-time costs shared by both policies: 0.1 s per locally issued
#: query (10 queries/s of registry capacity), half that for forwarded
#: work, and cheap bookkeeping for publishes and renews.
_COSTS = dict(
    query_cost=0.1,
    forward_cost=0.05,
    publish_cost=0.02,
    renew_cost=0.01,
    sync_cost=0.01,
)


def shedding_policy() -> AdmissionPolicy:
    """Bounded priority queue with BUSY shedding and degraded mode."""
    return AdmissionPolicy(
        queue_limit=32,
        prioritized=True,
        degrade_at=0.5,
        **_COSTS,
    )


def baseline_policy() -> AdmissionPolicy:
    """The shed-less control: same costs, unbounded FIFO, no degradation."""
    return AdmissionPolicy(
        queue_limit=None,
        prioritized=False,
        **_COSTS,
    )


def _config(policy: AdmissionPolicy) -> DiscoveryConfig:
    """A fast-clock deployment so a 10 s flood spans several lease cycles."""
    return DiscoveryConfig(
        lease_duration=6.0,
        renew_fraction=0.5,
        purge_interval=1.5,
        default_ttl=1,
        aggregation_timeout=0.5,
        query_timeout=3.0,
        fallback_timeout=0.25,
        beacon_interval=2.0,
        signalling_interval=None,
        ping_interval=2.0,
        admission=policy,
        renew_retry=RetryPolicy(base=0.5, cap=2.0, max_attempts=3),
    )


#: The flooded deployment E17 and E18 build on (each adds lan-0 siblings).
FLOOD_SPEC = ScenarioSpec(lan_names=lans(2), services_per_lan=5, clients_per_lan=4,
                          federation="chain", model_ids=("semantic",))


def _build(mode: str, seed: int):
    policy = shedding_policy() if mode == "shedding" else baseline_policy()
    spec = replace(FLOOD_SPEC, seed=seed)
    built = build_scenario(spec, config=_config(policy))
    # A sibling registry on the flooded LAN: client hashing spreads the
    # offered load across both, and BUSY-driven failover has somewhere
    # local to go before resorting to the decentralized fallback.
    built.system.add_registry("lan-0", model_ids=spec.model_ids)
    return built


def _renew_survival(system) -> float:
    """Fraction of live services still advertised in some live registry.

    The soft-state health metric: a service "survives" the overload
    window if at least one live registry still stores an advertisement
    naming it — i.e. its lease renewals kept landing.
    """
    alive = [s for s in system.services if s.alive]
    if not alive:
        return 1.0
    advertised: set[str] = set()
    for registry in system.registries:
        if not registry.alive:
            continue
        for ad in registry.store.all():
            advertised.add(ad.service_node)
    survived = sum(1 for s in alive if s.node_id in advertised)
    return survived / len(alive)


def _p99(values: list[float]) -> float:
    """The 99th percentile (nearest-rank); 0.0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(0.99 * len(ordered)) - 1))
    return ordered[index]


def _offer_flood(built, clients, rate: float, *, window: float, seed: int):
    """Offer ``rate`` queries/s through ``clients`` for ``window`` seconds.

    Measures at the window's end — *before* the backlog drains — then
    lets every queue empty and every call resolve and asserts the
    invariants. Returns ``(issued, renew_survival, ok_in_window,
    completed_in_window)``.
    """
    system = built.system
    count = max(1, round(rate * window))
    interval = window / count
    requests = QueryWorkload.anchored(
        built.generator, built.profiles, min(count, 64), generalize=1
    ).labelled
    rng = random.Random(seed)
    t0 = system.sim.now
    issued = schedule_discovers(system, (
        (t0 + i * interval, clients[rng.randrange(len(clients))],
         requests[i % len(requests)].request)
        for i in range(count)
    ))
    system.run(until=t0 + window)
    renew_survival = _renew_survival(system)
    ok_in_window = sum(1 for call in issued if call.completed and call.hits)
    completed_in_window = sum(1 for call in issued if call.completed)
    backlog = max(
        (r.admission.backlog_cost for r in system.registries), default=0.0
    )
    system.run_for(30.0 + 2.0 * backlog)
    assert_invariants(system)
    return issued, renew_survival, ok_in_window, completed_in_window


def _run_flood(
    mode: str,
    multiplier: float,
    *,
    seed: int,
    window: float = 10.0,
) -> tuple[dict, list[tuple[int, float]]]:
    """Flood one deployment at ``multiplier`` × capacity for ``window`` s.

    Returns the experiment row — window-end renew survival and goodput,
    post-drain success ratio and latency percentiles, and the admission
    counters — plus the combined shed log (``(queue_depth, retry_after)``
    pairs) of every registry, which the smoke asserts is monotone.
    Invariants (including queue drain) are asserted after the backlog has
    fully drained.
    """
    built = _build(mode, seed)
    system = built.system
    system.run(until=8.0)  # bootstrap: probes, publishes, first renews

    capacity_qps = len(system.registries) / system.config.admission.query_cost
    rate = multiplier * capacity_qps
    issued, renew_survival, ok_in_window, completed_in_window = _offer_flood(
        built, list(system.clients), rate, window=window, seed=seed)

    shed = sum(r.admission.shed for r in system.registries)
    busy = sum(r.admission.busy_sent for r in system.registries)
    max_depth = max((r.admission.max_depth for r in system.registries),
                    default=0)
    degraded_answers = system.network.metrics.counter("admission.degraded").value
    latencies = [call.latency for call in issued if call.completed]
    succeeded = sum(1 for call in issued if call.completed and call.hits)
    shed_pairs: list[tuple[int, float]] = []
    for registry in system.registries:
        shed_pairs.extend(registry.admission.shed_log)

    row = {
        "mode": mode,
        "load": multiplier,
        "offered_qps": rate,
        "issued": len(issued),
        "renew_survival": renew_survival,
        "goodput_qps": ok_in_window / window,
        "window_survival": completed_in_window / len(issued) if issued else 1.0,
        "success_ratio": succeeded / len(issued) if issued else 1.0,
        "p99_latency": _p99(latencies),
        "shed": shed,
        "busy": busy,
        "degraded": degraded_answers,
        "max_depth": max_depth,
        "fallbacks": sum(c.fallback_queries for c in system.clients),
    }
    return row, shed_pairs


def capacity_report(result: ExperimentResult, *, seed: int,
                    mode: str = "shedding") -> dict:
    """E17's sweep as a capacity-planning report (one admission mode)."""
    rows = [row for row in result.rows if row["mode"] == mode]
    return build_capacity_report(
        "E17",
        seed=seed,
        points=[
            {
                "qps": row["offered_qps"],
                "success": row["success_ratio"],
                "latency": row["p99_latency"],
                "load": row["load"],
                "renew_survival": row["renew_survival"],
            }
            for row in rows
        ],
        shed=sum(row["shed"] for row in rows),
        issued=sum(row["issued"] for row in rows),
        notes=(f"admission mode: {mode}",),
    )


def run(
    *,
    multipliers: tuple[float, ...] = MULTIPLIERS,
    window: float = 10.0,
    seed: int = 0,
    report_dir: str | None = None,
) -> ExperimentResult:
    """Sweep offered load × admission policy; the E17 result table.

    ``report_dir`` additionally writes the shedding-mode sweep as a
    capacity-planning report (see :mod:`repro.obs.report`).
    """
    result = ExperimentResult(
        experiment="E17",
        description="overload protection: goodput, p99, renew survival "
                    "under query floods (§3.1)",
    )
    for mode in MODES:
        for multiplier in multipliers:
            row, _shed = _run_flood(mode, multiplier, seed=seed,
                                    window=window)
            result.add(**row)
    shedding_4x = result.single(mode="shedding", load=multipliers[-1])
    baseline_4x = result.single(mode="baseline", load=multipliers[-1])
    result.metrics["renew_survival_at_peak"] = {
        "shedding": shedding_4x["renew_survival"],
        "baseline": baseline_4x["renew_survival"],
    }
    result.note(
        "the priority queue sheds low-priority work first: renews keep "
        "flowing at 4x saturation (survival >= 0.9) while the shed-less "
        "FIFO baseline queues them behind the flood until leases expire "
        "(survival < 0.5) — the soft-state collapse of §4.8."
    )
    result.note(
        "BUSY(retry_after) + sibling failover + LAN fallback keep goodput "
        "on a plateau instead of a cliff; degraded=True responses trade "
        "WAN coverage for bounded latency."
    )
    if report_dir is not None:
        write_report(capacity_report(result, seed=seed), report_dir)
    return result


def run_overload_smoke(*, seed: int = 0) -> dict:
    """The canonical overload scenario for the tier-2 smoke gate.

    Runs the shedding policy at 1× and 4× capacity and the shed-less
    baseline at 4×, and returns everything the smoke assertions need:
    survival numbers, the shed log (depth → retry_after pairs, asserted
    monotone), and admission counters. Deterministic: the same seed
    yields an identical snapshot on every call.
    """
    shedding_1x, _ = _run_flood("shedding", 1.0, seed=seed)
    shedding_4x, shed_pairs = _run_flood("shedding", 4.0, seed=seed)
    baseline_4x, baseline_pairs = _run_flood("baseline", 4.0, seed=seed)

    return {
        "seed": seed,
        "shedding_1x": shedding_1x,
        "shedding_4x": shedding_4x,
        "baseline_4x": baseline_4x,
        "shed_pairs": shed_pairs,
        "baseline_shed_pairs": baseline_pairs,
        "retry_after_base": RETRY_AFTER_BASE,
    }
