"""E18 — adaptive load-aware routing under skewed registry load.

E17 showed admission control keeping a *uniformly* flooded deployment
alive; this experiment asks the follow-up question the dynamic-
environment premise forces: what happens when the load is **skewed** —
every client on a LAN piled onto the same registry while an idle sibling
sits next to it? With the historical static order, each client discovers
the imbalance only by paying for it: a BUSY round-trip, a server-dictated
``retry_after`` wait, a second BUSY, and finally a tracker-level
failover — per client, serially. The :mod:`repro.core.routing` strategies
instead read the health signals the protocol already carries (piggybacked
queue depths, response round-trips, BUSY cooldowns) and move *subsequent
queries* to the shallow sibling immediately.

Setup: the E17 two-LAN federated deployment with ``lan-0`` scaled out to
five *replicated* registries (``replicate-ads`` cooperation with a fast
anti-entropy clock, so every sibling holds the full advertisement set
and can answer any query locally) and the E17 shedding admission policy.
Every ``lan-0`` client is force-seeded onto the same sibling — the skew.
The flood then offers a multiple of a *single* registry's service
capacity through those clients: below the LAN's aggregate capacity, but
far above the hot registry's. A strategy that spreads the load keeps the
deployment comfortably inside capacity; static order drowns one replica
while four idle. The sweep compares the four routing strategies on p99
discovery latency, in-window goodput, BUSY count, and failover churn.

Determinism: the flood schedule uses an experiment-local
``random.Random``; the adaptive strategies themselves are deterministic
functions of observed sim-time signals, so a fixed seed reproduces every
number — and every trace byte — exactly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.routing import (
    ROUTING_COOLDOWN_FAILOVER,
    ROUTING_LEAST_LOADED,
    ROUTING_NEAREST_LATENCY,
    ROUTING_STATIC,
    RoutingConfig,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.e17_overload import (
    FLOOD_SPEC,
    _config as _overload_config,
    _offer_flood,
    _p99,
    shedding_policy,
)
from repro.obs.capture import TINY_QUEUE
from repro.obs.report import build_capacity_report, write_report
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

STRATEGIES = (
    ROUTING_STATIC,
    ROUTING_NEAREST_LATENCY,
    ROUTING_LEAST_LOADED,
    ROUTING_COOLDOWN_FAILOVER,
)
MULTIPLIERS = (2.0, 4.0)


def _config(routing: RoutingConfig) -> DiscoveryConfig:
    """The E17 fast-clock shedding deployment, replicated, plus a
    routing strategy."""
    return replace(
        _overload_config(shedding_policy()),
        cooperation=COOPERATION_REPLICATE_ADS,
        antientropy_interval=1.0,
        routing=routing,
    )


def _build(routing: RoutingConfig, seed: int):
    built = build_scenario(replace(FLOOD_SPEC, seed=seed), config=_config(routing))
    # The idle replicas on the flooded LAN: the relief valves the routing
    # strategies are supposed to find. Seeding them with lan-0's gateway
    # (the first registry) pulls them into the federation so anti-entropy
    # replicates the full advertisement set onto each — any sibling can
    # answer any query.
    gateway = built.system.registries[0].node_id
    for _ in range(4):
        built.system.add_registry("lan-0", model_ids=FLOOD_SPEC.model_ids, seeds=(gateway,))
    return built


def _run_skewed(
    strategy: str,
    multiplier: float,
    *,
    seed: int,
    window: float = 10.0,
) -> dict:
    """Skewed flood: every lan-0 client starts on the same registry.

    Offers ``multiplier`` × a *single* registry's query capacity through
    the lan-0 clients only, all of which are force-seeded onto the
    lowest-id lan-0 registry after bootstrap — the pathological-but-
    realistic state left behind by a sibling restart or a partition heal.
    Returns the experiment row after the backlog has drained and the
    invariants have been checked.
    """
    built = _build(RoutingConfig(strategy=strategy), seed)
    system = built.system
    system.run(until=8.0)  # bootstrap: probes, publishes, first renews

    lan0_regs = sorted(
        (r for r in system.registries if r.lan_name == "lan-0"),
        key=lambda r: r.node_id,
    )
    hot = lan0_regs[0]
    clients = [c for c in system.clients if c.lan_name == "lan-0"]
    for client in clients:
        client.tracker.seed(hot.node_id)

    # × one registry's capacity
    rate = multiplier / system.config.admission.query_cost
    issued, renew_survival, ok_in_window, _ = _offer_flood(
        built, clients, rate, window=window, seed=seed)

    latencies = [call.latency for call in issued if call.completed]
    succeeded = sum(1 for call in issued if call.completed and call.hits)
    return {
        "strategy": strategy,
        "load": multiplier,
        "offered_qps": rate,
        "issued": len(issued),
        "goodput_qps": ok_in_window / window,
        "p99_latency": _p99(latencies),
        "success_ratio": succeeded / len(issued) if issued else 1.0,
        "renew_survival": renew_survival,
        "busy": sum(c.busy_rejections for c in clients),
        "reroutes": sum(c.router.reroutes for c in clients),
        "failovers": sum(c.tracker.failovers for c in clients),
        "fallbacks": sum(c.fallback_queries for c in clients),
        "shed": sum(r.admission.shed for r in system.registries),
        "hot_shed": hot.admission.shed,
    }


def capacity_report(result: ExperimentResult, *, seed: int,
                    strategy: str = ROUTING_LEAST_LOADED) -> dict:
    """E18's sweep as a capacity-planning report (one routing strategy)."""
    rows = [row for row in result.rows if row["strategy"] == strategy]
    return build_capacity_report(
        "E18",
        seed=seed,
        points=[
            {
                "qps": row["offered_qps"],
                "success": row["success_ratio"],
                "latency": row["p99_latency"],
                "load": row["load"],
                "goodput_qps": row["goodput_qps"],
            }
            for row in rows
        ],
        shed=sum(row["shed"] for row in rows),
        issued=sum(row["issued"] for row in rows),
        notes=(f"routing strategy: {strategy} (skewed flood, one hot replica)",),
    )


def run(
    *,
    strategies: tuple[str, ...] = STRATEGIES,
    multipliers: tuple[float, ...] = MULTIPLIERS,
    window: float = 10.0,
    seed: int = 0,
    report_dir: str | None = None,
) -> ExperimentResult:
    """Sweep routing strategy × skewed load; the E18 result table.

    ``report_dir`` additionally writes the least-loaded sweep as a
    capacity-planning report (see :mod:`repro.obs.report`).
    """
    result = ExperimentResult(
        experiment="E18",
        description="adaptive load-aware routing: p99 and goodput under "
                    "skewed registry load",
    )
    for strategy in strategies:
        for multiplier in multipliers:
            result.add(**_run_skewed(strategy, multiplier, seed=seed,
                                     window=window))
    static_4x = result.single(strategy=ROUTING_STATIC, load=multipliers[-1])
    loaded_4x = result.single(strategy=ROUTING_LEAST_LOADED,
                              load=multipliers[-1])
    result.metrics["p99_at_peak"] = {
        "static": static_4x["p99_latency"],
        "least_loaded": loaded_4x["p99_latency"],
    }
    result.metrics["goodput_at_peak"] = {
        "static": static_4x["goodput_qps"],
        "least_loaded": loaded_4x["goodput_qps"],
    }
    result.note(
        "static order discovers the skew one BUSY round-trip at a time — "
        "every client pays retry_after waits before the tracker fails it "
        "over; the adaptive strategies read the piggybacked queue depths "
        "and BUSY cooldowns and move subsequent queries to the idle "
        "sibling immediately."
    )
    result.note(
        "least-loaded routes on the shallowest advertised queue, so the "
        "skewed flood is spread across all five lan-0 replicas within "
        "one response round-trip — lower p99 and higher in-window "
        "goodput than static at every overload multiplier."
    )
    if report_dir is not None:
        write_report(capacity_report(result, seed=seed), report_dir)
    return result


def trace_export(routing: RoutingConfig, *, seed: int = 0) -> str:
    """Byte-exact trace JSONL of a small routing-exercising run.

    A single-LAN deployment with two registries and a deliberately tiny
    admission queue, so a short query burst produces BUSY shedding and
    (under adaptive strategies) rerouting. Used by the routing smoke to
    assert that any two same-seed runs are byte-identical under every
    strategy.
    """
    spec = ScenarioSpec(lan_names=lans(1), registries_per_lan=2, services_per_lan=2,
                        federation="none", model_ids=("semantic",), seed=seed)
    built = build_scenario(spec, config=DiscoveryConfig(admission=TINY_QUEUE, routing=routing))
    capture = built.system.trace.capture()
    built.system.run(until=12.0)
    play(built, 4, interval=0.05)
    return capture.export_jsonl()


def run_routing_smoke(*, seed: int = 0) -> dict:
    """The canonical skewed-load scenario for the tier-2 smoke gate.

    Returns the 4×-capacity static and least-loaded rows (the smoke
    asserts the adaptive strategy wins on p99 *and* goodput), a repeat
    least-loaded row (asserted identical — adaptive routing must stay
    deterministic), and trace exports of the default config and of
    least-loaded (asserted byte-identical across two same-seed runs, and
    different from the default).
    """
    static_4x = _run_skewed(ROUTING_STATIC, 4.0, seed=seed)
    loaded_4x = _run_skewed(ROUTING_LEAST_LOADED, 4.0, seed=seed)
    loaded_4x_repeat = _run_skewed(ROUTING_LEAST_LOADED, 4.0, seed=seed)
    return {
        "seed": seed,
        "static_4x": static_4x,
        "least_loaded_4x": loaded_4x,
        "least_loaded_4x_repeat": loaded_4x_repeat,
        "trace_default": trace_export(RoutingConfig(), seed=seed),
        "trace_least_loaded": trace_export(
            RoutingConfig(strategy=ROUTING_LEAST_LOADED), seed=seed,
        ),
        "trace_least_loaded_repeat": trace_export(
            RoutingConfig(strategy=ROUTING_LEAST_LOADED), seed=seed,
        ),
    }
