"""E13 (extension) — notifications vs polling.

"Some systems today also allow registration for notifications about
service advertisements of interest." The paper lists this as an optional
capability; this experiment quantifies why it matters in dynamic
environments: a client that *polls* for newly appearing services pays
query bandwidth proportional to its polling rate and still detects new
services half a period late on average; a client with a standing query
(leased subscription) is notified within one message latency at near-zero
steady-state cost.

Setup: one registry; services of interest appear one at a time at known
instants; the watcher and pollers (at several periods) race to detect
each arrival. Reported per mode: mean detection latency and total bytes.
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.experiments.common import REQUEST, ExperimentResult, mean, radar
from repro.metrics.bandwidth import TrafficWindow
from repro.semantics.generator import battlefield_ontology


def _deploy(seed: int):
    config = DiscoveryConfig(lease_duration=20.0, purge_interval=5.0,
                             beacon_interval=None)
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    client = system.add_client("lan-0")
    return system, client


def _arrival_schedule(n_arrivals: int, spacing: float, start: float = 5.0):
    return [start + i * spacing for i in range(n_arrivals)]


def _spawn_services(system, arrivals):
    for index, when in enumerate(arrivals):
        system.sim.schedule_at(when, lambda i=index: system.add_service(
            "lan-0", radar(f"late-radar-{i}")))


def run(
    *,
    n_arrivals: int = 5,
    spacing: float = 10.0,
    poll_periods: tuple[float, ...] = (2.0, 10.0),
    seed: int = 0,
) -> ExperimentResult:
    """Compare subscription push against polling at several periods."""
    result = ExperimentResult(
        experiment="E13",
        description="notification push vs polling (optional feature)",
    )
    result.add(**_run_watch(n_arrivals, spacing, seed))
    for period in poll_periods:
        result.add(**_run_poll(period, n_arrivals, spacing, seed))
    result.note(
        "push detects within one message latency at near-zero steady "
        "cost; polling trades bandwidth against mean detection delay "
        "(~period/2)."
    )
    return result


def _run_watch(n_arrivals: int, spacing: float, seed: int) -> dict:
    system, client = _deploy(seed)
    arrivals = _arrival_schedule(n_arrivals, spacing)
    _spawn_services(system, arrivals)
    system.run(until=2.0)
    window = TrafficWindow.open(system.network.stats, system.sim.now)
    watch = client.watch(REQUEST)
    system.run(until=arrivals[-1] + spacing)
    report = window.close(system.sim.now)
    latencies = [
        notified - arrival
        for notified, arrival in zip(sorted(watch.notified_at), arrivals)
    ]
    return {
        "mode": "subscribe",
        "detected": len(watch.hits),
        "of": n_arrivals,
        "mean_detection_s": mean(latencies),
        "bytes": report["bytes_sent"],
    }


def _run_poll(period: float, n_arrivals: int, spacing: float, seed: int) -> dict:
    system, client = _deploy(seed)
    arrivals = _arrival_schedule(n_arrivals, spacing)
    _spawn_services(system, arrivals)
    system.run(until=2.0)
    window = TrafficWindow.open(system.network.stats, system.sim.now)

    detected: dict[str, float] = {}

    def poll() -> None:
        if not client.alive:
            return
        call = client.discover(REQUEST)

        def harvest() -> None:
            for name in call.service_names():
                detected.setdefault(name, system.sim.now)

        system.sim.schedule(1.0, harvest)

    handle = system.sim.every(period, poll)
    system.run(until=arrivals[-1] + spacing)
    handle.stop()
    report = window.close(system.sim.now)
    latencies = [
        detected[f"late-radar-{i}"] - arrivals[i]
        for i in range(n_arrivals)
        if f"late-radar-{i}" in detected
    ]
    return {
        "mode": f"poll@{period:g}s",
        "detected": len(detected),
        "of": n_arrivals,
        "mean_detection_s": mean(latencies),
        "bytes": report["bytes_sent"],
    }
