"""E20 — runtime health under injected faults: do the alarms fire?

E17–E19 measure how the *protocols* behave under overload, crashes, and
partitions. E20 turns the camera around and validates the **runtime
health layer** itself (:mod:`repro.obs.health`): a three-LAN replicating
deployment runs with health monitoring enabled while three distinct
fault classes are injected in sequence, and the experiment checks that
each one raises at least one *correct* alarm — the right detector, in
the right time window — with a flight-recorder dump attached:

* **overload flood** (3× one registry's capacity for 6 s) — the
  admission queue fills and sheds, so the ``shed-step`` row (and
  usually ``queue-growth`` and an SLO breach) must trip;
* **registry crash** (one registry fail-stops for 14 s) — its
  anti-entropy rounds go silent (``antientropy-stale``) and the crash
  itself captures a flight-recorder dump (the surviving peers keep the
  replicas it left behind alive by reconciling with each other, so no
  expiry spike — the partition covers that detector);
* **WAN partition** (lan-0 cut off for 14 s) — replica lease refreshes
  stop crossing the WAN, so both sides purge the far side's replicas:
  another ``lease-expiry-spike``.

The control run — same deployment, same probe workload, **no faults** —
must raise *zero* alarms: a health layer that cries wolf on a healthy
system is worse than none. And because the detectors read only sim-time,
metrics, and protocol feeds, two same-seed faulted runs must produce
byte-identical alarm timelines and dumps, while two *health-disabled*
runs of the very same faulted scenario build no monitor at all and stay
byte-identical at the trace level.
"""

from __future__ import annotations

import json

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.invariants import assert_invariants
from repro.experiments.common import (
    REQUEST,
    ExperimentResult,
    radar_ring,
    round_robin_probes,
    schedule_discovers,
)
from repro.experiments.e17_overload import shedding_policy
from repro.netsim.faults import FaultPlan
from repro.obs.health import HealthConfig
from repro.obs.report import build_capacity_report, write_report

#: Fault schedule (sim-seconds). The phases are spaced so every
#: detector's rising edge clears between faults: the lease window (10 s)
#: empties before the partition repeats the expiry spike.
FLOOD_START, FLOOD_END = 10.0, 16.0
FLOOD_QPS = 30.0  # 3x one registry's 10 q/s admission capacity
CRASH_AT, RESTART_AT = 40.0, 54.0
PARTITION_AT, HEAL_AT = 62.0, 76.0
END_AT = 90.0

#: ``(phase, window_start, window_end, alarms that must fire inside)``.
#: Windows extend past the fault to cover detection lag (health tick,
#: staleness bound, lease expiry + purge).
PHASES = (
    ("overload-flood", FLOOD_START, FLOOD_END + 6.0, ("shed-step",)),
    ("registry-crash", CRASH_AT, PARTITION_AT, ("antientropy-stale",)),
    ("wan-partition", PARTITION_AT, HEAL_AT + 6.0, ("lease-expiry-spike",)),
)


def health_config() -> HealthConfig:
    """E20's health tuning: queue depth alarms at a sustained mean of 6
    (the flood drives the 32-slot queue to full). The staleness bound,
    ``health.ANTIENTROPY_STALE_AFTER`` (8 s), is four missed rounds of
    this deployment's 2 s anti-entropy."""
    return HealthConfig(enabled=True, queue_depth_threshold=6.0)


def _config(health: HealthConfig) -> DiscoveryConfig:
    """Fast-clock replicating deployment with E17's shedding admission."""
    return DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS,
        default_ttl=0,
        antientropy_interval=2.0,
        lease_duration=6.0,
        renew_fraction=0.5,
        purge_interval=1.0,
        query_timeout=2.0,
        aggregation_timeout=0.3,
        fallback_enabled=False,
        beacon_interval=2.0,
        ping_interval=2.0,
        # Keep federation links nailed up through the 14 s outages: the
        # scenario tests the *health* layer's detectors, not neighbor
        # eviction (E13 covers that).
        ping_failure_threshold=10,
        admission=shedding_policy(),
        health=health,
    )


def _schedule_flood(system, clients) -> list:
    """The overload fault: 3x capacity for the flood window, round-robin."""
    count = int(FLOOD_QPS * (FLOOD_END - FLOOD_START))
    interval = (FLOOD_END - FLOOD_START) / count
    return schedule_discovers(system, (
        (FLOOD_START + i * interval, clients[i % len(clients)], REQUEST)
        for i in range(count)
    ))


def _fault_plan(registry_id: str) -> FaultPlan:
    return (
        FaultPlan()
        .crash(CRASH_AT, registry_id)
        .restart(RESTART_AT, registry_id)
        .partition(PARTITION_AT, [["lan-0"], ["lan-1", "lan-2"]])
        .heal(HEAL_AT)
    )


def _run_scenario(*, seed: int, faulted: bool, health: HealthConfig) -> dict:
    """One full run; returns everything the smoke and report need."""
    system, clients = radar_ring(_config(health), seed, clients=2)
    capture = system.trace.capture()
    # One background query per second: the SLO stream's steady feed.
    probes = round_robin_probes(system, clients, REQUEST,
                                start=5.0, stop=END_AT - 2.0, step=1.0)
    flood = _schedule_flood(system, clients) if faulted else []
    applied = None
    if faulted:
        applied = _fault_plan(system.registries[1].node_id).apply(system)
    system.run(until=END_AT)
    system.run_for(8.0)  # drain: every call resolved, every queue empty
    assert_invariants(system)

    completed = [c for c in probes if c.completed]
    ok = [c for c in completed if c.hits]
    latencies = sorted(c.latency for c in ok)
    p95 = latencies[min(len(latencies) - 1,
                        int(0.95 * len(latencies)))] if latencies else 0.0
    monitor = system.health
    outcome = {
        "health": monitor,
        "trace": capture.export_jsonl(),
        "probe_stats": {
            "issued": len(probes),
            "ok": len(ok),
            "success": len(ok) / len(probes) if probes else 1.0,
            "p95_latency": p95,
            "flood_issued": len(flood),
        },
        "faults": dict(applied.counts()) if applied is not None else {},
    }
    if monitor is None:
        return outcome
    timeline = monitor.alarm_timeline()
    return {
        **outcome,
        "alarms": timeline,
        "alarm_names": sorted({a["alarm"] for a in timeline}),
        "alarm_json": json.dumps(timeline, sort_keys=True,
                                 separators=(",", ":")),
        "dumps": [(d.reason, d.node, d.time, d.records)
                  for d in monitor.dumps],
        "dump_jsonl": "\n".join(d.jsonl for d in monitor.dumps),
        "snapshot": monitor.snapshot(),
    }


def _phase_alarms(timeline: list[dict]) -> dict[str, list[str]]:
    """Alarm names observed inside each phase's detection window."""
    return {
        name: sorted({a["alarm"] for a in timeline if start <= a["t"] < end})
        for name, start, end, _expected in PHASES
    }


def capacity_report(result: ExperimentResult, *, seed: int,
                    monitor_snapshot: dict | None = None) -> dict:
    """E20 as a health-posture report: probe SLO per run, plus alarms."""
    points = [
        {
            "qps": 1.0,  # the background probe cadence
            "success": row["probe_success"],
            "latency": row["probe_p95"],
            "run": row["run"],
            "alarms": row["alarms"],
        }
        for row in result.rows if row.get("run") in ("clean", "faulted")
    ]
    report = build_capacity_report(
        "E20",
        seed=seed,
        points=points,
        notes=(
            "success/latency are the 1 q/s background probe stream; the "
            "faulted run absorbs a flood, a crash, and a partition",
        ),
    )
    if monitor_snapshot is not None:
        report["alarms"] = monitor_snapshot["alarms"]
        report["slo"] = monitor_snapshot["slo"]
        report["dumps"] = monitor_snapshot["dumps"]
    return report


def run(*, seed: int = 0, report_dir: str | None = None) -> ExperimentResult:
    """Clean vs faulted health-enabled runs; the E20 result table.

    ``report_dir`` additionally writes the faulted run's health posture
    as a capacity report (see :mod:`repro.obs.report`).
    """
    result = ExperimentResult(
        experiment="E20",
        description="runtime health under faults: alarm precision per "
                    "fault class, zero false positives clean",
    )
    clean = _run_scenario(seed=seed, faulted=False, health=health_config())
    faulted = _run_scenario(seed=seed, faulted=True, health=health_config())
    phases = _phase_alarms(faulted["alarms"])

    result.add(
        run="clean", phase="-", alarms=len(clean["alarms"]),
        alarm_names=",".join(clean["alarm_names"]) or "-",
        dumps=len(clean["dumps"]),
        probe_success=clean["probe_stats"]["success"],
        probe_p95=clean["probe_stats"]["p95_latency"],
        detected=len(clean["alarms"]) == 0,
    )
    for name, start, end, expected in PHASES:
        observed = phases[name]
        result.add(
            run="faulted", phase=name, alarms=len(observed),
            alarm_names=",".join(observed) or "-",
            dumps=len(faulted["dumps"]),
            probe_success=faulted["probe_stats"]["success"],
            probe_p95=faulted["probe_stats"]["p95_latency"],
            detected=any(alarm in observed for alarm in expected),
        )
    result.add(
        run="faulted", phase="overall", alarms=len(faulted["alarms"]),
        alarm_names=",".join(faulted["alarm_names"]) or "-",
        dumps=len(faulted["dumps"]),
        probe_success=faulted["probe_stats"]["success"],
        probe_p95=faulted["probe_stats"]["p95_latency"],
        detected=all(
            any(alarm in phases[name] for alarm in expected)
            for name, _s, _e, expected in PHASES
        ),
    )
    result.metrics["phase_alarms"] = phases
    result.metrics["faults_applied"] = faulted["faults"]
    result.note(
        "each injected fault class raises its matched detector inside "
        "its detection window — shed-step under the flood, "
        "antientropy-stale for the crashed registry, lease-expiry-spike "
        "when the partition starves replica refreshes — and every alarm "
        "carries a flight-recorder dump; the no-fault control run raises "
        "zero alarms."
    )
    if report_dir is not None:
        write_report(
            capacity_report(result, seed=seed,
                            monitor_snapshot=faulted["snapshot"]),
            report_dir,
        )
    return result


def run_health_smoke(*, seed: int = 0) -> dict:
    """The canonical health scenario for the tier-2 smoke gate.

    Returns everything the smoke assertions need: the clean run's alarm
    list (must be empty), the faulted run's per-phase alarm names (each
    phase's expected detector must appear), dump inventory (the crash
    must have captured one), a same-seed repeat of the faulted run
    (alarm timeline and dump bytes asserted identical), and two
    health-*disabled* runs of the same faulted scenario (no monitor
    built, and trace exports asserted byte-identical).
    """
    clean = _run_scenario(seed=seed, faulted=False, health=health_config())
    faulted = _run_scenario(seed=seed, faulted=True, health=health_config())
    repeat = _run_scenario(seed=seed, faulted=True, health=health_config())
    off_a = _run_scenario(seed=seed, faulted=True, health=HealthConfig())
    off_b = _run_scenario(seed=seed, faulted=True, health=HealthConfig())
    return {
        "seed": seed,
        "expected": {name: list(expected)
                     for name, _s, _e, expected in PHASES},
        "clean_alarms": clean["alarms"],
        "clean_dumps": clean["dumps"],
        "phase_alarms": _phase_alarms(faulted["alarms"]),
        "faulted_alarms": faulted["alarms"],
        "faulted_dumps": faulted["dumps"],
        "faulted_alarm_json": faulted["alarm_json"],
        "faulted_dump_jsonl": faulted["dump_jsonl"],
        "repeat_alarm_json": repeat["alarm_json"],
        "repeat_dump_jsonl": repeat["dump_jsonl"],
        "off_trace_a": off_a["trace"],
        "off_trace_b": off_b["trace"],
        "off_health": off_a["health"],
        "probe_stats": {"clean": clean["probe_stats"],
                        "faulted": faulted["probe_stats"]},
        "faults": faulted["faults"],
    }
