"""E19 (extension) — durable crash recovery: WAL + snapshot vs memory-only.

The architecture's stock answer to registry failure is soft state:
"should a service crash … the service description would be purged", and
symmetrically a crashed registry rebuilds its content from republishes
when leases lapse. That works for a *single* registry death (replicas
cover the gap) but not for a **correlated outage** — a whole-LAN blackout
or rolling restart that takes every replica down at once loses every
advertisement until each service's next renew cycle notices the NACK and
republishes from scratch.

E19 stages exactly that worst case: three federated LANs replicating
advertisements reach steady state, then *every* registry crashes at once
and restarts two seconds later, in the quiet stretch between two renew
ticks. Measured per mode (memory-only vs WAL+snapshot durability):

* **recovered fraction** — advertisements back in the stores immediately
  after restart, from local replay alone (before any anti-entropy round);
* **time-to-full-query-success** — seconds from restart until a client
  query returns every expected service again;
* **re-publish traffic** — PUBLISH messages in the recovery window (the
  durable path restores the original lease ids, so renewals keep
  succeeding and services never notice the outage: zero republishes);
* **anti-entropy bytes** — the delta-repair cost in the recovery window.

``run_disk_faults`` injects torn tail writes and record corruption into
the WAL during the crash and shows recovery surviving both: the damaged
records are skipped and counted, and the next anti-entropy delta round
repairs whatever they lost.
"""

from __future__ import annotations

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.invariants import (
    check_convergence,
    check_recovery,
    store_snapshot,
)
from repro.experiments.common import REQUEST, ExperimentResult, radar_ring
from repro.netsim.faults import FaultPlan
from repro.obs.report import build_capacity_report, write_report

#: Whole-LAN blackout window: between the renew ticks at 24s and 48s
#: (lease 60s, renew fraction 0.4), so services themselves never notice.
BLACKOUT_AT = 32.0
RESTART_AT = 34.0


def _config(durable: bool) -> DiscoveryConfig:
    return DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS,
        default_ttl=0,
        antientropy_interval=5.0,
        lease_duration=60.0,
        purge_interval=5.0,
        query_timeout=2.0,
        aggregation_timeout=0.3,
        fallback_enabled=False,
        durability=DurabilityConfig(enabled=True) if durable
        else DurabilityConfig(),
    )


def _build(durable: bool, seed: int):
    """Three replicating LANs and one client: ``(system, client)``."""
    system, (client,) = radar_ring(_config(durable), seed, clients=1)
    return system, client


def capacity_report(result: ExperimentResult, *, seed: int,
                    window: float = 25.0) -> dict:
    """E19 as a recovery-capacity report: one point per durability mode.

    The "load" axis is degenerate (one probing client), so the point's
    ``qps`` is the recovery-window probe rate and the objective is on
    *recovery* quality: a mode holds when local replay restored >= 99% of
    the advertisements and full query success returned within half the
    recovery window.
    """
    return build_capacity_report(
        "E19",
        seed=seed,
        points=[
            {
                "qps": 2.0,  # the 0.5 s TTFS probe cadence
                "success": row["recovered_frac"],
                "latency": row["ttfs"],
                "durability": row["durability"],
                "republishes": row["republishes"],
            }
            for row in result.rows
        ],
        success_target=0.99,
        latency_target=window / 2.0,
        notes=(
            "success = fraction recovered by local replay alone; "
            "latency = time-to-full-query-success after restart",
        ),
    )


def run(*, window: float = 25.0, seed: int = 0,
        report_dir: str | None = None) -> ExperimentResult:
    """Whole-LAN blackout at steady state: durability on vs memory-only.

    ``report_dir`` additionally writes the recovery outcome as a
    capacity-planning report (see :mod:`repro.obs.report`).
    """
    result = ExperimentResult(
        experiment="E19",
        description="durable crash recovery after a whole-LAN blackout",
    )
    for durable in (False, True):
        result.add(**_run_one(durable, window, seed))
    result.note(
        "the durable registries replay their snapshot+WAL at restart, so "
        "the client's next query already sees the full service set and "
        "lease renewals keep succeeding (zero republish traffic); the "
        "memory-only registries restart empty and serve misses until the "
        "next renew tick NACKs and every service republishes from scratch."
    )
    if report_dir is not None:
        write_report(capacity_report(result, seed=seed, window=window),
                     report_dir)
    return result


def _run_one(durable: bool, window: float, seed: int) -> dict:
    system, client = _build(durable, seed)
    expected = len(system.services)
    system.run(until=BLACKOUT_AT - 2.0)

    # Steady state reached: the client must already see every service.
    pre_call = system.discover(client, REQUEST, timeout=3.0)
    pre_hits = len(pre_call.hits)
    pre_stores = {
        r.node_id: store_snapshot(r) for r in system.registries
    }
    pre_counts = {rid: len(snap) for rid, snap in pre_stores.items()}
    pre_traffic = system.network.stats.snapshot()

    blackout = FaultPlan()
    for registry in system.registries:
        blackout.crash(BLACKOUT_AT, registry.node_id)
        blackout.restart(RESTART_AT, registry.node_id)
    blackout.apply(system)
    system.run(until=RESTART_AT + 0.001)

    # Recovered fraction from *local replay alone*: measured immediately
    # after restart, before the first anti-entropy round can repair
    # anything over the network.
    recovered = sum(len(r.store) for r in system.registries)
    total = sum(pre_counts.values())
    recovery_violations: list[str] = []
    if durable:
        for registry in system.registries:
            recovery_violations += check_recovery(
                registry, pre_stores[registry.node_id]
            )

    # Time-to-full-query-success: poll until the client sees the full
    # pre-crash service set again.
    ttfs = window
    deadline = RESTART_AT + window
    while system.sim.now < deadline:
        call = system.discover(client, REQUEST, timeout=2.0)
        if call.completed and len(call.hits) >= pre_hits:
            ttfs = system.sim.now - RESTART_AT
            break
        system.run_for(0.5)
    system.run(until=deadline)

    recovery_traffic = system.network.stats.delta_since(pre_traffic)
    by_type = recovery_traffic["by_type"]
    republishes = by_type.get("publish", {}).get("count", 0)
    antientropy_bytes = sum(
        entry["bytes"] for msg_type, entry in by_type.items()
        if msg_type.startswith("antientropy-")
    )
    wal = {
        key: sum(r.durability.counters()[key] for r in system.registries)
        for key in ("wal_appends", "replayed", "snapshots", "recoveries")
    }
    return {
        "durability": "wal+snapshot" if durable else "memory-only",
        "services": expected,
        "pre_crash_hits": pre_hits,
        "recovered": recovered,
        "recovered_frac": recovered / total if total else 0.0,
        "recovery_violations": len(recovery_violations),
        "ttfs": ttfs,
        "republishes": republishes,
        "antientropy_bytes": antientropy_bytes,
        "wal_appends": wal["wal_appends"],
        "replayed": wal["replayed"],
        "snapshots": wal["snapshots"],
    }


def run_disk_faults(*, seed: int = 0) -> ExperimentResult:
    """Torn tail writes and record corruption during the crash.

    One registry crashes with its WAL tail torn mid-write, another with a
    byte flipped in the middle of its *snapshot* — the worst case, losing
    the whole compacted state, not just one record. Recovery must survive
    both — damaged frames are skipped and counted, never raised — and the
    next anti-entropy delta round restores full replica convergence.
    """
    result = ExperimentResult(
        experiment="E19",
        description="recovery under injected disk faults (torn/corrupt WAL)",
    )
    system, client = _build(True, seed)
    expected = len(system.services)
    r0, r1 = system.registries[0], system.registries[1]
    plan = (
        FaultPlan()
        .crash(30.0, r0.node_id)
        .disk_torn_write(30.5, r0.node_id, file="wal")
        .restart(31.5, r0.node_id)
        .crash(40.0, r1.node_id)
        .disk_corrupt(40.5, r1.node_id, file="snap")
        .restart(41.5, r1.node_id)
    )
    applied = plan.apply(system)
    # Two anti-entropy intervals past the second restart: time enough for
    # the delta round to repair whatever the damaged records lost.
    system.run(until=52.0)
    call = system.discover(client, REQUEST, timeout=3.0)
    violations = check_convergence(system)
    disks = system.network.disks
    result.add(
        faults=sum(applied.counts().values()),
        torn_writes=sum(d.torn_writes for d in disks.values()),
        corruptions=sum(d.corruptions for d in disks.values()),
        corrupt_skipped=sum(
            r.durability.corrupt_skipped for r in system.registries
        ),
        recoveries=sum(r.durability.recoveries for r in system.registries),
        hits_after=len(call.hits),
        expected=expected,
        convergence_violations=len(violations),
    )
    result.note(
        "neither the torn tail nor the flipped byte crashes recovery: "
        "replay stops at (or skips past) the damaged frame, the loss is "
        "counted, and the join-time anti-entropy digest plus the next "
        "periodic round repair the replicas back to full convergence."
    )
    return result
