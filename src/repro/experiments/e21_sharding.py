"""E21 — sharded, replicated federation at scale.

Two instruments aimed at the same claim: consistent-hash sharding keeps
the *per-registry* cost of a replicate-ads federation at ~K·R/S while
quorum writes and fault-masked reads keep discovery correct through
replica failures.

**Ring sweep (analytic, 100k advertisements).** Pure placement math on
the production :class:`~repro.core.sharding.ConsistentHashRing`: for
each federation size S the sweep measures per-node store load against
the ideal K·R/S, the scoped anti-entropy digest a partner pair exchanges
against the full-store digest an unsharded federation gossips, and the
number of replica assignments a join/leave moves against the minimal-
movement bound K·R/S (1.25x slack for virtual-node variance).

**Live fault scenario (16 registries).** A 16-LAN replicate-ads
deployment with sharding on (R=3, W=2) absorbs an adversarial
``replica-kill``: R−1 of one shard's replicas fail-stop at once and
*stay down*. A steady probe stream must keep succeeding — the planner's
read cover routes around the dead replicas and the retarget path masks
the stragglers — with success >= 0.99 across the run. Two same-seed
runs must export byte-identical traces.
"""

from __future__ import annotations

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.invariants import check_convergence, check_shard_placement
from repro.core.protocol import DigestPayload
from repro.core.sharding import ConsistentHashRing, ShardingConfig
from repro.core.system import DiscoverySystem
from repro.experiments.common import REQUEST, ExperimentResult, radar, round_robin_probes
from repro.netsim.faults import FaultPlan
from repro.semantics.generator import battlefield_ontology

#: Ring-sweep scale: the acceptance criteria quote 100k advertisements.
SWEEP_KEYS = 100_000
SWEEP_SIZES = (4, 8, 16)
R = 3
#: Virtual-node variance allowance on the K·R/S minimal-movement bound.
MOVE_SLACK = 1.25

#: Live scenario shape.
LIVE_REGISTRIES = 16
LIVE_SERVICES = 32
KILL_AT = 20.0
END_AT = 80.0
PROBE_INTERVAL = 0.5


# -- ring sweep (analytic) ---------------------------------------------------


def ring_sweep(*, keys: int = SWEEP_KEYS, sizes=SWEEP_SIZES,
               r: int = R) -> list[dict]:
    """Placement economics per federation size, on the production ring."""
    ad_ids = [f"ad-{k:06d}" for k in range(keys)]
    rows = []
    for size in sizes:
        members = [f"registry-{i:02d}" for i in range(size)]
        ring = ConsistentHashRing()
        for member in members:
            ring.add(member)
        placement = {ad_id: ring.replicas_for(ad_id, r) for ad_id in ad_ids}

        counts = dict.fromkeys(members, 0)
        pair_shared: dict[tuple[str, str], int] = {}
        for ad_id, replicas in placement.items():
            for member in replicas:
                counts[member] += 1
            for i, a in enumerate(replicas):
                for b in replicas[i + 1:]:
                    pair_shared[tuple(sorted((a, b)))] = \
                        pair_shared.get(tuple(sorted((a, b))), 0) + 1
        mean_store = sum(counts.values()) / size
        # Digest economics: a scoped digest carries only the co-owned
        # entries of one partner pair; the unsharded baseline gossips the
        # whole store. Sized with the real payload arithmetic.
        entry = ("ad-000000", 1, 0)
        per_entry = (DigestPayload(entries=(entry,)).size_bytes()
                     - DigestPayload().size_bytes())
        mean_shared = (sum(pair_shared.values()) / len(pair_shared)
                       if pair_shared else 0.0)
        scoped_bytes = DigestPayload().size_bytes() + per_entry * mean_shared
        full_bytes = DigestPayload().size_bytes() + per_entry * keys

        # Membership churn: one join, one leave, counted in replica
        # assignments that change owner (= copies that must move).
        joined = ring.clone()
        joined.add(f"registry-{size:02d}")
        join_moved = sum(
            len(set(joined.replicas_for(ad_id, r)) - set(placement[ad_id]))
            for ad_id in ad_ids
        )
        left = ring.clone()
        left.remove(members[0])
        leave_moved = sum(
            len(set(left.replicas_for(ad_id, r)) - set(placement[ad_id]))
            for ad_id in ad_ids
        )
        rows.append({
            "registries": size,
            "ideal_store": keys * r / size,
            "mean_store": mean_store,
            "max_over_mean": max(counts.values()) / mean_store,
            "scoped_digest_bytes": round(scoped_bytes),
            "full_digest_bytes": full_bytes,
            "digest_ratio": scoped_bytes / full_bytes,
            "join_moved": join_moved,
            "join_bound": keys * r / (size + 1) * MOVE_SLACK,
            "leave_moved": leave_moved,
            "leave_bound": keys * r / size * MOVE_SLACK,
        })
    return rows


# -- live fault scenario -----------------------------------------------------


def _build_live(seed: int):
    """One registry per LAN, chained seeds, services round-robin."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=2.0, lease_duration=30.0, purge_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
        sharding=ShardingConfig(
            enabled=True, replication_factor=R, write_quorum=2),
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    for i in range(LIVE_REGISTRIES):
        system.add_lan(f"lan-{i}")
    for i in range(LIVE_REGISTRIES):
        system.add_registry(
            f"lan-{i}", node_id=f"registry-{i:02d}",
            seeds=(f"registry-{(i + 1) % LIVE_REGISTRIES:02d}",),
        )
    for i in range(LIVE_SERVICES):
        system.add_service(f"lan-{i % LIVE_REGISTRIES}", radar(f"radar-{i}"))
    clients = [system.add_client(f"lan-{i}") for i in range(4)]
    return system, clients


def run_live_scenario(*, seed: int = 0) -> dict:
    """One full live run; returns probe stats, traces, and counters."""
    system, clients = _build_live(seed)
    capture = system.trace.capture()
    probes = round_robin_probes(system, clients, REQUEST, start=5.0,
                                stop=END_AT - 2.0, step=PROBE_INTERVAL)
    # R−1 replicas of one shard fail-stop at once and stay down.
    applied = FaultPlan().kill_replicas(
        KILL_AT, key="ad-kill-probe", count=R - 1
    ).apply(system)
    system.run(until=END_AT)
    system.run_for(5.0)  # drain in-flight probes

    victims = sorted(
        {e.node_id for e in applied.history if e.kind == "crash"}
    )
    dead_lans = {
        r.lan_name for r in system.registries if r.node_id in victims
    }
    # Services on a dead registry's LAN lose their coordinator, so their
    # leases eventually lapse everywhere; probes are graded against the
    # services that still have a live coordinator.
    expected = sorted(
        s.profile.service_name for s in system.services
        if s.lan_name not in dead_lans
    )
    completed = [c for c in probes if c.completed]
    ok = [
        c for c in completed
        if set(expected) <= set(c.service_names())
    ]
    registries = [r for r in system.registries if r.alive]
    stores = [len(r.store) for r in registries]
    shard_counters: dict[str, int] = {}
    for registry in registries:
        counters = {**registry.writes.counters(), **registry.shard.counters()}
        for key, value in counters.items():
            shard_counters[key] = shard_counters.get(key, 0) + value
    # Digest economics measured on the live stores: scoped partner
    # digests vs the full digest the unsharded protocol would gossip.
    probe_registry = registries[0]
    digest_scoped = max(
        (probe_registry.antientropy.digest(p).size_bytes()
         for p in probe_registry.shard.shard_peers()),
        default=0,
    )
    digest_full = probe_registry.antientropy.digest().size_bytes()
    return {
        "victims": victims,
        "probes": len(probes),
        "completed": len(completed),
        "ok": len(ok),
        "success": len(ok) / len(probes) if probes else 1.0,
        "store_mean": sum(stores) / len(stores) if stores else 0.0,
        "store_max": max(stores) if stores else 0,
        "digest_scoped_bytes": digest_scoped,
        "digest_full_bytes": digest_full,
        "shard_counters": shard_counters,
        "placement_violations": check_shard_placement(system),
        "convergence_violations": check_convergence(system),
        "trace": capture.export_jsonl(),
        "faults": dict(applied.counts()),
    }


# -- the experiment ----------------------------------------------------------


def run(*, seed: int = 0) -> ExperimentResult:
    """Ring sweep + live replica-kill scenario: the E21 result table."""
    result = ExperimentResult(
        experiment="E21",
        description="sharded federation: per-node load ~K*R/S, scoped "
                    "digests, bounded churn, and queries surviving an "
                    "R-1 replica kill",
    )
    for row in ring_sweep():
        result.add(run="ring-sweep", **row)
    live = run_live_scenario(seed=seed)
    result.add(
        run="replica-kill",
        registries=LIVE_REGISTRIES,
        ideal_store=None,
        mean_store=live["store_mean"],
        max_over_mean=(live["store_max"] / live["store_mean"]
                       if live["store_mean"] else 0.0),
        scoped_digest_bytes=live["digest_scoped_bytes"],
        full_digest_bytes=live["digest_full_bytes"],
        digest_ratio=(live["digest_scoped_bytes"] / live["digest_full_bytes"]
                      if live["digest_full_bytes"] else 0.0),
        join_moved=None, join_bound=None,
        leave_moved=None, leave_bound=None,
        probes=live["probes"],
        success=live["success"],
        victims=",".join(live["victims"]),
    )
    result.metrics["shard_counters"] = live["shard_counters"]
    result.metrics["faults_applied"] = live["faults"]
    result.note(
        "per-node store load tracks K*R/S with max/mean under 1.35 at "
        "every sweep size; scoped partner digests shrink anti-entropy "
        "traffic by ~the sharding factor; a join or leave moves no more "
        "than K*R/S copies (1.25x virtual-node slack); and with R-1 "
        "replicas of a shard fail-stopped the probe stream keeps "
        "succeeding through the read cover and retarget mask."
    )
    return result


def run_shard_smoke(*, seed: int = 0) -> dict:
    """The canonical sharded scenario for the tier-2 smoke gate.

    Returns everything the smoke assertions need: the faulted run's
    probe stats and placement sweep, a same-seed repeat (trace bytes
    asserted identical) and the analytic sweep bounds.
    """
    faulted = run_live_scenario(seed=seed)
    repeat = run_live_scenario(seed=seed)
    return {
        "sweep": ring_sweep(),
        "faulted": faulted,
        "repeat_trace": repeat["trace"],
    }
