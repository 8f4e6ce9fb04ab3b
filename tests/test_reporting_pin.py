"""What a run reports, pinned: which instruments exist and the trace bytes.

Four fixed-seed runs — E7's plain ring, an E17-shaped overloaded ring
(admission on), an E21-shaped sharded + durable ring with a crash and a
recovery in it, and that one again with the health layer listening — each
reduced to the sorted names in ``MetricsRegistry.snapshot()`` and the
SHA-256 of the trace JSONL (the health run adds its alarm timeline and
flight-recorder dumps). The values were recorded on the commit *before*
protocol agents started reporting through ``Node``'s seam, so this file
passing unmodified on both sides is the statement that the seam writes the
same metric names, event names, attribute keys and contexts as the
hand-written stanzas did. ``python tests/test_reporting_pin.py`` prints
the current tree's values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.admission import AdmissionPolicy
from repro.core.durability import DurabilityConfig
from repro.core.sharding import ShardingConfig
from repro.netsim.faults import FaultPlan
from repro.obs.health import HealthConfig
from repro.semantics.generator import battlefield_ontology
from repro.workloads.scenarios import ScenarioSpec, build_scenario
from tests.deployments import e7_ring
from tests.test_kernel_surface import ENABLED


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ring(config, seed, lans=3):
    built = build_scenario(ScenarioSpec(
        name="ring", lan_names=tuple(f"lan-{i}" for i in range(lans)),
        ontology_factory=battlefield_ontology, seed=seed,
    ), config=config)
    built.system.trace.capture()
    return built


def _plain():
    deployment = e7_ring(traced=True)
    deployment.discover(12)
    return deployment.system


def _overloaded():
    """Bursts of queries at registries that serve one every 50 ms behind a
    queue of four: sheds, BUSYs, degraded answers, client retries."""
    config = replace(ENABLED["admission"][1], admission=AdmissionPolicy(
        query_cost=0.05, forward_cost=0.02, renew_cost=0.01, queue_limit=4))
    built = _ring(config, seed=17)
    system = built.system
    system.run(until=12.0)
    requests = [built.generator.request_for(profile, generalize=1, max_results=5)
                for profile in built.profiles]
    for burst in range(3):
        for i in range(24):
            system.clients[i % 3].discover(requests[(burst + i) % len(requests)])
        system.run_for(4.0)
    system.run_for(30.0)
    return system


def _sharded(health=HealthConfig()):
    """Quorum writes and replica-set reads on a durable five-member ring:
    one registry crashes past a lease and recovers from its WAL, four
    services die with their leases, one registry leaves gracefully."""
    config = replace(
        ENABLED["sharding"][1], antientropy_interval=2.0, lease_duration=20.0,
        purge_interval=2.0, default_ttl=0, aggregation_timeout=0.3, health=health,
        sharding=ShardingConfig(enabled=True, replication_factor=2, write_quorum=1),
        durability=DurabilityConfig(enabled=True, snapshot_interval=5.0))
    built = _ring(config, seed=21, lans=5)
    system = built.system
    plan = FaultPlan().crash(15.0, system.registries[1].node_id) \
        .restart(45.0, system.registries[1].node_id)
    for service in system.services[:4]:
        plan.crash(30.0, service.node_id)
    plan.apply(system)
    leaver = system.registries[4]
    system.sim.schedule_at(60.0, leaver.federation.leave)
    system.sim.schedule_at(60.5, leaver.crash)
    requests = [built.generator.request_for(profile, generalize=1, max_results=5)
                for profile in built.profiles]
    for step in range(8):
        system.run(until=10.0 + 8.0 * step)
        for i, client in enumerate(system.clients[:4]):
            client.discover(requests[(step + i) % len(requests)])
    system.run(until=90.0)
    return system


def _sharded_watched():
    return _sharded(HealthConfig(enabled=True, antientropy_stale_after=6.0,
                                 queue_depth_threshold=2.0, shed_step_threshold=5))


RUNS = {"plain": _plain, "overloaded": _overloaded, "sharded": _sharded,
        "sharded-watched": _sharded_watched}


def fingerprint(name: str) -> dict[str, object]:
    system = RUNS[name]()
    snapshot = system.metrics.snapshot()
    found = {
        "metrics": sorted(metric for section in snapshot.values() for metric in section),
        "trace": _sha(system.trace.capture().export_jsonl()),
    }
    if system.health is not None:
        found["alarms"] = _sha(json.dumps(system.health.alarm_timeline(), sort_keys=True))
        found["dumps"] = _sha("\n".join(
            f"{d.reason}|{d.node}|{d.time}|{d.jsonl}" for d in system.health.dumps))
    return found


#: The two sharded runs were re-recorded once, when the read cover stopped
#: spending the probe of a breaker it only meant to read: at t=50.001
#: registry-03's fan-out now asks the recovered registry-01 (3 targets, not
#: 2 with 1 skipped), which answers and closes the breaker, so
#: ``recovery.breaker-skip`` is no longer reported. The alarm timeline did
#: not move. They were re-recorded again when read repair and hinted
#: handoff were deleted: the ``shard.hints_buffered`` /
#: ``shard.hints_replayed`` / ``shard.read_repairs`` counters are gone, the
#: trace loses their sends and events, and ``ad~3``, whose service died
#: at t=30, now lapses at t=46: a hint replayed to the recovered
#: registry-01 at t=45.1 had given it a fresh full lease, which
#: anti-entropy spread to two more replicas until t=67. The
#: ``lease-expiry-spike`` alarm at t=46 counts 18 expiries, not 17.
PINNED: dict[str, dict[str, object]] = {
    'overloaded': {
        "metrics": """
            admission.busy admission.degraded admission.shed
            admission.shed.query admission.shed.renew hops.delivered
            hops.query-forward latency.busy latency.federation-join
            latency.federation-join-ack latency.publish latency.publish-ack
            latency.query latency.query-forward latency.query-response
            latency.registry-beacon latency.registry-list-reply
            latency.registry-list-request latency.registry-ping
            latency.registry-pong latency.registry-probe
            latency.registry-probe-reply latency.renew latency.renew-ack
            lease.grant lease.renew matchmaker.evals_per_query
            query.e2e_latency registry.queue_depth retry.query-busy
            retry.renew
        """.split(),
        "trace": "49eb9219cd147cc202cee0dcbe88b95ccfbf1b1449e4905e38db49eea390b469",
    },
    'plain': {
        "metrics": """
            hops.delivered hops.query-forward latency.federation-join
            latency.federation-join-ack latency.publish latency.publish-ack
            latency.query latency.query-forward latency.query-response
            latency.registry-beacon latency.registry-list-reply
            latency.registry-list-request latency.registry-ping
            latency.registry-pong latency.registry-probe
            latency.registry-probe-reply lease.grant
            matchmaker.evals_per_query query.e2e_latency
        """.split(),
        "trace": "ecc35f0829a31f56c74bcf873915e705309ed8a3661c7a097c4e4b8966505971",
    },
    'sharded': {
        "metrics": """
            breaker.state.registry-00:registry-01
            breaker.state.registry-02:registry-01
            breaker.state.registry-03:registry-01 drop.dead-dst
            durability.replayed durability.snapshots durability.wal_appends
            fault.crash fault.restart hops.delivered hops.query-forward
            latency.antientropy-ads latency.antientropy-digest
            latency.antientropy-pull latency.artifact-reply
            latency.artifact-request latency.federation-join
            latency.federation-join-ack latency.federation-leave
            latency.publish latency.publish-ack latency.query
            latency.query-forward latency.query-response
            latency.registry-beacon latency.registry-list-reply
            latency.registry-list-request latency.registry-ping
            latency.registry-pong latency.registry-probe
            latency.registry-probe-reply latency.renew latency.renew-ack
            latency.renew-nack latency.shard-renew latency.shard-renew-ack
            latency.shard-store latency.shard-store-ack latency.shard-transfer
            lease.cancel lease.expire lease.grant lease.renew
            matchmaker.evals_per_query query.e2e_latency
            recovery.antientropy-ads-applied recovery.antientropy-ads-sent
            recovery.antientropy-pull recovery.antientropy-round
            recovery.breaker-close recovery.breaker-half-open
            recovery.breaker-open
            recovery.durability-recover registry.queue_depth retry.query
            retry.renew shard.ads_moved shard.read_retries
            shard.rebalances shard.ring_members shard.store_size.registry-00
            shard.store_size.registry-01 shard.store_size.registry-02
            shard.store_size.registry-03 shard.store_size.registry-04
        """.split(),
        "trace": "416cf112409fc99414b099049dd4a66f25266ac957ab04526dad1a274fc22836",
    },
    'sharded-watched': {
        "metrics": """
            breaker.state.registry-00:registry-01
            breaker.state.registry-02:registry-01
            breaker.state.registry-03:registry-01 drop.dead-dst
            durability.replayed durability.snapshots durability.wal_appends
            fault.crash fault.restart health.alarm.antientropy-stale
            health.alarm.lease-expiry-spike health.alarm.slo-burn
            health.alarm.slo-latency health.alarms health.dumps hops.delivered
            hops.query-forward latency.antientropy-ads
            latency.antientropy-digest latency.antientropy-pull
            latency.artifact-reply latency.artifact-request
            latency.federation-join latency.federation-join-ack
            latency.federation-leave latency.publish latency.publish-ack
            latency.query latency.query-forward latency.query-response
            latency.registry-beacon latency.registry-list-reply
            latency.registry-list-request latency.registry-ping
            latency.registry-pong latency.registry-probe
            latency.registry-probe-reply latency.renew latency.renew-ack
            latency.renew-nack latency.shard-renew latency.shard-renew-ack
            latency.shard-store latency.shard-store-ack latency.shard-transfer
            lease.cancel lease.expire lease.grant lease.renew
            matchmaker.evals_per_query query.e2e_latency
            recovery.antientropy-ads-applied recovery.antientropy-ads-sent
            recovery.antientropy-pull recovery.antientropy-round
            recovery.breaker-close recovery.breaker-half-open
            recovery.breaker-open
            recovery.durability-recover registry.queue_depth retry.query
            retry.renew shard.ads_moved shard.read_retries
            shard.rebalances shard.ring_members shard.store_size.registry-00
            shard.store_size.registry-01 shard.store_size.registry-02
            shard.store_size.registry-03 shard.store_size.registry-04
        """.split(),
        "trace": "22244c9fec1079e2fa5b1492b17e6168bace4b6f0643c1168eab1328bdb82932",
        "alarms": "bc5285554e22d78051131d0ed9bf09144e290d1493eb0fbcb95d041cb2425058",
        "dumps": "41de823fc1c2be62a188be2d6a55ba4d4437052c5daca918c5acad4d1d3ff558",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_run_reports_what_it_always_did(name):
    assert fingerprint(name) == PINNED[name]


if __name__ == "__main__":
    for run in sorted(RUNS):
        print(run, json.dumps(fingerprint(run), indent=2))
