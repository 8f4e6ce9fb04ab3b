"""Cross-mode oracle for the registry's write coordinator.

§4.9 makes how advertisements travel between registries a deployment
choice, not a semantics choice: one seeded stream of publishes, renews,
removes and lease lapses, sent to the same registries, must leave every
cooperation mode holding the same advertisements across the federation
and must get the publisher the same answers. The write twin of
``tests/test_query_coordinator.py``. Under replicate-ads a remove reaches
the home registry only and spreads by anti-entropy tombstones, so every
mode runs with digest rounds.
"""

from __future__ import annotations

import random

from repro.core import protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.invariants import check_convergence, check_invariants, check_shard_placement
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem
from repro.descriptions.uri import UriDescription
from repro.netsim.node import Node
from repro.obs.tracing import TraceRecorder
from repro.registry.advertisements import Advertisement
from repro.semantics.generator import battlefield_ontology
from tests.deployments import e7_ring

REGISTRIES = 3
#: Off the one-second op grid, so no renew races a lease expiry.
LEASE = 8.25
START, STEP = 10.0, 1.0
COMMON = dict(default_ttl=0, antientropy_interval=2.0, lease_duration=LEASE,
              purge_interval=1.0)

MODES = {
    "forward-queries": DiscoveryConfig(**COMMON),
    "replicate-ads": DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, **COMMON),
    "sharded R=2 W=1": DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS,
        sharding=ShardingConfig(enabled=True, replication_factor=2, write_quorum=1),
        **COMMON),
    "sharded R=S": DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS,
        sharding=ShardingConfig(enabled=True, replication_factor=REGISTRIES),
        **COMMON),
}


#: What a registry answers a service's write with.
REPLIES = {protocol.PUBLISH_ACK, protocol.PUBLISH_NACK, protocol.RENEW_ACK,
           protocol.RENEW_NACK, protocol.REMOVE_ACK}


class Publisher(Node):
    """Stands in for the services: keeps every answer."""

    def __init__(self) -> None:
        super().__init__("publisher")
        self.inbox: list = []

    def handle_message(self, envelope) -> None:
        self.inbox.append(envelope)


def _stream(seed: int = 5, ops: int = 40, quiet: int = 12):
    """``(time, [(kind, ad_id, registry index)])`` per step, and the ads
    live at the end. Live ads are renewed every half lease; an abandoned
    one lapses; a late renew names an ad removed or lapsed everywhere. The
    last ``quiet`` steps only renew, so whatever lapsed has been purged."""
    rng = random.Random(seed)
    live: dict[str, list] = {}  # ad_id -> [registry, last refresh]
    gone: dict[str, tuple[int, float]] = {}  # ad_id -> (registry, last refresh)
    steps = []
    for step in range(ops + quiet):
        t = START + step * STEP
        actions = []
        for ad_id, entry in sorted(live.items()):
            if t - entry[1] >= LEASE / 2:
                entry[1] = t
                actions.append(("renew", ad_id, entry[0]))
        untouched = sorted(set(live) - {ad_id for _, ad_id, _ in actions})
        late = sorted(ad_id for ad_id, (_, at) in gone.items() if t - at > LEASE + 2)
        kind = rng.choice(("publish", "publish", "renew", "remove", "abandon",
                           "late-renew")) if step < ops else None
        if kind == "renew" and untouched:
            ad_id = rng.choice(untouched)
            live[ad_id][1] = t
            actions.append(("renew", ad_id, live[ad_id][0]))
        elif kind == "remove" and untouched:
            ad_id = rng.choice(untouched)
            registry = live.pop(ad_id)[0]
            gone[ad_id] = (registry, t)
            actions.append(("remove", ad_id, registry))
        elif kind == "abandon" and untouched:
            ad_id = rng.choice(untouched)
            gone[ad_id] = tuple(live.pop(ad_id))
        elif kind == "late-renew" and late:
            ad_id = rng.choice(late)
            actions.append(("renew", ad_id, gone[ad_id][0]))
        elif kind is not None:
            ad_id = f"ad-{step:03d}"
            live[ad_id] = [rng.randrange(REGISTRIES), t]
            actions.append(("publish", ad_id, live[ad_id][0]))
        steps.append((t, actions))
    return steps, set(live)


def _run(config: DiscoveryConfig, steps):
    """Send the stream; return the answers per step and the ads held."""
    system = DiscoverySystem(seed=9, ontology=battlefield_ontology(), config=config)
    for i in range(REGISTRIES):
        system.add_lan(f"lan-{i}")
    registries = [
        system.add_registry(f"lan-{i}", node_id=f"registry-{i:02d}",
                            seeds=(f"registry-{i + 1:02d}",) if i + 1 < REGISTRIES else ())
        for i in range(REGISTRIES)
    ]
    publisher = system.network.add_node(Publisher(), "lan-0")
    leases: dict[str, str] = {}
    answers = []

    def collect() -> None:
        for envelope in publisher.inbox:
            if envelope.msg_type == protocol.PUBLISH_ACK:
                leases[envelope.payload.ad_id] = envelope.payload.lease_id
        answers.append(sorted((e.msg_type, e.payload.ad_id) for e in publisher.inbox
                              if e.msg_type in REPLIES))
        publisher.inbox.clear()

    for t, actions in steps:
        system.run(until=t)
        collect()
        for kind, ad_id, index in actions:
            dst = registries[index].node_id
            if kind == "publish":
                publisher.send(dst, protocol.PUBLISH, protocol.PublishPayload(
                    service_node=publisher.node_id, service_name=ad_id,
                    endpoint=f"svc://{ad_id}", model_id="uri",
                    description=UriDescription("ncw:RadarService", f"svc://{ad_id}"),
                    ad_id=ad_id,
                ))
            elif kind == "renew":
                publisher.send(dst, protocol.RENEW,
                               protocol.RenewPayload(lease_id=leases[ad_id], ad_id=ad_id))
            else:
                publisher.send(dst, protocol.REMOVE, protocol.RemovePayload(ad_id=ad_id))
    system.run_for(STEP)
    collect()
    assert check_invariants(system) == []
    assert check_convergence(system) == []
    assert check_shard_placement(system) == []
    held = {ad.ad_id for registry in registries for ad in registry.store.all()}
    return answers, held


def test_every_mode_settles_a_write_stream_alike():
    steps, live = _stream()
    runs = {mode: _run(config, steps) for mode, config in MODES.items()}
    answers, held = runs["forward-queries"]
    assert held == live
    for mode, (mode_answers, mode_held) in runs.items():
        assert mode_held == live, mode
        assert mode_answers == answers, mode
    # Not vacuous: every kind of write and both renew outcomes happened.
    kinds = {kind for _t, actions in steps for kind, _, _ in actions}
    assert kinds == {"publish", "renew", "remove"}
    replies = {msg_type for step in answers for msg_type, _ in step}
    assert {protocol.PUBLISH_ACK, protocol.RENEW_ACK, protocol.RENEW_NACK,
            protocol.REMOVE_ACK} <= replies
    assert len(live) < len({ad_id for _t, a in steps for k, ad_id, _ in a if k == "publish"})



#: One registry's lease work: grants, the renewals of every third lease,
#: and the one purge that expires them all.
GRANTS, RENEWED = 1_000, 334


def _lease_work(traced: bool, monkeypatch) -> dict:
    """Run the lease work on a settled ring registry under a test clock:
    the ``TraceRecorder.alias`` calls it made, how far it moved the trace
    sequence, what it added to the ``lease.*`` counters, its lease events
    (with a capture), the leases in grant order and the recorder."""
    dep = e7_ring(traced=traced)
    system, registry = dep.system, dep.system.registries[0]
    trace, now = system.trace, [system.sim.now]
    monkeypatch.setattr(registry.leases, "clock", lambda: now[0])
    aliased, alias = [], TraceRecorder.alias
    monkeypatch.setattr(TraceRecorder, "alias",
                        lambda rec, raw: aliased.append(raw) or alias(rec, raw))
    counters = {name: system.metrics.counter(name)
                for name in ("lease.grant", "lease.renew", "lease.expire")}
    counted = {name: counter.value for name, counter in counters.items()}
    seq, events = trace._seq, len(trace.events)
    writes, leases = registry.writes, []
    for n in range(GRANTS):
        ad = Advertisement(ad_id=f"ad-work-{n}", service_node="svc-node-x",
                           service_name="svc", endpoint="svc://x", model_id="uri",
                           description=UriDescription("ncw:RadarService", "svc://x"))
        leases.append(writes.store_ad(ad, lease_duration=5.0, epoch=0, notify=False))
    for lease in leases[::3]:
        assert writes.renew_ad(lease.ad_id, epoch=0, lease_id=lease.lease_id)
    now[0] += 10.0
    writes._purge()
    assert not any(lease.ad_id in registry.store for lease in leases)
    return {
        "aliased": len(aliased),
        "seq": trace._seq - seq,
        "counted": {name: counters[name].value - was for name, was in counted.items()},
        "events": list(trace.events)[events:],
        "leases": leases,
        "trace": trace,
    }


def test_a_lease_report_nobody_hears_builds_nothing_and_counts_alike(monkeypatch):
    """With nobody listening, lease grants, renewals and expiries alias no
    id, yet count and advance the trace sequence one record each, as with a
    capture attached; there each ``lease.*`` event names its ad and lease
    by their run-local tokens, ``ad`` first."""
    unheard = _lease_work(False, monkeypatch)
    monkeypatch.undo()
    heard = _lease_work(True, monkeypatch)
    records = GRANTS + RENEWED + GRANTS
    counted = {"lease.grant": GRANTS, "lease.renew": RENEWED, "lease.expire": GRANTS}
    assert (unheard["aliased"], unheard["events"]) == (0, [])
    assert unheard["seq"] == heard["seq"] == records
    assert unheard["counted"] == heard["counted"] == counted

    leases, trace = heard["leases"], heard["trace"]
    reported = ([("lease.grant", lease) for lease in leases]
                + [("lease.renew", lease) for lease in leases[::3]]
                + [("lease.expire", lease) for lease in leases])
    assert heard["aliased"] == 2 * records
    assert [(e.name, e.attrs) for e in heard["events"]] == [
        (name, {"ad": trace.alias(lease.ad_id), "lease": trace.alias(lease.lease_id)})
        for name, lease in reported]
    for head, raw in (("ad~", lambda lease: lease.ad_id), ("lease~", lambda lease: lease.lease_id)):
        tokens = {trace.alias(raw(lease)) for lease in leases}
        assert len(tokens) == GRANTS and all(token.startswith(head) for token in tokens)
