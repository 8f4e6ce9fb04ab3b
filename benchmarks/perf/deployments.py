"""The four benchmark workloads: inputs, deployment, operations, checks.

Every workload is a closed loop with one outstanding operation: the next
operation is issued only when the previous one has completed (the
simulator is stepped until the client's call completes or the write's
acknowledgement has been handled). Inputs are a function of ``--seed``
only and are generated *before* set-up is timed; the program under test
receives nothing but those inputs.

What a seed changes: the advertised profiles, the order of the churn
operations and, on the two small deployments, the requests. What it does
not change: the ontology (the schema of the workload; the generated one
is pinned to ``ONTOLOGY_SEED``) and the requests of the two store-bound
workloads (see :func:`reference_population`). Both decide the *shape* of
the work, and a per-seed shape would make every seed a different workload.

Oracle work (linear scans over a harness-side copy of the advertisements)
runs outside every timed region.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

import probes
from repro.core import protocol
from repro.core.client_node import DiscoveryCall
from repro.core.config import DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.system import DiscoverySystem
from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator, battlefield_ontology
from repro.semantics.matchmaker import Matchmaker
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.semantics.reasoner import Reasoner
from repro.workloads.scenarios import ScenarioSpec, build_scenario
from spans import ROOT_SPAN, RECOVER_TARGETS, SpanRecorder, patched

MODEL = "semantic"
WAN_LANS = ("lan-0", "lan-1", "lan-2")
N_REQUESTS = 256
MAX_RESULTS = 5
#: Simulated time at which a deployment counts as settled (as in E7).
SETTLE_AT = 12.0
#: Seed of the generated ontology (see the module docstring).
ONTOLOGY_SEED = 42

HitKey = tuple[tuple[str, int, float], ...]


def hit_key(hits: list[QueryHit]) -> HitKey:
    return tuple((h.advertisement.ad_id, h.degree, round(h.score, 12)) for h in hits)


def well_formed(call: DiscoveryCall) -> bool:
    """Completed in time with 1..max_results hits in rank order."""
    if not call.completed or call.timed_out:
        return False
    if not 1 <= len(call.hits) <= MAX_RESULTS:
        return False
    keys = [hit.sort_key() for hit in call.hits]
    return keys == sorted(keys)


def anchored_requests(
    ontology: Ontology, profiles: list[ServiceProfile], seed: int
) -> tuple[list[int], list[ServiceRequest]]:
    """``N_REQUESTS`` requests, each phrased one step more generally than a
    randomly chosen deployed profile (so each has at least one answer)."""
    generator = ProfileGenerator(ontology, seed=seed + 1)
    anchors = [generator.rng.randrange(len(profiles)) for _ in range(N_REQUESTS)]
    requests = [
        generator.request_for(profiles[a], generalize=1, max_results=MAX_RESULTS)
        for a in anchors
    ]
    return anchors, requests


def reference_population(
    ontology: Ontology, seed: int, count: int
) -> tuple[list[ServiceProfile], list[int], list[ServiceRequest]]:
    """``count`` profiles of which the first ``N_REQUESTS`` and the requests
    anchored at them are the same for every seed.

    On a large store the cost of a request is heavy-tailed (p99/p50 is
    15-20), so a per-seed sample of 256 requests makes every seed a
    different workload: measured across ten seeds, ``discover_p99_ms``
    spread by 0.34-0.63 of its median against 0.04-0.08 within one seed.
    The seed draws the other advertisements, which is what the stores'
    statistics depend on.
    """
    reference = ProfileGenerator(ontology, seed=ONTOLOGY_SEED)
    anchors = list(range(N_REQUESTS))
    profiles = [reference.random_profile(i) for i in anchors]
    requests = [
        reference.request_for(profile, generalize=1, max_results=MAX_RESULTS)
        for profile in profiles
    ]
    generator = ProfileGenerator(ontology, seed=seed)
    profiles += [generator.random_profile(i) for i in range(N_REQUESTS, count)]
    return profiles, anchors, requests


def linear_oracle(ontology: Ontology, ads: list[Advertisement]) -> tuple[AdvertisementStore, QueryEvaluator]:
    """An index-free evaluator over a harness-side store (the reference)."""
    store = AdvertisementStore()
    for ad in ads:
        store.put(ad)
    evaluator = QueryEvaluator(
        store, ModelRegistry([SemanticModel(ontology)]), use_indexes=False
    )
    return store, evaluator


def oracle_key(evaluator: QueryEvaluator, request: ServiceRequest) -> HitKey:
    return hit_key(evaluator.evaluate(MODEL, request, max_results=MAX_RESULTS))


@dataclass
class Inputs:
    """Everything a workload feeds the program; a function of the seed."""

    seed: int
    #: Multiplies store sizes and warm-up counts (1.0 except in the self-test).
    scale: float
    ontology: Ontology
    profiles: list[ServiceProfile]
    anchors: list[int]
    requests: list[ServiceRequest]
    #: Pre-built records for the bulk load (``wan_100k``).
    ads: list[Advertisement] = field(default_factory=list)
    #: Profiles published during the timed churn stream.
    publish_pool: list[ServiceProfile] = field(default_factory=list)
    #: Request indexes checked against the linear oracle (``wan_100k``,
    #: where checking all of them would take minutes).
    oracle_sample: list[int] = field(default_factory=list)


@dataclass
class Deployment:
    """One built deployment plus the harness's bookkeeping about it."""

    system: DiscoverySystem
    inputs: Inputs
    #: Expected hits per request index, from the oracle.
    expected: dict[int, HitKey] = field(default_factory=dict)
    #: First answer seen per request index (static stores must repeat it).
    seen: dict[int, HitKey] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Set for the duration of the traced pass.
    rec: SpanRecorder | None = None
    #: Host seconds spent inside ``store.put`` during the bulk load.
    index_build_s: float = 0.0
    # -- churn_mix only --
    publisher: "BenchPublisher | None" = None
    mirror: AdvertisementStore | None = None
    oracle: QueryEvaluator | None = None
    leases: dict[str, tuple[str, str]] = field(default_factory=dict)
    removable: list[str] = field(default_factory=list)
    rng: random.Random | None = None
    published: int = 0
    #: Discovers issued so far; clients and requests are cycled by it.
    cursor: int = 0

    @property
    def requests(self) -> list[ServiceRequest]:
        return self.inputs.requests

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def timed(self, fn: Any, *args: Any) -> tuple[int, Any]:
        """Run ``fn(*args)`` under the clock (and, in the traced pass, under
        the per-operation root span). Checks happen outside."""
        rec = self.rec
        if rec is None:
            t0 = time.perf_counter_ns()
            result = fn(*args)
            return time.perf_counter_ns() - t0, result
        idx = rec.open(rec.name(ROOT_SPAN))
        try:
            t0 = time.perf_counter_ns()
            result = fn(*args)
            elapsed = time.perf_counter_ns() - t0
        finally:
            rec.close(idx)
        return elapsed, result

    def discover(self) -> tuple[int, int, DiscoveryCall]:
        """The next discover: (host ns, request index, call)."""
        clients = self.system.clients
        i = self.cursor
        self.cursor += 1
        r = i % len(self.requests)
        elapsed, call = self.timed(
            self.system.discover, clients[i % len(clients)], self.requests[r]
        )
        return elapsed, r, call

    def counters(self) -> dict[str, int]:
        """Counts kept by the program itself (functions of the seed only)."""
        system = self.system
        stats = system.network.stats
        registries = system.registries
        return {
            "events": system.sim.events_processed,
            "sends": stats.messages_sent,
            "deliveries": stats.messages_delivered,
            "bytes": stats.bytes_sent,
            "trace_records": len(system.trace.spans) + len(system.trace.events),
            "scored": sum(r.evaluator.descriptions_evaluated for r in registries),
            "prefiltered": sum(r.evaluator.prefiltered for r in registries),
            "early_terminations": sum(r.evaluator.early_terminations for r in registries),
            "wal_appends": sum(r.durability.wal_appends for r in registries),
        }


class Workload:
    """Base: a static store queried by cycling clients over the requests."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median. Short set-ups are
    #: noisy and cheap to repeat, the 100k bulk load is neither.
    setup_repeats = 5
    warmup = N_REQUESTS
    #: Operations per round of the timed phase: one pass over the requests,
    #: so that every round does the same work.
    round_ops = N_REQUESTS
    #: Rounds of the ``--trace 0`` run per requested second, calibrated on
    #: the reference box so that the timed phase lasts about that long.
    rounds_per_s = 0.0
    #: Same for the ``--trace 1`` run, which does that many rounds untraced
    #: (the reference rate) and then as many again under spans.
    trace_rounds_per_s = 0.0

    def inputs(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def build(self, inputs: Inputs) -> Deployment:
        """Set-up: build, bulk load, settle, warm up. Timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self, dep: Deployment) -> None:
        """Untimed: compute the oracle's answers."""

    def op(self, dep: Deployment) -> tuple[str, int]:
        """Run and check the next operation; returns (kind, host ns)."""
        elapsed, r, call = dep.discover()
        key = hit_key(call.hits)
        ok = well_formed(call) and dep.expected.get(r, key) == key
        # A static store must answer a repeated request identically.
        ok = ok and dep.seen.setdefault(r, key) == key
        dep.record(ok)
        return "discover", elapsed

    def warm_up(self, dep: Deployment) -> None:
        for _ in range(max(1, int(self.warmup * dep.inputs.scale))):
            dep.discover()

    def before_ops(self, dep: Deployment) -> dict[str, float]:
        """``--trace 1`` only: extra measurements before the first operation."""
        return {}

    def finish(self, dep: Deployment) -> dict[str, float]:
        """Post-run checks (recorded in ``dep``) and measurements."""
        return {}

    def after_ops(self, dep: Deployment) -> dict[str, float]:
        """``--trace 1`` only: the isolated probes attached to this workload."""
        return {}


def _wan_spec(name: str, ontology: Ontology, seed: int, services_per_lan: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        lan_names=WAN_LANS,
        ontology_factory=lambda: ontology,
        registries_per_lan=1,
        services_per_lan=services_per_lan,
        clients_per_lan=1,
        federation="ring",
        model_ids=(MODEL,),
        seed=seed,
    )


def _deployed_profiles(ontology: Ontology, seed: int, lans: tuple[str, ...],
                       per_lan: int) -> list[ServiceProfile]:
    """The profiles ``build_scenario`` will give its service nodes."""
    generator = ProfileGenerator(ontology, seed=seed)
    providers = [lan for lan in lans for _ in range(per_lan)]
    return [generator.random_profile(i, provider=lan) for i, lan in enumerate(providers)]


class WanSmall(Workload):
    name = "wan_small"
    rounds_per_s = 3.6
    trace_rounds_per_s = 1.0

    def inputs(self, seed: int, scale: float) -> Inputs:
        ontology = battlefield_ontology()
        profiles = _deployed_profiles(ontology, seed, WAN_LANS, 4)
        anchors, requests = anchored_requests(ontology, profiles, seed)
        return Inputs(seed, scale, ontology, profiles, anchors, requests)

    def build(self, inputs: Inputs) -> Deployment:
        built = build_scenario(
            _wan_spec(self.name, inputs.ontology, inputs.seed, 4), config=DiscoveryConfig()
        )
        if built.profiles != inputs.profiles:
            raise RuntimeError("scenario profiles diverged from the generated inputs")
        dep = Deployment(built.system, inputs)
        dep.system.run(until=SETTLE_AT)
        self.warm_up(dep)
        return dep

    def prepare(self, dep: Deployment) -> None:
        ads = [ad for registry in dep.system.registries for ad in registry.store.all()]
        _store, oracle = linear_oracle(dep.inputs.ontology, ads)
        dep.expected = {
            r: oracle_key(oracle, request) for r, request in enumerate(dep.requests)
        }

    def after_ops(self, dep: Deployment) -> dict[str, float]:
        """Tracing off vs on, in alternating blocks on the same deployment."""
        block = max(8, int(750 * dep.inputs.scale))
        rates: dict[bool, list[float]] = {True: [], False: []}
        try:
            for enabled in (True, False, True, False):
                dep.system.trace.enabled = enabled
                busy = 0
                for _ in range(block):
                    _kind, elapsed = self.op(dep)
                    busy += elapsed
                rates[enabled].append(block / busy)
        finally:
            dep.system.trace.enabled = True
        return {"obs.trace.off_speedup": sum(rates[False]) / sum(rates[True])}


class Wan100k(Workload):
    name = "wan_100k"
    setup_repeats = 1
    rounds_per_s = 0.42
    trace_rounds_per_s = 0.085
    n_ads = 100_000

    def inputs(self, seed: int, scale: float) -> Inputs:
        count = max(300, int(self.n_ads * scale))
        ontology = OntologyGenerator(ONTOLOGY_SEED).random_ontology()
        profiles, anchors, requests = reference_population(ontology, seed, count)
        ads = [
            Advertisement(
                ad_id=f"bulk-{i:06d}",
                service_node=f"bulk-node-{i}",
                service_name=profile.service_name,
                endpoint=f"svc://{profile.service_name}",
                model_id=MODEL,
                description=profile,
                home_registry=f"registry-{i % len(WAN_LANS):02d}",
            )
            for i, profile in enumerate(profiles)
        ]
        sample = random.Random(seed).sample(range(N_REQUESTS), 8)
        return Inputs(seed, scale, ontology, profiles, anchors, requests, ads=ads,
                      oracle_sample=sample)

    def build(self, inputs: Inputs) -> Deployment:
        built = build_scenario(
            _wan_spec(self.name, inputs.ontology, inputs.seed, 0), config=DiscoveryConfig()
        )
        dep = Deployment(built.system, inputs)
        system = dep.system
        system.run(until=2.0)  # registries started: lease managers exist
        registries = system.registries
        t0 = time.perf_counter()
        for i, ad in enumerate(inputs.ads):
            registries[i % len(registries)].store.put(ad)
        dep.index_build_s = time.perf_counter() - t0
        for i, ad in enumerate(inputs.ads):
            registries[i % len(registries)].leases.grant(ad.ad_id, 1e9)
        system.run(until=SETTLE_AT)
        self.warm_up(dep)
        return dep

    def prepare(self, dep: Deployment) -> None:
        _store, oracle = linear_oracle(dep.inputs.ontology, dep.inputs.ads)
        dep.expected = {
            r: oracle_key(oracle, dep.requests[r]) for r in dep.inputs.oracle_sample
        }

    def before_ops(self, dep: Deployment) -> dict[str, float]:
        return {"registry.index.build_s": dep.index_build_s}

    def after_ops(self, dep: Deployment) -> dict[str, float]:
        return probes.semantics_probes(dep.inputs.ontology)


class BenchPublisher(Node):
    """The harness's own protocol agent: publishes, renews and removes
    advertisements over the wire and collects the registries' answers."""

    role = "bench"

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.replies: list[Envelope] = []

    def _collect(self, envelope: Envelope) -> None:
        # Acks and refusals alike: the caller decides what counts as success.
        self.replies.append(envelope)

    handle_publish_ack = handle_publish_nack = _collect
    handle_renew_ack = handle_renew_nack = _collect
    handle_remove_ack = handle_busy = _collect

    def request(self, dst: str, msg_type: str, payload: Any) -> Envelope | None:
        """Send one request and step the simulator until it is answered."""
        self.replies.clear()
        self.send(dst, msg_type, payload, payload_type=MODEL)
        sim = self.sim
        deadline = sim.now + 30.0
        while not self.replies and sim.step(until=deadline):
            pass
        return self.replies[0] if self.replies else None


#: Lease length asked for by the churn publisher: nothing expires in a run.
LONG_LEASE = 1e6


class ChurnMix(Workload):
    name = "churn_mix"
    setup_repeats = 3
    #: Half the operations are discovers: about one pass over the requests.
    round_ops = 2 * N_REQUESTS
    rounds_per_s = 0.9
    trace_rounds_per_s = 0.17
    n_ads = 10_000
    #: Every n-th discover is compared with the oracle over the mirror.
    oracle_every = 50

    def inputs(self, seed: int, scale: float) -> Inputs:
        count = max(300, int(self.n_ads * scale))
        ontology = OntologyGenerator(ONTOLOGY_SEED).random_ontology()
        # The loaded store is the same for every seed; the seed draws what
        # the churn stream publishes and which advertisements it touches.
        # At 3.3k advertisements per registry the candidate set of a broad
        # request swings by +-20 % from one random store to the next, and a
        # few such requests carry a fifth of the discover time.
        profiles, anchors, requests = reference_population(ontology, ONTOLOGY_SEED, count)
        generator = ProfileGenerator(ontology, seed=seed + 1)
        pool = [generator.random_profile(count + i) for i in range(max(64, int(4096 * scale)))]
        return Inputs(seed, scale, ontology, profiles, anchors, requests, publish_pool=pool)

    def _publish_payload(self, profile: ServiceProfile, ad_id: str) -> protocol.PublishPayload:
        return protocol.PublishPayload(
            service_node=f"bench-{ad_id}",
            service_name=profile.service_name,
            endpoint=f"svc://{profile.service_name}",
            model_id=MODEL,
            description=profile,
            ad_id=ad_id,
            lease_duration=LONG_LEASE,
        )

    def _acked(self, dep: Deployment, reply: Envelope, profile: ServiceProfile) -> None:
        """Mirror one acknowledged publish."""
        ack = reply.payload
        dep.mirror.put(Advertisement(
            ad_id=ack.ad_id,
            service_node=f"bench-{ack.ad_id}",
            service_name=profile.service_name,
            endpoint=f"svc://{profile.service_name}",
            model_id=MODEL,
            description=profile,
            home_registry=reply.src,
        ))
        dep.leases[ack.ad_id] = (ack.lease_id, reply.src)

    def build(self, inputs: Inputs) -> Deployment:
        # Snapshots on the 512-record trigger only. The periodic one fires
        # every 30 *simulated* seconds, and a closed loop advances simulated
        # time by ~0.2 s per discover whatever the host does, so it would
        # put a full-store pickle into every ~50th discover for no reason a
        # deployment would share.
        config = DiscoveryConfig(
            durability=DurabilityConfig(enabled=True, snapshot_interval=None))
        built = build_scenario(_wan_spec(self.name, inputs.ontology, inputs.seed, 0),
                               config=config)
        dep = Deployment(built.system, inputs)
        system = dep.system
        dep.publisher = publisher = BenchPublisher("bench-publisher")
        system.network.add_node(publisher, WAN_LANS[0])
        dep.mirror, dep.oracle = linear_oracle(inputs.ontology, [])
        dep.rng = random.Random(inputs.seed + 2)
        system.run(until=2.0)
        registries = system.registries
        by_id = {}
        for i, profile in enumerate(inputs.profiles):
            ad_id = f"churn-{i:06d}"
            by_id[ad_id] = profile
            publisher.send(registries[i % len(registries)].node_id, protocol.PUBLISH,
                           self._publish_payload(profile, ad_id), payload_type=MODEL)
        system.run_for(1.0)
        for reply in publisher.replies:
            if reply.msg_type == protocol.PUBLISH_ACK:
                self._acked(dep, reply, by_id[reply.payload.ad_id])
        if len(dep.mirror) != len(inputs.profiles):
            raise RuntimeError(
                f"bulk publish: {len(dep.mirror)} of {len(inputs.profiles)} acknowledged"
            )
        dep.published = len(inputs.profiles)
        # The anchors keep every request answerable: they are never removed.
        protected = {f"churn-{a:06d}" for a in inputs.anchors}
        dep.removable = [ad_id for ad_id in by_id if ad_id not in protected]
        system.run(until=SETTLE_AT)
        self.warm_up(dep)
        return dep

    # -- operations --------------------------------------------------------

    def _check_discover(self, dep: Deployment, r: int, call: DiscoveryCall) -> None:
        ok = well_formed(call)
        if ok and dep.cursor % self.oracle_every == 0:
            ok = hit_key(call.hits) == oracle_key(dep.oracle, dep.requests[r])
        dep.record(ok)

    def op(self, dep: Deployment) -> tuple[str, int]:
        draw = dep.rng.random()
        publisher = dep.publisher
        if draw < 0.5:
            elapsed, r, call = dep.discover()
            self._check_discover(dep, r, call)
            return "discover", elapsed
        if draw < 0.7 or not dep.removable:
            pool = dep.inputs.publish_pool
            profile = pool[dep.published % len(pool)]
            ad_id = f"churn-{dep.published:06d}"
            registries = dep.system.registries
            target = registries[dep.published % len(registries)].node_id
            dep.published += 1
            elapsed, reply = dep.timed(publisher.request, target, protocol.PUBLISH,
                                       self._publish_payload(profile, ad_id))
            ok = reply is not None and reply.msg_type == protocol.PUBLISH_ACK
            if ok:
                self._acked(dep, reply, profile)
                dep.removable.append(ad_id)
            dep.record(ok)
            return "publish", elapsed
        slot = dep.rng.randrange(len(dep.removable))
        ad_id = dep.removable[slot]
        lease_id, home = dep.leases[ad_id]
        if draw < 0.9:
            elapsed, reply = dep.timed(publisher.request, home, protocol.RENEW,
                                       protocol.RenewPayload(lease_id=lease_id, ad_id=ad_id))
            dep.record(reply is not None and reply.msg_type == protocol.RENEW_ACK)
            return "renew", elapsed
        dep.removable[slot] = dep.removable[-1]
        dep.removable.pop()
        elapsed, reply = dep.timed(publisher.request, home, protocol.REMOVE,
                                   protocol.RemovePayload(ad_id=ad_id))
        ok = reply is not None and reply.msg_type == protocol.REMOVE_ACK
        if ok:
            dep.mirror.discard(ad_id)
            del dep.leases[ad_id]
        dep.record(ok)
        return "remove", elapsed

    def before_ops(self, dep: Deployment) -> dict[str, float]:
        """Discover latency on the still-static 10k store, same process."""
        latencies = []
        for _ in range(max(8, int(N_REQUESTS * dep.inputs.scale))):
            elapsed, _r, call = dep.discover()
            dep.record(well_formed(call))
            latencies.append(elapsed)
        latencies.sort()
        return {"bench.static_discover_p50_ms": latencies[len(latencies) // 2] / 1e6}

    def finish(self, dep: Deployment) -> dict[str, float]:
        """Crash and restart each registry in turn; check what comes back."""
        system = dep.system
        registries = system.registries
        dep.record(sum(len(r.store) for r in registries) == len(dep.mirror))
        restart_s, replayed = [], 0
        rec = SpanRecorder()
        with patched(rec, RECOVER_TARGETS):
            for registry in registries:
                held = len(registry.store)
                before = registry.durability.replayed
                registry.crash()
                t0 = time.perf_counter()
                registry.restart()
                restart_s.append(time.perf_counter() - t0)
                replayed += registry.durability.replayed - before
                dep.record(len(registry.store) == held)
                system.run_for(2.0)  # the restarted registry re-joins the ring
        for _ in range(32):
            _elapsed, r, call = dep.discover()
            ok = well_formed(call)
            dep.record(ok and hit_key(call.hits) == oracle_key(dep.oracle, dep.requests[r]))
        replay_ns = sorted(rec.durations_ns("DurabilityManager.recover"))
        return {
            "recover_s": sorted(restart_s)[len(restart_s) // 2],
            "core.durability.replay_s": replay_ns[len(replay_ns) // 2] / 1e9,
            "core.durability.replayed_records": float(replayed),
        }

    def after_ops(self, dep: Deployment) -> dict[str, float]:
        return probes.wal_probes(dep.inputs.publish_pool)


class LanFallback(Workload):
    name = "lan_fallback"
    warmup = 32
    rounds_per_s = 0.5
    trace_rounds_per_s = 0.085
    n_services = 100

    def inputs(self, seed: int, scale: float) -> Inputs:
        ontology = battlefield_ontology()
        profiles = _deployed_profiles(ontology, seed, ("lan-0",), self.n_services)
        anchors, requests = anchored_requests(ontology, profiles, seed)
        return Inputs(seed, scale, ontology, profiles, anchors, requests)

    def build(self, inputs: Inputs) -> Deployment:
        spec = ScenarioSpec(
            name=self.name,
            lan_names=("lan-0",),
            ontology_factory=lambda: inputs.ontology,
            registries_per_lan=0,
            services_per_lan=self.n_services,
            clients_per_lan=2,
            federation="none",
            model_ids=(MODEL,),
            seed=inputs.seed,
        )
        built = build_scenario(spec, config=DiscoveryConfig(), with_registries=False)
        if built.profiles != inputs.profiles:
            raise RuntimeError("scenario profiles diverged from the generated inputs")
        dep = Deployment(built.system, inputs)
        dep.system.run(until=SETTLE_AT)
        self.warm_up(dep)
        return dep

    def prepare(self, dep: Deployment) -> None:
        """Every service answers for itself; the client keeps the best five."""
        matchmaker = Matchmaker(Reasoner(dep.inputs.ontology))
        services = dep.system.services
        for r, request in enumerate(dep.requests):
            hits = []
            for service, profile in zip(services, dep.inputs.profiles):
                result = matchmaker.match(profile, request)
                if result.matched:
                    hits.append(QueryHit(service.self_advertisement(MODEL),
                                         int(result.degree), result.score))
            hits.sort(key=QueryHit.sort_key)
            dep.expected[r] = hit_key(hits[:MAX_RESULTS])

    def after_ops(self, dep: Deployment) -> dict[str, float]:
        return probes.netsim_probes()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WanSmall(), Wan100k(), ChurnMix(), LanFallback())
}
