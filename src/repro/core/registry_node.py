"""The registry node: an autonomous, federating super-peer.

"A registry node … is a registry capable of collaborating in a dynamic
way with other registry nodes. A registry node can operate autonomously
since it stores advertisements and is capable of evaluating queries. In
addition, it is responsible for cleaning up advertisements representing
obsolete services."

Composition: an :class:`~repro.registry.AdvertisementStore` (thick
storage), a :class:`~repro.registry.LeaseManager` (aliveness, §4.8), a
:class:`~repro.registry.QueryEvaluator` over pluggable description models,
an :class:`~repro.core.repository.ArtifactRepository` (§4.6), and a
:class:`~repro.core.federation.Federation` (registry network maintenance,
§4.9). Writes — publish / renew / remove, the lease purge, every change
to what this replica holds and how far it travels — are the
:class:`~repro.core.writes.WriteCoordinator`'s; queries — local
evaluation, forwarding, aggregation, the answer — the
:class:`~repro.core.query.QueryCoordinator`'s. The cooperation mode both
follow is picked by configuration, once, in the constructor. The node
itself keeps the lifecycle, fencing, its self-description, subscriptions
and artifacts.

Registry content is *soft state*: a crash loses everything, and the
architecture rebuilds it from service-node republishes and leases — which
is exactly why the paper insists on aliveness information rather than
durable registry storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import protocol
from repro.core.admission import AdmissionController
from repro.core.antientropy import AntiEntropy
from repro.core.config import (
    COOPERATION_REPLICATE_ADS,
    DiscoveryConfig,
    STRATEGY_INFORMED,
)
from repro.core.durability import (
    DurabilityManager,
    FENCED_MSG_TYPES,
    INCARNATION_HEADER,
)
from repro.core.federation import Federation
from repro.core.query import QueryCoordinator
from repro.core.repository import ArtifactRepository
from repro.core.routing import router_for
from repro.core.sharding import ShardManager
from repro.core.writes import FloodReplicator, WriteCoordinator
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.obs.tracing import TraceRecorder
from repro.registry.advertisements import Advertisement
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.rim import RegistryDescription, RegistryInfoModel
from repro.registry.store import AdvertisementStore


@dataclass
class _Subscription:
    """One standing query registered by a client (notification support)."""

    request: protocol.SubscribePayload
    subscriber: str
    expires_at: float


class RegistryNode(Node):
    """One autonomous registry super-peer."""

    role = "registry"
    payload_records = protocol.MESSAGE_RECORDS
    #: Whether this registry serves; a standby does not while dormant.
    active = True

    def __init__(
        self,
        node_id: str,
        config: DiscoveryConfig,
        models: list[DescriptionModel],
        *,
        seeds: tuple[str, ...] = (),
        capacity: int | None = None,
    ) -> None:
        super().__init__(node_id)
        self.config = config
        #: Maximum stored advertisements ("capacity … distribution often
        #: [is] asymmetric"); ``None`` = unbounded. Publishes beyond it
        #: are NACKed, pushing the service to another registry.
        self.capacity = capacity
        self.models = ModelRegistry(models)
        #: Static federation seeds (manual WAN configuration, §4.5);
        #: survive crashes, unlike learned neighbors.
        self.seeds = tuple(seeds)
        self.rim = RegistryInfoModel(
            registry_id=node_id,
            lan_name="",
            supported_models=self.models.model_ids(),
        )
        # Every registry constructs every subsystem (their counters are
        # read where they are off); one the configuration leaves off is
        # registered nowhere below, and never asked whether it is on.
        self.federation = Federation(self, config, describe=self.describe)
        self.antientropy = AntiEntropy(self, config)
        #: Overload protection: bounded service queue + BUSY shedding.
        self.admission = AdmissionController(self, config.admission)
        #: Adaptive target selection for fan-out and walk next hops, fed
        #: passively by forwarded-query round-trips and peer BUSYs.
        self.router = router_for(config.routing, self)
        #: WAL + snapshot persistence and epoch-fenced crash recovery.
        self.durability = DurabilityManager(self, config.durability)
        #: Consistent-hash placement, rebalancing, hinted handoff.
        self.shard = ShardManager(self, config)
        self.notifications_sent = 0
        #: How far a write travels beyond this store (§4.9), picked once:
        #: nowhere, the flood, or the shard ring — see ``writes.py``.
        if config.cooperation != COOPERATION_REPLICATE_ADS:
            mode = None
        elif config.sharding.enabled:
            mode = self.shard
        else:
            mode = FloodReplicator(self)
        #: Every write this registry applies, answers or sends on.
        self.writes = WriteCoordinator(self, mode)
        ring = self.writes.ring
        #: Every query this registry evaluates, forwards or gathers for; a
        #: sharded registry reads a replica-group cover instead of its
        #: forwarding strategy.
        self.queries = QueryCoordinator(
            self, read_plan=ring.plan_read if ring is not None else None)
        #: The optional subsystems in use, in the order they are started
        #: with the registry: the write observers, then the mode.
        self.components: list[Any] = [*self.writes.observers]
        if mode is not None:
            self.components.append(mode)
        if config.admission.active():
            self.interceptor = self.admission
        # Components serve their own message types — one that is not in
        # use none, so its traffic is an unknown message type here.
        self.adopt_handlers(self.federation)
        self.adopt_handlers(self.queries)
        self.adopt_handlers(self.writes)
        if config.antientropy_enabled():
            self.adopt_handlers(self.antientropy)
        if mode is not None:
            self.adopt_handlers(mode)
        self.rebuild()

    # -- lifecycle ----------------------------------------------------------

    def rebuild(self) -> None:
        """Build the soft state — store, artifacts, leases, subscriptions,
        fencing — and that of every component in use, queries and writes
        in flight included. What a restart keeps is set in the
        constructor, or (through :meth:`on_restart`) read back from the
        disk."""
        self.store = AdvertisementStore()
        self.evaluator = QueryEvaluator(self.store, self.models)
        self.repository = ArtifactRepository()
        self.rim.lan_name = ""  # described as on no LAN until it starts serving
        #: Identity under which this registry's virtual nodes hash onto
        #: the consistent-hash ring. Normally the node id; a promoted
        #: warm standby inherits the identity of the registry it
        #: replaces so promotion moves no keys.
        self.ring_identity = self.node_id
        #: Highest incarnation epoch seen per peer (fencing state); only
        #: ever populated by peers that stamp their replication traffic.
        self._peer_incarnations: dict[str, int] = {}
        self._subscriptions: dict[str, _Subscription] = {}
        self.leases = LeaseManager(
            lambda: self.sim.now,
            default_duration=self.config.lease_duration,
            on_event=self.writes.lease_event,
        )
        for component in (self.federation, self.queries, self.writes, self.admission,
                          self.router, *self.components):
            component.rebuild()

    def start(self) -> None:
        """Arm periodic tasks, start the components in use, probe the
        LAN, and join seed registries."""
        if self.config.beacon_interval is not None:
            self.every(self.config.beacon_interval, self._beacon,
                       initial_delay=self.config.beacon_interval)
        self.writes.start()
        self.federation.start()
        self.rim.lan_name = self.lan_name or ""
        for component in self.components:
            component.start()
        # Find same-LAN peer registries immediately (gateway election needs
        # them) and join the statically seeded WAN peers.
        self.multicast(protocol.REGISTRY_PROBE)
        for seed in self.seeds:
            self.federation.join(seed)

    def on_crash(self) -> None:
        """Queued-but-unserved work dies with the registry."""
        self.admission.on_crash()

    def on_restart(self) -> None:
        """Replay the persisted snapshot+WAL (durability on): the one step
        a restart adds to a fresh start; a standby back dormant replays at
        its promotion. The seed joins are sent but no ack can have arrived,
        so the join-time digest exchange is a delta repair round."""
        if self.active:
            self.durability.recover()

    def send(
        self,
        dst: str,
        msg_type: str,
        payload: Any = None,
        *,
        payload_type: str | None = None,
        headers: dict[str, Any] | None = None,
        hops: int = 0,
    ) -> Envelope:
        """Stamp replication traffic with our incarnation epoch.

        Only when durability is enabled — the default deployment sends
        byte-identical messages with no extra header. Headers do not
        contribute to the wire-size model, so enabling durability does
        not perturb delivery timing either.
        """
        if self.durability.enabled and msg_type in FENCED_MSG_TYPES:
            headers = self.durability.stamp(headers)
        return super().send(
            dst, msg_type, payload,
            payload_type=payload_type, headers=headers, hops=hops,
        )

    def dispatch(self, envelope: Envelope) -> None:
        """Fence replication traffic once, for every handler (the
        receive-side twin of :meth:`send`), then route as usual."""
        if envelope.msg_type in FENCED_MSG_TYPES and self._fence_stale(envelope):
            return
        super().dispatch(envelope)

    def _fence_stale(self, envelope: Envelope) -> bool:
        """Drop replication traffic from a peer's previous incarnation.

        A registry that crashed with messages in flight bumps its
        persisted epoch on recovery; once we have seen the new epoch
        (the rejoin handshake carries it), any lower-stamped straggler
        is a pre-crash write that post-recovery state already
        supersedes — absorbing it could resurrect retired data.
        Unstamped messages (durability off, plain peers) pass freely.
        """
        stamp = envelope.headers.get(INCARNATION_HEADER)
        if stamp is None:
            return False
        known = self._peer_incarnations.get(envelope.src, -1)
        if stamp < known:
            self.durability.fenced += 1
            self.count("durability.fenced")
            self.note("durability.fenced",
                      {"from": envelope.src, "stale": stamp, "current": known},
                      ctx=TraceRecorder.extract(envelope.headers))
            return True
        self._peer_incarnations[envelope.src] = stamp
        return False

    def describe(self) -> RegistryDescription:
        """Self-description for beacons, probe replies, and signalling."""
        return self.rim.describe(
            advertisement_count=len(self.store),
            neighbor_count=len(self.federation.neighbors),
            artifact_names=tuple(self.repository.names()),
            # Index terms of the stored advertisements (content summary):
            # carried for the one strategy that routes by them — they cost
            # larger beacons and gossip.
            summary_terms=self.models.summary_terms(self.store.all())
            if self.config.strategy == STRATEGY_INFORMED else (),
            issued_at=self.sim.now if self.network is not None else 0.0,
            # Empty (zero bytes) unless we place by ring: so peers place
            # us, and a standby can inherit our positions.
            ring_id=self.ring_identity if self.writes.ring is not None else "",
        )

    # -- registry network maintenance ----------------------------------------

    def _beacon(self) -> None:
        self.multicast(protocol.REGISTRY_BEACON, self.describe())

    # -- repository (§4.6) ------------------------------------------------------

    def store_artifact(self, name: str, artifact: Any) -> None:
        """Host an ontology/schema so disconnected clients can fetch it."""
        self.repository.store(name, artifact)

    def handle_artifact_request(self, envelope: Envelope) -> None:
        payload = envelope.payload
        artifact = self.repository.fetch(payload.artifact_name)
        self.send(
            envelope.src,
            protocol.ARTIFACT_REPLY,
            protocol.ArtifactReplyPayload(
                artifact_name=payload.artifact_name,
                artifact=artifact,
                found=artifact is not None,
            ),
        )

    # -- subscriptions / notifications ------------------------------------------

    def handle_subscribe(self, envelope: Envelope) -> None:
        """Register (or refresh) a standing query.

        Re-subscribing with the same ``sub_id`` extends the expiry — the
        subscription analogue of a lease renewal.
        """
        payload = envelope.payload
        if not self.models.supports(payload.model_id):
            self.models.discarded_payloads += 1
            return
        expires_at = self.sim.now + payload.duration
        self._subscriptions[payload.sub_id] = _Subscription(payload, envelope.src, expires_at)
        self.send(
            envelope.src,
            protocol.SUBSCRIBE_ACK,
            protocol.SubscribeAck(sub_id=payload.sub_id, expires_at=expires_at),
        )

    def handle_unsubscribe(self, envelope: Envelope) -> None:
        self._subscriptions.pop(envelope.payload.sub_id, None)

    def lapse_subscriptions(self) -> None:
        """Drop the subscriptions whose expiry passed (the purge sweep)."""
        now = self.sim.now
        lapsed = [sid for sid, sub in self._subscriptions.items()
                  if now >= sub.expires_at]
        for sub_id in lapsed:
            del self._subscriptions[sub_id]

    def notify_subscribers(self, ad: Advertisement) -> None:
        """Push a freshly stored advertisement to matching subscribers."""
        if not self._subscriptions or not self.models.supports(ad.model_id):
            return
        model = self.models.get(ad.model_id)
        if not model.can_evaluate():
            return
        for sub_id, sub in sorted(self._subscriptions.items()):
            if sub.request.model_id != ad.model_id:
                continue
            verdict = model.evaluate(ad.description, sub.request.query)
            if not verdict.matched:
                continue
            self.notifications_sent += 1
            self.send(
                sub.subscriber,
                protocol.NOTIFY,
                protocol.NotifyPayload(
                    sub_id=sub_id,
                    hit=QueryHit(advertisement=ad, degree=verdict.degree,
                                 score=verdict.score),
                ),
            )

    def on_neighbor_added(self, neighbor: str) -> None:
        """A federation link formed: fetch the repository artifacts the
        neighbor advertises and we lack (§4.6: ontologies spread without
        any Internet dependency). The cooperation mode hears of the link
        as a federation observer."""
        if self.config.artifact_sync:
            known = self.federation.known.get(neighbor)
            if known is not None:
                for name in known.artifact_names:
                    if name not in self.repository:
                        self.send(
                            neighbor,
                            protocol.ARTIFACT_REQUEST,
                            protocol.ArtifactRequestPayload(artifact_name=name),
                        )

    def handle_artifact_reply(self, envelope: Envelope) -> None:
        """An artifact arrived from a peer: host it, and offer it to the
        models that cannot evaluate yet (an ontology, in experiment E12)."""
        payload = envelope.payload
        if not payload.found:
            return
        self.repository.store(payload.artifact_name, payload.artifact)
        for model in self.models:
            if not model.can_evaluate():
                model.accept_artifact(payload.artifact)

    # -- federation membership hooks -----------------------------------------------

    def on_peer_departed(self, peer: str) -> None:
        """A federation member left gracefully or was declared dead.

        In-flight aggregations waiting on it drain immediately (an empty
        answer) so queries re-resolve to surviving replicas instead of
        riding out the timeout against a tombstoned member, and the
        router forgets its health/cooldown state. Only a *graceful*
        departure shrinks the shard ring (the federation tells the ring
        itself) — a crash is masked by replica selection and hinted
        handoff, so flapping cannot thrash keys.
        """
        self.router.forget(peer)
        self.queries.on_peer_departed(peer)

    def on_departing(self) -> None:
        """We are leaving the federation: answer what we can, now."""
        self.queries.on_departing()
