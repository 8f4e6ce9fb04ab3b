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
§4.9). Queries — local evaluation, forwarding, aggregation, the answer —
are the :class:`~repro.core.query.QueryCoordinator`'s; the cooperation
over advertisements is :mod:`repro.core.replication`'s. Both are selected
by configuration, once, in the constructor. The node itself keeps the
lifecycle, fencing, its self-description, the write path and the
publish / renew / remove handlers, purging, subscriptions and artifacts.

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
from repro.core.replication import FloodReplicator, Replication
from repro.core.repository import ArtifactRepository
from repro.core.routing import router_for
from repro.core.sharding import ShardManager
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.errors import LeaseError
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.obs.tracing import TraceRecorder
from repro.registry.advertisements import Advertisement, new_uuid
from repro.registry.leases import LEASE_EVENTS, Lease, LeaseManager
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
        #: Consistent-hash placement, quorum writes, hinted handoff.
        self.shard = ShardManager(self, config)
        self.notifications_sent = 0
        #: What happens to a write beyond this store (§4.9), picked once:
        #: nothing, the flood, or the shard ring — see ``replication.py``.
        replicating = config.cooperation == COOPERATION_REPLICATE_ADS
        read_plan = None
        if not replicating:
            self.replication: Replication = Replication()
        elif config.sharding.enabled:
            self.replication = self.shard
            # A replica-group cover instead of the forwarding strategy.
            read_plan = self.shard.plan_read
        else:
            self.replication = FloodReplicator(self)
        #: Every query this registry evaluates, forwards or gathers for.
        self.queries = QueryCoordinator(self, read_plan=read_plan)
        #: Told of every change to what this replica holds, in this order:
        #: digest bookkeeping where it replicates, the WAL where durable.
        self.write_observers: list[Any] = []
        if replicating:
            self.write_observers.append(self.antientropy)
        if config.durability.enabled:
            self.write_observers.append(self.durability)
        #: The optional subsystems in use, in the order they are started
        #: with the registry.
        self.components: list[Any] = [*self.write_observers, self.replication]
        if config.admission.active():
            self.interceptor = self.admission
        # Components serve their own message types — one that is not in
        # use none, so its traffic is an unknown message type here.
        self.adopt_handlers(self.federation)
        self.adopt_handlers(self.queries)
        if config.antientropy_enabled():
            self.adopt_handlers(self.antientropy)
        self.adopt_handlers(self.replication)
        self.rebuild()

    # -- lifecycle ----------------------------------------------------------

    def rebuild(self) -> None:
        """Build the soft state — store, artifacts, leases, subscriptions,
        fencing — and that of every component in use, queries in flight
        included. What a restart keeps is set in the constructor, or
        (through :meth:`on_restart`) read back from the disk."""
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
            on_event=self._lease_event,
        )
        for component in (self.federation, self.queries, self.admission, self.router,
                          *self.components):
            component.rebuild()

    def start(self) -> None:
        """Arm periodic tasks, start the components in use, probe the
        LAN, and join seed registries."""
        if self.config.beacon_interval is not None:
            self.every(self.config.beacon_interval, self._beacon,
                       initial_delay=self.config.beacon_interval)
        if self.config.leasing_enabled:
            self.every(self.config.purge_interval, self._purge)
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
            # Empty (zero bytes) unless replication places us on a ring.
            ring_id=self.replication.ring_id(),
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

    # -- the replica-state write path ----------------------------------------------
    #
    # These four methods are the only code that changes what this replica
    # holds. Each states one policy once, so every way in — client
    # requests, AD_FORWARD floods, shard quorum traffic, anti-entropy,
    # lease expiry, rebalancing, WAL replay — leaves the store, the lease
    # table, the digest bookkeeping and the durable log in agreement.
    # Each ends by telling ``write_observers``, by method name on the
    # registered object (``benchmarks/perf`` wraps those methods on their
    # classes after a deployment is built: capture no bound method).

    def store_ad(
        self,
        ad: Advertisement,
        *,
        lease_duration: float | None,
        epoch: int,
        notify: bool = True,
        restore: tuple[str, float] | None = None,
    ) -> Lease | None:
        """Store or refresh ``ad``: store → lease → observers → subscribers.

        Returns the lease now backing it (``None`` with leasing off).
        ``restore`` is WAL replay: the persisted ``(lease_id, expires_at)``
        is reinstated instead of a fresh grant, and neither the WAL nor
        the subscribers hear of it again.
        """
        stored = self.store.put(ad)
        lease = None
        if self.config.leasing_enabled:
            if restore is None:
                lease = self.leases.grant(ad.ad_id, lease_duration)
            elif restore[0]:
                lease = self.leases.restore(
                    ad.ad_id, lease_id=restore[0], duration=lease_duration,
                    expires_at=restore[1],
                )
        for observer in self.write_observers:
            if restore is not None and observer is self.durability:
                continue
            # What the store kept: its version guard may have held on to a
            # newer copy, and replay must never bring back an older one.
            observer.log_store(
                stored,
                lease_id=lease.lease_id if lease is not None else "",
                duration=lease.duration if lease is not None else float("inf"),
                expires_at=lease.expires_at if lease is not None else float("inf"),
                origin_epoch=epoch,
            )
        if restore is None and notify:
            self._notify_subscribers(ad)
        return lease

    def renew_ad(
        self,
        ad_id: str,
        *,
        epoch: int,
        lease_id: str | None = None,
        duration: float | None = None,
    ) -> bool:
        """Extend the lease of ``ad_id``; True when the ad is held here.

        The owning service renews by ``lease_id`` (an unknown or lapsed
        one raises :class:`LeaseError` — the service must republish,
        §4.8); a replica refresh names only the ad and gets a fresh lease
        of ``duration``.
        """
        held = ad_id in self.store
        lease = None
        if self.config.leasing_enabled:
            if lease_id is not None:
                lease = self.leases.renew(lease_id)
            elif held:
                lease = self.leases.grant(ad_id, duration)
        if held:
            expires_at = lease.expires_at if lease is not None else float("inf")
            for observer in self.write_observers:
                observer.log_renew(ad_id, expires_at=expires_at, origin_epoch=epoch)
        return held

    def remove_ad(self, ad_id: str, *, version: int | None = None) -> Advertisement | None:
        """Explicitly remove ``ad_id``, leaving a tombstone so a stale
        replica cannot resurrect it through anti-entropy reconciliation.

        ``version`` is the tombstone a peer handed us (adoption); by
        default the removed copy's own version is tombstoned.
        """
        removed = self.store.discard(ad_id)
        self.leases.cancel_for_ad(ad_id)
        if removed is not None:
            self.rim.removals += 1
            version = removed.version if version is None else version
            for observer in self.write_observers:
                observer.log_remove(ad_id, version)
        return removed

    def drop_ad(self, ad_id: str) -> Advertisement | None:
        """Let go of ``ad_id`` without a tombstone (lease expiry, shard
        hand-off): every replica's lease lapses on its own, and the ad
        may legitimately come back."""
        removed = self.store.discard(ad_id)
        self.leases.cancel_for_ad(ad_id)
        if removed is not None:
            self.rim.removals += 1
            for observer in self.write_observers:
                observer.log_expire(ad_id)
        return removed

    def lease_epoch(self) -> int:
        """Monotone epoch advancing once per renew interval."""
        return int(self.sim.now / max(self.config.renew_interval, 1e-9))

    def absorb_replica(self, payload: protocol.AdForwardPayload) -> bool:
        """Integrate one replicated advertisement into the local store.

        The guarded way into :meth:`store_ad` for copies arriving from
        peers (``AD_FORWARD`` flood, shard writes and transfers,
        anti-entropy sync); returns True when the advertisement was
        stored (or refreshed). Tombstoned advertisements are never
        resurrected; the store's version guard rejects stale copies on
        its own.
        """
        ad = payload.advertisement
        if self.antientropy.blocked(ad.ad_id, ad.version):
            self.antientropy.resurrections_blocked += 1
            self.recovered("resurrection-blocked", traced=False)
            return False
        if not (self.models.supports(ad.model_id) and self._has_room_for(ad.ad_id)):
            self.models.discarded_payloads += 1
            return False
        self.store_ad(
            ad, lease_duration=payload.lease_duration, epoch=payload.epoch,
            notify=ad.ad_id not in self.store,
        )
        return True

    def _has_room_for(self, ad_id: str) -> bool:
        return (
            self.capacity is None
            or len(self.store) < self.capacity
            or ad_id in self.store
        )

    # -- publishing ---------------------------------------------------------------

    def handle_publish(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if not self.models.supports(payload.model_id):
            # Silently discard descriptions we cannot evaluate; the
            # publisher will fail over to a capable registry on timeout.
            self.models.discarded_payloads += 1
            return
        ad_id = payload.ad_id or new_uuid("ad")
        # Under sharding only the advertisement's replica set stores it;
        # this registry coordinates the write either way.
        replication = self.replication
        holds = replication.holds(ad_id)

        def nack(reason: str) -> None:
            self.send(
                envelope.src,
                protocol.PUBLISH_NACK,
                protocol.PublishNack(ad_id=ad_id, model_id=payload.model_id,
                                     reason=reason),
            )

        if holds and not self._has_room_for(ad_id):
            nack("capacity")
            return
        self.rim.publishes += 1
        ad = Advertisement(
            ad_id=ad_id,
            service_node=payload.service_node,
            service_name=payload.service_name,
            endpoint=payload.endpoint,
            model_id=payload.model_id,
            description=payload.description,
            version=self.store.get(ad_id).version + 1 if ad_id in self.store else 1,
            published_at=self.sim.now,
            home_registry=self.node_id,
        )
        epoch = self.lease_epoch()
        lease = self.store_ad(
            ad, lease_duration=payload.lease_duration, epoch=epoch,
        ) if holds else None
        if lease is not None:
            lease_id, duration = lease.lease_id, lease.duration
        else:
            lease_id, duration = replication.proxy_lease(ad_id, payload.lease_duration)

        def ack() -> None:
            self.send(
                envelope.src,
                protocol.PUBLISH_ACK,
                protocol.PublishAck(
                    ad_id=ad_id, lease_id=lease_id,
                    lease_duration=duration, model_id=payload.model_id,
                ),
            )

        # Acked at once, and then flooded — or, under sharding, acked
        # once W of the R replicas confirmed the write.
        replication.published(ad, duration, epoch, ack=ack, nack=nack)

    def handle_renew(self, envelope: Envelope) -> None:
        payload = envelope.payload
        self.rim.renews += 1
        if not self.config.leasing_enabled:
            self.send(envelope.src, protocol.RENEW_ACK, payload)
            return
        if self.replication.relay_renew(envelope.src, payload):
            return
        try:
            held = self.renew_ad(
                payload.ad_id, epoch=self.lease_epoch(), lease_id=payload.lease_id,
            )
        except LeaseError:
            # Unknown/expired lease: the service must republish (§4.8).
            self.send(envelope.src, protocol.RENEW_NACK, payload)
            return
        self.send(envelope.src, protocol.RENEW_ACK, payload)
        if held:
            self.replication.renewed(payload.ad_id)

    def handle_remove(self, envelope: Envelope) -> None:
        payload = envelope.payload
        self.remove_ad(payload.ad_id)
        # Always acked: removal is idempotent and leases expire regardless.
        self.send(envelope.src, protocol.REMOVE_ACK, payload)
        self.replication.removed(payload.ad_id)

    def _purge(self) -> None:
        """Expire lapsed leases/subscriptions and drop their state."""
        for ad_id in self.leases.expired_ads():
            self.drop_ad(ad_id)
        now = self.sim.now
        lapsed = [sid for sid, sub in self._subscriptions.items()
                  if now >= sub.expires_at]
        for sub_id in lapsed:
            del self._subscriptions[sub_id]
        self.replication.purge()

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

    def _notify_subscribers(self, ad: Advertisement) -> None:
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
        any Internet dependency), then let the replication in use bring
        the advertisements in sync."""
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
        self.replication.neighbor_added(neighbor)

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

    def on_peer_departed(self, peer: str, *, left_ring: bool = False) -> None:
        """A federation member left gracefully or was declared dead.

        In-flight aggregations waiting on it drain immediately (an empty
        answer) so queries re-resolve to surviving replicas instead of
        riding out the timeout against a tombstoned member, and the
        router forgets its health/cooldown state. Only a *graceful*
        departure shrinks the shard ring — a crash is masked by replica
        selection and hinted handoff, so flapping cannot thrash keys.
        """
        self.router.forget(peer)
        self.queries.on_peer_departed(peer)
        if left_ring:
            self.replication.drop_member(peer)

    def on_departing(self) -> None:
        """We are leaving the federation: answer what we can, now."""
        self.queries.on_departing()

    # -- observability hooks ------------------------------------------------------

    def _lease_event(self, kind: str, lease: Lease) -> None:
        """Lease lifecycle callback: mirror into metrics and the trace
        (where the health layer hears of expiries)."""
        name = LEASE_EVENTS[kind]
        self.count(name)
        self.note(name, {"ad": self.alias(lease.ad_id), "lease": self.alias(lease.lease_id)})
