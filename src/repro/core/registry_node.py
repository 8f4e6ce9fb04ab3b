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
§4.9). Query forwarding strategies live in :mod:`repro.core.forwarding`,
the cooperation over advertisements in :mod:`repro.core.replication`;
both are selected by configuration, once, in the constructor.

Registry content is *soft state*: a crash loses everything, and the
architecture rebuilds it from service-node republishes and leases — which
is exactly why the paper insists on aliveness information rather than
durable registry storage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any

from repro.core import protocol
from repro.core.admission import AdmissionController
from repro.core.antientropy import AntiEntropy
from repro.core.config import (
    COOPERATION_REPLICATE_ADS,
    DiscoveryConfig,
    STRATEGY_EXPANDING_RING,
    STRATEGY_FLOODING,
    STRATEGY_INFORMED,
    STRATEGY_RANDOM_WALK,
)
from repro.core.durability import (
    DurabilityManager,
    FENCED_MSG_TYPES,
    INCARNATION_HEADER,
)
from repro.core.federation import Federation
from repro.core.forwarding import (
    PendingAggregation,
    RandomWalk,
    RingController,
    SeenQueries,
)
from repro.core.replication import FloodReplicator, Replication
from repro.core.repository import ArtifactRepository
from repro.core.routing import router_for
from repro.core.sharding import ShardManager
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.errors import LeaseError
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.obs.metrics import COUNT_BUCKETS
from repro.obs.tracing import Span, TraceRecorder
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
        #: Random-walk strategy: starting walks, relaying others'.
        self.walk = RandomWalk(self)
        self.responses_sent = 0
        self.notifications_sent = 0
        #: Query responses that arrived after their aggregation completed
        #: (work the aggregation timeout threw away).
        self.late_responses = 0
        #: How this registry starts a client query: the configured
        #: forwarding strategy, unless the replication below plans reads.
        self._start_query = {
            STRATEGY_FLOODING: partial(self._scatter, plan=self._plan_flood),
            STRATEGY_INFORMED: partial(self._scatter, plan=self._plan_informed),
            STRATEGY_EXPANDING_RING: self._start_ring,
            STRATEGY_RANDOM_WALK: self.walk.start,
        }[config.strategy]
        #: What happens to a write beyond this store (§4.9), picked once:
        #: nothing, the flood, or the shard ring — see ``replication.py``.
        replicating = config.cooperation == COOPERATION_REPLICATE_ADS
        if not replicating:
            self.replication: Replication = Replication()
        elif config.sharding.enabled:
            self.replication = self.shard
            # A replica-group cover instead of the forwarding strategy.
            self._start_query = partial(self._scatter, plan=self.shard.plan_read)
        else:
            self.replication = FloodReplicator(self)
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
        self.adopt_handlers(self.walk)
        if config.antientropy_enabled():
            self.adopt_handlers(self.antientropy)
        self.adopt_handlers(self.replication)
        self.rebuild()

    # -- lifecycle ----------------------------------------------------------

    def rebuild(self) -> None:
        """Build the soft state — store, artifacts, leases, queries in
        flight, subscriptions, fencing — and that of every component in
        use. What a restart keeps is set in the constructor, or (through
        :meth:`on_restart`) read back from the disk."""
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
        #: Every query this registry is gathering answers for, by query
        #: id: fan-outs and the random walks it coordinates alike.
        self._pending: dict[str, PendingAggregation] = {}
        self._subscriptions: dict[str, _Subscription] = {}
        self.leases = LeaseManager(
            lambda: self.sim.now,
            default_duration=self.config.lease_duration,
            on_event=self._lease_event,
        )
        # A flood filling the loop-avoidance table must not evict the id
        # of a query still in flight here, or a late duplicate would
        # re-enter the fan-out and double-count hits.
        self._seen = SeenQueries(lambda: self.sim.now,
                                 protected=self._pending.__contains__)
        for component in (self.federation, self.admission, self.router,
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
        for pending in list(self._pending.values()):
            pending.drain_target(peer)
        if left_ring:
            self.replication.drop_member(peer)

    def on_departing(self) -> None:
        """We are leaving the federation: answer what we can, now."""
        for pending in list(self._pending.values()):
            pending.flush()

    # -- observability hooks ------------------------------------------------------

    def _lease_event(self, kind: str, lease: Lease) -> None:
        """Lease lifecycle callback: mirror into metrics and the trace
        (where the health layer hears of expiries)."""
        name = LEASE_EVENTS[kind]
        self.count(name)
        self.note(name, {"ad": self.alias(lease.ad_id), "lease": self.alias(lease.lease_id)})

    def _query_span(self, name: str, envelope: Envelope, payload: protocol.QueryPayload) -> Span | None:
        """Open a processing span for a (non-duplicate) query envelope.

        The span continues the envelope's trace (or roots a new one for
        untraced senders) and becomes this dispatch's active context, so
        synchronous child sends parent to it automatically. The span is
        closed by :meth:`_respond` when the answer leaves.
        """
        span = self.span(
            name,
            {"query": self.alias(payload.query_id), "from": envelope.src,
             "ttl": payload.ttl},
            ctx=TraceRecorder.extract(envelope.headers),
        )
        if span is not None:
            self._trace_ctx = span.context
        return span

    # -- querying ----------------------------------------------------------------------

    def _local_hits(
        self, payload: protocol.QueryPayload | protocol.WalkPayload, *,
        parent: Span | None = None,
    ) -> list[QueryHit]:
        before = self.evaluator.descriptions_evaluated
        hits = self.evaluator.evaluate(
            payload.model_id, payload.query, max_results=payload.max_results
        )
        evaluated = self.evaluator.descriptions_evaluated - before
        self.observe("matchmaker.evals_per_query", evaluated, COUNT_BUCKETS)
        ctx = parent.context if parent is not None else self._trace_ctx
        if ctx is not None:
            self.note("registry.match", {"evaluated": evaluated, "hits": len(hits)},
                      ctx=ctx)
        return hits

    def _respond(
        self,
        dst: str,
        query_id: str,
        hits: list[QueryHit],
        responders: int,
        *,
        span: Span | None = None,
        degraded: bool = False,
    ) -> None:
        """Answer ``dst``; with ``span``, the response rides (and closes)
        that span's trace — needed for completions that fire from timers,
        where no envelope context is active."""
        self.responses_sent += 1
        self.send(
            dst,
            protocol.QUERY_RESPONSE,
            protocol.ResponsePayload(
                query_id=query_id, hits=tuple(hits), responders=responders,
                degraded=degraded,
                # Piggyback our admission-queue depth: free load signal
                # for the receiver's router (rides in the fixed payload
                # overhead, so wire size — and delivery time — is
                # unchanged).
                queue_depth=self.admission.depth,
            ),
            headers=self.headers_for(span),
        )
        self.end(span, attrs={"hits": len(hits), "responders": responders})

    def _overload_shortcut(
        self,
        requester: str,
        payload: protocol.QueryPayload,
        span: Span | None,
    ) -> bool:
        """Degraded mode: past the threshold, skip WAN fan-out entirely.

        A saturated registry stops multiplying its own load through the
        federation — it serves whatever its local store holds and marks
        the answer ``degraded=True`` so the client knows coverage was
        sacrificed for latency. Returns True when the query was answered
        here.
        """
        if not self.admission.overloaded:
            return False
        local = self._local_hits(payload, parent=span)
        self.count("admission.degraded")
        self.note("admission.degraded",
                  {"query": self.alias(payload.query_id), "depth": self.admission.depth},
                  ctx=span.context if span is not None else self._trace_ctx)
        self._respond(requester, payload.query_id, local, 1, span=span,
                      degraded=True)
        return True

    def handle_busy(self, envelope: Envelope) -> None:
        """A peer registry shed our forwarded work.

        Persistent BUSY is treated like suspicion: it feeds the same
        circuit breaker as missed pongs and aggregation timeouts, so a
        chronically saturated neighbor drops out of the fan-out until it
        recovers. The pending aggregation drains immediately with an
        empty answer instead of riding out the timeout; a shed walk has
        nobody left to carry it on and ends here.
        """
        payload = envelope.payload
        self.federation.record_neighbor_failure(envelope.src)
        self.router.on_busy(
            envelope.src,
            retry_after=payload.retry_after,
            queue_depth=payload.queue_depth,
        )
        self.count("admission.busy_received")
        pending = self._pending.get(payload.request_id)
        if pending is None:
            return
        if payload.msg_type == protocol.WALK:
            pending.flush()
        else:
            pending.drain_target(envelope.src)

    def _duplicate_query(self, query_id: str) -> bool:
        """Whether ``query_id`` was seen before (marking it seen if not).

        Checking live aggregation/walk state first is belt and braces
        against loop-table eviction: a duplicate of a query we are still
        aggregating must never restart it.
        """
        return query_id in self._pending \
            or not self._seen.check_and_mark(query_id)

    def handle_query(self, envelope: Envelope) -> None:
        """A client query: this registry is the entry point/coordinator."""
        payload = envelope.payload
        self.rim.queries_served += 1
        if self._duplicate_query(payload.query_id):
            return
        client = envelope.src
        span = self._query_span("registry.query", envelope, payload)
        if not self._overload_shortcut(client, payload, span):
            self._start_query(client, payload, span=span)

    # .. scatter-gather (flooding, informed, sharded reads) ..................

    def _scatter(
        self,
        requester: str,
        payload: protocol.QueryPayload,
        *,
        plan,
        span: Span | None = None,
        hops: int = 1,
        on_complete=None,
    ) -> None:
        """Gather the local hits plus those of whoever ``plan`` says to ask.

        ``plan(requester, payload, local)`` runs after local evaluation
        and returns ``(targets, ttl, retarget_planner)``: who gets the
        query, the TTL it is forwarded with, and (optionally) how to
        replace a target that stays silent. No targets — done already.
        ``on_complete(hits, responders)`` defaults to answering
        ``requester``.
        """
        local = self._local_hits(payload, parent=span)
        targets, ttl, retarget_planner = plan(requester, payload, local)
        if on_complete is None:
            def on_complete(hits: list[QueryHit], responders: int) -> None:
                self._respond(requester, payload.query_id, hits, responders, span=span)
        if not targets:
            on_complete(local, 1)
            return
        self._fan_out(
            payload.with_ttl(ttl), targets, local, on_complete=on_complete,
            parent=span, hops=hops, retarget_planner=retarget_planner,
        )

    def _plan_flood(self, requester: str, payload: protocol.QueryPayload, local):
        """Every neighbor but the one we got it from, while TTL lasts."""
        if payload.ttl <= 0:
            return [], 0, None
        return self.federation.forward_targets({requester}), payload.ttl - 1, None

    def _plan_informed(self, requester: str, payload: protocol.QueryPayload, local):
        """Route the query directly to summary-matching registries.

        Content summaries learned through gossip tell us *which* known
        registries plausibly hold matches; each gets the query with TTL 0
        (evaluate-locally-and-answer). Registries without summary overlap
        are never bothered — the bandwidth win over flooding; a stale or
        missing summary is the recall risk (measured in E13).
        """
        terms = self.models.query_terms(payload.model_id, payload.query)
        candidates = [
            rid
            for rid, desc in sorted(self.federation.known.items())
            if rid != self.node_id and desc.summary_terms
            and terms & frozenset(desc.summary_terms)
        ]
        return candidates, 0, None

    def _fan_out(
        self,
        forwarded: protocol.QueryPayload,
        targets: list[str],
        local: list[QueryHit],
        *,
        on_complete,
        parent: Span | None = None,
        hops: int = 1,
        retarget_planner=None,
    ) -> None:
        """Forward to ``targets`` and aggregate their responses.

        Targets whose circuit breaker is open are skipped entirely — not
        sent to, and not counted as outstanding — so a degraded-mode
        query completes as soon as the healthy neighbors answer instead
        of riding out the aggregation timeout for a suspected-dead peer.
        """
        query_id = forwarded.query_id
        allowed = [t for t in targets if self.federation.breaker_allows(t)]
        skipped = len(targets) - len(allowed)
        if skipped:
            self.recovered("breaker-skip", skipped, traced=False)
        # Best-first ordering; cooldown-failover may additionally skip
        # targets still cooling off after a BUSY/timeout (never all —
        # coverage beats caution when everyone looks sick).
        allowed, cooled = self.router.usable(allowed)
        if cooled:
            self.recovered("routing-cooldown-skip", cooled, traced=False)
        if not allowed:
            on_complete(
                QueryEvaluator.merge([local], max_results=forwarded.max_results), 1
            )
            return

        fanout = self.span(
            "registry.fanout",
            {"query": self.alias(query_id), "targets": len(allowed),
             "skipped": skipped, "ttl": forwarded.ttl},
            ctx=parent.context if parent is not None else self._trace_ctx,
        )

        def complete(hits: list[QueryHit], responders: int) -> None:
            self._pending.pop(query_id, None)
            self.replication.end_read(query_id)
            self.end(fanout, attrs={"hits": len(hits), "responders": responders})
            on_complete(hits, responders)

        headers = self.headers_for(fanout)

        on_retarget = None
        if retarget_planner is not None:
            def on_retarget(failed: list[str], contacted: tuple[str, ...]) -> list[str]:
                replacements = retarget_planner(failed, set(contacted))
                for alternate in replacements:
                    self.send(
                        alternate, protocol.QUERY_FORWARD, forwarded,
                        headers=headers, hops=hops,
                    )
                    self.rim.queries_forwarded += 1
                return replacements

        # The timeout must cover the *downstream* aggregation chain: a
        # child forwarding with TTL t may itself wait ~t units for its own
        # dead branches before answering. A flat per-hop timeout would
        # fire before deep responses arrive and silently drop them.
        timeout = self.config.aggregation_timeout * (forwarded.ttl + 1)
        self._pending[query_id] = PendingAggregation(
            self,
            query_id=query_id,
            local_hits=local,
            targets=tuple(allowed),
            timeout=timeout,
            max_results=forwarded.max_results,
            on_complete=complete,
            on_target_timeout=self._forward_target_timeout,
            trace_ctx=fanout.context if fanout is not None else None,
            on_retarget=on_retarget,
        )
        for target in allowed:
            self.send(
                target, protocol.QUERY_FORWARD, forwarded, headers=headers, hops=hops
            )
            self.rim.queries_forwarded += 1

    def _forward_target_timeout(self, target: str) -> None:
        """A fan-out target stayed silent: suspicion for breaker + router."""
        self.federation.record_neighbor_failure(target)
        self.router.on_timeout(target)

    def handle_query_forward(self, envelope: Envelope) -> None:
        """A peer registry forwarded a query to us."""
        payload = envelope.payload
        parent = envelope.src
        if self._duplicate_query(payload.query_id):
            # Duplicate via another path (or of a query we are still
            # aggregating): answer empty so the parent's outstanding
            # counter drains without waiting for the timeout.
            self._respond(parent, payload.query_id, [], 0)
            return
        span = self._query_span("registry.forward", envelope, payload)
        if not self._overload_shortcut(parent, payload, span):
            self._scatter(parent, payload, plan=self._plan_flood, span=span,
                          hops=envelope.hops + 1)

    def handle_query_response(self, envelope: Envelope) -> None:
        payload = envelope.payload
        # Any answer is proof of life, even a late one.
        self.federation.record_neighbor_success(envelope.src)
        pending = self._pending.get(payload.query_id)
        self.router.on_response(
            envelope.src,
            # Late: no round-trip to attribute, but the depth is still fresh.
            rtt=self.sim.now - pending.started_at if pending is not None else None,
            queue_depth=payload.queue_depth,
        )
        if pending is None:
            # The aggregation already completed (timeout or duplicate):
            # the response's work is wasted — count it so experiments can
            # report how much the timeout threw away.
            self.late_responses += 1
            self.recovered("late-response", traced=False)
            if self._trace_ctx is not None:
                # The response envelope still carries the original trace,
                # so late work stays attributable to the query that paid
                # for it.
                self.note("late-response",
                          {"from": envelope.src, "query": self.alias(payload.query_id),
                           "hits": len(payload.hits)})
            return
        if self._trace_ctx is not None:
            self.note("aggregation.response",
                      {"from": envelope.src, "hits": len(payload.hits)})
        # Read repair: compare this replica's answer versions against the
        # freshest seen so far, pushing the newer copy to stale holders.
        self.replication.observe_read(payload.query_id, envelope.src, payload.hits)
        pending.add_response(payload, src=envelope.src)

    # .. expanding ring ......................................................

    def _start_ring(
        self, client: str, payload: protocol.QueryPayload, *, span: Span | None = None
    ) -> None:
        ring = RingController(payload=payload, ttls=self.config.ring_ttls)
        self._run_ring_round(client, ring, span)

    def _run_ring_round(
        self, client: str, ring: RingController, span: Span | None
    ) -> None:
        """One ring = one flood under a round-scoped query id and TTL."""
        def done(hits: list[QueryHit], _responders: int) -> None:
            ring.record_round(hits)
            self._ring_round_done(client, ring, span)

        self._scatter(
            client,
            replace(ring.payload, query_id=ring.round_query_id(),
                    ttl=ring.current_ttl()),
            plan=self._plan_flood, span=span, on_complete=done,
        )

    def _ring_round_done(
        self, client: str, ring: RingController, span: Span | None
    ) -> None:
        if ring.satisfied() or not ring.advance():
            self._respond(
                client, ring.payload.query_id, ring.merged(), ring.rounds_run,
                span=span,
            )
            return
        self._run_ring_round(client, ring, span)

    # .. decentralized LAN mode (Fig. 3 fallback) ...............................

    def handle_decentral_query(self, envelope: Envelope) -> None:
        """Registries answer fallback multicasts too — they are LAN nodes."""
        payload = envelope.payload
        hits = self._local_hits(payload)
        if hits:
            self.send(
                envelope.src,
                protocol.DECENTRAL_RESPONSE,
                protocol.ResponsePayload(
                    query_id=payload.query_id, hits=tuple(hits), responders=1
                ),
            )
