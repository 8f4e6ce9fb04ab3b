"""The registry node: an autonomous, federating super-peer.

"A registry node … is a registry capable of collaborating in a dynamic
way with other registry nodes. A registry node can operate autonomously
since it stores advertisements and is capable of evaluating queries. In
addition, it is responsible for cleaning up advertisements representing
obsolete services."

What a registry does is the list of components it registers, picked by
configuration once, in the constructor: the
:class:`~repro.core.writes.WriteCoordinator` (publish / renew / remove,
the lease purge, how far a write travels), the
:class:`~repro.core.federation.Federation` (registry network maintenance,
§4.9), the :class:`~repro.core.query.QueryCoordinator` (local evaluation,
forwarding, aggregation), the
:class:`~repro.core.repository.ArtifactRepository` (§4.6), the
:class:`~repro.core.subscriptions.Subscriptions` (standing queries), and
the optional subsystems in use. Each serves its own message types and
hears of federation membership as an observer. The node itself keeps the
soft state they share — an :class:`~repro.registry.AdvertisementStore`, a
:class:`~repro.registry.LeaseManager`, a
:class:`~repro.registry.QueryEvaluator` — plus the lifecycle, fencing and
its self-description.

Registry content is *soft state*: a crash loses everything, and the
architecture rebuilds it from service-node republishes and leases — which
is exactly why the paper insists on aliveness information rather than
durable registry storage.
"""

from __future__ import annotations

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
from repro.core.subscriptions import Subscriptions
from repro.core.writes import FloodReplicator, WriteCoordinator
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.obs.tracing import TraceRecorder
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator
from repro.registry.rim import RegistryDescription, RegistryInfoModel
from repro.registry.store import AdvertisementStore


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
        #: Most services whose ads it stores ("capacity … distribution
        #: often [is] asymmetric"); ``None`` = unbounded. A further
        #: service's publishes are NACKed: it goes to another registry.
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
        #: Built before the cooperation mode: a new link's artifact
        #: requests go out before any replication traffic.
        self.repository = ArtifactRepository(self)
        self.subscriptions = Subscriptions(self)
        self.antientropy = AntiEntropy(self, config)
        #: Overload protection: bounded service queue + BUSY shedding.
        self.admission = AdmissionController(self, config.admission)
        #: Adaptive target selection for fan-out and walk next hops, fed
        #: passively by forwarded-query round-trips and peer BUSYs.
        self.router = router_for(config.routing, self)
        #: WAL + snapshot persistence and epoch-fenced crash recovery.
        self.durability = DurabilityManager(self, config.durability)
        #: Consistent-hash placement, quorum writes, replica-group reads.
        self.shard = ShardManager(self, config)
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
        # A member gone: the router forgets it, then the aggregations
        # waiting on it stop waiting; leaving, we answer what we can now.
        self.federation.watch("peer_departed", self.router.forget)
        self.federation.watch("peer_departed", self.queries.on_peer_departed)
        self.federation.watch("departing", self.queries.on_departing)
        #: Every component in use, in the order each is rebuilt and
        #: started: the core, then the write observers, then the mode.
        self.components: list[Any] = [
            self.writes, self.federation, self.queries, self.repository,
            self.subscriptions, self.admission, self.router, *self.writes.observers,
        ]
        if mode is not None:
            self.components.append(mode)
        if config.admission.active():
            self.interceptor = self.admission
        # Components serve their own message types (anti-entropy only where
        # it runs rounds); one not in use serves none, so its traffic is an
        # unknown message type here.
        for component in self.components:
            if component is not self.antientropy or config.antientropy_enabled():
                self.adopt_handlers(component)
        self.rebuild()

    # -- lifecycle ----------------------------------------------------------

    def rebuild(self) -> None:
        """Build the soft state — store, leases, fencing — and that of
        every component, queries and writes in flight included. What a
        restart keeps is set in the constructor, or (through
        :meth:`on_restart`) read back from the disk."""
        self.store = AdvertisementStore()
        self.evaluator = QueryEvaluator(self.store, self.models)
        self.rim.lan_name = ""  # described as on no LAN until it starts serving
        #: Identity under which this registry's virtual nodes hash onto
        #: the consistent-hash ring. Normally the node id; a promoted
        #: warm standby inherits the identity of the registry it
        #: replaces so promotion moves no keys.
        self.ring_identity = self.node_id
        #: Highest incarnation epoch seen per peer (fencing state); only
        #: ever populated by peers that stamp their replication traffic.
        self._peer_incarnations: dict[str, int] = {}
        self.leases = LeaseManager(
            lambda: self.sim.now, self.store,
            default_duration=self.config.lease_duration,
            on_event=self.writes.lease_event,
        )
        for component in self.components:
            component.rebuild()

    def start(self) -> None:
        """Arm the beacon, start every component, probe the LAN, and join
        seed registries."""
        if self.config.beacon_interval is not None:
            self.every(self.config.beacon_interval, self._beacon,
                       initial_delay=self.config.beacon_interval)
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
