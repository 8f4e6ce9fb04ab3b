"""Dynamic registry-role negotiation: standby registries.

"When bootstrapping a registry network, dynamic assignment of registry
node responsibility is a challenging problem. Some nodes may be more
willing to take on the role as a registry node than other nodes. To
prevent all nodes from taking on the registry node role, a policy may have
to be used for negotiating who will be assigned such a role. Such a policy
could for instance include something like 'try to maintain three
registries on each LAN.'"

A :class:`StandbyRegistry` implements exactly that policy for its LAN:

* **dormant** — it only listens to registry beacons, answering nothing;
* **promotion** — when fewer than ``lan_target`` registries have beaconed
  recently, it activates (after a node-id-staggered delay, so several
  standbys don't all promote at once) and becomes a full
  :class:`~repro.core.registry_node.RegistryNode`;
* **demotion** — when the LAN again has more than ``lan_target`` live
  registries, the *highest-id promoted* registry steps down gracefully
  (federation leave, content dropped — leases make it soft state) and
  returns to listening.

Negotiation is thus beacon-driven and fully decentralized, as the paper's
"depending on changes in the registry network state" suggests.
"""

from __future__ import annotations

import zlib

from repro.core import protocol
from repro.core.client_node import QUERY_RETRY
from repro.core.config import DiscoveryConfig
from repro.core.registry_node import RegistryNode
from repro.descriptions.base import DescriptionModel
from repro.errors import ReproError
from repro.netsim.messages import Envelope
from repro.registry.rim import RegistryDescription

#: What a dormant standby does not ignore.
_ANSWERED_WHILE_DORMANT = frozenset({
    protocol.REGISTRY_BEACON, protocol.RENEW, protocol.PUBLISH, protocol.QUERY})


class StandbyRegistry(RegistryNode):
    """A node willing to take the registry role when its LAN needs one."""

    role = "standby-registry"

    def __init__(
        self,
        node_id: str,
        config: DiscoveryConfig,
        models: list[DescriptionModel],
        *,
        lan_target: int = 1,
        seeds: tuple[str, ...] = (),
    ) -> None:
        if config.beacon_interval is None:
            raise ReproError("standby registries need beacons to observe the LAN")
        if lan_target < 1:
            raise ReproError(f"lan_target must be >= 1, got {lan_target}")
        super().__init__(node_id, config, models, seeds=seeds)
        self.lan_target = lan_target
        self.promotions = 0
        self.demotions = 0
        #: Simulation time of the most recent promotion (E15 staleness
        #: windows measure from here).
        self.last_promoted_at: float | None = None

    # -- lifecycle ----------------------------------------------------------

    def rebuild(self) -> None:
        """Go dormant — after a crash whatever the role was, and after a
        step-down: a fresh registry's soft state, no beacon heard, no
        promotion pending. A WAL from an active life stays on the disk for
        the next promotion to recover before warm sync."""
        super().rebuild()
        self.active = False
        self._beacon_seen: dict[str, float] = {}
        #: Ring identity each beaconing registry occupies (sharded
        #: federation) — what a promotion inherits from a dead peer.
        self._beacon_ring: dict[str, str] = {}
        self._promotion_pending = False

    def start(self) -> None:
        """Every life of a standby starts dormant, watching the beacons."""
        self.every(self._watch_interval(), self._evaluate_dormant)

    def _watch_interval(self) -> float:
        assert self.config.beacon_interval is not None
        return self.config.beacon_interval

    def _beacon_horizon(self) -> float:
        assert self.config.beacon_interval is not None
        return 2.5 * self.config.beacon_interval

    # -- dormant behaviour -----------------------------------------------------

    def receive(self, envelope: Envelope) -> None:
        """While dormant, observe beacons, turn away the renews and
        publishes of a service still attached here from an active life (its
        lease is gone: ``RENEW_NACK``; this is no registry:
        ``PUBLISH_NACK`` ``"dormant"``, so it re-attaches to a live one at
        once) and the queries of a client still attached here (a ``BUSY``
        whose ``retry_after`` outlasts a query's whole registry budget, so
        the client fails over at once instead of riding out its query
        timeout), and silently ignore the rest."""
        msg_type = envelope.msg_type
        if self.active:
            super().receive(envelope)
        elif not self.alive or msg_type not in _ANSWERED_WHILE_DORMANT \
                or self.malformed(envelope):
            return
        elif msg_type == protocol.REGISTRY_BEACON:
            self._note_beacon(envelope.payload)
        elif msg_type == protocol.RENEW:
            self.send(envelope.src, protocol.RENEW_NACK, envelope.payload)
        elif msg_type == protocol.QUERY:
            self.send(envelope.src, protocol.BUSY, protocol.BusyPayload(
                request_id=envelope.payload.query_id, msg_type=msg_type,
                retry_after=QUERY_RETRY.max_attempts * self.config.query_timeout,
                queue_depth=0))
        else:
            payload = envelope.payload
            self.send(envelope.src, protocol.PUBLISH_NACK, protocol.PublishNack(
                ad_id=payload.ad_id, model_id=payload.model_id, reason="dormant"))

    def _note_beacon(self, description: RegistryDescription) -> None:
        """Remember when (and on which ring identity) a registry beaconed."""
        self._beacon_seen[description.registry_id] = self.sim.now
        self._beacon_ring[description.registry_id] = (
            description.ring_id or description.registry_id
        )

    def _live_lan_registries(self) -> list[str]:
        """Registries heard beaconing on this LAN recently (not ourselves)."""
        horizon = self.sim.now - self._beacon_horizon()
        return sorted(
            rid for rid, seen in self._beacon_seen.items()
            if seen >= horizon and rid != self.node_id
        )

    def _evaluate_dormant(self) -> None:
        if self._promotion_pending \
                or len(self._live_lan_registries()) >= self.lan_target:
            return
        # Stagger by node-id hash so concurrent standbys race decided.
        delay = 0.05 + 0.1 * (zlib.crc32(self.node_id.encode()) % 16)
        self._promotion_pending = True
        self.after(delay, self._maybe_promote)

    def _maybe_promote(self) -> None:
        self._promotion_pending = False
        if len(self._live_lan_registries()) >= self.lan_target:
            return  # someone else promoted during the stagger delay
        self._promote()

    def _promote(self) -> None:
        """Take on the registry role."""
        self.active = True
        self.promotions += 1
        self.last_promoted_at = self.sim.now
        self.note("standby-promote", {"promotions": self.promotions}, ctx=None)
        self.cancel_tasks()
        # Take over the dead registry's ring position *before* start()
        # registers us on the ring (satellite: re-hashing under our own
        # id would move ~K/S unrelated advertisements).
        self._inherit_ring_identity()
        super().start()
        self.every(self._watch_interval(), self._evaluate_active)
        # Recover persisted state from a previous active life *before*
        # warm sync, so the digest exchange repairs only the delta.
        self.durability.recover()
        self._warm_sync()
        # Announce immediately so peer standbys stand down and clients
        # attach without waiting a full beacon interval.
        self._beacon()

    def _inherit_ring_identity(self) -> None:
        """Adopt the ring identity of the registry this promotion replaces.

        The most recently silenced LAN registry (freshest beacon now past
        the horizon) is the one whose death triggered the promotion; its
        beaconed ``ring_id`` carries the virtual-node seeds we take over,
        so promotion is a pure ownership transfer instead of a re-hash.
        Only where this registry places advertisements by ring.
        """
        if self.writes.ring is None:
            return
        horizon = self.sim.now - self._beacon_horizon()
        silenced = [
            (seen, rid) for rid, seen in self._beacon_seen.items()
            if seen < horizon and rid != self.node_id
        ]
        if not silenced:
            return
        _seen, dead = max(silenced)
        self.ring_identity = self._beacon_ring.get(dead, dead)

    def _warm_sync(self) -> None:
        """Bootstrap the store from live peers instead of activating empty.

        A cold-promoted registry serves misses until every service's next
        republish cycle — the E15 staleness window. Warm promotion sends an
        anti-entropy digest straight to the recently heard LAN registries
        and the configured seeds, so replicated advertisements stream in
        within one round-trip instead of one lease period.
        """
        if not self.config.antientropy_enabled():
            return
        peers = sorted(set(self._live_lan_registries()) | set(self.seeds))
        synced = 0
        for peer in peers:
            if peer == self.node_id:
                continue
            self.antientropy.sync_with(peer)
            synced += 1
        if synced:
            self.recovered("standby-warm-sync", traced=False)
            self.note("standby-warm-sync", {"peers": synced}, ctx=None)

    # -- active behaviour ----------------------------------------------------------

    def handle_registry_beacon(self, envelope: Envelope) -> None:
        self._note_beacon(envelope.payload)
        self.federation.handle_registry_beacon(envelope)

    def _evaluate_active(self) -> None:
        """Step down when the LAN is over-provisioned.

        A promoted registry yields as soon as ``lan_target`` *other* live
        registries are beaconing. If two promoted standbys demote in the
        same round, the quota check re-fires on both and the staggered
        promotion delay lets exactly one return — the negotiation
        converges without extra messages.
        """
        if len(self._live_lan_registries()) >= self.lan_target:
            self._demote()

    def _demote(self) -> None:
        """Step down gracefully, then go dormant as a restart does."""
        self.demotions += 1
        self.note("standby-demote", {"demotions": self.demotions}, ctx=None)
        self.federation.leave()
        # A graceful step-down hands the content back to the LAN's live
        # registries; replaying it at the *next* promotion would resurrect
        # stale ads, so drop the WAL + snapshot (the incarnation survives).
        self.durability.discard()
        self.cancel_tasks()
        self.rebuild()
        self.start()
