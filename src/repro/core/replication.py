"""How a registry cooperates over advertisements (§4.9's "push or pull
advertisements between registries"): ``registry.replication``, picked
once by the registry's constructor — a plain :class:`Replication` under
``forward-queries``, a :class:`FloodReplicator` under ``replicate-ads``,
its :class:`~repro.core.sharding.ShardManager` where that is sharded. The
node, the federation and anti-entropy call it without knowing which one
answers; only that one's handlers are adopted. Reads are not its business:
a sharded registry hands its read plan (``ShardManager.plan_read``, read
repair included) to the :class:`~repro.core.query.QueryCoordinator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope


class Replication:
    """No replication — forward-queries: hold every advertisement
    published here, acknowledge, tell nobody (queries travel instead)."""

    def rebuild(self) -> None:
        """Build the replica bookkeeping (here: none)."""

    def start(self) -> None:
        """The registry (re)started."""

    # -- the write path ------------------------------------------------------

    def holds(self, ad_id: str) -> bool:
        """Whether this registry stores a copy of ``ad_id``."""
        return True

    def proxy_lease(self, ad_id: str, requested: float | None) -> tuple[str, float]:
        """``(lease_id, duration)`` acknowledged to a publisher this
        registry granted no lease of its own."""
        return "", float("inf")

    def published(self, ad, lease_duration: float, epoch: int, *,
                  ack: Callable[[], None], nack: Callable[[str], None]) -> None:
        """A PUBLISH was applied (where held): settle it with the service
        through ``ack()`` or ``nack(reason)``."""
        ack()

    def relay_renew(self, requester: str, payload: protocol.RenewPayload) -> bool:
        """True when the renewal names a proxy lease and was taken over."""
        return False

    def renewed(self, ad_id: str) -> None:
        """A service renewed the lease of ``ad_id``, held here."""

    def removed(self, ad_id: str) -> None:
        """A service removed ``ad_id``."""

    def purge(self) -> None:
        """The purge sweep ran: age whatever replica bookkeeping is kept."""

    # -- membership ----------------------------------------------------------

    def neighbor_added(self, neighbor: str) -> None:
        """A federation link formed: bring the two ends in sync."""

    def registry_observed(self, description, *, first_sighting: bool = False) -> None:
        """The federation heard of a registry (again)."""

    def peer_alive(self, peer: str) -> None:
        """Direct proof of life from ``peer``."""

    def drop_member(self, peer: str) -> None:
        """``peer`` left the federation gracefully."""

    def ring_id(self) -> str:
        """The placement identity carried in this registry's description."""
        return ""

    # -- what anti-entropy reconciles with whom ---------------------------------

    def co_owned(self, ad_id: str, peer: str) -> bool:
        """Whether both this registry and ``peer`` store ``ad_id``."""
        return True


class FloodReplicator(Replication):
    """Replicate-everywhere: each write floods the federation links as an
    ``AD_FORWARD``, deduplicated on ``(ad_id, version, lease epoch)`` — a
    renewal advances the epoch, so it floods through again and refreshes
    every replica's lease."""

    def __init__(self, registry: "RegistryNode") -> None:
        self.registry = registry
        self.rebuild()

    def rebuild(self) -> None:
        #: Dedup keys of the pushes seen, pruned below ``_push_floor``.
        self._seen_pushes: set[tuple[str, int, int]] = set()
        self._push_floor = 0

    def published(self, ad, lease_duration, epoch, *, ack, nack) -> None:
        ack()
        self.push(ad)

    def renewed(self, ad_id: str) -> None:
        self.push(self.registry.store.get(ad_id))

    def purge(self) -> None:
        """Replica refreshes add one dedup key per advertisement per renew
        interval. A push can sit in a flooded peer's admission queue for
        several renew intervals, but one older than two lease durations is
        no longer travelling and its key guards nothing. One sweep per
        epoch, not per purge."""
        registry = self.registry
        registry.antientropy.prune_tombstones()
        floor = registry.lease_epoch() - int(2 / registry.config.renew_fraction) - 1
        if floor > self._push_floor:
            self._push_floor = floor
            self._seen_pushes = {
                key for key in self._seen_pushes if key[2] >= floor
            }

    def neighbor_added(self, neighbor: str) -> None:
        """With reconciliation rounds a (re)joining member catches up by
        digest and delta pull; without them it is pushed the whole store."""
        registry = self.registry
        if registry.config.antientropy_interval is not None:
            registry.antientropy.sync_with(neighbor)
            return
        for ad in registry.store.all():
            self.push(ad, [neighbor])

    def gossip_peers(self) -> list[str]:
        """Whom a reconciliation round sends a digest to."""
        return sorted(self.registry.federation.neighbors)

    def push(self, ad, targets: list[str] | None = None) -> None:
        """Flood ``ad`` to ``targets`` (default: every forward target)."""
        registry = self.registry
        payload = protocol.AdForwardPayload(
            advertisement=ad,
            lease_duration=registry.config.lease_duration,
            epoch=registry.lease_epoch(),
        )
        self._seen_pushes.add(payload.dedup_key())
        if targets is None:
            targets = registry.federation.forward_targets(set())
        for target in targets:
            registry.send(target, protocol.AD_FORWARD, payload)

    def handle_ad_forward(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        key = payload.dedup_key()
        if key in self._seen_pushes:
            return
        self._seen_pushes.add(key)
        registry = self.registry
        registry.absorb_replica(payload)
        # Flood onward regardless of local support — we may bridge two
        # capable registries.
        for neighbor in registry.federation.forward_targets({envelope.src}):
            registry.send(neighbor, protocol.AD_FORWARD, payload)
