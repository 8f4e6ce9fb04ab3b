"""Write coordination: every change to what a registry holds, and how far
it travels.

A registry's :class:`WriteCoordinator` (``registry.writes``) serves the
publish, renew and remove requests, runs the lease purge ("responsible
for cleaning up advertisements representing obsolete services"), and owns
the four methods that change what this replica holds: ``store_ad``,
``renew_ad``, ``remove_ad`` and ``drop_ad``.

How far a write travels is §4.9's "push or pull advertisements between
registries", picked once by the registry's constructor. Each cooperation
mode says it in one ``plan_write(kind, ad_id, …)`` returning a
:class:`WritePlan`, and every plan goes through one settle path. Under
forward-queries a write is held here and answered; under replicate-ads a
:class:`FloodReplicator` floods it; a sharded registry's
:class:`~repro.core.sharding.ShardManager` runs a quorum over the
advertisement's replica set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core import protocol
from repro.errors import LeaseError
from repro.registry.advertisements import Advertisement, new_uuid
from repro.registry.leases import LEASE_EVENTS, Lease

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope

#: The writes a service asks for, as ``plan_write`` is handed them.
PUBLISH, RENEW, REMOVE = "publish", "renew", "remove"


def _nothing(*_args: Any) -> None:
    """The answer to a service that was answered already."""


@dataclass(frozen=True)
class WritePlan:
    """How one write travels beyond this registry's own copy."""

    #: Whether this registry applies the write to a copy of its own.
    holds: bool = True
    #: Whom the write is sent to, as which message type; ``body(request_id)``
    #: builds the payload when it is sent ("": no ack is asked for).
    targets: tuple[str, ...] = ()
    message: str = ""
    body: Callable[[str], Any] | None = None
    #: Target confirmations awaited under a request id; ``None`` sends
    #: untracked, and so does a quorum this registry's own copy already
    #: meets (0 or less), which settles at once. A tracked write with no
    #: target fails at once.
    quorum: int | None = None
    #: Whether the service is answered at the quorum, else at once and
    #: before anything is sent.
    at_quorum: bool = False
    #: ``(lease_id, duration)`` acknowledged to a publisher this registry
    #: granted no lease of its own.
    proxy_lease: tuple[str, float] = ("", float("inf"))


#: Hold the copy and answer; nobody else is told.
HOLD_AND_ACK = WritePlan()


def hold_and_ack(kind: str, ad_id: str, **_write: Any) -> WritePlan:
    """forward-queries' plan for every write: queries travel instead."""
    return HOLD_AND_ACK


#: Seconds a tracked write waits for its quorum of target confirmations.
QUORUM_TIMEOUT = 0.5


class _PendingWrite:
    """One tracked write, awaiting ``plan.quorum`` target confirmations
    until :data:`QUORUM_TIMEOUT`, and retired the moment it settles: an ack
    that arrives after that is a late one."""

    def __init__(self, writes: "WriteCoordinator", request_id: str, plan: WritePlan,
                 on_success: Callable[[], None], on_failure: Callable[[], None]) -> None:
        self.writes = writes
        self.request_id = request_id
        self.silent: set[str] = set(plan.targets)
        self.needed = plan.quorum
        self.acked = 0
        self.on_success = on_success
        self.on_failure = on_failure
        self._timer = writes.registry.after(QUORUM_TIMEOUT, lambda: self._finish(success=False))

    def answer(self, src: str, *, found: bool) -> None:
        """``src`` confirmed the write, or refused it (capacity) and will
        never confirm it."""
        if src in self.silent:
            self.silent.discard(src)
            self.acked += found
        if self.acked >= self.needed:
            self._finish(success=True)
        elif self.acked + len(self.silent) < self.needed:
            self._finish(success=False)

    def _finish(self, *, success: bool) -> None:
        self._timer.cancel()
        writes = self.writes
        del writes._writes[self.request_id]
        if success:
            writes.quorum_acked += 1
        else:
            writes.quorum_failed += 1
        (self.on_success if success else self.on_failure)()


class WriteCoordinator:
    """Every write one registry applies, answers or sends on."""

    #: Tracked-write counts, each an attribute of that name.
    COUNTERS = ("quorum_writes", "quorum_acked", "quorum_failed", "late_acks")

    def __init__(self, registry: "RegistryNode", mode: Any = None) -> None:
        """``mode`` is the cooperation mode: a :class:`FloodReplicator`
        under replicate-ads, the registry's ``ShardManager`` where that is
        sharded, ``None`` under forward-queries."""
        self.registry = registry
        config = registry.config
        self.mode = mode
        #: The ring this registry places advertisements by, where it shards.
        self.ring = mode if config.sharding.enabled else None
        #: How far each write travels: the mode's one write call.
        self.plan_write = mode.plan_write if mode is not None else hold_and_ack
        #: Told of every change to what this replica holds, in this order:
        #: digest bookkeeping where it replicates, the WAL where durable.
        self.observers: list[Any] = []
        if mode is not None:
            self.observers.append(registry.antientropy)
            for event in mode.FEDERATION_EVENTS:
                registry.federation.watch(event, getattr(mode, event))
        if config.durability.enabled:
            self.observers.append(registry.durability)
        #: Numbers this registry's write request ids; it survives a crash,
        #: so a pre-crash ack can never count toward a new write.
        self._write_seq = 0
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.rebuild()

    def rebuild(self) -> None:
        """Build the in-flight state: no tracked write."""
        self._writes: dict[str, _PendingWrite] = {}

    def start(self) -> None:
        """Arm the lease purge, where leases are granted."""
        config = self.registry.config
        if config.leasing_enabled:
            self.registry.every(config.purge_interval, self._purge)

    def lease_epoch(self) -> int:
        """Monotone epoch advancing once per renew interval."""
        return int(self.registry.sim.now / max(self.registry.config.renew_interval, 1e-9))

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}

    # -- the replica-state write path -------------------------------------------
    #
    # The only code that changes what this replica holds. Each ends by
    # telling the observers by method name on the registered object (the
    # wall-clock harness wraps those methods on their classes after a
    # deployment is built, so no bound method is captured).

    def store_ad(self, ad: Advertisement, *, lease_duration: float | None, epoch: int,
                 notify: bool = True, restore: tuple[str, float] | None = None) -> Lease | None:
        """Store or refresh ``ad``: store → lease → observers → subscribers.

        Returns the lease now backing it (``None`` with leasing off).
        ``restore`` is WAL replay: the persisted ``(lease_id, expires_at)``
        is reinstated instead of a fresh grant, and neither the WAL nor
        the subscribers hear of it again.
        """
        registry = self.registry
        stored = registry.store.put(ad)
        lease = None
        if registry.config.leasing_enabled:
            if restore is None:
                lease = registry.leases.grant(ad.ad_id, lease_duration)
            elif restore[0]:
                lease = registry.leases.restore(
                    ad.ad_id, lease_id=restore[0], duration=lease_duration,
                    expires_at=restore[1],
                )
        for observer in self.observers:
            if restore is not None and observer is registry.durability:
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
            registry.subscriptions.notify(ad)
        return lease

    def renew_ad(self, ad_id: str, *, epoch: int, lease_id: str | None = None,
                 duration: float | None = None) -> bool:
        """Extend the lease of ``ad_id``; True when the ad is held here.

        The owning service renews by ``lease_id`` (an unknown or lapsed
        one, or one ``ad_id`` does not hold, raises :class:`LeaseError` —
        the service must republish, §4.8); a replica refresh names only
        the ad and gets a fresh lease of ``duration``.
        """
        registry = self.registry
        held = ad_id in registry.store
        lease = None
        if registry.config.leasing_enabled:
            if lease_id is not None:
                lease = registry.leases.renew(ad_id, lease_id)
            elif held:
                lease = registry.leases.grant(ad_id, duration)
        if held:
            expires_at = lease.expires_at if lease is not None else float("inf")
            for observer in self.observers:
                observer.log_renew(ad_id, expires_at=expires_at, origin_epoch=epoch)
        return held

    def remove_ad(self, ad_id: str, *, version: int | None = None) -> Advertisement | None:
        """Explicitly remove ``ad_id``, leaving a tombstone so a stale
        replica cannot resurrect it through anti-entropy reconciliation.

        ``version`` is the tombstone a peer handed us (adoption); by
        default the removed copy's own version is tombstoned.
        """
        registry = self.registry
        registry.leases.cancel_for_ad(ad_id)
        removed = registry.store.discard(ad_id)
        if removed is not None:
            registry.rim.removals += 1
            version = removed.version if version is None else version
            for observer in self.observers:
                observer.log_remove(ad_id, version)
        return removed

    def drop_ad(self, ad_id: str) -> Advertisement | None:
        """Let go of ``ad_id`` without a tombstone (lease expiry, shard
        hand-off): every replica's lease lapses on its own, and the ad
        may legitimately come back."""
        registry = self.registry
        registry.leases.cancel_for_ad(ad_id)
        removed = registry.store.discard(ad_id)
        if removed is not None:
            registry.rim.removals += 1
            for observer in self.observers:
                observer.log_expire(ad_id)
        return removed

    def absorb_replica(self, payload: protocol.AdForwardPayload) -> bool:
        """Integrate one replicated advertisement into the local store.

        The guarded way into :meth:`store_ad` for copies arriving from
        peers (``AD_FORWARD`` flood, shard writes and transfers,
        anti-entropy sync); returns True when the advertisement was
        stored (or refreshed). Tombstoned advertisements are never
        resurrected; the store's version guard rejects stale copies on
        its own; the model gate counts and drops what it refuses.
        """
        registry = self.registry
        ad = payload.advertisement
        if registry.antientropy.blocked(ad.ad_id, ad.version):
            registry.antientropy.resurrections_blocked += 1
            registry.recovered("resurrection-blocked", traced=False)
            return False
        if registry.models.for_description(ad.model_id, ad.description) is None:
            return False
        if not self._has_room_for(ad):
            registry.models.discarded_payloads += 1
            return False
        self.store_ad(
            ad, lease_duration=payload.lease_duration, epoch=payload.epoch,
            notify=ad.ad_id not in registry.store,
        )
        return True

    def _has_room_for(self, ad: Advertisement) -> bool:
        """Whether ``ad`` fits under the registry's capacity, counted in
        services: a further ad of a service already held always fits, so
        a registry refuses whole services and never splits two."""
        capacity = self.registry.capacity
        if capacity is None:
            return True
        services = {stored.service_node for stored in self.registry.store.all()}
        return ad.service_node in services or len(services) < capacity

    # -- the service's requests ---------------------------------------------------

    def handle_publish(self, envelope: "Envelope") -> None:
        registry = self.registry
        payload = envelope.payload
        if registry.models.for_description(payload.model_id, payload.description) is None:
            # Silently discard descriptions we cannot evaluate (counted by
            # the gate); the publisher fails over to a capable registry.
            return
        ad_id = payload.ad_id or new_uuid("ad")
        store = registry.store
        ad = Advertisement(
            ad_id=ad_id,
            service_node=payload.service_node,
            service_name=payload.service_name,
            endpoint=payload.endpoint,
            model_id=payload.model_id,
            description=payload.description,
            version=store.get(ad_id).version + 1 if ad_id in store else 1,
            published_at=registry.sim.now,
            home_registry=registry.node_id,
        )
        plan = self.plan_write(PUBLISH, ad_id, ad=ad, lease_duration=payload.lease_duration)

        def nack(reason: str = "quorum") -> None:
            registry.send(
                envelope.src,
                protocol.PUBLISH_NACK,
                protocol.PublishNack(ad_id=ad_id, model_id=payload.model_id,
                                     reason=reason),
            )

        if plan.holds and not self._has_room_for(ad):
            nack("capacity")
            return
        registry.rim.publishes += 1
        lease = self.store_ad(
            ad, lease_duration=payload.lease_duration, epoch=self.lease_epoch(),
        ) if plan.holds else None
        lease_id, duration = (lease.lease_id, lease.duration) if lease is not None \
            else plan.proxy_lease

        def ack() -> None:
            registry.send(
                envelope.src,
                protocol.PUBLISH_ACK,
                protocol.PublishAck(
                    ad_id=ad_id, lease_id=lease_id,
                    lease_duration=duration, model_id=payload.model_id,
                ),
            )

        self._settle(plan, ack, nack)

    def handle_renew(self, envelope: "Envelope") -> None:
        registry = self.registry
        payload = envelope.payload
        registry.rim.renews += 1

        def answer(msg_type: str) -> Callable[[], None]:
            return lambda: registry.send(envelope.src, msg_type, payload)

        if not registry.config.leasing_enabled:
            answer(protocol.RENEW_ACK)()
            return
        plan = self.plan_write(RENEW, payload.ad_id, lease_id=payload.lease_id)
        if plan.holds:
            try:
                self.renew_ad(payload.ad_id, epoch=self.lease_epoch(),
                              lease_id=payload.lease_id)
            except LeaseError:
                # Unknown/expired lease: the service must republish (§4.8).
                answer(protocol.RENEW_NACK)()
                return
        self._settle(plan, answer(protocol.RENEW_ACK), answer(protocol.RENEW_NACK))

    def handle_remove(self, envelope: "Envelope") -> None:
        registry = self.registry
        payload = envelope.payload
        plan = self.plan_write(REMOVE, payload.ad_id)
        self.remove_ad(payload.ad_id)
        # Always acked: removal is idempotent and leases expire regardless.
        self._settle(plan, lambda: registry.send(envelope.src, protocol.REMOVE_ACK, payload))

    # -- the settle path --------------------------------------------------------------

    def _settle(self, plan: WritePlan, ack: Callable[[], None],
                nack: Callable[[], None] = _nothing) -> None:
        """Answer the service and send the write, as ``plan`` says: at once
        and then sent, or sent and answered once ``plan.quorum`` targets
        confirmed (``nack`` when that can no longer happen)."""
        if not plan.at_quorum:
            ack()
            ack = nack = _nothing
        quorum = plan.quorum
        if quorum is not None and quorum <= 0:
            # This registry's own copy meets the quorum (W=1 at a replica):
            # settled now, and nobody is asked to ack.
            ack()
            quorum = None
        if quorum is None:
            self._send(plan, "")
        elif not plan.targets:
            nack()
        else:
            self._write_seq += 1
            request_id = f"{self.registry.node_id}/w{self._write_seq}"
            self.quorum_writes += 1
            self._writes[request_id] = _PendingWrite(self, request_id, plan, ack, nack)
            self._send(plan, request_id)

    def _send(self, plan: WritePlan, request_id: str) -> None:
        if plan.message:
            payload = plan.body(request_id)
            for target in plan.targets:
                self.registry.send(target, plan.message, payload)

    def confirm(self, request_id: str, src: str, *, found: bool) -> None:
        """``src`` answered the tracked write ``request_id``."""
        write = self._writes.get(request_id)
        if write is None:
            self.late_acks += 1
        else:
            write.answer(src, found=found)

    # -- leases -------------------------------------------------------------------------

    def _purge(self) -> None:
        """Expire lapsed leases and drop their advertisements, then the
        registry's lapsed subscriptions and the mode's aged bookkeeping."""
        registry = self.registry
        for ad_id in registry.leases.expired_ads():
            self.drop_ad(ad_id)
        registry.subscriptions.lapse()
        if self.mode is not None:
            self.mode.purge()

    def lease_event(self, kind: str, lease: Lease) -> None:
        """Lease lifecycle callback: mirror into metrics and the trace
        (where the health layer hears of expiries)."""
        registry = self.registry
        name = LEASE_EVENTS[kind]
        registry.count(name)
        registry.note(name, lambda: {"ad": registry.alias(lease.ad_id),
                                     "lease": registry.alias(lease.lease_id)})


class FloodReplicator:
    """replicate-ads: every registry holds every copy. A publish or renew
    floods the federation links as an ``AD_FORWARD``, deduplicated on
    ``(ad_id, version, lease epoch)`` — a renewal advances the epoch, so it
    floods through again and refreshes every replica's lease. A remove is
    not flooded: anti-entropy tombstones carry it."""

    #: The federation events it is told of.
    FEDERATION_EVENTS = ("neighbor_added",)

    def __init__(self, registry: "RegistryNode") -> None:
        self.registry = registry
        self.rebuild()

    def rebuild(self) -> None:
        #: Dedup keys of the pushes seen, pruned below ``_push_floor``.
        self.seen_pushes: set[tuple[str, int, int]] = set()
        self._push_floor = 0

    def start(self) -> None:
        """Nothing to arm: writes and joins drive the flood."""

    # -- what anti-entropy reconciles with whom: everything, with every neighbor

    def holds(self, ad_id: str) -> bool:
        return True

    def co_owned(self, ad_id: str, peer: str) -> bool:
        return True

    def gossip_peers(self) -> list[str]:
        return sorted(self.registry.federation.neighbors)

    def plan_write(self, kind: str, ad_id: str, *, ad: Advertisement | None = None,
                   **_write: Any) -> WritePlan:
        store = self.registry.store
        if kind == REMOVE or (kind == RENEW and ad_id not in store):
            return HOLD_AND_ACK
        payload = self._payload(ad if kind == PUBLISH else store.get(ad_id))
        return WritePlan(
            targets=tuple(self.registry.federation.forward_targets(set())),
            message=protocol.AD_FORWARD, body=lambda _request_id: self._seen(payload),
        )

    def _payload(self, ad: Advertisement) -> protocol.AdForwardPayload:
        registry = self.registry
        return protocol.AdForwardPayload(
            advertisement=ad, lease_duration=registry.config.lease_duration,
            epoch=registry.writes.lease_epoch(),
        )

    def _seen(self, payload: protocol.AdForwardPayload) -> protocol.AdForwardPayload:
        """``payload``, its dedup key marked seen before it is sent."""
        self.seen_pushes.add(payload.dedup_key())
        return payload

    def purge(self) -> None:
        """Replica refreshes add one dedup key per advertisement per renew
        interval. A push can sit in a flooded peer's admission queue for
        several renew intervals, but one older than two lease durations is
        no longer travelling and its key guards nothing. One sweep per
        epoch, not per purge."""
        registry = self.registry
        registry.antientropy.prune_tombstones()
        floor = registry.writes.lease_epoch() - int(2 / registry.config.renew_fraction) - 1
        if floor > self._push_floor:
            self._push_floor = floor
            self.seen_pushes = {key for key in self.seen_pushes if key[2] >= floor}

    def neighbor_added(self, neighbor: str) -> None:
        """A (re)joining member catches up by digest and delta pull."""
        self.registry.antientropy.sync_with(neighbor)

    def handle_ad_forward(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        key = payload.dedup_key()
        if key in self.seen_pushes:
            return
        self.seen_pushes.add(key)
        registry = self.registry
        registry.writes.absorb_replica(payload)
        # Flood onward regardless of local support — we may bridge two
        # capable registries.
        for neighbor in registry.federation.forward_targets({envelope.src}):
            registry.send(neighbor, protocol.AD_FORWARD, payload)
