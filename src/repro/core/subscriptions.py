"""Standing queries: a registry's subscriptions component.

A client's standing query is answered with a ``NOTIFY`` for every freshly
stored advertisement it matches. It is leased like an advertisement
(§4.8): re-subscribing extends it, and one left to expire is never
notified again. The write path calls :meth:`Subscriptions.notify` after
the WAL has logged a first store; the lease purge calls
:meth:`Subscriptions.lapse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import protocol
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope


@dataclass
class _Subscription:
    """One standing query registered by a client."""

    request: protocol.SubscribePayload
    subscriber: str
    expires_at: float


class Subscriptions:
    """The standing queries one registry holds, and what they were sent."""

    def __init__(self, registry: "RegistryNode") -> None:
        self.registry = registry
        self.notifications_sent = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Build the subscription table: a crash forgets every subscriber."""
        self._subscriptions: dict[str, _Subscription] = {}

    def start(self) -> None:
        """Nothing to arm: the lease purge lapses subscriptions."""

    def __len__(self) -> int:
        return len(self._subscriptions)

    def handle_subscribe(self, envelope: "Envelope") -> None:
        """Register (or refresh) a standing query.

        Re-subscribing with the same ``sub_id`` extends the expiry — the
        subscription analogue of a lease renewal.
        """
        registry = self.registry
        payload = envelope.payload
        if registry.models.for_query(payload.model_id, payload.query) is None:
            return
        expires_at = registry.sim.now + payload.duration
        self._subscriptions[payload.sub_id] = _Subscription(payload, envelope.src, expires_at)
        registry.send(
            envelope.src,
            protocol.SUBSCRIBE_ACK,
            protocol.SubscribeAck(sub_id=payload.sub_id, expires_at=expires_at),
        )

    def handle_unsubscribe(self, envelope: "Envelope") -> None:
        self._subscriptions.pop(envelope.payload.sub_id, None)

    def lapse(self) -> None:
        """Drop the subscriptions whose expiry passed (the purge sweep)."""
        now = self.registry.sim.now
        lapsed = [sid for sid, sub in self._subscriptions.items()
                  if now >= sub.expires_at]
        for sub_id in lapsed:
            del self._subscriptions[sub_id]

    def notify(self, ad: Advertisement) -> None:
        """Push a freshly stored advertisement to matching subscribers.

        A subscription whose expiry passed is dropped, not notified: the
        purge that lapses subscriptions runs only where leases are granted.
        """
        if not self._subscriptions:
            return
        registry = self.registry
        model = registry.models.get(ad.model_id)  # a stored ad passed its model's gate
        if not model.can_evaluate():
            return
        now = registry.sim.now
        for sub_id, sub in sorted(self._subscriptions.items()):
            if now >= sub.expires_at:
                del self._subscriptions[sub_id]
                continue
            if sub.request.model_id != ad.model_id:
                continue
            verdict = model.evaluate(ad.description, sub.request.query)
            if not verdict.matched:
                continue
            self.notifications_sent += 1
            registry.send(
                sub.subscriber,
                protocol.NOTIFY,
                protocol.NotifyPayload(
                    sub_id=sub_id,
                    hit=QueryHit(advertisement=ad, degree=verdict.degree,
                                 score=verdict.score),
                ),
            )
