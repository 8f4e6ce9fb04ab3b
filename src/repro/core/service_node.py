"""The service node: publishes, renews, republishes, survives failover.

"Service nodes … are responsible for obtaining a connection to the
registry network to be able to publish the service description of the
services it hosts … periodic messages indicating that services are still
alive will be important … Republishing of updated service advertisements
is therefore likely to occur more frequently than with simpler service
description mechanisms … should the registry node disappear, the service
node must try to find another connection point to the registry network
and publish its advertisement there."

A service node may publish the *same* capability under several description
models simultaneously ("it is even possible to describe services using
different service description languages and to publish these") — one
advertisement per model, each with its own lease.

In decentralized LAN mode (Fig. 3, right) the service node answers
multicast queries for itself, evaluating them against its own
descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import protocol
from repro.core.bootstrap import RegistryTracker
from repro.core.config import DiscoveryConfig
from repro.core.retry import RetryPolicy
from repro.core.routing import router_for
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.registry.advertisements import Advertisement, new_uuid
from repro.registry.matching import QueryHit
from repro.semantics.profiles import ServiceProfile

#: Retransmission of unacked publishes (lost on a lossy link).
PUBLISH_RETRY = RetryPolicy(base=1.0, cap=8.0, max_attempts=4)

#: The requests whose BUSY a service answers by resending on the hint.
_RESENT_ON_BUSY = (protocol.RENEW, protocol.PUBLISH)


@dataclass
class PublishedAd:
    """Book-keeping for one advertisement this node maintains."""

    model_id: str
    ad_id: str = ""
    lease_id: str = ""
    registry: str = ""
    acked: bool = False
    renew_outstanding: bool = False
    #: When the latest publish / renew left (``None`` once answered): the
    #: ack's round-trip is a latency sample for the health layer's SLOs
    #: and, for renews, a passive probe for the router.
    publish_sent_at: float | None = None
    renew_sent_at: float | None = None

    def awaiting(self, kind: str) -> bool:
        """Whether the latest PUBLISH / RENEW (``kind``) is unanswered."""
        return self.renew_outstanding if kind == protocol.RENEW else not self.acked


class ServiceNode(Node):
    """A provider node hosting one service capability."""

    role = "service"
    payload_records = protocol.MESSAGE_RECORDS

    def __init__(
        self,
        node_id: str,
        config: DiscoveryConfig,
        profile: ServiceProfile,
        models: list[DescriptionModel],
        *,
        endpoint: str = "",
        seeds: tuple[str, ...] = (),
    ) -> None:
        super().__init__(node_id)
        self.config = config
        self.profile = profile
        self.models = ModelRegistry(models)
        self.endpoint = endpoint or f"svc://{node_id}"
        self.router = router_for(config.routing, self)
        self.tracker = RegistryTracker(
            self, config, on_attached=self._on_attached, router=self.router,
            seeds=seeds,
        )
        self.adopt_handlers(self.tracker)
        #: One record per description model; its ``ad_id`` survives.
        self._published: dict[str, PublishedAd] = {
            model_id: PublishedAd(model_id=model_id) for model_id in self.models.model_ids()
        }
        self._descriptions = self._describe_all()
        self.publishes_sent = 0
        self.republish_events = 0
        self.publish_retries = 0
        self.renew_retries = 0
        #: BUSY rejections honored by deferring on the server's hint.
        self.busy_deferrals = 0
        self.rebuild()

    def _record_for(self, *, lease_id: str) -> PublishedAd | None:
        for record in self._published.values():
            if record.lease_id == lease_id:
                return record
        return None

    def _describe_all(self) -> dict[str, object]:
        return {
            model_id: self.models.get(model_id).describe(self.profile, self.endpoint)
            for model_id in self.models.model_ids()
        }

    # -- lifecycle ------------------------------------------------------------

    def rebuild(self) -> None:
        """A fresh router, no attachment (a restart keeps the registries
        heard of), and publication records that keep only their ad ids."""
        self.router.rebuild()
        self.tracker.rebuild()
        self._published = {
            model_id: PublishedAd(model_id=model_id, ad_id=record.ad_id)
            for model_id, record in self._published.items()
        }
        self._attached_at: float | None = None
        #: Model id → :meth:`self_advertisement`'s last record.
        self._self_ads: dict[str, Advertisement] = {}

    def start(self) -> None:
        """Bootstrap: find a registry, then keep leases alive."""
        self.tracker.bootstrap()
        self.tracker.start_signalling_refresh()
        self.every(self.config.renew_interval, self._renew_tick)

    def on_moved(self, old_lan: str, new_lan: str) -> None:
        """Roamed: rebuild, forget the old LAN's registries, and find one
        here to republish at. The old registry's leases simply lapse — a
        roam looks like a crash to it, as the soft-state design wants."""
        self.rebuild()
        self.tracker.rebuild(forget=True)
        self.tracker.bootstrap()

    def deregister(self) -> None:
        """Graceful shutdown: explicitly remove our advertisements.

        This is the *only* cleanup path available to systems without
        leasing (the UDDI shortcoming); crash-stop departures skip it.
        """
        registry = self.tracker.current
        if registry is None:
            return
        for record in self._published.values():
            if record.acked and record.ad_id:
                self.send(registry, protocol.REMOVE,
                          protocol.RemovePayload(ad_id=record.ad_id))
                record.acked = False

    # -- publishing --------------------------------------------------------------

    def _on_attached(self, registry_id: str) -> None:
        self._attached_at = self.sim.now
        self._publish_all(registry_id)

    def _publish_all(self, registry_id: str) -> None:
        self.republish_events += 1
        for model_id, record in sorted(self._published.items()):
            record.registry = registry_id
            record.acked = False
            record.renew_outstanding = False
            if not record.ad_id:
                record.ad_id = new_uuid("ad")
            self.publishes_sent += 1
            self._send_publish(registry_id, record)
            self._resend_unless_answered(protocol.PUBLISH, record, registry_id)

    def _send_publish(self, registry_id: str, record: PublishedAd) -> None:
        record.publish_sent_at = self.sim.now
        self.send(
            registry_id,
            protocol.PUBLISH,
            protocol.PublishPayload(
                service_node=self.node_id,
                service_name=self.profile.service_name,
                endpoint=self.endpoint,
                model_id=record.model_id,
                description=self._descriptions[record.model_id],
                ad_id=record.ad_id,
            ),
            payload_type=record.model_id,
        )

    def _resend_unless_answered(
        self, kind: str, record: PublishedAd, registry_id: str, *,
        attempt: int = 1, hint: float | None = None,
    ) -> None:
        """Arm one resend of ``record``'s publish or renew (``kind`` is
        the message type) to ``registry_id``.

        It fires unless by then the message was answered, the record was
        re-homed to another registry, its lease was superseded, or our
        attachment moved. The delay comes from the retry policy — the
        capped, jittered backoff for ``attempt``, after which the chain
        re-arms itself until the policy is spent — or from a BUSY's
        ``hint``: one deferred resend beside the chain armed at send time.

        A message lost on a lossy link used to look identical to a dead
        registry at the next renew tick (``stale_renew`` /
        ``publish_unacked``); a few quick retransmissions let transient
        loss resolve without tearing down a healthy attachment. The
        failover heuristic is untouched — it still fires if every resend
        drowns.
        """
        renew = kind == protocol.RENEW
        if hint is None:
            policy = self.config.renew_retry if renew else PUBLISH_RETRY
            if attempt > policy.max_attempts:
                return
            delay = policy.delay(
                attempt, seed=self.sim.seed,
                key=f"{self.node_id}/{record.model_id}/{kind}",
            )
        else:
            delay = hint
        lease_id = record.lease_id

        def resend() -> None:
            if not record.awaiting(kind):
                return
            if record.lease_id != lease_id or record.registry != registry_id:
                return
            if self.tracker.current != registry_id:
                return
            if renew:
                self.renew_retries += 1
            else:
                self.publish_retries += 1
            self.count(f"retry.{kind}")
            (self._send_renew if renew else self._send_publish)(registry_id, record)
            if hint is None:
                self._resend_unless_answered(
                    kind, record, registry_id, attempt=attempt + 1)

        self.after(delay, resend)

    def handle_publish_ack(self, envelope: Envelope) -> None:
        ack = envelope.payload
        record = self._published.get(ack.model_id)
        if record is None or record.registry != envelope.src:
            return
        sent_at, record.publish_sent_at = record.publish_sent_at, None
        self.answered(protocol.PUBLISH, ok=True,
                      latency=self.sim.now - sent_at if sent_at is not None else 0.0)
        record.ad_id = ack.ad_id
        record.lease_id = ack.lease_id
        record.acked = True
        record.renew_outstanding = False

    def update_profile(self, profile: ServiceProfile) -> None:
        """The capability changed (e.g. coverage area): republish.

        "Advertisement content, such as coverage area information, could
        change frequently in dynamic environments."
        """
        self.profile = profile
        self._descriptions = self._describe_all()
        if self.tracker.current is not None:
            self._publish_all(self.tracker.current)

    # -- leases ---------------------------------------------------------------------

    def _renew_tick(self) -> None:
        registry = self.tracker.current
        if registry is None:
            self.tracker.probe()
            return
        # Two registry-death signals: a renewal round that never got
        # acked, or a publish that has gone a whole renew interval without
        # its ack (we may have attached to an alternative that was itself
        # already dead). Either way: fail over and republish.
        stale_renew = any(r.renew_outstanding for r in self._published.values())
        publish_unacked = (
            any(not r.acked for r in self._published.values())
            and self._attached_at is not None
            and self.sim.now - self._attached_at >= 0.9 * self.config.renew_interval
        )
        if stale_renew or publish_unacked:
            self.router.on_timeout(registry)
            self.tracker.registry_failed()
            return
        for record in sorted(self._published.values(), key=lambda r: r.model_id):
            if record.acked and record.lease_id:
                record.renew_outstanding = True
                self._send_renew(registry, record)
                self._resend_unless_answered(protocol.RENEW, record, registry)

    def _send_renew(self, registry_id: str, record: PublishedAd) -> None:
        record.renew_sent_at = self.sim.now
        self.send(
            registry_id,
            protocol.RENEW,
            protocol.RenewPayload(lease_id=record.lease_id, ad_id=record.ad_id),
        )

    def handle_renew_ack(self, envelope: Envelope) -> None:
        payload = envelope.payload
        record = self._record_for(lease_id=payload.lease_id)
        sent_at = None
        if record is not None:
            sent_at, record.renew_sent_at = record.renew_sent_at, None
            record.renew_outstanding = False
        if sent_at is not None:
            # Renew round-trips double as passive latency probes.
            self.router.on_response(envelope.src, rtt=self.sim.now - sent_at)
        self.answered(protocol.RENEW, ok=True,
                      latency=self.sim.now - sent_at if sent_at is not None else 0.0)

    def handle_publish_nack(self, envelope: Envelope) -> None:
        """The registry refused us (at capacity, or it is a standby that
        stepped down): publish elsewhere.

        A registry at capacity is excluded from attachment choices until
        what it held has been renewed or purged (``RegistryTracker.exclude``),
        so beacon-driven re-homing does not bounce us back into the NACK. A
        dormant standby is not: failing over forgets it, it beacons nothing
        until it promotes again, and then it is a registry we may need.
        """
        payload = envelope.payload
        self.answered(protocol.PUBLISH, ok=False)
        if self.tracker.current != envelope.src:
            return
        if payload.reason == "quorum":
            # A missed write quorum is transient (a replica is down and
            # anti-entropy will repair it): keep the retry chain armed at
            # send time running against the same coordinator instead of
            # excluding it. Arming a fresh chain here would stack one
            # more chain per NACK — an exponential publish storm.
            return
        if payload.reason != "dormant":
            self.tracker.exclude(envelope.src)
        self.tracker.registry_failed()

    def handle_busy(self, envelope: Envelope) -> None:
        """The registry shed our publish or renew: resend on its schedule.

        Crucially, a BUSY is *not* a death signal — the registry answered,
        it is just saturated. Deferring by ``retry_after`` (instead of
        letting ``stale_renew`` trip the failover heuristic) keeps the
        herd attached and the lease alive through the overload window;
        priority admission makes the deferred RENEW all but certain to be
        served next time.
        """
        payload = envelope.payload
        # The :class:`PublishedAd` field of the same name as the one the
        # shed request's record declares a BUSY to echo.
        key = protocol.MESSAGE_RECORDS[payload.msg_type].correlation \
            if payload.msg_type in _RESENT_ON_BUSY else None
        if key is not None:
            self.answered(payload.msg_type, ok=False)
        self.router.on_busy(
            envelope.src,
            retry_after=payload.retry_after,
            queue_depth=payload.queue_depth,
        )
        if key is None or self.tracker.current != envelope.src:
            return
        for record in self._published.values():
            if getattr(record, key) == payload.request_id:
                if record.awaiting(payload.msg_type):
                    self.busy_deferrals += 1
                    self._resend_unless_answered(
                        payload.msg_type, record, envelope.src,
                        hint=payload.retry_after)
                return

    def handle_renew_nack(self, envelope: Envelope) -> None:
        """Lease lapsed at the registry (e.g. it restarted): republish."""
        payload = envelope.payload
        self.answered(protocol.RENEW, ok=False)
        record = self._record_for(lease_id=payload.lease_id)
        if record is not None:
            record.renew_outstanding = False
            record.acked = False
        if self.tracker.current is not None:
            self._publish_all(self.tracker.current)

    # -- decentralized LAN mode -----------------------------------------------------------

    def self_advertisement(self, model_id: str) -> Advertisement:
        """Our capability as an advertisement record (for direct replies),
        built again only once its description or the endpoint changed."""
        description = self._descriptions[model_id]
        ad = self._self_ads.get(model_id)
        if ad is None or ad.description is not description or ad.endpoint != self.endpoint:
            ad = self._self_ads[model_id] = Advertisement(
                ad_id=f"self-{self.node_id}-{model_id}",
                service_node=self.node_id,
                service_name=self.profile.service_name,
                endpoint=self.endpoint,
                model_id=model_id,
                description=description,
                home_registry="",
            )
        return ad

    def handle_decentral_query(self, envelope: Envelope) -> None:
        """Evaluate a multicast query against our own descriptions.

        "All provider nodes must evaluate the query independently of each
        other before they return their responses to the querying node."
        """
        payload = envelope.payload
        model = self.models.for_query(payload.model_id, payload.query)
        if model is None or not model.can_evaluate():
            return
        verdict = model.evaluate(self._descriptions[payload.model_id], payload.query)
        if not verdict.matched:
            return
        hit = QueryHit(
            advertisement=self.self_advertisement(payload.model_id),
            degree=verdict.degree,
            score=verdict.score,
        )
        self.send(
            envelope.src,
            protocol.DECENTRAL_RESPONSE,
            protocol.ResponsePayload(query_id=payload.query_id, hits=(hit,), responders=1),
        )
