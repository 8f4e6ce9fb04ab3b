"""The generic service discovery protocol.

"We would like to reuse the same generic operations and messages,
regardless of the payload (based on the service description model). We
classify such operations and messages in three categories: registry
network maintenance, publishing, and querying."

This module defines exactly those payload records and message types.
Service descriptions and queries ride *inside* these payloads as any
model's record, named by the envelope's ``payload_type`` ("next header");
whether it is the named model's, the receiving node's model registry
judges, so the protocol never depends on any particular description model.

Each record is declared once (:func:`repro.records.record`): its
annotations are the field kinds the construction-time check and
``size_bytes()`` derive from, ``correlation`` the field a ``BUSY`` echoes.
Each message type is declared with the record it carries: a new message is
one line here (and a record, if it brings one) plus its handler.
"""

from __future__ import annotations

from typing import Annotated

from repro.descriptions import Description, Query
from repro.records import PerItem, Seconds, record
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit
from repro.registry.rim import RegistryDescription
from repro.semantics.ontology import Ontology

# -- payload records -------------------------------------------------------


@record(overhead=24, correlation="ad_id")
class PublishPayload:
    """A service node's publish (or republish) request.

    ``ad_id`` is empty on first publish; set on republish so the registry
    can bump the version instead of storing a duplicate.
    """

    service_node: str
    service_name: str
    endpoint: str
    model_id: str
    description: Description
    ad_id: str = ""
    lease_duration: Seconds | None = None


@record(overhead=16)
class PublishAck:
    """Registry's answer to a publish: the UUID and the granted lease.

    ``model_id`` echoes the published description model so a service node
    publishing under several models can correlate acks. The *granted*
    ``lease_duration`` is ``inf`` where the registry does not lease.
    """

    ad_id: str
    lease_id: str
    lease_duration: float
    model_id: str = ""


@record(overhead=8)
class PublishNack:
    """Registry's refusal of a publish, with the reason."""

    ad_id: str
    model_id: str
    reason: str = "capacity"


@record(overhead=8, correlation="lease_id")
class RenewPayload:
    """Lease renewal request, referencing the lease by id."""

    lease_id: str
    ad_id: str


@record(overhead=8)
class LeavePayload:
    """Graceful departure, flooded so non-neighbors learn it too.

    ``member`` is the departing registry; empty means the sender itself
    (the first-hop announcement). Relays always name the member since
    the envelope ``src`` is then the forwarder, not the leaver.
    """

    member: str = ""


@record(overhead=8, correlation="ad_id")
class RemovePayload:
    """Explicit advertisement removal (graceful shutdown)."""

    ad_id: str


@record(overhead=16, correlation="query_id")
class QueryPayload:
    """A query travelling through the registry network.

    ``query_id`` provides loop avoidance ("giving queries their unique
    query ID is a good approach to avoid query looping between registry
    nodes"); ``ttl`` bounds the forwarding radius; ``max_results`` is the
    response-control cap.
    """

    query_id: str
    model_id: str
    query: Query
    max_results: int | None = None
    ttl: int = 0

    def with_ttl(self, ttl: int) -> "QueryPayload":
        """This query under another TTL (checked like any construction)."""
        return QueryPayload(self.query_id, self.model_id, self.query, self.max_results, ttl)


@record(overhead=16)
class ResponsePayload:
    """Aggregated query hits flowing back toward the querying client.

    ``degraded`` marks a response served by an overloaded registry that
    skipped WAN fan-out and answered from its local store only — the
    hits are valid but coverage is best-effort.

    ``queue_depth`` piggybacks the responder's admission-queue depth at
    response time (0 when admission control is inert), feeding the
    receiver's passive health tracker for load-aware routing. It rides
    inside the fixed 16-byte header overhead — ``size_bytes()`` is
    deliberately unchanged so delivery latency (a function of payload
    size) stays bit-identical for existing scenarios.
    """

    query_id: str
    hits: tuple[QueryHit, ...]
    responders: int = 1
    degraded: bool = False
    queue_depth: int = 0


@record(overhead=16)
class BusyPayload:
    """An admission controller's rejection of one message.

    ``request_id`` echoes the shed request's ``correlation`` field (query
    id, lease id, advertisement id or subscription id) so the sender can
    find its own bookkeeping; ``retry_after`` is the server's back-off
    hint, monotone in ``queue_depth`` at shed time.
    """

    request_id: str
    msg_type: str
    retry_after: float
    queue_depth: int


@record(overhead=24, correlation="query_id")
class WalkPayload:
    """A random-walk query: carries its coordinator and visited set."""

    query_id: str
    model_id: str
    query: Query
    coordinator: str
    remaining: int
    visited: tuple[str, ...] = ()
    max_results: int | None = None


@record(overhead=16, correlation="sub_id")
class SubscribePayload:
    """A standing query: notify me about future matching advertisements.

    Subscriptions are leased like advertisements: the subscriber must
    re-subscribe (same ``sub_id``) before ``duration`` elapses or the
    registry drops the subscription — the same aliveness principle as
    §4.8, applied to client interest.
    """

    sub_id: str
    model_id: str
    query: Query
    duration: Seconds


@record(overhead=16)
class SubscribeAck:
    """Registry's acceptance of a (re-)subscription."""

    sub_id: str
    expires_at: float


@record(overhead=0)
class NotifyPayload:
    """One newly published advertisement matching a subscription."""

    sub_id: str
    hit: QueryHit


@record(overhead=8, correlation="sub_id")
class UnsubscribePayload:
    """Cancel a standing query."""

    sub_id: str


@record(overhead=16)
class RegistryListPayload:
    """Registry signalling: "share information about other registry nodes"."""

    registries: tuple[RegistryDescription, ...]


@record(overhead=24)
class AdForwardPayload:
    """One advertisement pushed to a peer registry (replication).

    ``epoch`` increases with each lease refresh at the home registry, so
    re-pushes propagate through the dedup flood (key: ad_id, version,
    epoch) and keep replica leases alive.
    """

    advertisement: Advertisement
    lease_duration: Seconds
    epoch: int = 0

    def dedup_key(self) -> tuple[str, int, int]:
        return (self.advertisement.ad_id, self.advertisement.version, self.epoch)


@record(overhead=16)
class DigestPayload:
    """A compact snapshot of one registry's replicated store.

    ``entries`` maps each live advertisement to its freshness coordinates
    ``(ad_id, version, epoch)`` — a few dozen bytes per advertisement
    instead of the full description. ``tombstones`` carries recently
    removed advertisements as ``(ad_id, version)`` so peers delete their
    replicas instead of pushing them back (resurrection avoidance).
    """

    entries: Annotated[tuple[tuple[str, int, int], ...], PerItem(16)] = ()
    tombstones: Annotated[tuple[tuple[str, int], ...], PerItem(8)] = ()


@record(overhead=16)
class DigestPullPayload:
    """Delta pull: the advertisement ids a digest showed we lack."""

    ad_ids: Annotated[tuple[str, ...], PerItem(8)]


@record(overhead=16)
class SyncAdsPayload:
    """Bulk anti-entropy transfer: full advertisements with lease context.

    Each entry is an :class:`AdForwardPayload` so the receiver integrates
    it through the same replica-absorption path as a replication push —
    but sync entries carry the *remaining* lease duration, so
    reconciliation never extends the life of a silent service.
    """

    ads: tuple[AdForwardPayload, ...]


@record(overhead=8)
class ShardStorePayload:
    """One quorum-write replica push (sharded federation).

    Wraps the classic :class:`AdForwardPayload` so replicas absorb it
    through the same tombstone/capacity/lease path as the flood, plus a
    coordinator-scoped ``request_id`` correlating the ack.
    """

    request_id: str
    entry: AdForwardPayload


@record(overhead=16)
class ShardAckPayload:
    """A replica's answer to a quorum write/renew/remove.

    ``found`` is False when a renew targeted an advertisement the
    replica does not hold (the coordinator NACKs the service so it
    republishes).
    """

    request_id: str
    ad_id: str
    found: bool = True


@record(overhead=24)
class ShardRenewPayload:
    """Refresh the replica leases of one quorum-replicated advertisement."""

    request_id: str
    ad_id: str
    epoch: int
    duration: Seconds


@record(overhead=16)
class ShardRemovePayload:
    """Tombstone one advertisement on a replica (quorum remove)."""

    request_id: str
    ad_id: str


@record(overhead=16)
class ArtifactRequestPayload:
    """Fetch a named artifact (ontology, schema) from a registry."""

    artifact_name: str


@record(overhead=16)
class ArtifactReplyPayload:
    """The artifact, or ``None`` when the repository does not hold it."""

    artifact_name: str
    artifact: Ontology | None = None


# -- message types ---------------------------------------------------------

#: Message type → the record its payload must be (``NoneType``: none at
#: all), filled by the declarations below. The nodes of this protocol
#: supply it as their ``payload_records``, so ``Node.receive`` discards
#: anything else before a handler sees it. Admission class, epoch fencing
#: and bandwidth grouping per type stay with the subsystems that own them.
MESSAGE_RECORDS: dict[str, type] = {}


def _message(msg_type: str, carries: type = type(None)) -> str:
    """Declare a message type together with the record it carries."""
    MESSAGE_RECORDS[msg_type] = carries
    return msg_type


# -- message types: registry network maintenance --------------------------

#: Client/service multicast: "any registries on this LAN?" (active discovery)
REGISTRY_PROBE = _message("registry-probe")
#: Registry unicast reply to a probe.
REGISTRY_PROBE_REPLY = _message("registry-probe-reply", RegistryDescription)
#: Registry multicast heartbeat (passive discovery).
REGISTRY_BEACON = _message("registry-beacon", RegistryDescription)
#: Registry-to-registry aliveness check.
REGISTRY_PING = _message("registry-ping")
REGISTRY_PONG = _message("registry-pong")
#: Ask any registry for other registries it knows (registry signalling).
REGISTRY_LIST_REQUEST = _message("registry-list-request")
REGISTRY_LIST_REPLY = _message("registry-list-reply", RegistryListPayload)
#: Registry-to-registry federation handshake.
FEDERATION_JOIN = _message("federation-join", RegistryDescription)
FEDERATION_JOIN_ACK = _message("federation-join-ack", RegistryDescription)
FEDERATION_LEAVE = _message("federation-leave", LeavePayload)
#: Repository operations (§4.6): fetch ontologies/schemas from a registry.
ARTIFACT_REQUEST = _message("artifact-request", ArtifactRequestPayload)
ARTIFACT_REPLY = _message("artifact-reply", ArtifactReplyPayload)

# -- message types: publishing --------------------------------------------

PUBLISH = _message("publish", PublishPayload)
PUBLISH_ACK = _message("publish-ack", PublishAck)
#: Registry refused the publish (e.g. at storage capacity) — the
#: asymmetric-resources case: the service must try another registry.
PUBLISH_NACK = _message("publish-nack", PublishNack)
RENEW = _message("renew", RenewPayload)
RENEW_ACK = _message("renew-ack", RenewPayload)
RENEW_NACK = _message("renew-nack", RenewPayload)
REMOVE = _message("remove", RemovePayload)
REMOVE_ACK = _message("remove-ack", RemovePayload)
#: Registry-to-registry advertisement push (replication cooperation).
AD_FORWARD = _message("ad-forward", AdForwardPayload)
#: Anti-entropy reconciliation (replication cooperation): a compact store
#: digest, a delta-pull request for missing/stale advertisements, and the
#: bulk advertisement reply.
ANTIENTROPY_DIGEST = _message("antientropy-digest", DigestPayload)
ANTIENTROPY_PULL = _message("antientropy-pull", DigestPullPayload)
ANTIENTROPY_ADS = _message("antientropy-ads", SyncAdsPayload)
#: Sharded federation (quorum replication): the write coordinator pushes
#: one advertisement to a replica-set member and awaits its ack.
SHARD_STORE = _message("shard-store", ShardStorePayload)
SHARD_STORE_ACK = _message("shard-store-ack", ShardAckPayload)
#: Replica-lease refresh and tombstoning for quorum-replicated ads; an
#: empty ``request_id`` marks a fire-and-forget refresh that needs no ack.
SHARD_RENEW = _message("shard-renew", ShardRenewPayload)
SHARD_RENEW_ACK = _message("shard-renew-ack", ShardAckPayload)
SHARD_REMOVE = _message("shard-remove", ShardRemovePayload)
SHARD_REMOVE_ACK = _message("shard-remove-ack", ShardAckPayload)
#: Bulk key movement after a ring membership change (rebalancing).
SHARD_TRANSFER = _message("shard-transfer", SyncAdsPayload)

# -- message types: subscriptions (notification extension) -----------------

#: Client registers interest in future advertisements ("registration for
#: notifications about service advertisements of interest").
SUBSCRIBE = _message("subscribe", SubscribePayload)
SUBSCRIBE_ACK = _message("subscribe-ack", SubscribeAck)
UNSUBSCRIBE = _message("unsubscribe", UnsubscribePayload)
#: Registry pushes a newly published matching advertisement.
NOTIFY = _message("notify", NotifyPayload)

# -- message types: querying ----------------------------------------------

QUERY = _message("query", QueryPayload)
QUERY_FORWARD = _message("query-forward", QueryPayload)
QUERY_RESPONSE = _message("query-response", ResponsePayload)
#: Overload protection: a saturated registry *answers* shed work instead
#: of silently dropping it. The payload carries a back-off hint so the
#: sender retries on the server's schedule, not its own guess.
BUSY = _message("busy", BusyPayload)
#: Random-walk variants: hits stream back to the coordinator directly.
WALK = _message("walk", WalkPayload)
WALK_HITS = _message("walk-hits", ResponsePayload)
WALK_END = _message("walk-end", ResponsePayload)
#: Decentralized LAN mode (Fig. 3, right): query multicast to everyone;
#: service nodes answer for themselves.
DECENTRAL_QUERY = _message("decentral-query", QueryPayload)
DECENTRAL_RESPONSE = _message("decentral-response", ResponsePayload)
