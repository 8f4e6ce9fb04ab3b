"""Registry federation: the dynamic registry network (Fig. 2).

Registries are autonomous super-peers that "dynamically connect and
disconnect to the system", keep aliveness state about their neighbors, and
gossip registry lists so the network re-wires itself around failures
("registry signalling" — §4.9).

The :class:`Federation` component owns, for one registry node:

* the neighbor set (direct federation links),
* the known-registry cache (fed by joins, gossip, and LAN observation),
* periodic neighbor pings with a missed-pong failure detector,
* reconnection: when a neighbor dies, try a known non-neighbor so the
  registry network stays connected,
* same-LAN gateway election ("only one node … acts as the gateway to the
  WAN-level registry network"),
* membership events for the components that need them
  (:meth:`Federation.watch`): a registry observed, a neighbor added, a
  peer's proof of life, a member gone, a member's graceful leave, our own
  departure. The federation never calls its registry's components by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.forwarding import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.registry.rim import RegistryDescription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope


class Federation:
    """Neighbor management for one registry node."""

    def __init__(
        self,
        registry: "RegistryNode",
        config: DiscoveryConfig,
        *,
        describe: Callable[[], RegistryDescription],
    ) -> None:
        self.registry = registry
        self.config = config
        self.describe = describe
        self.joins_sent = 0
        self.neighbors_lost = 0
        self.reconnects = 0
        self._observers: dict[str, list[Callable[..., None]]] = {}
        self.rebuild()

    # -- lifecycle ---------------------------------------------------------

    def rebuild(self) -> None:
        """Build the membership state: no link, nobody known, nothing
        suspected or departed — the seeds re-form what they configure."""
        self.neighbors: set[str] = set()
        self.known: dict[str, RegistryDescription] = {}
        self._missed_pongs: dict[str, int] = {}
        #: Per-neighbor circuit breakers fed by missed pongs and
        #: aggregation timeouts; consulted by the query fan-out.
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Departure tombstones: member -> time its leave was learned.
        #: Gossip relaying a pre-departure snapshot must not resurrect
        #: the member (ring membership would thrash); a snapshot issued
        #: *after* the departure is a genuine rejoin and clears the
        #: tombstone.
        self.departed: dict[str, float] = {}

    def start(self) -> None:
        """Arm the periodic maintenance tasks."""
        self.registry.every(self.config.ping_interval, self._ping_round)
        if self.config.signalling_interval is not None:
            self.registry.every(self.config.signalling_interval, self._gossip_round)

    # -- membership observers -------------------------------------------------

    def watch(self, event: str, observer: Callable[..., None]) -> None:
        """Have ``observer`` told of ``event`` from now on, after those
        registered before it — by the component that needs it:
        ``registry_observed(description, first_sighting=…)``,
        ``neighbor_added(peer)``, ``peer_departed(peer)`` (a graceful leave
        or a neighbor declared dead), ``drop_member(peer)`` (a graceful
        leave, after ``peer_departed``) or ``departing()`` (we are
        leaving)."""
        self._observers.setdefault(event, []).append(observer)

    def _tell(self, event: str, *args: Any, **kwargs: Any) -> None:
        for observer in self._observers.get(event, ()):
            observer(*args, **kwargs)

    # -- joining ------------------------------------------------------------

    def join(self, other_id: str) -> None:
        """Initiate a federation link with another registry (seeding)."""
        if other_id == self.registry.node_id or other_id in self.neighbors:
            return
        self.joins_sent += 1
        self.registry.send(other_id, protocol.FEDERATION_JOIN, self.describe())

    def handle_federation_join(self, envelope: "Envelope") -> None:
        """A peer wants to federate: accept and acknowledge."""
        self._add_neighbor(envelope)
        self.registry.send(envelope.src, protocol.FEDERATION_JOIN_ACK, self.describe())

    def handle_federation_join_ack(self, envelope: "Envelope") -> None:
        """Our join was accepted."""
        self._add_neighbor(envelope)

    def handle_federation_leave(self, envelope: "Envelope") -> None:
        """A peer announced a graceful departure (possibly relayed).

        The announcement is flooded: each registry forwards it once to
        its own neighbors, so members that were never direct neighbors
        of the leaver (and would otherwise keep gossiping its stale
        description, re-growing the shard ring) learn of the departure
        too. The ``departed`` tombstone deduplicates the flood.
        """
        src = envelope.src
        member = envelope.payload.member or src
        if member == self.registry.node_id or member in self.departed:
            return
        self.departed[member] = self.registry.sim.now
        self.neighbors.discard(member)
        self.known.pop(member, None)
        self._missed_pongs.pop(member, None)
        self.breakers.pop(member, None)
        for neighbor in sorted(self.neighbors):
            if neighbor != src:
                self.registry.send(neighbor, protocol.FEDERATION_LEAVE,
                                   protocol.LeavePayload(member=member))
        # A graceful leave is authoritative: re-resolve any in-flight
        # queries that were still waiting on it, and drop the peer from
        # the shard ring (triggering rebalance).
        self._tell("peer_departed", member)
        self._tell("drop_member", member)

    def leave(self) -> None:
        """Announce graceful departure to all neighbors.

        Failure-detector and breaker state goes with the links: a stale
        nonzero missed-pong counter would otherwise survive a leave/rejoin
        cycle and get a re-federated neighbor dropped after a single
        missed pong.
        """
        self._tell("departing")
        for neighbor in sorted(self.neighbors):
            self.registry.send(neighbor, protocol.FEDERATION_LEAVE,
                               protocol.LeavePayload(member=self.registry.node_id))
        self.neighbors.clear()
        self._missed_pongs.clear()
        self.breakers.clear()

    def _add_neighbor(self, envelope: "Envelope") -> None:
        """Link with the sender of a join or join-ack, which carries its
        self-description."""
        other_id, description = envelope.src, envelope.payload
        is_new = other_id not in self.neighbors
        self.departed.pop(other_id, None)  # a direct (re)join is proof of return
        self.neighbors.add(other_id)
        # A join (or join-ack) is proof of life: reset the failure
        # detector rather than inheriting a stale pre-departure count.
        self._missed_pongs[other_id] = 0
        self.record_neighbor_success(other_id)
        self.known[other_id] = description
        self._tell("registry_observed", description)
        if is_new:
            self._tell("neighbor_added", other_id)

    # -- observation -----------------------------------------------------------

    def handle_registry_probe(self, envelope: "Envelope") -> None:
        self.registry.send(envelope.src, protocol.REGISTRY_PROBE_REPLY, self.describe())

    def handle_registry_beacon(self, envelope: "Envelope") -> None:
        """A beacon or probe reply: a registry announced itself."""
        self.observe(envelope.payload)

    handle_registry_probe_reply = handle_registry_beacon

    def observe(self, description: RegistryDescription) -> None:
        """Record a registry seen via beacon/probe/gossip.

        Same-LAN registries federate automatically: "if two registries can
        discover each other through multicast, they are on the same network
        segment" — this is what makes gateway election well-defined.
        """
        if description.registry_id == self.registry.node_id:
            return
        left_at = self.departed.get(description.registry_id)
        if left_at is not None:
            if description.issued_at <= left_at:
                return  # stale pre-departure snapshot relayed by gossip
            del self.departed[description.registry_id]  # genuine rejoin
        current = self.known.get(description.registry_id)
        if current is not None and current.issued_at > description.issued_at:
            # Gossip relayed an older snapshot: keep the fresher one.
            return
        is_new = current is None
        self.known[description.registry_id] = description
        self._tell("registry_observed", description, first_sighting=is_new)
        if (
            description.lan_name == self.registry.lan_name
            and description.registry_id not in self.neighbors
        ):
            self.join(description.registry_id)

    # -- aliveness ----------------------------------------------------------------

    def _ping_round(self) -> None:
        """Ping every neighbor; drop those that missed too many pongs.

        Seeded peers that are currently not neighbors are re-joined each
        round: seeds are durable manual configuration, so a link severed
        by a partition (or a peer's crash) re-forms as soon as the peer is
        reachable again — the join simply keeps failing until then.
        """
        for neighbor in sorted(self.neighbors):
            missed = self._missed_pongs.get(neighbor, 0)
            if missed >= 1:
                # The previous ping went unanswered: feed the breaker so
                # the fan-out stops waiting on this neighbor well before
                # the (slower) drop threshold fires.
                self.record_neighbor_failure(neighbor)
            self._missed_pongs[neighbor] = missed + 1
            if self._missed_pongs[neighbor] > self.config.ping_failure_threshold:
                self._neighbor_lost(neighbor)
            else:
                self.registry.send(neighbor, protocol.REGISTRY_PING)
        for seed in self.registry.seeds:
            if seed not in self.neighbors and seed != self.registry.node_id:
                self.join(seed)

    def handle_registry_ping(self, envelope: "Envelope") -> None:
        self.registry.send(envelope.src, protocol.REGISTRY_PONG)

    def handle_registry_pong(self, envelope: "Envelope") -> None:
        """A neighbor answered: reset its failure counter."""
        src = envelope.src
        if src in self.neighbors:
            self._missed_pongs[src] = 0
            self.record_neighbor_success(src)

    def _neighbor_lost(self, neighbor: str) -> None:
        """Failure detector fired: unlink and try to re-wire the network."""
        self.neighbors.discard(neighbor)
        self.known.pop(neighbor, None)
        self._missed_pongs.pop(neighbor, None)
        self.breakers.pop(neighbor, None)
        self.neighbors_lost += 1
        # A crash suspicion is NOT a ring departure: the shard ring keeps
        # the member (health-aware replica selection masks it, anti-entropy
        # repairs it) so a flapping registry does not thrash key placement.
        self._tell("peer_departed", neighbor)
        self._reconnect()

    def _reconnect(self) -> None:
        """Keep the registry network connected after a neighbor loss.

        Deterministic policy: join the lowest-id known registry that is
        not already a neighbor. Without signalling the known cache is
        empty and the network may stay split — exactly the degradation E9
        measures.
        """
        candidates = sorted(set(self.known) - self.neighbors - {self.registry.node_id})
        if candidates:
            self.reconnects += 1
            self.join(candidates[0])

    # -- circuit breakers -------------------------------------------------------------

    #: Breaker-state gauge levels (Prometheus-style enum encoding).
    _BREAKER_LEVELS = {BREAKER_OPEN: 2.0, BREAKER_HALF_OPEN: 1.0}

    def _breaker(self, neighbor: str) -> CircuitBreaker:
        breaker = self.breakers.get(neighbor)
        if breaker is None:
            breaker = CircuitBreaker(
                lambda: self.registry.sim.now,
                reset_timeout=self.config.breaker_reset_timeout,
                on_transition=lambda old, new, _n=neighbor:
                    self._on_breaker_transition(_n, old, new),
            )
            self.breakers[neighbor] = breaker
        return breaker

    def _on_breaker_transition(self, neighbor: str, old: str, new: str) -> None:
        """Mirror breaker state into metrics: a per-link state gauge
        (closed=0 / half-open=1 / open=2) and a global flap counter for
        open → half-open → open round trips (failed probes)."""
        self.registry.gauge(f"breaker.state.{self.registry.node_id}:{neighbor}",
                            self._BREAKER_LEVELS.get(new, 0.0))
        if old == BREAKER_HALF_OPEN and new == BREAKER_OPEN:
            self.registry.count("breaker.flaps")

    def record_neighbor_failure(self, neighbor: str) -> None:
        """Feed one failure signal (missed pong, aggregation timeout)."""
        if self._breaker(neighbor).record_failure():
            self.registry.recovered("breaker-open", attrs={"neighbor": neighbor})

    def record_neighbor_success(self, neighbor: str) -> None:
        """Feed one success signal (pong, query response, join)."""
        breaker = self.breakers.get(neighbor)
        if breaker is not None and breaker.record_success():
            self.registry.recovered("breaker-close", attrs={"neighbor": neighbor})

    def breaker_allows(self, neighbor: str) -> bool:
        """Whether the fan-out may wait on ``neighbor`` right now.

        Open breakers whose reset timeout elapsed flip to half-open and
        admit the caller as the probe; otherwise the neighbor is skipped
        (and not counted as outstanding by the aggregation).
        """
        breaker = self.breakers.get(neighbor)
        if breaker is None:
            return True
        was_open = breaker.state == BREAKER_OPEN
        allowed = breaker.allows()
        if was_open and allowed:
            self.registry.recovered("breaker-half-open", attrs={"neighbor": neighbor})
        return allowed

    def breaker_would_allow(self, neighbor: str) -> bool:
        """:meth:`breaker_allows` without its side effect: asking it of
        every candidate would spend the probe of a recovered peer that is
        then not picked, and refuse it to the one that is."""
        breaker = self.breakers.get(neighbor)
        return breaker is None or breaker.would_allow()

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per tracked neighbor (reporting)."""
        return {nid: b.state for nid, b in sorted(self.breakers.items())}

    # -- signalling -------------------------------------------------------------------

    def _gossip_round(self) -> None:
        """Send our registry list (self + known) to every neighbor."""
        payload = self.registry_list()
        for neighbor in sorted(self.neighbors):
            self.registry.send(neighbor, protocol.REGISTRY_LIST_REPLY, payload)

    def registry_list(self) -> protocol.RegistryListPayload:
        """The signalling payload: ourselves plus every known registry."""
        entries = [self.describe()]
        entries.extend(self.known[rid] for rid in sorted(self.known))
        return protocol.RegistryListPayload(registries=tuple(entries))

    def handle_registry_list_request(self, envelope: "Envelope") -> None:
        self.registry.send(envelope.src, protocol.REGISTRY_LIST_REPLY, self.registry_list())

    def handle_registry_list_reply(self, envelope: "Envelope") -> None:
        """Merge a received registry list into the known cache."""
        for description in envelope.payload.registries:
            self.observe(description)

    # -- gateway election ------------------------------------------------------------

    def lan_registries(self) -> list[str]:
        """Registries known to sit on our LAN, including ourselves."""
        peers = [
            rid for rid, desc in self.known.items()
            if desc.lan_name == self.registry.lan_name
        ]
        peers.append(self.registry.node_id)
        return sorted(set(peers))

    def gateway(self) -> str:
        """The elected WAN gateway for this LAN: lowest registry id."""
        return self.lan_registries()[0]

    def is_gateway(self) -> bool:
        """Whether this registry is its LAN's WAN gateway."""
        return self.gateway() == self.registry.node_id

    # -- forwarding targets ------------------------------------------------------------

    def forward_targets(self, exclude: set[str]) -> list[str]:
        """Neighbors a query should be forwarded to.

        With gateway election enabled, a non-gateway registry keeps its
        same-LAN links but routes WAN-bound traffic through the gateway
        only, avoiding the paper's "redundant queries being forwarded on
        the registry network" when several registries share a LAN.
        """
        targets = set(self.neighbors)
        if self.config.gateway_election and not self.is_gateway():
            lan = self.registry.lan_name
            same_lan = {
                t for t in targets
                if t in self.known and self.known[t].lan_name == lan
            }
            gateway = self.gateway()
            targets = same_lan
            if gateway in self.neighbors:
                targets.add(gateway)
        return sorted(targets - exclude - {self.registry.node_id})
