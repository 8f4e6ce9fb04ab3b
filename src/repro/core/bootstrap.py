"""Registry discovery and attachment tracking.

"To find out about present registry nodes, discovery of available
registries must be carried out. We call this registry discovery.
Registries may be discovered either by manually configuring the registry
endpoint or by clients actively using local-scoped multicast to find
available registry nodes on LANs. Also, registry nodes could issue local
beacon messages, enabling clients to do passive registry discovery."

The :class:`RegistryTracker` is the piece of a client or service node that
implements all three paths (manual seed, active probe, passive beacon) and
keeps the cache of *alternative* registries fed by registry signalling, so
that failover needs no fresh multicast round (experiment E9).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.routing import PassThrough
from repro.netsim.messages import Envelope
from repro.registry.rim import RegistryDescription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node, Timer

#: How long a prober waits for REGISTRY-PROBE replies before deciding.
PROBE_TIMEOUT = 0.5


class RegistryTracker:
    """Tracks the current registry and known alternatives for one node.

    Parameters
    ----------
    node:
        The owning client/service node (used for timers and messaging).
    config:
        Deployment configuration.
    on_attached:
        Called with the registry id whenever an attachment is (re)made —
        service nodes hook republishing here.
    on_detached:
        Called when the current registry is lost and no alternative was
        immediately available.
    router:
        What candidate selection and alternative ordering consult (the
        owning node's, see :func:`~repro.core.routing.router_for`); by
        default a pass-through that keeps this tracker's own hash-spread
        choice.
    seeds:
        Manually configured registry endpoints; :meth:`bootstrap` attaches
        to the first instead of probing.
    """

    def __init__(
        self,
        node: "Node",
        config: DiscoveryConfig,
        *,
        on_attached: Callable[[str], None] | None = None,
        on_detached: Callable[[], None] | None = None,
        router=None,
        seeds: tuple[str, ...] = (),
    ) -> None:
        self.node = node
        self.config = config
        self.router = router or PassThrough()
        self.seeds = tuple(seeds)
        self.on_attached = on_attached
        self.on_detached = on_detached
        self.probes_sent = 0
        self.failovers = 0
        #: The timer that closes the probe window in flight, if any.
        self._probe: Timer | None = None
        self.rebuild(forget=True)

    def rebuild(self, *, forget: bool = False) -> None:
        """No registry, nobody excluded, no probe window open — and with
        ``forget`` none heard of: a roam forgets (that was the old LAN), a
        restart keeps what it heard of, a cache and not a promise."""
        if self._probe is not None:
            self._probe.cancel()
            self._probe = None
        self.current: str | None = None
        #: Registries this node must not attach to, each until the sim
        #: time given (see :meth:`exclude`); a lapsed entry is inert.
        self.excluded: dict[str, float] = {}
        if forget:
            self.known: dict[str, RegistryDescription] = {}

    # -- discovery --------------------------------------------------------

    def bootstrap(self) -> None:
        """Find a registry: the manually configured endpoint if there is
        one, else an active probe of the LAN."""
        if self.seeds:
            self.seed(self.seeds[0])
        else:
            self.probe()

    def seed(self, registry_id: str, description: RegistryDescription | None = None) -> None:
        """Manual configuration: attach directly to a known endpoint."""
        if description is not None:
            self.known[registry_id] = description
        self._attach(registry_id)

    def probe(self) -> None:
        """Active discovery: multicast a probe, decide after the timeout."""
        if self._probe is not None:
            return
        self.probes_sent += 1
        self.node.multicast(protocol.REGISTRY_PROBE)
        self._probe = self.node.after(PROBE_TIMEOUT, self._probe_done)

    def _probe_done(self) -> None:
        self._probe = None
        if self.current is not None:
            return
        candidate = self._best_candidate()
        if candidate is not None:
            self._attach(candidate)

    def start_signalling_refresh(self) -> None:
        """Periodically re-fetch the registry list from the current registry.

        Keeps the failover cache warm as the federation grows/changes —
        "once connected to a registry node that in turn is connected to
        other registry nodes on the WAN, it is possible to use … registry
        signalling to provide the client node with alternative registry
        nodes' addresses."
        """
        if self.config.signalling_interval is not None:
            self.node.every(self.config.signalling_interval, self._refresh_list)

    def _refresh_list(self) -> None:
        if self.current is not None:
            self.node.send(self.current, protocol.REGISTRY_LIST_REQUEST)

    # -- message handling ---------------------------------------------------

    def observe_registry(self, description: RegistryDescription) -> None:
        """Record a registry learned from a beacon, probe reply, or
        signalling; attach if currently registry-less.

        During an active probe the window is allowed to close first so
        every reply is on the table — picking among all local registries
        (rather than the fastest responder) is what spreads clients evenly
        ("assigning clients to registries in an even distribution").
        """
        self.known[description.registry_id] = description
        if self.current is None and self._probe is None:
            # Passive discovery: a beacon arrived while unattached.
            candidate = self._best_candidate()
            if candidate is not None:
                self._attach(candidate)
        elif (
            self.current is not None
            and description.lan_name == self.node.lan_name
            and description.registry_id != self.current
        ):
            # Re-homing: we are attached to a *remote* registry (a failover
            # artifact) and a local one has (re)appeared — switch back, so
            # publishing and querying stay on the LAN. The old attachment's
            # leases simply lapse (soft state).
            current_desc = self.known.get(self.current)
            if current_desc is not None and current_desc.lan_name != self.node.lan_name:
                self._attach(self._best_candidate() or description.registry_id)

    def handle_registry_beacon(self, envelope: Envelope) -> None:
        """Wire handler for :data:`protocol.REGISTRY_BEACON` and
        :data:`protocol.REGISTRY_PROBE_REPLY`, adopted by the host node."""
        self.observe_registry(envelope.payload)

    handle_registry_probe_reply = handle_registry_beacon

    def handle_registry_list_reply(self, envelope: Envelope) -> None:
        """Wire handler for registry signalling: merge alternatives."""
        for description in envelope.payload.registries:
            self.known.setdefault(description.registry_id, description)

    # -- failover -----------------------------------------------------------

    def registry_failed(self) -> str | None:
        """The current registry stopped answering: fail over.

        With signalling-fed alternatives this is a single unicast re-attach
        ("these addresses may be used in the event of failure"); with an
        empty cache it degenerates to a fresh multicast probe. Returns the
        new registry id, or ``None`` when none is available yet.
        """
        if self.current is not None:
            self.known.pop(self.current, None)
            self.current = None
        self.failovers += 1
        candidate = self._best_candidate()
        if candidate is not None:
            self._attach(candidate)
            return candidate
        if self.on_detached is not None:
            self.on_detached()
        self.probe()
        return None

    def exclude(self, registry_id: str) -> None:
        """Keep off ``registry_id`` (it refused a publish at capacity) for
        one lease period and one purge sweep: by then every advertisement
        it held has been renewed or has left the store, so two services
        that each got part of a nearly full registry, and so both excluded
        it, cannot lock each other out for good."""
        config = self.config
        self.excluded[registry_id] = (
            self.node.sim.now + config.lease_duration + config.purge_interval)

    # -- internals ------------------------------------------------------------

    def _best_candidate(self) -> str | None:
        """Pick a registry: same-LAN first, spread by stable node hash.

        When several local registries exist, clients hash themselves over
        them — "by assigning clients to registries in an even
        distribution, load balancing could be obtained as well". The hash
        is deterministic, so runs stay reproducible.
        """
        now = self.node.sim.now
        candidates = {rid for rid in self.known if self.excluded.get(rid, now) <= now}
        if not candidates:
            return None
        local = sorted(
            rid for rid in candidates
            if self.known[rid].lan_name == self.node.lan_name
        )
        if local:
            index = zlib.crc32(self.node.node_id.encode("utf-8")) % len(local)
            # Adaptive strategies may override the hash-spread choice on
            # observed health; static returns the default as-is.
            return self.router.select(local, default=local[index])
        remote = sorted(candidates)
        return self.router.select(remote, default=remote[0])

    def _attach(self, registry_id: str) -> None:
        self.current = registry_id
        if self.config.signalling_interval is not None:
            # Ask the new registry for alternatives right away, priming the
            # failover cache.
            self.node.send(registry_id, protocol.REGISTRY_LIST_REQUEST)
        if self.on_attached is not None:
            self.on_attached(registry_id)

    def alternatives(self) -> list[str]:
        """Known registries other than the current one, preferred order.

        Locals before remotes; within each group sorted by id, then
        reordered best-first by the router when one is attached (the
        static strategy's ordering is the identity).
        """
        others = [rid for rid in self.known if rid != self.current]
        local = sorted(
            rid for rid in others
            if self.known[rid].lan_name == self.node.lan_name
        )
        remote = sorted(rid for rid in others if rid not in local)
        return self.router.order(local) + self.router.order(remote)
