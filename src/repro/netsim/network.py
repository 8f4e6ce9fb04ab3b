"""Network topology: LAN segments joined by a WAN.

The model follows the paper's Figure 4: nodes live on LANs (each LAN is a
multicast domain), and LANs that are *WAN-connected* can exchange unicast
traffic with each other. WAN multicast does not exist ("the use of
multicast places a too heavy burden on the network").

Partitions are modelled at LAN granularity: every LAN belongs to a
partition group, and cross-group unicast is dropped. This captures the
paper's "network disconnect between branches" scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import NetworkError, UnknownNodeError
from repro.netsim.disk import SimDisk
from repro.netsim.messages import Envelope, SizeModel
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.stats import TrafficStats
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, HOP_BUCKETS, Histogram, MetricsRegistry
from repro.obs.tracing import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - the health layer is built above netsim
    from repro.obs.health import HealthMonitor


class _FaultWindow:
    """What the fault windows share: ``[start, end)`` on traffic touching
    ``lan``, between the two LANs of ``link``, or (both ``None``) anywhere."""

    def _check_span(self, what: str) -> None:
        if self.end <= self.start:
            raise NetworkError(f"{what} must end after it starts ({self.start} .. {self.end})")

    def applies(self, now: float, src_lan: str, dst_lan: str) -> bool:
        """Whether this window affects a delivery between the LANs at ``now``."""
        if not self.start <= now < self.end:
            return False
        if self.lan is not None:
            return self.lan in (src_lan, dst_lan)
        if self.link is not None:
            return self.link == frozenset((src_lan, dst_lan))
        return True


@dataclass(frozen=True)
class LossWindow(_FaultWindow):
    """A timed burst of extra delivery loss on part of the network.

    ``lan`` scopes the burst to traffic touching one LAN; ``link`` to
    traffic between a specific pair of LANs; both ``None`` means global.
    ``rate`` may be 1.0 (total blackout for the window). Composes with the
    ambient :attr:`Network.loss_rate` as independent drop probabilities.
    """

    start: float
    end: float
    rate: float
    lan: str | None = None
    link: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise NetworkError(f"loss window rate must be in [0, 1], got {self.rate}")
        self._check_span("loss window")


@dataclass(frozen=True)
class LatencySpike(_FaultWindow):
    """A timed additive delivery-latency increase, scoped like a
    :class:`LossWindow` (per-LAN, per-link, or global)."""

    start: float
    end: float
    extra: float
    lan: str | None = None
    link: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.extra < 0:
            raise NetworkError(f"latency spike must be non-negative, got {self.extra}")
        self._check_span("latency spike")


@dataclass
class Lan:
    """One LAN segment: a local multicast domain.

    Attributes
    ----------
    name:
        Unique LAN identifier.
    wan_connected:
        Whether nodes on this LAN can reach other LANs at all.
    partition_group:
        LANs in different groups cannot exchange traffic (see
        :meth:`Network.partition`).
    bandwidth_bps:
        Shared-medium capacity in bits/second (``None`` = unbounded).
        Models the paper's "wireless connections with low network
        capacity": every transmission originating on this LAN serializes
        on the medium, so large (semantic) payloads add real queueing and
        transmission delay.
    """

    name: str
    wan_connected: bool = True
    partition_group: int = 0
    bandwidth_bps: float | None = None
    node_ids: set[str] = field(default_factory=set)
    #: Simulated time until which the shared medium is transmitting.
    busy_until: float = 0.0

    def transmission_done(self, now: float, size_bytes: int) -> float:
        """When a ``size_bytes`` frame sent at ``now`` finishes on air.

        FIFO medium: the frame starts when the medium frees and occupies
        it for ``size * 8 / bandwidth`` seconds. Unbounded media return
        ``now`` (zero transmission delay).
        """
        if self.bandwidth_bps is None:
            return now
        start = max(now, self.busy_until)
        self.busy_until = start + (size_bytes * 8.0) / self.bandwidth_bps
        return self.busy_until


class Network:
    """The simulated internetwork: nodes, LANs, and the transport.

    Parameters
    ----------
    sim:
        The simulator providing time and randomness.
    size_model:
        Byte-size model applied to every message.
    lan_latency / wan_latency:
        One-way delivery delays in seconds.
    loss_rate:
        Independent per-delivery drop probability (models lossy wireless
        links). Applied per *receiver* for multicast.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        size_model: SizeModel | None = None,
        lan_latency: float = 0.001,
        wan_latency: float = 0.05,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.size_model = size_model or SizeModel()
        self.lan_latency = lan_latency
        self.wan_latency = wan_latency
        self.loss_rate = loss_rate
        self.stats = TrafficStats()
        #: The run's metrics facade. The transport feeds per-message-type
        #: delivery-latency and hop-count histograms; protocol agents add
        #: their own instruments (query latency, matchmaker work) through
        #: the same registry. TrafficStats mirrors its retry/fault/
        #: recovery/drop counters here so event rates are queryable too.
        self.metrics = MetricsRegistry()
        self.stats.metrics = self.metrics
        #: Message type → its ``latency.<type>`` histogram and the shared
        #: ``hops.delivered`` one, asked of the registry on the type's
        #: first delivery and not again.
        self._delivery_histograms: dict[str, tuple[Histogram, Histogram]] = {}
        #: The run's health monitor (flight recorders, SLO windows,
        #: watchdogs — see :mod:`repro.obs.health`) where the deployment
        #: built one; the transport never touches it.
        self.health: "HealthMonitor | None" = None
        self.nodes: dict[str, Node] = {}
        self.lans: dict[str, Lan] = {}
        #: Fault-injection state (see :mod:`repro.netsim.faults`): timed
        #: loss bursts and latency spikes consulted on every delivery.
        self.loss_windows: list[LossWindow] = []
        self.latency_spikes: list[LatencySpike] = []
        #: Per-node durable storage (see :mod:`repro.netsim.disk`),
        #: created lazily by :meth:`disk` — the dict stays empty unless
        #: a node opts into durability. Keyed by node id, owned by the
        #: network, so contents survive node crash/restart like a real
        #: disk survives a process crash.
        self.disks: dict[str, SimDisk] = {}

    # -- construction ---------------------------------------------------

    def add_lan(self, name: str, *, wan_connected: bool = True,
                bandwidth_bps: float | None = None) -> Lan:
        """Create a LAN segment. Names must be unique.

        ``bandwidth_bps`` bounds the LAN's shared medium (tactical-radio
        style); ``None`` keeps it unbounded.
        """
        if name in self.lans:
            raise NetworkError(f"duplicate LAN name {name!r}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        lan = Lan(name=name, wan_connected=wan_connected,
                  bandwidth_bps=bandwidth_bps)
        self.lans[name] = lan
        return lan

    def add_node(self, node: Node, lan_name: str) -> Node:
        """Attach ``node`` to LAN ``lan_name``. Node ids must be unique."""
        if node.node_id in self.nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        if lan_name not in self.lans:
            raise NetworkError(f"unknown LAN {lan_name!r}")
        self.nodes[node.node_id] = node
        self.lans[lan_name].node_ids.add(node.node_id)
        node.attached(self, lan_name)
        return node

    def move_node(self, node_id: str, new_lan: str) -> None:
        """Move a node to another LAN (mobility).

        Dynamic environments include *roaming*: "members from several
        agencies, potentially at different locations" whose devices join
        whatever network segment they are near. The node keeps its state;
        its :meth:`~repro.netsim.node.Node.on_moved` hook fires so
        protocol agents can re-bootstrap (re-probe, republish).
        """
        node = self.node(node_id)
        if new_lan not in self.lans:
            raise NetworkError(f"unknown LAN {new_lan!r}")
        old_lan = node.lan_name
        if old_lan == new_lan:
            return
        if old_lan is not None and old_lan in self.lans:
            self.lans[old_lan].node_ids.discard(node_id)
        self.lans[new_lan].node_ids.add(node_id)
        node.lan_name = new_lan
        node.on_moved(old_lan or "", new_lan)

    def remove_node(self, node_id: str) -> None:
        """Permanently remove a node (it has *departed*, not merely crashed)."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        node.crash()
        if node.lan_name and node.lan_name in self.lans:
            self.lans[node.lan_name].node_ids.discard(node_id)

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def nodes_on_lan(self, lan_name: str) -> list[Node]:
        """All nodes attached to ``lan_name`` (alive or not), sorted by id."""
        lan = self.lans.get(lan_name)
        if lan is None:
            raise NetworkError(f"unknown LAN {lan_name!r}")
        return [self.nodes[nid] for nid in sorted(lan.node_ids)]

    def disk(self, node_id: str) -> SimDisk:
        """The durable per-node disk for ``node_id`` (created on first use).

        Unlike the node object's volatile attributes, the disk is owned
        by the network, so a fail-stop crash/restart cycle leaves its
        contents intact. :mod:`repro.netsim.faults` reaches disks here to
        inject torn writes and corruption.
        """
        disk = self.disks.get(node_id)
        if disk is None:
            disk = self.disks[node_id] = SimDisk()
        return disk

    # -- partitions -----------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the WAN: LANs in different groups cannot exchange traffic.

        ``groups`` is an iterable of iterables of LAN names; every LAN must
        appear in exactly one group.
        """
        assignment: dict[str, int] = {}
        for index, group in enumerate(groups):
            for lan_name in group:
                if lan_name not in self.lans:
                    raise NetworkError(f"unknown LAN {lan_name!r} in partition spec")
                if lan_name in assignment:
                    raise NetworkError(f"LAN {lan_name!r} appears in two partition groups")
                assignment[lan_name] = index
        missing = set(self.lans) - set(assignment)
        if missing:
            raise NetworkError(f"partition spec missing LANs: {sorted(missing)}")
        for lan_name, group_index in assignment.items():
            self.lans[lan_name].partition_group = group_index

    def heal_partition(self) -> None:
        """Rejoin all LANs into one partition group."""
        for lan in self.lans.values():
            lan.partition_group = 0

    def reachable(self, src_id: str, dst_id: str) -> bool:
        """Whether a unicast from ``src_id`` can currently reach ``dst_id``.

        Same-LAN traffic always flows; cross-LAN traffic requires both LANs
        to be WAN-connected and in the same partition group.
        """
        src = self.nodes.get(src_id)
        dst = self.nodes.get(dst_id)
        if src is None or dst is None:
            return False
        return self._linked(src.lan_name, dst.lan_name)

    def _linked(self, src_lan_name: str | None, dst_lan_name: str | None) -> bool:
        """:meth:`reachable` between the LANs of two existing nodes."""
        if src_lan_name is None or dst_lan_name is None:
            return False
        if src_lan_name == dst_lan_name:
            return True
        src_lan = self.lans[src_lan_name]
        dst_lan = self.lans[dst_lan_name]
        return (
            src_lan.wan_connected
            and dst_lan.wan_connected
            and src_lan.partition_group == dst_lan.partition_group
        )

    def is_wan(self, src_id: str, dst_id: str) -> bool:
        """Whether traffic between the two nodes crosses the WAN."""
        src = self.nodes.get(src_id)
        dst = self.nodes.get(dst_id)
        if src is None or dst is None:
            return False
        return src.lan_name != dst.lan_name

    # -- fault hooks -----------------------------------------------------

    def add_loss_window(self, window: LossWindow) -> None:
        """Install a timed loss burst (normally via a FaultPlan)."""
        for name in filter(None, [window.lan, *(window.link or ())]):
            if name not in self.lans:
                raise NetworkError(f"unknown LAN {name!r} in loss window")
        self.loss_windows.append(window)

    def add_latency_spike(self, spike: LatencySpike) -> None:
        """Install a timed latency spike (normally via a FaultPlan)."""
        for name in filter(None, [spike.lan, *(spike.link or ())]):
            if name not in self.lans:
                raise NetworkError(f"unknown LAN {name!r} in latency spike")
        self.latency_spikes.append(spike)

    def _fault_loss(self, src_lan: str, dst_lan: str) -> float:
        """Combined drop probability of the loss windows active right now."""
        if not self.loss_windows:
            return 0.0
        now = self.sim.now
        pass_probability = 1.0
        for window in self.loss_windows:
            if window.applies(now, src_lan, dst_lan):
                pass_probability *= 1.0 - window.rate
        return 1.0 - pass_probability

    def _extra_latency(self, src_lan: str, dst_lan: str) -> float:
        """Additional delivery latency from active spikes."""
        if not self.latency_spikes:
            return 0.0
        now = self.sim.now
        return sum(
            spike.extra
            for spike in self.latency_spikes
            if spike.applies(now, src_lan, dst_lan)
        )

    # -- transport ------------------------------------------------------

    def unicast(self, envelope: Envelope) -> None:
        """Send ``envelope`` to its ``dst``; delivery is asynchronous.

        The send is always accounted (the sender transmits regardless);
        unreachable destinations, loss, and crashed receivers turn into
        recorded drops.
        """
        if envelope.dst is None:
            raise NetworkError("unicast envelope has no destination")
        size = self.size_model.message_size(envelope.payload)
        envelope.size_bytes = size
        envelope.sent_at = self.sim.now
        wan = self.is_wan(envelope.src, envelope.dst)
        self.stats.record_send(envelope.msg_type, envelope.src, size, wan=wan, multicast=False)
        if not self.reachable(envelope.src, envelope.dst):
            self.stats.record_drop("unreachable")
            self._trace_drop(envelope, "unreachable")
            return
        sender = self.nodes.get(envelope.src)
        receiver = self.nodes.get(envelope.dst)
        src_lan = sender.lan_name if sender is not None else ""
        dst_lan = receiver.lan_name if receiver is not None else ""
        if self._lost(envelope, envelope.dst,
                      self._fault_loss(src_lan or "", dst_lan or "")):
            return
        latency = self.wan_latency if wan else self.lan_latency
        latency += self._extra_latency(src_lan or "", dst_lan or "")
        # The sender's LAN medium serializes the transmission (the uplink
        # is the bottleneck for narrow-band deployments).
        done_at = self.sim.now
        if sender is not None and sender.lan_name in self.lans:
            done_at = self.lans[sender.lan_name].transmission_done(
                self.sim.now, size
            )
        self.sim.schedule_at(done_at + latency, self._deliver,
                             envelope, envelope.dst)

    def multicast(self, envelope: Envelope) -> None:
        """Deliver ``envelope`` to every other node on the sender's LAN.

        One transmission is accounted (broadcast medium). The receivers
        are the LAN's other members in sorted id order; while a loss is in
        force, :meth:`_lost` draws it for each of them in that order and
        drops its copy. The copies that survive arrive in one scheduled
        event (:meth:`_deliver_multicast`), which builds a copy only for a
        receiver that serves the type and counts the others.
        """
        sender = self.nodes.get(envelope.src)
        if sender is None or sender.lan_name is None:
            raise UnknownNodeError(f"unknown multicast sender {envelope.src!r}")
        size = self.size_model.message_size(envelope.payload)
        envelope.size_bytes = size
        envelope.sent_at = self.sim.now
        self.stats.record_send(envelope.msg_type, envelope.src, size, wan=False, multicast=True)
        lan_name = sender.lan_name
        lan = self.lans[lan_name]
        done_at = lan.transmission_done(self.sim.now, size)
        fault_loss = self._fault_loss(lan_name, lan_name)
        latency = self.lan_latency + self._extra_latency(lan_name, lan_name)
        src = envelope.src
        receivers = [dst_id for dst_id in sorted(lan.node_ids) if dst_id != src]
        if self.loss_rate or fault_loss:
            receivers = [dst_id for dst_id in receivers
                         if not self._lost(envelope, dst_id, fault_loss)]
        if receivers:
            self.sim.schedule_at(done_at + latency, self._deliver_multicast,
                                 envelope, receivers)

    def _lost(self, envelope: Envelope, dst_id: str, fault_loss: float) -> bool:
        """Whether the copy for ``dst_id`` is lost: ambient ``loss_rate``
        is drawn first, then the windows' ``fault_loss``, each only when
        non-zero. A lost copy is recorded and traced as a drop."""
        rng = self.sim.rng
        if self.loss_rate and rng.random() < self.loss_rate:
            reason = "loss"
        elif fault_loss and rng.random() < fault_loss:
            reason = "fault-loss"
        else:
            return False
        self.stats.record_drop(reason)
        self._trace_drop(envelope, reason, dst=dst_id)
        return True

    def _deliver_multicast(self, envelope: Envelope, receivers: list[str]) -> None:
        """Multicast arrival, receiver by receiver in the order given.

        The loop holds what :meth:`_deliver` would look up again per copy:
        the receiver, whether it is up, and the sender's LAN — read again
        after each handler, which may have moved or removed the sender. A
        receiver that is gone or down goes through :meth:`_deliver` (the
        ``dead-dst`` drop); one no longer linked to the sender is dropped
        as ``partition-in-flight``; one on the sender's LAN is linked
        without asking :meth:`_linked`.

        Every other receiver gets its ``net.deliver`` event. One that
        serves the type then gets its *own envelope copy* through
        ``receive``, so a handler mutating headers or routing metadata
        cannot contaminate sibling deliveries. One that would only count
        the copy (:meth:`Node.discards`) costs that one check: no copy and
        no ``receive``, just ``unknown_messages += 1``. The traffic
        statistics of the arrived copies (new keys in receiver order) and
        their delivery histograms are applied once, after the last
        receiver.
        """
        now = self.sim.now
        msg_type = envelope.msg_type
        src = envelope.src
        latency = now - envelope.sent_at
        ctx = TraceRecorder.extract(envelope.headers)
        trace = self.sim.trace
        traced = ctx is not None and trace.listening
        nodes = self.nodes
        sender = nodes.get(src)
        # A live receiver always has a LAN, so a sender that is gone
        # (``None``) never takes the same-LAN shortcut.
        src_lan = sender.lan_name if sender is not None else None
        arrived: list[str] = []
        for dst_id in receivers:
            dst = nodes.get(dst_id)
            if dst is None or not dst.alive:
                self._deliver(envelope, dst_id)
                continue
            if dst.lan_name != src_lan and not self._linked(src_lan, dst.lan_name):
                self.stats.record_drop("partition-in-flight")
                self._trace_drop(envelope, "partition-in-flight", dst=dst_id)
                continue
            arrived.append(dst_id)
            if traced:
                trace.event("net.deliver", node=dst_id, ctx=ctx, attrs={
                    "msg_type": msg_type, "src": src,
                    "hops": envelope.hops, "latency": latency})
            if dst.discards(msg_type):
                dst.unknown_messages += 1
            else:
                dst.receive(envelope.copy_for(dst_id))
                sender = nodes.get(src)
                src_lan = sender.lan_name if sender is not None else None
        if arrived:
            n = len(arrived)
            self.stats.record_deliveries(arrived, envelope.size_bytes)
            latencies, hops = self._delivery_histograms_for(msg_type)
            latencies.observe_many(latency, n)
            hops.observe_many(envelope.hops, n)
            if envelope.hops > 0:
                self.metrics.histogram(
                    f"hops.{msg_type}", buckets=HOP_BUCKETS
                ).observe_many(envelope.hops, n)

    def _deliver(self, envelope: Envelope, dst_id: str) -> None:
        """Delivery event: hand the envelope to the destination if it is up."""
        dst = self.nodes.get(dst_id)
        if dst is None or not dst.alive:
            self.stats.record_drop("dead-dst")
            self._trace_drop(envelope, "dead-dst", dst=dst_id)
            return
        if not self.reachable(envelope.src, dst_id):
            # A partition formed while the message was in flight.
            self.stats.record_drop("partition-in-flight")
            self._trace_drop(envelope, "partition-in-flight", dst=dst_id)
            return
        self.stats.record_delivery(dst_id, envelope.size_bytes)
        latency = self.sim.now - envelope.sent_at
        try:
            latencies, hops = self._delivery_histograms[envelope.msg_type]
        except KeyError:
            latencies, hops = self._delivery_histograms_for(envelope.msg_type)
        latencies.observe(latency)
        hops.observe(envelope.hops)
        if envelope.hops > 0:
            self.metrics.histogram(
                f"hops.{envelope.msg_type}", buckets=HOP_BUCKETS
            ).observe(envelope.hops)
        ctx = TraceRecorder.extract(envelope.headers)
        if ctx is not None and self.sim.trace.listening:
            self.sim.trace.event(
                "net.deliver",
                node=dst_id,
                ctx=ctx,
                attrs={
                    "msg_type": envelope.msg_type,
                    "src": envelope.src,
                    "hops": envelope.hops,
                    "latency": latency,
                },
            )
        dst.receive(envelope)

    def _delivery_histograms_for(self, msg_type: str) -> tuple[Histogram, Histogram]:
        """The ``latency.<msg_type>`` and ``hops.delivered`` histograms,
        asked of the registry on the type's first delivery only."""
        pair = self._delivery_histograms.get(msg_type)
        if pair is None:
            pair = self._delivery_histograms[msg_type] = (
                self.metrics.histogram(f"latency.{msg_type}",
                                       buckets=DEFAULT_LATENCY_BUCKETS),
                self.metrics.histogram("hops.delivered", buckets=HOP_BUCKETS),
            )
        return pair

    def _trace_drop(self, envelope: Envelope, reason: str, *, dst: str | None = None) -> None:
        """Attach a drop event to the envelope's trace, if it carries one."""
        ctx = TraceRecorder.extract(envelope.headers)
        if ctx is None or not self.sim.trace.listening:
            return
        self.sim.trace.event(
            "net.drop",
            node=envelope.src,
            ctx=ctx,
            attrs={
                "msg_type": envelope.msg_type,
                "dst": dst if dst is not None else (envelope.dst or ""),
                "reason": reason,
            },
        )
