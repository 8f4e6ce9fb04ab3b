"""Delivery-order oracle for the batched multicast: model vs reference.

``Network.multicast`` schedules one event that delivers every surviving
copy. The reference below is the transport it replaced — one ``(time,
seq)`` scheduler entry per receiver, the copy made at send time. A
seeded random plan of multicasts, unicasts and timers at colliding
instants, with a crash, a roaming node, a partition formed while copies
are in flight, a bandwidth-limited LAN and handlers that answer at once,
must be indistinguishable on the two: same receive log, same traffic
and metric counters, same per-node unknown / malformed counts, same RNG
state afterwards, same trace export — with no loss, ambient loss, a loss
window on one LAN, and both at once, so the loss draws are compared in
order and by reason too.

A second family of plans adds multicasts whose first serving receiver
upsets the rest of its own batch from inside its handler: it crashes a
later receiver, roams the sender to the other LAN, or partitions the two
LANs. Every later receiver must then get exactly what a delivery event of
its own would have given it.

Besides the ``Chatty`` nodes, which serve every type themselves, each
LAN holds receivers the batched transport may count instead of
delivering to — a plain ``Node`` that serves nothing, a ``Picky`` node
that serves one type and rejects its payloads — and two it must not:
a node behind an interceptor and one that overrides ``receive`` the way
a dormant standby registry does.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.netsim.messages import Envelope
from repro.netsim.network import LossWindow, Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.obs.tracing import TraceRecorder

SEEDS = range(50)
#: Everything in a plan happens on this grid, so sends, deliveries (one
#: LAN latency later), timers and topology changes collide all the time.
TICK = 0.001
TICKS = 30
NODES = {"a": ("a0", "a1", "a2", "a3", "a4", "a5", "a6"),
         "b": ("b0", "b1", "b2", "b3", "b4")}
RING = [node_id for ids in NODES.values() for node_id in ids]


class PerReceiverNetwork(Network):
    """The reference: every copy of a multicast is its own scheduled event."""

    def multicast(self, envelope: Envelope) -> None:
        lan_name = self.nodes[envelope.src].lan_name
        lan = self.lans[lan_name]
        size = self.size_model.message_size(envelope.payload)
        envelope.size_bytes = size
        envelope.sent_at = self.sim.now
        self.stats.record_send(envelope.msg_type, envelope.src, size,
                               wan=False, multicast=True)
        done_at = lan.transmission_done(self.sim.now, size)
        fault_loss = self._fault_loss(lan_name, lan_name)
        latency = self.lan_latency + self._extra_latency(lan_name, lan_name)
        for dst_id in sorted(lan.node_ids):
            if dst_id == envelope.src:
                continue
            if self.loss_rate and self.sim.rng.random() < self.loss_rate:
                self._dropped(envelope, "loss", dst=dst_id)
                continue
            if fault_loss and self.sim.rng.random() < fault_loss:
                self._dropped(envelope, "fault-loss", dst=dst_id)
                continue
            self.sim.schedule_at(done_at + latency, self._deliver,
                                 envelope.copy_for(dst_id), dst_id)


class Chatty(Node):
    """Logs every receive; answers some message types on the spot."""

    def __init__(self, node_id: str, log: list) -> None:
        super().__init__(node_id)
        self.log = log
        #: Multicasts whose first serving receiver has upset its batch;
        #: one set shared by the play's ``Chatty`` nodes.
        self.upset: set = set()

    def handle_message(self, envelope: Envelope) -> None:
        self.log.append((self.sim.now, self.node_id, envelope.msg_type,
                         envelope.src, envelope.dst, envelope.hops))

    def handle_ping(self, envelope: Envelope) -> None:
        self.handle_message(envelope)
        self.send(envelope.src, "pong")

    def handle_shout(self, envelope: Envelope) -> None:
        self.handle_message(envelope)
        self.multicast("echo", payload="e" * 16)

    def handle_relay(self, envelope: Envelope) -> None:
        self.handle_message(envelope)
        if envelope.hops < 2:
            self.forward(envelope, RING[(RING.index(self.node_id) + 3) % len(RING)])

    def first_to_serve(self, envelope: Envelope) -> bool:
        """Logs the copy; whether this is the first receiver to serve its
        multicast (the copies share the sender and the send instant)."""
        self.handle_message(envelope)
        key = (envelope.src, envelope.sent_at, envelope.msg_type)
        first = key not in self.upset
        self.upset.add(key)
        return first

    def handle_crash(self, envelope: Envelope) -> None:
        """Crash the next live receiver after this one, if there is one."""
        if self.first_to_serve(envelope):
            network = self.network
            later = [node_id for node_id in sorted(network.lans[self.lan_name].node_ids)
                     if node_id > self.node_id and node_id != envelope.src
                     and network.nodes[node_id].alive]
            if later:
                network.nodes[later[0]].crash()

    def handle_roam(self, envelope: Envelope) -> None:
        """Move the sender to the other LAN."""
        if self.first_to_serve(envelope):
            sender = self.network.nodes[envelope.src]
            self.network.move_node(sender.node_id, "b" if sender.lan_name == "a" else "a")

    def handle_split(self, envelope: Envelope) -> None:
        """Partition the two LANs (the plan heals them at its end)."""
        if self.first_to_serve(envelope):
            self.network.partition([["a"], ["b"]])


class Picky(Node):
    """Serves ``ping`` only, and declares a record no sender uses: every
    ping is malformed, every other type is counted and nothing more."""

    payload_records = {"ping": bytes}

    def __init__(self, node_id: str, log: list) -> None:
        super().__init__(node_id)

    def handle_ping(self, envelope: Envelope) -> None:
        raise AssertionError("a malformed ping reached its handler")


class Gate:
    """An interceptor that logs what it is offered and takes ``note``."""

    def __init__(self, node: Node, log: list) -> None:
        self.node = node
        self.log = log

    def intercept(self, envelope: Envelope) -> bool:
        self.log.append((self.node.sim.now, self.node.node_id, "gate",
                         envelope.msg_type, envelope.dst))
        return envelope.msg_type == "note"


class Gated(Node):
    """Serves nothing, but sits behind a :class:`Gate`."""

    def __init__(self, node_id: str, log: list) -> None:
        super().__init__(node_id)
        self.interceptor = Gate(self, log)


class Dormant(Node):
    """Overrides ``receive`` as a dormant standby registry does: notes one
    type, ignores the rest and counts nothing."""

    def __init__(self, node_id: str, log: list) -> None:
        super().__init__(node_id)
        self.log = log

    def receive(self, envelope: Envelope) -> None:
        if self.alive and envelope.msg_type == "shout":
            self.log.append((self.sim.now, self.node_id, "heard", envelope.src))


#: Who each node is; every id not named here is :class:`Chatty`.
CAST = {"a5": lambda node_id, log: Node(node_id), "a6": Gated,
        "b3": Picky, "b4": Dormant}


#: A loss burst on LAN ``a`` over the middle third of every plan.
WINDOW = LossWindow(start=10 * TICK, end=20 * TICK, rate=0.5, lan="a")


#: What the plans multicast; upsetting plans add the three upsets.
PLAIN_TYPES = ("ping", "shout", "relay", "note")
UPSET_TYPES = PLAIN_TYPES + ("crash", "roam", "split")


def _slots(histogram) -> tuple:
    return (histogram.counts, histogram.overflow, histogram.count,
            histogram.total.hex(), histogram.vmin, histogram.vmax)


def play(network_cls: type[Network], seed: int, loss_rate: float,
         window: LossWindow | None = None, multicast_types: tuple = PLAIN_TYPES):
    """Run plan ``seed`` on a fresh ``network_cls``; everything observable."""
    plan = random.Random(seed)
    sim = Simulator(seed=seed)
    capture = sim.trace.capture()
    # Even seeds have no LAN latency at all: a reply sent from a handler
    # is due at the very instant the multicast it answers is arriving.
    net = network_cls(sim, lan_latency=TICK * (seed % 2), wan_latency=2 * TICK,
                      loss_rate=loss_rate)
    net.add_lan("a")
    net.add_lan("b", bandwidth_bps=400_000.0)
    if window is not None:
        net.add_loss_window(window)
    log: list = []
    upset: set = set()
    for lan, ids in NODES.items():
        for node_id in ids:
            node = net.add_node(CAST.get(node_id, Chatty)(node_id, log), lan)
            if isinstance(node, Chatty):
                node.upset = upset

    def at() -> float:
        return plan.randrange(TICKS) * TICK

    def traced(node: Node) -> dict:
        span = sim.trace.start_span("op", node=node.node_id)
        return TraceRecorder.inject({}, span.context)

    def multicast(node: Node, msg_type: str) -> None:
        node.multicast(msg_type, payload="m" * 40, headers=traced(node))

    def unicast(node: Node, dst: str, msg_type: str) -> None:
        node.send(dst, msg_type, payload="u" * 24, headers=traced(node))

    for _ in range(40):
        node = net.nodes[plan.choice(RING)]
        kind = plan.choice(("multicast", "multicast", "unicast", "timer"))
        if kind == "multicast":
            action = (multicast, node, plan.choice(multicast_types))
        else:
            action = (unicast, node, plan.choice(RING), plan.choice(("ping", "relay")))
        if kind == "timer":
            sim.schedule_at(at(), node.after, plan.randrange(4) * TICK,
                            lambda action=action: action[0](*action[1:]))
        else:
            sim.schedule_at(at(), *action)
    victim, roamer = plan.sample(RING, 2)
    sim.schedule_at(at(), net.nodes[victim].crash)
    sim.schedule_at(at(), net.move_node, roamer, "b" if roamer in NODES["a"] else "a")
    sim.schedule_at(at(), net.partition, [["a"], ["b"]])
    sim.schedule_at(TICKS * TICK, net.heal_partition)
    sim.run(until=1.0)
    return {
        "log": log,
        "stats": net.stats.snapshot(),
        "node_bytes": list(net.stats.node_bytes_received.items()),
        "drops": net.metrics.tallies("drop"),
        "metrics": net.metrics.snapshot(),
        "histograms": {name: _slots(histogram)
                       for name, histogram in net.metrics.histograms.items()},
        "upsets": len(upset),
        "counts": {node_id: (node.unknown_messages, node.malformed_messages)
                   for node_id, node in net.nodes.items()},
        "rng": sim.rng.getstate(),
        "trace": capture.export_jsonl(),
    }


@pytest.mark.parametrize("loss_rate, window", (
    pytest.param(0.0, None, id="0.0"),
    pytest.param(0.3, None, id="0.3"),
    pytest.param(0.0, WINDOW, id="0.0-window"),
    pytest.param(0.3, WINDOW, id="0.3-window"),
))
def test_batched_multicast_is_indistinguishable_from_per_receiver_events(
        loss_rate, window, monkeypatch):
    counted_at: Counter = Counter()
    discards = Node.discards

    def counting(node: Node, msg_type: str) -> bool:
        answer = discards(node, msg_type)
        counted_at[node.node_id] += answer
        return answer

    monkeypatch.setattr(Node, "discards", counting)
    drops: dict[str, int] = {}
    counts: Counter = Counter()
    for seed in SEEDS:
        real = play(Network, seed, loss_rate, window)
        reference = play(PerReceiverNetwork, seed, loss_rate, window)
        for key in reference:
            assert real[key] == reference[key], (seed, key)
        assert len(real["log"]) > 40, seed
        for reason, count in real["drops"].items():
            drops[reason] = drops.get(reason, 0) + count
        for node_id, (unknown, malformed) in real["counts"].items():
            counts[node_id, "unknown"] += unknown
            counts[node_id, "malformed"] += malformed
    # The plans did reach the cases they were written for.
    assert drops.get("dead-dst") and drops.get("partition-in-flight")
    assert bool(drops.get("loss")) == bool(loss_rate)
    assert bool(drops.get("fault-loss")) == (window is not None)
    # Copies were counted without a delivery, and only at the two nodes
    # whose delivery path is Node's own and whose handlers do not serve
    # the type; the interceptor and the ``receive`` override saw theirs.
    assert set(+counted_at) == {"a5", "b3"}
    assert counted_at["a5"] > 100 and counted_at["b3"] > 100
    assert counts["b3", "malformed"] and counts["a6", "unknown"]
    assert counts["b4", "unknown"] == counts["b4", "malformed"] == 0


@pytest.mark.parametrize("loss_rate, window", (
    pytest.param(0.0, None, id="0.0"),
    pytest.param(0.3, WINDOW, id="0.3-window"),
))
def test_handlers_upsetting_their_own_batch_match_per_receiver_events(loss_rate, window):
    """A serving receiver's handler crashes a later receiver, roams the
    sender or partitions the LANs while the rest of its batch waits: the
    batched loop must re-read what it holds and drop, deliver or count
    each later copy as its own delivery event would."""
    upsets = drops_at_dead = drops_in_flight = 0
    for seed in SEEDS:
        real = play(Network, seed, loss_rate, window, UPSET_TYPES)
        reference = play(PerReceiverNetwork, seed, loss_rate, window, UPSET_TYPES)
        for key in reference:
            assert real[key] == reference[key], (seed, key)
        upsets += real["upsets"]
        drops_at_dead += real["drops"].get("dead-dst", 0)
        drops_in_flight += real["drops"].get("partition-in-flight", 0)
    assert upsets > 100 and drops_at_dead > 100 and drops_in_flight > 50


def test_reference_really_schedules_one_event_per_copy():
    """Guards the oracle itself: the two transports differ where they should."""
    counts = {}
    for cls in (Network, PerReceiverNetwork):
        sim = Simulator(seed=0)
        net = cls(sim)
        net.add_lan("a")
        nodes = [net.add_node(Node(f"n{i}"), "a") for i in range(6)]
        nodes[0].multicast("note")
        sim.run()
        counts[cls] = (sim.events_processed, net.stats.messages_delivered)
    assert counts == {Network: (1, 5), PerReceiverNetwork: (5, 5)}


def test_a_handle_message_override_still_gets_a_copy_of_its_own():
    """``Chatty`` overrides ``handle_message``, so a type it has no handler
    for still reaches it — as its own copy, with ``dst`` set to it."""

    class Keeper(Chatty):
        def handle_message(self, envelope: Envelope) -> None:
            self.log.append(envelope)

    net = Network(Simulator(seed=0))
    net.add_lan("a")
    got: list = []
    sender, plain = net.add_node(Node("n0"), "a"), net.add_node(Node("n3"), "a")
    keepers = [net.add_node(Keeper(node_id, got), "a") for node_id in ("c1", "c2")]
    sent = sender.multicast("note", headers={"k": 1})
    net.sim.run()
    assert [envelope.dst for envelope in got] == ["c1", "c2"]
    assert len({id(envelope) for envelope in [sent, *got]}) == 3
    assert len({id(envelope.headers) for envelope in [sent, *got]}) == 3
    assert [node.unknown_messages for node in keepers] == [0, 0]
    assert plain.unknown_messages == 1 and net.stats.messages_delivered == 3
