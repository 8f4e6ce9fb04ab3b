"""Unit tests for the network: LANs, WAN, partitions, transport."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.netsim.messages import Envelope
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.obs.tracing import TraceRecorder


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Envelope] = []

    def handle_message(self, envelope):
        self.received.append(envelope)


@pytest.fixture
def net():
    sim = Simulator(seed=1)
    network = Network(sim)
    network.add_lan("lan-a")
    network.add_lan("lan-b")
    return network


def _add(net, node_id, lan):
    return net.add_node(Recorder(node_id), lan)


def test_duplicate_lan_rejected(net):
    with pytest.raises(NetworkError):
        net.add_lan("lan-a")


def test_duplicate_node_rejected(net):
    _add(net, "n1", "lan-a")
    with pytest.raises(NetworkError):
        _add(net, "n1", "lan-b")


def test_unknown_lan_rejected(net):
    with pytest.raises(NetworkError):
        _add(net, "n1", "lan-zzz")


def test_unknown_node_lookup(net):
    with pytest.raises(UnknownNodeError):
        net.node("ghost")


def test_same_lan_unicast_delivers(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-a")
    a.send("b", "hello", payload="hi")
    net.sim.run(until=1.0)
    assert len(b.received) == 1
    assert b.received[0].payload == "hi"
    assert net.stats.bytes_wan == 0


def test_cross_lan_unicast_counts_as_wan(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-b")
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert len(b.received) == 1
    assert net.stats.bytes_wan > 0


def test_wan_latency_exceeds_lan_latency(net):
    a = _add(net, "a", "lan-a")
    local = _add(net, "local", "lan-a")
    remote = _add(net, "remote", "lan-b")
    arrival = {}

    local.handle_message = lambda env: arrival.setdefault("local", net.sim.now)
    remote.handle_message = lambda env: arrival.setdefault("remote", net.sim.now)
    a.send("local", "m")
    a.send("remote", "m")
    net.sim.run(until=1.0)
    assert arrival["local"] < arrival["remote"]


def test_multicast_reaches_whole_lan_only(net):
    a = _add(net, "a", "lan-a")
    peer1 = _add(net, "p1", "lan-a")
    peer2 = _add(net, "p2", "lan-a")
    other = _add(net, "o", "lan-b")
    a.multicast("beacon")
    net.sim.run(until=1.0)
    assert len(peer1.received) == 1
    assert len(peer2.received) == 1
    assert other.received == []
    # Broadcast medium: one transmission regardless of receiver count.
    assert net.stats.messages_sent == 1


def test_multicast_does_not_loop_back(net):
    a = _add(net, "a", "lan-a")
    a.multicast("beacon")
    net.sim.run(until=1.0)
    assert a.received == []


def test_crashed_receiver_drops(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-a")
    b.crash()
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert b.received == []
    assert net.stats.messages_dropped == 1


def test_crash_while_in_flight_drops(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-a")
    a.send("b", "hello")
    b.crash()  # before delivery event fires
    net.sim.run(until=1.0)
    assert b.received == []
    assert net.stats.messages_dropped == 1


def test_partition_blocks_cross_group_traffic(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-b")
    net.partition([["lan-a"], ["lan-b"]])
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert b.received == []
    assert net.stats.messages_dropped == 1


def test_partition_spec_must_cover_all_lans(net):
    with pytest.raises(NetworkError):
        net.partition([["lan-a"]])


def test_partition_spec_rejects_duplicates(net):
    with pytest.raises(NetworkError):
        net.partition([["lan-a", "lan-a"], ["lan-b"]])


def test_heal_partition_restores_traffic(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-b")
    net.partition([["lan-a"], ["lan-b"]])
    net.heal_partition()
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert len(b.received) == 1


def test_same_lan_traffic_survives_partition(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-a")
    net.partition([["lan-a"], ["lan-b"]])
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert len(b.received) == 1


def test_wan_disconnected_lan_is_isolated():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("connected")
    net.add_lan("island", wan_connected=False)
    a = net.add_node(Recorder("a"), "connected")
    b = net.add_node(Recorder("b"), "island")
    a.send("b", "hello")
    sim.run(until=1.0)
    assert b.received == []


def test_loss_rate_drops_some_messages():
    sim = Simulator(seed=3)
    net = Network(sim, loss_rate=0.5)
    net.add_lan("lan")
    a = net.add_node(Recorder("a"), "lan")
    b = net.add_node(Recorder("b"), "lan")
    for _ in range(100):
        a.send("b", "m")
    sim.run(until=5.0)
    assert 0 < len(b.received) < 100
    assert net.stats.messages_dropped == 100 - len(b.received)


def test_invalid_loss_rate_rejected():
    with pytest.raises(NetworkError):
        Network(Simulator(), loss_rate=1.5)


def test_remove_node_departs_permanently(net):
    a = _add(net, "a", "lan-a")
    _add(net, "b", "lan-a")
    net.remove_node("b")
    assert "b" not in net.nodes
    a.send("b", "hello")
    net.sim.run(until=1.0)
    assert net.stats.messages_dropped == 1


def test_nodes_on_lan_sorted(net):
    _add(net, "z", "lan-a")
    _add(net, "a", "lan-a")
    assert [n.node_id for n in net.nodes_on_lan("lan-a")] == ["a", "z"]


def test_byte_accounting_send_vs_delivered(net):
    a = _add(net, "a", "lan-a")
    _add(net, "b", "lan-a")
    a.send("b", "hello", payload="x" * 100)
    net.sim.run(until=1.0)
    assert net.stats.bytes_sent == net.stats.bytes_delivered > 0


def test_bandwidth_adds_transmission_delay():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("radio", bandwidth_bps=8_000)  # 1 kB/s
    a = net.add_node(Recorder("a"), "radio")
    b = net.add_node(Recorder("b"), "radio")
    arrival = {}
    b.handle_message = lambda env: arrival.setdefault("t", sim.now)
    a.send("b", "m", payload="x" * 1000)  # ~1.5 kB message -> ~1.5 s on air
    sim.run(until=10.0)
    assert arrival["t"] > 1.0


def test_unbounded_lan_has_no_transmission_delay():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("fast")
    a = net.add_node(Recorder("a"), "fast")
    b = net.add_node(Recorder("b"), "fast")
    arrival = {}
    b.handle_message = lambda env: arrival.setdefault("t", sim.now)
    a.send("b", "m", payload="x" * 100000)
    sim.run(until=1.0)
    assert arrival["t"] == pytest.approx(net.lan_latency)


def test_shared_medium_serializes_fifo():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("radio", bandwidth_bps=80_000)  # 10 kB/s
    a = net.add_node(Recorder("a"), "radio")
    b = net.add_node(Recorder("b"), "radio")
    c = net.add_node(Recorder("c"), "radio")
    arrivals = []
    c.handle_message = lambda env: arrivals.append((env.src, sim.now))
    # Two ~1 kB messages sent at the same instant from different senders:
    # the second must wait for the first to clear the medium.
    a.send("c", "m", payload="x" * 500)
    b.send("c", "m", payload="x" * 500)
    sim.run(until=5.0)
    assert len(arrivals) == 2
    gap = arrivals[1][1] - arrivals[0][1]
    assert gap > 0.05  # roughly one transmission time apart


def test_bigger_payloads_take_longer_on_narrowband():
    def arrival_time(payload_size):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_lan("radio", bandwidth_bps=64_000)
        a = net.add_node(Recorder("a"), "radio")
        b = net.add_node(Recorder("b"), "radio")
        arrival = {}
        b.handle_message = lambda env: arrival.setdefault("t", sim.now)
        a.send("b", "m", payload="x" * payload_size)
        sim.run(until=60.0)
        return arrival["t"]

    assert arrival_time(8000) > 4 * arrival_time(100)


def test_multicast_occupies_medium_once():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("radio", bandwidth_bps=8_000)
    a = net.add_node(Recorder("a"), "radio")
    receivers = [net.add_node(Recorder(f"r{i}"), "radio") for i in range(5)]
    arrivals = []
    for r in receivers:
        r.handle_message = lambda env, r=r: arrivals.append(sim.now)
    a.multicast("beacon", payload="x" * 500)
    sim.run(until=10.0)
    assert len(arrivals) == 5
    assert len(set(arrivals)) == 1  # one transmission, simultaneous delivery


def test_invalid_bandwidth_rejected():
    net = Network(Simulator(seed=1))
    with pytest.raises(NetworkError):
        net.add_lan("bad", bandwidth_bps=0.0)


def test_multicast_delivers_per_receiver_copies(net):
    a = _add(net, "a", "lan-a")
    b = _add(net, "b", "lan-a")
    c = _add(net, "c", "lan-a")
    a.multicast("announce", payload="hi", headers={"ttl": 3})
    net.sim.run()
    (eb,), (ec,) = b.received, c.received
    # One distinct Envelope per receiver, addressed to that receiver.
    assert eb is not ec
    assert eb.envelope_id != ec.envelope_id
    assert eb.dst == "b" and ec.dst == "c"
    # Mutating one delivery's metadata must not leak into the sibling's.
    eb.headers["ttl"] = 0
    eb.hops += 1
    assert ec.headers == {"ttl": 3}
    assert ec.hops != eb.hops


# -- every way a unicast ends, one row each -----------------------------------

#: Bytes of a unicast carrying the text payload "x": the default envelope
#: overhead, one byte of text and a text element's overhead.
X_BYTES = 512 + 1 + 16


def _ends(net):
    """``a`` and ``b`` on lan-a, ``w`` on lan-b and ``i`` on a LAN with no
    WAN link: the ends the rows below send between."""
    net.add_lan("island", wan_connected=False)
    for node_id, lan in (("a", "lan-a"), ("b", "lan-a"), ("w", "lan-b"), ("i", "island")):
        _add(net, node_id, lan)


#: name → (src, dst, what happens between the send and the run, reason the
#: copy is dropped for ("" = delivered), whether the send is WAN traffic).
UNICAST_ENDS = {
    "delivered-lan": ("a", "b", None, "", False),
    "delivered-wan": ("a", "w", None, "", True),
    "unknown-src": ("ghost", "b", None, "unreachable", False),
    "unknown-dst": ("a", "ghost", None, "unreachable", False),
    "lan-not-wan-connected": ("a", "i", None, "unreachable", True),
    "partition-at-send": ("a", "w", "partition-first", "unreachable", True),
    "dead-dst": ("a", "b", "crash-dst", "dead-dst", False),
    "sender-removed-in-flight": ("a", "w", "remove-src", "partition-in-flight", True),
    "partition-in-flight": ("a", "w", "partition", "partition-in-flight", True),
}


@pytest.mark.parametrize("row", sorted(UNICAST_ENDS))
def test_each_way_a_unicast_ends_is_counted_and_traced(net, row):
    src, dst, meanwhile, reason, wan = UNICAST_ENDS[row]
    capture = net.sim.trace.capture()
    _ends(net)
    if meanwhile == "partition-first":
        net.partition([["lan-a", "island"], ["lan-b"]])
    envelope = Envelope("ping", src, dst, payload="x",
                        headers=TraceRecorder.inject({}, (1, 1)))
    net.unicast(envelope)
    if meanwhile == "crash-dst":
        net.node(dst).crash()
    elif meanwhile == "remove-src":
        net.remove_node(src)
    elif meanwhile == "partition":
        net.partition([["lan-a", "island"], ["lan-b"]])
    net.sim.run()
    stats = net.stats
    assert (stats.messages_sent, stats.bytes_sent, stats.bytes_wan) == (
        1, X_BYTES, X_BYTES if wan else 0)
    assert stats.messages_dropped == (1 if reason else 0)
    assert net.metrics.tallies("drop") == ({reason: 1} if reason else {})
    assert stats.messages_delivered == (0 if reason else 1)
    events = [(e.name, e.node, e.attrs) for e in capture.events]
    if reason:
        assert events == [("net.drop", src,
                           {"msg_type": "ping", "dst": dst, "reason": reason})]
    else:
        assert [(name, node) for name, node, _ in events] == [("net.deliver", dst)]
        assert net.node(dst).received == [envelope]
