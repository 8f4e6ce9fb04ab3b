"""Unit tests for node lifecycle, dispatch, and timers."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator


class Typed(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.pings = 0
        self.others = 0

    def handle_ping(self, envelope):
        self.pings += 1

    def handle_message(self, envelope):
        self.others += 1


@pytest.fixture
def net():
    network = Network(Simulator(seed=1))
    network.add_lan("lan")
    return network


def test_dispatch_by_msg_type(net):
    a = net.add_node(Typed("a"), "lan")
    b = net.add_node(Typed("b"), "lan")
    a.send("b", "ping")
    a.send("b", "unknown-type")
    net.sim.run(until=1.0)
    assert b.pings == 1
    assert b.others == 1


def test_hyphenated_msg_type_dispatch(net):
    class Hy(Node):
        got = 0

        def handle_registry_probe(self, envelope):
            Hy.got += 1

    a = net.add_node(Typed("a"), "lan")
    h = net.add_node(Hy("h"), "lan")
    a.send("h", "registry-probe")
    net.sim.run(until=1.0)
    assert Hy.got == 1


def test_instance_level_handle_message_override_wins(net):
    """The fallback is looked up per message, not frozen into the table."""
    a = net.add_node(Typed("a"), "lan")
    b = net.add_node(Typed("b"), "lan")
    seen = []
    b.handle_message = lambda env: seen.append(env.msg_type)
    a.send("b", "ping")
    a.send("b", "mystery")
    net.sim.run(until=1.0)
    assert b.pings == 1 and b.others == 0
    assert seen == ["mystery"]


def test_adopted_component_handlers_yield_to_the_nodes_own(net):
    class Part:
        def __init__(self):
            self.got = []

        def handle_ping(self, envelope):
            self.got.append("ping")

        def handle_part_only(self, envelope):
            self.got.append("part-only")

    a = net.add_node(Typed("a"), "lan")
    b = net.add_node(Typed("b"), "lan")
    part = Part()
    b.adopt_handlers(part)
    a.send("b", "ping")
    a.send("b", "part-only")
    net.sim.run(until=1.0)
    assert b.pings == 1 and b.others == 0
    assert part.got == ["part-only"]


def test_unknown_messages_counted(net):
    a = net.add_node(Node("a"), "lan")
    b = net.add_node(Node("b"), "lan")
    a.send("b", "mystery")
    net.sim.run(until=1.0)
    assert b.unknown_messages == 1


def test_send_requires_attachment():
    with pytest.raises(NetworkError):
        Node("floating").send("x", "ping")


def test_crashed_node_ignores_delivery(net):
    a = net.add_node(Typed("a"), "lan")
    b = net.add_node(Typed("b"), "lan")
    b.crash()
    a.send("b", "ping")
    net.sim.run(until=1.0)
    assert b.pings == 0


def test_crash_cancels_timers(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    node.after(1.0, lambda: fired.append("once"))
    node.every(1.0, lambda: fired.append("tick"))
    node.crash()
    net.sim.run(until=5.0)
    assert fired == []


def test_timer_guard_on_crash_between_schedule_and_fire(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    node.after(2.0, lambda: fired.append(1))
    net.sim.schedule(1.0, node.crash)
    net.sim.run(until=5.0)
    assert fired == []


def test_cancelled_timer_leaves_the_node(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    timer = node.after(1.0, lambda: fired.append(1))
    assert list(node._timers) == [timer] and timer.pending
    timer.cancel()
    assert not node._timers and not timer.pending
    timer.cancel()  # twice: no-op
    net.sim.run(until=5.0)
    assert fired == [] and not node._timers


def test_fired_timer_leaves_the_node_and_cancel_after_is_a_noop(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    first = node.after(1.0, lambda: fired.append("first"))
    second = node.after(2.0, lambda: fired.append("second"))
    net.sim.run(until=1.5)
    assert fired == ["first"] and list(node._timers) == [second]
    first.cancel()
    assert not first.pending and list(node._timers) == [second]
    net.sim.run(until=5.0)
    assert fired == ["first", "second"] and not node._timers


def test_crash_cancels_a_thousand_pending_timers(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    timers = [node.after(1.0 + i * 0.001, lambda: fired.append(1)) for i in range(1000)]
    assert len(node._timers) == 1000
    node.crash()
    assert not node._timers and not any(t.pending for t in timers)
    timers[0].cancel()  # after the crash: no-op
    node.restart()
    net.sim.run(until=5.0)
    assert fired == [] and net.sim.pending() == 0


def test_restart_invokes_hook(net):
    events = []

    class Hooked(Node):
        def on_crash(self):
            events.append("crash")

        def on_restart(self):
            events.append("restart")

    node = net.add_node(Hooked("n"), "lan")
    node.crash()
    node.restart()
    assert events == ["crash", "restart"]


def test_crash_is_idempotent(net):
    node = net.add_node(Typed("n"), "lan")
    node.crash()
    node.crash()
    assert node.crash_count == 1


def test_restart_noop_when_alive(net):
    node = net.add_node(Typed("n"), "lan")
    node.restart()  # no crash happened
    assert node.alive


def test_timer_fires_when_alive(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    node.after(1.0, lambda: fired.append(net.sim.now))
    net.sim.run(until=2.0)
    assert fired == [1.0]


def test_timer_cancel(net):
    node = net.add_node(Typed("n"), "lan")
    fired = []
    timer = node.after(1.0, lambda: fired.append(1))
    assert timer.pending
    timer.cancel()
    net.sim.run(until=2.0)
    assert fired == []
    assert not timer.pending


def test_periodic_stops_on_crash_but_new_after_restart(net):
    node = net.add_node(Typed("n"), "lan")
    ticks = []
    node.every(1.0, lambda: ticks.append(net.sim.now))
    net.sim.schedule(2.5, node.crash)
    net.sim.run(until=4.0)
    assert ticks == [1.0, 2.0]
    node.restart()
    node.every(1.0, lambda: ticks.append(net.sim.now))
    net.sim.run(until=6.0)
    assert ticks == [1.0, 2.0, 5.0, 6.0]


def test_forward_preserves_payload_and_bumps_hops(net):
    a = net.add_node(Typed("a"), "lan")
    b = net.add_node(Typed("b"), "lan")
    c = net.add_node(Typed("c"), "lan")
    received = []
    c.handle_message = lambda env: received.append(env)
    env = a.send("b", "data", payload="body")
    net.sim.run(until=0.5)
    b.forward(env, "c")
    net.sim.run(until=1.0)
    assert received[0].payload == "body"
    assert received[0].hops == 1
    assert received[0].src == "b"
