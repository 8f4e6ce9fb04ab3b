"""Unit tests for node lifecycle, dispatch, and timers."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import TraceRecorder


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
    network.sim.trace.capture()
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


# -- the reporting seam -------------------------------------------------------

def _names(network):
    """Every instrument ``MetricsRegistry.snapshot()`` shows, by section."""
    return {section: sorted(found)
            for section, found in network.metrics.snapshot().items() if found}


def _trace_headers(trace_id, span_id):
    return TraceRecorder.inject({}, (trace_id, span_id))


#: verb -> a call of it that reports something on an attached node.
SEAM_CALLS = {
    "count": lambda n: n.count("things", 2),
    "observe": lambda n: n.observe("sizes", 3.0, (1.0, 5.0)),
    "gauge": lambda n: n.gauge("level", 4.0),
    "alias": lambda n: n.alias("q-000123"),
    "note": lambda n: n.note("happened", {"from": "x", "class": "y"}),
    "recovered": lambda n: n.recovered("healed", 2, {"n": 2}),
    "span+end": lambda n: n.end(n.span("work", {"k": 1}), attrs={"done": True}),
    "end(None)": lambda n: n.end(None, status="timeout"),
    "headers_for": lambda n: n.headers_for(n.span("work")),
    "answered": lambda n: n.answered("query", ok=True, latency=0.1),
}


@pytest.mark.parametrize("verb", sorted(SEAM_CALLS))
def test_unattached_node_reports_nothing_and_raises_nothing(verb):
    """The one place the unattached case is still covered: the call sites'
    own ``network is None`` / ``trace is None`` guards are gone, so a node
    that was built but never added to a network (most unit tests of the
    protocol agents) must be able to make every seam call."""
    node = Typed("loose")
    result = SEAM_CALLS[verb](node)
    assert result in (None, "q-000123")  # alias: the raw id, unchanged
    assert node.span("work") is None and node.headers_for(None) is None


#: verb -> the only instruments its SEAM_CALLS entry may leave behind.
SEAM_INSTRUMENTS = {
    "count": {"counters": ["things"]},
    "observe": {"histograms": ["sizes"]},
    "gauge": {"gauges": ["level"]},
    "recovered": {"counters": ["recovery.healed"]},
}


@pytest.mark.parametrize("verb", sorted(SEAM_CALLS))
def test_a_seam_call_creates_exactly_the_named_instrument(net, verb):
    node = net.add_node(Typed("n"), "lan")
    SEAM_CALLS[verb](node)
    assert _names(net) == SEAM_INSTRUMENTS.get(verb, {})


def test_count_observe_gauge_write_the_runs_metrics(net):
    node = net.add_node(Typed("n"), "lan")
    node.count("things")
    node.count("things", 4)
    node.observe("sizes", 3.0, (1.0, 5.0))
    node.observe("latency", 0.2)  # default latency buckets
    net.sim.run(until=2.0)
    node.gauge("level", 7.0)
    metrics = net.metrics
    assert metrics.counters["things"].value == 5
    assert metrics.histograms["sizes"].count == 1
    assert metrics.histograms["latency"].count == 1
    assert (metrics.gauges["level"].value, metrics.gauges["level"].last_set) == (7.0, 2.0)


def test_note_records_under_the_given_or_the_current_context(net):
    node = net.add_node(Typed("n"), "lan")
    trace = net.sim.trace
    node.note("outside", {"from": "a", "class": "b", "aa": 1})
    node.note("pinned", ctx=(7, 9))
    seen = []
    node.handle_message = lambda env: (
        node.note("inside"), node.note("rootless", ctx=None),
        seen.append(node._trace_ctx))
    net.add_node(Typed("peer"), "lan").send("n", "data", headers=_trace_headers(3, 4))
    net.sim.run(until=1.0)
    by_name = {e.name: e for e in trace.events if e.node == "n"}
    assert seen == [(3, 4)]
    assert (by_name["outside"].trace_id, by_name["outside"].span_id) == (None, None)
    assert list(by_name["outside"].attrs) == ["from", "class", "aa"]  # order kept
    assert (by_name["pinned"].trace_id, by_name["pinned"].span_id) == (7, 9)
    assert (by_name["inside"].trace_id, by_name["inside"].span_id) == (3, 4)
    assert by_name["rootless"].trace_id is None
    assert {e.node for e in by_name.values()} == {"n"}


def test_recovered_moves_statistics_counter_and_trace_together(net):
    node = net.add_node(Typed("n"), "lan")
    node.recovered("healed", 3, {"n": 3})
    node.recovered("skipped", 2, traced=False)
    assert net.metrics.tallies("recovery") == {"healed": 3, "skipped": 2}
    assert net.metrics.counters["recovery.healed"].value == 3
    assert net.metrics.counters["recovery.skipped"].value == 2
    assert [(e.name, e.node, e.attrs) for e in net.sim.trace.events] == [
        ("healed", "n", {"n": 3})]


def test_span_closes_once_and_carries_its_headers(net):
    node = net.add_node(Typed("n"), "lan")
    root = node.span("work", {"query": node.alias("q-000123")}, ctx=None)
    child = node.span("step", ctx=root.context)
    assert root.parent_id is None and child.parent_id == root.span_id
    assert root.attrs == {"query": "q~1"} and root.node == "n"
    assert node.headers_for(child) == _trace_headers(*child.context)
    assert node.headers_for(None) is None
    node.end(child, status="timeout", attrs={"hits": 0})
    net.sim.run(until=1.0)
    node.end(child, status="ok", attrs={"hits": 9})  # the first close wins
    assert (child.status, child.end, child.attrs) == ("timeout", 0.0, {"hits": 0})


def test_the_seam_looks_its_books_up_on_every_call(net, monkeypatch):
    """``benchmarks/perf`` wraps these methods on their classes mid-run: a
    cached instrument or bound method would leave it timing nothing."""
    node = net.add_node(Typed("n"), "lan")
    for verb in sorted(SEAM_CALLS):
        SEAM_CALLS[verb](node)  # warm: anything cacheable is cached by now
    entered = []

    def spy(cls, attr):
        original = cls.__dict__[attr]

        def wrapper(*args, **kwargs):
            entered.append(f"{cls.__name__}.{attr}")
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    for cls, attr in [(MetricsRegistry, "counter"), (MetricsRegistry, "histogram"),
                      (MetricsRegistry, "gauge"), (Histogram, "observe"),
                      (TraceRecorder, "event"), (TraceRecorder, "start_span"),
                      (TraceRecorder, "end_span")]:
        spy(cls, attr)
    for verb in ("count", "observe", "gauge", "note", "span+end"):
        SEAM_CALLS[verb](node)
    assert entered == [
        "MetricsRegistry.counter", "MetricsRegistry.histogram", "Histogram.observe",
        "MetricsRegistry.gauge", "TraceRecorder.event", "TraceRecorder.start_span",
        "TraceRecorder.end_span",
    ]
