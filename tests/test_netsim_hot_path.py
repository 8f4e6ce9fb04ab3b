"""Count gates on what the simulator pays per message and keeps per run.

Machine-independent: every assertion is a count — scheduler events per
multicast, registry lookups per delivery, objects a long-lived deployment
still holds after its queries completed — never a time.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import pytest

from repro.netsim.messages import Envelope
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.stats import TrafficStats
from repro.obs import tracing
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from tests.deployments import e7_ring, fallback_lan


def _lan(n_nodes: int) -> tuple[Network, list[Node]]:
    net = Network(Simulator(seed=3))
    net.add_lan("lan")
    return net, [net.add_node(Node(f"n{i:02d}"), "lan") for i in range(n_nodes)]


def _delta_after(net: Network, action) -> tuple[int, int]:
    """(scheduler events fired, copies delivered) by ``action`` + a run."""
    before = net.sim.events_processed, net.stats.messages_delivered
    action()
    net.sim.run()
    return (net.sim.events_processed - before[0],
            net.stats.messages_delivered - before[1])


# -- (i) one scheduled event per multicast -----------------------------------


def test_one_multicast_is_one_event_whatever_the_fan_out():
    net, nodes = _lan(20)
    assert _delta_after(net, lambda: nodes[0].multicast("beacon")) == (1, 19)
    assert net.sim.pending() == 0


def test_multicast_that_loses_every_copy_schedules_nothing():
    class AlwaysLow:
        def random(self) -> float:
            return 0.0

    net, nodes = _lan(20)
    net.loss_rate = 0.5
    net.sim.rng = AlwaysLow()
    assert _delta_after(net, lambda: nodes[0].multicast("beacon")) == (0, 0)
    assert net.stats.drops_by_reason["loss"] == 19


def test_multicast_from_a_node_alone_on_its_lan_schedules_nothing():
    net, nodes = _lan(1)
    assert _delta_after(net, lambda: nodes[0].multicast("beacon")) == (0, 0)
    assert net.stats.messages_sent == 1


# -- (ii) heap entries carry the callback itself ------------------------------


def test_heap_entry_holds_the_callback_and_its_arguments_not_a_closure():
    sim = Simulator()
    got = []

    def fn(a, b):
        got.append((a, b))

    handle = sim.schedule(1.0, fn, "a", "b")
    (entry,) = sim._heap
    assert entry[2] is fn and entry[3] == ("a", "b")
    assert (handle.time, handle.cancelled) == (1.0, False)
    sim.run()
    assert got == [("a", "b")]


def test_cancelling_an_entry_drops_its_callback_at_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: pytest.fail("cancelled event fired"))
    handle.cancel()
    (entry,) = sim._heap
    assert entry[2] is None and handle.cancelled and sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0


# -- (iii) what a deployment still holds after its queries completed ---------


def _census() -> Counter:
    """Live instances of this package's classes, by class name. A type's
    ``__module__`` is not always text (Cython's metatypes, which numpy.random
    brings in once hypothesis has run, hold a descriptor there)."""
    gc.collect()
    return Counter(
        type(obj).__qualname__ for obj in gc.get_objects()
        if str(type(obj).__module__).startswith("repro.")
    )


def _past_the_timeouts(dep, calls) -> None:
    """Run ``dep`` until the query timeout each of ``calls`` armed has
    passed: a pending timeout is the last thing that holds an answered call."""
    dep.system.run(until=max(call.issued_at for call in calls)
                   + dep.system.config.query_timeout)


def _records(trace) -> Counter:
    return Counter(Span=len(trace.spans), TraceEvent=len(trace.events))


def _grown_by_256_discovers(deploy, traced: bool) -> tuple[dict, Counter, Counter]:
    """Live instances gained by discovers 128..384, counted once the test
    holds none of their handles and their query timeouts have passed; the
    trace records a capture gained over the same stretch; and those the
    discovers themselves added (both empty without a capture)."""
    dep = deploy(traced=traced)
    trace = dep.system.trace
    _past_the_timeouts(dep, dep.discover(128))
    before, records = _census(), _records(trace)
    calls = dep.discover(256)
    by_discovers = _records(trace) - records
    _past_the_timeouts(dep, calls)
    del calls
    after = _census()
    grown = {name: after[name] - before[name]
             for name in after if after[name] > before[name]}
    return grown, _records(trace) - records, by_discovers


@pytest.mark.parametrize("deploy", (e7_ring, fallback_lan))
def test_only_the_documented_histories_grow_with_the_run(deploy):
    """An answered query leaves nothing behind once its caller drops the
    handle and its query timeout has passed: the client keeps no history
    of its calls, so no ``DiscoveryCall``, no hit and no advertisement
    record of a hit stays — nor the timers, aggregations and payloads of
    answered queries, the responders' batches of a completed fallback
    call, or, with no trace capture attached, any trace record."""
    grown = _grown_by_256_discovers(deploy, traced=False)[0]
    assert grown == {}


def test_a_trace_nobody_listens_to_opens_no_span_and_sends_no_context(monkeypatch):
    """With nobody listening, 256 ring discovers build no ``Span`` and no
    envelope carries a trace context; with a capture attached, the same
    discovers each have their spans under ``call.trace_id``."""
    dep = e7_ring()
    built, traced = [], []
    span = tracing.Span
    monkeypatch.setattr(tracing, "Span", lambda **kw: built.append(kw) or span(**kw))
    for name in ("unicast", "multicast"):
        send = getattr(Network, name)
        monkeypatch.setattr(Network, name, lambda net, env, send=send: (
            traced.append(env) if tracing.TRACE_ID_HEADER in env.headers else None,
            send(net, env))[1])
    calls = dep.discover(256)
    assert (built, traced) == ([], [])
    assert {call.trace_id for call in calls} == {None}
    monkeypatch.undo()
    dep = e7_ring(traced=True)
    calls = dep.discover(256)
    capture = dep.system.trace.capture()
    assert all(capture.spans_of(call.trace_id) for call in calls)


#: Trace records 256 discovers add to an attached capture — 25.3 per
#: discover on the ring, as when the recorder kept every record itself.
CAPTURED_PER_256_DISCOVERS = {
    "e7_ring": {"Span": 2048, "TraceEvent": 4424},
    "fallback_lan": {"Span": 256, "TraceEvent": 6276},
}


@pytest.mark.parametrize("deploy", (e7_ring, fallback_lan))
def test_a_capture_keeps_every_trace_record_and_nothing_else(deploy):
    """What a traced run grows by is its capture's records, one instance
    each, and nothing else; the discovers' own records are pinned."""
    grown, records, by_discovers = _grown_by_256_discovers(deploy, traced=True)
    assert grown == dict(records)
    assert by_discovers == CAPTURED_PER_256_DISCOVERS[deploy.__name__]


# -- (iv) delivery instruments are fetched once, not per copy -----------------


def test_warm_delivery_asks_the_registry_for_no_histogram():
    net, nodes = _lan(5)
    nodes[0].send("n01", "ping")
    nodes[0].multicast("beacon")
    net.sim.run()
    asked = []
    histogram = net.metrics.histogram
    net.metrics.histogram = lambda name, **kw: (asked.append(name), histogram(name, **kw))[1]
    assert _delta_after(net, lambda: (nodes[0].send("n01", "ping"),
                                      nodes[2].multicast("beacon"))) == (2, 5)
    assert asked == []
    # A forwarded copy (hops > 0) still files under its per-type name.
    envelope = nodes[0].send("n01", "ping")
    nodes[1].forward(envelope, "n02")
    net.sim.run()
    assert asked == ["hops.ping"]
    snapshot = net.metrics.snapshot()["histograms"]
    assert sorted(snapshot) == ["hops.delivered", "hops.ping",
                                "latency.beacon", "latency.ping"]
    assert snapshot["hops.delivered"]["count"] == net.stats.messages_delivered


SUMMARY_FIELDS = ("count", "sum", "min", "max", "p50", "p95", "p99")
#: ``metrics.snapshot()["histograms"]`` of :func:`e7_ring` after 50
#: discovers, as recorded before the delivery histograms were cached
#: (``mean`` is ``sum / count`` in every row).
E7_RING_50_HISTOGRAMS = {
    "hops.delivered": (905, 300.0, 0.0, 2.0, 0.0, 1.5474999999999999, 1.9095000000000004),
    "hops.query-forward": (200, 300.0, 1.0, 2.0, 1.0, 1.9, 1.98),
    "latency.federation-join": (9, 0.44999999999999996, 0.05, 0.05, 0.05, 0.05, 0.05),
    "latency.federation-join-ack": (9, 0.44999999999999996, 0.05, 0.05, 0.05, 0.05, 0.05),
    "latency.publish": (36, 0.03600000000000003) + (0.0010000000000000009,) * 5,
    "latency.publish-ack": (36, 0.03600000000000003) + (0.0010000000000000009,) * 5,
    "latency.query": (50, 0.05000000000002558, 0.0009999999999994458)
                     + (0.0010000000000012221,) * 4,
    "latency.query-forward": (200, 10.000000000000142) + (0.05000000000000071,) * 5,
    "latency.query-response": (250, 10.050000000000166, 0.0009999999999994458)
                              + (0.05000000000000071,) * 4,
    "latency.registry-beacon": (60, 0.060000000000006715, 0.0009999999999994458,
                                0.0010000000000012221, 0.001,
                                0.0010000000000012221, 0.0010000000000012221),
    "latency.registry-list-reply": (57, 0.6450000000000186, 0.0009999999999994458,
                                    0.05000000000000071, 0.001675,
                                    0.05000000000000071, 0.05000000000000071),
    "latency.registry-list-request": (45, 0.04500000000001003, 0.0009999999999994458)
                                     + (0.0010000000000012221,) * 4,
    "latency.registry-ping": (24, 1.2000000000000117, 0.04999999999999982)
                             + (0.05000000000000071,) * 4,
    "latency.registry-pong": (24, 1.2000000000000117, 0.04999999999999982)
                             + (0.05000000000000071,) * 4,
    "latency.registry-probe": (90, 0.09000000000000007) + (0.001,) * 5,
    "latency.registry-probe-reply": (15, 0.015000000000000006) + (0.001,) * 5,
    "matchmaker.evals_per_query": (150, 84.0, 0.0, 3.0, 0.5319148936170213, 1.3, 3.0),
    "query.e2e_latency": (50, 10.100000000000193, 0.20200000000000173,
                          0.2020000000000053, 0.20200000000000173,
                          0.2020000000000053, 0.2020000000000053),
}


def test_metrics_snapshot_of_a_fixed_run_is_what_it_was():
    ring = e7_ring()
    ring.discover(50)
    assert ring.system.metrics.snapshot() == {
        "counters": {"lease.grant": 36},
        "gauges": {},
        "histograms": {
            name: dict(zip(SUMMARY_FIELDS, row), mean=row[1] / row[0])
            for name, row in E7_RING_50_HISTOGRAMS.items()
        },
    }


# -- (v) a copy that no handler serves is counted, not delivered -------------


def test_a_copy_no_handler_serves_is_counted_and_never_built(monkeypatch):
    """No node on a registry-less LAN serves ``registry-probe``: a round of
    probes from every service builds no envelope copy and makes no
    ``Node.receive`` call, yet every copy is counted — delivered, timed
    and an unknown message at its receiver. A decentral query, which every
    service serves and the other client does not, is copied once per
    service."""
    dep = fallback_lan(services=20)
    system = dep.system
    copies: Counter = Counter()
    received: Counter = Counter()
    copy_for, receive = Envelope.copy_for, Node.receive

    def counted_copy(envelope, dst):
        copies[envelope.msg_type] += 1
        return copy_for(envelope, dst)

    def counted_receive(node, envelope):
        received[envelope.msg_type] += 1
        return receive(node, envelope)

    monkeypatch.setattr(Envelope, "copy_for", counted_copy)
    monkeypatch.setattr(Node, "receive", counted_receive)
    nodes = [*system.services, *system.clients]
    timed = system.network.metrics.histograms["latency.registry-probe"]
    before = (sum(s.tracker.probes_sent for s in system.services), timed.count,
              sum(node.unknown_messages for node in nodes))
    for service in system.services:
        service.tracker.probe()
    system.run_for(0.01)
    probes = sum(s.tracker.probes_sent for s in system.services) - before[0]
    assert probes == len(system.services)
    assert timed.count - before[1] == probes * (len(nodes) - 1)
    assert sum(node.unknown_messages for node in nodes) - before[2] == timed.count - before[1]
    assert copies["registry-probe"] == received["registry-probe"] == 0

    dep.discover(1)
    assert copies["decentral-query"] == received["decentral-query"] == 20


#: Python-level calls a discarded multicast arrival may make beyond one
#: ``Node.discards`` per receiver: the arrival itself, its trace context,
#: the batched traffic statistics and the two delivery histograms.
DISCARDED_ARRIVAL_OVERHEAD = 10


def test_a_discarded_probe_arrival_is_one_call_per_receiver():
    """One ``registry-probe`` arriving at the N nodes of a registry-less
    LAN, none of which serves it, makes at most N + 10 Python-level
    calls (``sys.setprofile`` "call" events): each receiver is asked
    ``discards`` once, and its LAN, statistics and histograms cost no
    call of their own."""
    dep = fallback_lan(services=20)
    network = dep.system.network
    service = dep.system.services[0]
    service.tracker.probe()
    (envelope, receivers), = [
        entry[3] for entry in network.sim._heap
        if entry[2] == network._deliver_multicast
        and entry[3][0].src == service.node_id
        and entry[3][0].msg_type == "registry-probe"]
    nodes = [network.nodes[dst_id] for dst_id in receivers]
    unknown_before = sum(node.unknown_messages for node in nodes)
    calls = Counter()

    def profile(frame, event, arg):
        calls[event] += 1

    sys.setprofile(profile)
    try:
        network._deliver_multicast(envelope, receivers)
    finally:
        sys.setprofile(None)
    n = len(receivers)
    assert n == 21
    assert sum(node.unknown_messages for node in nodes) - unknown_before == n
    assert calls["call"] <= n + DISCARDED_ARRIVAL_OVERHEAD


#: Python-level calls a served multicast arrival may make per receiver. A
#: served copy costs ``discards``, the copy (``copy_for`` and the
#: ``Envelope`` it builds) and ``receive`` with what it calls down to the
#: handler: 203 calls at N = 21 (9.7 per receiver), where the copy's own
#: trip through ``Network._deliver`` — its re-checks, its accounting, two
#: histogram observations and its trace context — made it 384 (18.3).
SERVED_ARRIVAL_CALLS_PER_RECEIVER = 13


def test_a_served_query_arrival_costs_no_per_copy_recheck():
    """One ``decentral-query`` arriving at the 21 nodes of a registry-less
    LAN, 20 of which serve it with a stub handler, makes at most 13
    Python-level calls (``sys.setprofile`` "call" events) per receiver:
    the loop hands each served copy to ``receive`` itself, without
    asking again who the receiver is, whether it is up and linked, and
    observes the delivery histograms once for the whole batch."""
    dep = fallback_lan(services=20)
    network = dep.system.network
    dep.system.clients[0].discover(dep.requests[0])
    (envelope, receivers), = [
        entry[3] for entry in network.sim._heap
        if entry[2] == network._deliver_multicast
        and entry[3][0].msg_type == "decentral-query"]
    served: list[str] = []
    for service in dep.system.services:
        service.handlers["decentral-query"] = lambda copy: served.append(copy.dst)
    calls = Counter()

    def profile(frame, event, arg):
        calls[event] += 1

    sys.setprofile(profile)
    try:
        network._deliver_multicast(envelope, receivers)
    finally:
        sys.setprofile(None)
    n = len(receivers)
    assert n == 21
    assert served == sorted(service.node_id for service in dep.system.services)
    assert calls["call"] <= n * SERVED_ARRIVAL_CALLS_PER_RECEIVER


# -- (vi) batched accounting is per-copy accounting, slot for slot -------------


def _slots(histogram: Histogram) -> tuple:
    return (histogram.counts, histogram.overflow, histogram.count,
            histogram.total.hex(), histogram.vmin, histogram.vmax)


@pytest.mark.parametrize("value", (0.0, -0.0, 0.0011, 0.1, 0.30000000000000004, 61.5, 1e9))
@pytest.mark.parametrize("n", (0, 1, 3, 17))
def test_n_observations_at_once_are_n_single_observations(value, n):
    """Bit for bit, ``total`` too: on a histogram that already holds
    ``0.1``, adding ``0.1`` seventeen times is not adding ``1.7``. A zero
    of either sign, added once instead of ``n`` times, must leave the same
    ``total`` after a first ``-0.0`` or an overflow value too. ``61.5``
    and ``1e9`` land in the overflow bucket."""
    for first in (0.1, -0.0, 61.5):
        one_by_one, at_once = (Histogram("h", buckets=DEFAULT_LATENCY_BUCKETS)
                               for _ in range(2))
        for histogram in (one_by_one, at_once):
            histogram.observe(first)
        for _ in range(n):
            one_by_one.observe(value)
        at_once.observe_many(value, n)
        assert _slots(at_once) == _slots(one_by_one), first


def test_batched_deliveries_are_single_deliveries():
    one_by_one, at_once = TrafficStats(), TrafficStats()
    for stats in (one_by_one, at_once):
        stats.record_delivery("n09", 100)
    dsts = ["n03", "n01", "n09", "n03"]
    for dst in dsts:
        one_by_one.record_delivery(dst, 540)
    at_once.record_deliveries(dsts, 540)
    assert at_once == one_by_one
    assert list(at_once.node_bytes_received.items()) \
        == list(one_by_one.node_bytes_received.items())
