"""Tests for the metrics layer: retrieval, staleness, bandwidth, topology."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.client_node import DiscoveryCall
from repro.descriptions.uri import UriDescription
from repro.metrics.bandwidth import TrafficWindow
from repro.metrics.retrieval import RetrievalScores, score_call, score_queries
from repro.metrics.staleness import registry_staleness, response_staleness
from repro.metrics.topology import (
    characteristic_path_length,
    clustering_coefficient,
    discovery_graph,
    largest_component_fraction,
    reachability_under_removal,
)
from repro.netsim.stats import TrafficStats
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit
from repro.semantics.profiles import ServiceRequest
from repro.workloads.queries import IssuedQuery


def _call(names, query_id="q1"):
    call = DiscoveryCall(
        query_id=query_id,
        request=ServiceRequest.build("cat"),
        model_id="uri",
        issued_at=0.0,
    )
    call.completions = 1
    call.hits = [
        QueryHit(
            Advertisement(ad_id=f"ad-{n}", service_node=n, service_name=n,
                          endpoint="e", model_id="uri", description=UriDescription("d", "e")),
            1, 0.5,
        )
        for n in names
    ]
    return call


def _issued(names, relevant, query_id="q1"):
    return IssuedQuery(call=_call(names, query_id), relevant=frozenset(relevant),
                       client="c", issued_at=0.0)


# -- retrieval ------------------------------------------------------------------

def test_score_call_perfect():
    assert score_call(_call(["a", "b"]), frozenset({"a", "b"})) == (1.0, 1.0)


def test_score_call_partial():
    precision, recall = score_call(_call(["a", "x"]), frozenset({"a", "b"}))
    assert precision == 0.5
    assert recall == 0.5


def test_score_call_empty_cases():
    assert score_call(_call([]), frozenset()) == (1.0, 1.0)
    assert score_call(_call([]), frozenset({"a"})) == (0.0, 0.0)
    assert score_call(_call(["x"]), frozenset()) == (0.0, 1.0)


def test_score_queries_macro_average():
    scores = score_queries([
        _issued(["a"], {"a"}),
        _issued([], {"b"}),
    ])
    assert scores.queries == 2
    assert scores.recall == 0.5
    assert 0 < scores.f1 < 1


def test_score_queries_alive_only_filter():
    scores = score_queries(
        [_issued(["a"], {"a", "dead"})],
        alive_only=frozenset({"a"}),
    )
    assert scores.recall == 1.0


def test_score_queries_skips_incomplete():
    incomplete = _issued(["a"], {"a"})
    incomplete.call.completions = 0
    assert score_queries([incomplete]).queries == 0


def test_retrieval_scores_empty():
    scores = RetrievalScores.from_pairs([])
    assert scores.queries == 0
    assert scores.f1 == 0.0


# -- staleness ----------------------------------------------------------------------

def test_response_staleness_counts_dead_hits():
    issued = [_issued(["alive", "dead"], {"alive"}, query_id="q1")]
    staleness = response_staleness(issued, {"q1": frozenset({"dead"})})
    assert staleness == 0.5


def test_response_staleness_no_hits():
    issued = [_issued([], set(), query_id="q1")]
    assert response_staleness(issued, {}) == 0.0


def test_registry_staleness_over_system(small_system):
    from repro.semantics.profiles import ServiceProfile

    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    service = small_system.add_service("lan-0", profile)
    small_system.run(until=2.0)
    assert registry_staleness(small_system) == 0.0
    service.crash()
    assert registry_staleness(small_system) == 1.0  # purge hasn't run yet


# -- bandwidth -------------------------------------------------------------------------

def test_traffic_window_deltas():
    stats = TrafficStats()
    stats.record_send("query", "a", 100, wan=False, multicast=False)
    window = TrafficWindow.open(stats, now=10.0)
    stats.record_send("query", "a", 300, wan=True, multicast=False)
    stats.record_send("renew", "b", 50, wan=False, multicast=False)
    report = window.close(now=20.0)
    assert report["bytes_sent"] == 350
    assert report["bytes_per_second"] == pytest.approx(35.0)
    assert window.bytes_by_type() == {"query": 300, "renew": 50}
    assert window.query_bytes() == 300
    assert window.maintenance_bytes() == 50


def test_traffic_window_ignores_pre_window_traffic():
    stats = TrafficStats()
    stats.record_send("publish", "a", 1000, wan=False, multicast=False)
    window = TrafficWindow.open(stats, now=0.0)
    assert window.close(now=1.0)["bytes_sent"] == 0
    assert window.maintenance_bytes() == 0


def test_stats_max_node_load():
    stats = TrafficStats()
    stats.record_delivery("a", 10)
    stats.record_delivery("b", 99)
    node, load = stats.max_node_load()
    assert (node, load) == ("b", 99)


def test_stats_reset():
    stats = TrafficStats()
    stats.record_send("x", "a", 5, wan=True, multicast=True)
    stats.reset()
    assert stats.snapshot() == TrafficStats().snapshot()


# -- topology ------------------------------------------------------------------------------

def test_discovery_graph_registry_attachments(wan_system):
    from repro.semantics.profiles import ServiceProfile

    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    wan_system.add_service("lan-0", profile)
    wan_system.add_client("lan-1")
    wan_system.run(until=3.0)
    graph = discovery_graph(wan_system)
    assert graph.number_of_nodes() == 5  # 3 registries + service + client
    assert largest_component_fraction(graph) == 1.0


def test_discovery_graph_alive_only(wan_system):
    wan_system.run(until=2.0)
    wan_system.registries[0].crash()
    graph = discovery_graph(wan_system)
    assert wan_system.registries[0].node_id not in graph


def test_discovery_graph_decentralized_cliques():
    from repro.core.system import DiscoverySystem
    from repro.semantics.generator import battlefield_ontology
    from repro.semantics.profiles import ServiceProfile

    system = DiscoverySystem(seed=1, ontology=battlefield_ontology())
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    for lan in ("lan-0", "lan-1"):
        system.add_client(lan)
        system.add_service(lan, ServiceProfile.build(
            f"s-{lan}", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    system.run(until=1.0)
    graph = discovery_graph(system)
    # Two disconnected 2-cliques.
    assert largest_component_fraction(graph) == 0.5
    assert clustering_coefficient(graph) == 0.0  # pairs have no triangles


def test_path_length_star_vs_line():
    star = nx.star_graph(4)
    line = nx.path_graph(5)
    assert characteristic_path_length(star) < characteristic_path_length(line)


def test_path_length_trivial_graphs():
    assert characteristic_path_length(nx.Graph()) == 0.0
    single = nx.Graph()
    single.add_node("a")
    assert characteristic_path_length(single) == 0.0


def test_reachability_under_removal_hub_attack():
    star = nx.star_graph(5)  # node 0 is the hub
    curve = reachability_under_removal(star, [0])
    assert curve[0] == pytest.approx(1 / 6)
    ring = nx.cycle_graph(6)
    ring_curve = reachability_under_removal(ring, [0])
    assert ring_curve[0] > curve[0]


def test_reachability_curve_monotone_nonincreasing():
    graph = nx.barbell_graph(4, 1)
    order = sorted(graph.nodes, key=lambda n: -graph.degree(n))
    curve = reachability_under_removal(graph, [str(n) for n in order] or order)
    curve2 = reachability_under_removal(graph, list(order))
    assert all(a >= b for a, b in zip(curve2, curve2[1:]))
