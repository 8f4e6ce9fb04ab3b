"""Routing smoke — the `make routing-smoke` CI gate (E18).

Replays the canonical skewed-flood scenario at a fixed seed and asserts
the *shape* of adaptive load-aware routing rather than exact numbers:
least-loaded routing beats the historical static order on both p99
discovery latency and in-window goodput at 4x single-registry capacity,
and adaptive routing stays same-seed deterministic down to the trace
bytes. That no routing tunable reaches the default static strategy is
structural: it builds a ``PassThrough``, which takes no routing config
(``tests/test_kernel_surface.py``).

The full E18 sweep (the results table under ``benchmarks/results/``)
regenerates in :func:`test_e18_routing`.
"""

import pytest

from repro.core.routing import ROUTING_LEAST_LOADED, ROUTING_STATIC, RoutingConfig
from repro.experiments.e18_routing import run, run_routing_smoke


@pytest.fixture(scope="module")
def smoke():
    return run_routing_smoke(seed=0)


def test_least_loaded_beats_static_on_p99_and_goodput(smoke):
    static = smoke["static_4x"]
    loaded = smoke["least_loaded_4x"]
    # The acceptance bound: under a 4x-capacity skewed flood the
    # load-aware strategy must win on the tail AND on useful work.
    assert loaded["p99_latency"] <= static["p99_latency"]
    assert loaded["goodput_qps"] >= static["goodput_qps"]
    # And the win must come from routing, not luck: the adaptive run
    # rerouted queries away from the seeded hot registry, while static
    # (by definition) never did.
    assert loaded["reroutes"] > 0
    assert static["reroutes"] == 0
    # Static pays for the skew in the protocol's failure currency —
    # BUSY round-trips and tracker failovers — which load-aware routing
    # largely avoids by moving queries *before* they are shed.
    assert static["busy"] > loaded["busy"]
    assert static["failovers"] >= loaded["failovers"]
    # The hot registry sheds far less once queries spread.
    assert loaded["hot_shed"] < static["hot_shed"]


def test_adaptive_routing_is_deterministic(smoke):
    # Same seed, same skewed flood, same adaptive strategy -> identical
    # row, down to every counter.
    assert smoke["least_loaded_4x"] == smoke["least_loaded_4x_repeat"]
    # ...and identical trace bytes on the small capture scenario.
    assert smoke["trace_least_loaded"] == smoke["trace_least_loaded_repeat"]


def test_adaptive_routing_actually_changes_behavior(smoke):
    # Guard against a vacuous identity check: the same scenario under
    # least-loaded routing must NOT match the static trace, otherwise
    # the byte-identity assertions above prove nothing.
    assert smoke["trace_least_loaded"] != smoke["trace_default"]


def test_default_config_is_static():
    assert RoutingConfig().strategy == ROUTING_STATIC
    assert ROUTING_LEAST_LOADED != ROUTING_STATIC


def test_e18_routing(benchmark, record):
    result = benchmark.pedantic(lambda: run(), rounds=1, iterations=1)
    record(result)
    peak_p99 = result.metrics["p99_at_peak"]
    peak_goodput = result.metrics["goodput_at_peak"]
    assert peak_p99["least_loaded"] <= peak_p99["static"]
    assert peak_goodput["least_loaded"] >= peak_goodput["static"]
    # Every adaptive strategy at every multiplier sheds less on the hot
    # registry than static does at the same multiplier.
    for row in result.rows:
        if row["strategy"] == ROUTING_STATIC:
            continue
        static_row = result.single(strategy=ROUTING_STATIC, load=row["load"])
        assert row["hot_shed"] <= static_row["hot_shed"]
