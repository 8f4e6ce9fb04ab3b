"""Unit tests for the adaptive routing layer (repro.core.routing).

Pins down, through the :class:`Router` a node builds with
:func:`router_for`, the deterministic decision rules the E18 experiment
relies on: the EWMA latency fold, the geometric cooldown decay, the
queue-depth tie-breaking chain of the least-loaded strategy, the
default-preserving tie behavior of ``select`` (the hash-spread
cold-start contract), and the static strategy's complete inertness.
"""

import pytest

from repro.core.routing import (
    COOLDOWN_MAX,
    EWMA_ALPHA,
    ROUTING_COOLDOWN_FAILOVER,
    ROUTING_LEAST_LOADED,
    ROUTING_NEAREST_LATENCY,
    ROUTING_STATIC,
    PassThrough,
    RoutingConfig,
    router_for,
)
from repro.errors import ReproError
from repro.netsim.node import Node
from repro.obs.metrics import MetricsRegistry


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


class _StubSim:
    def __init__(self, clock) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now


class _StubNetwork:
    def __init__(self, clock, metrics=None) -> None:
        self.metrics = metrics
        self.sim = _StubSim(clock)


class _StubNode(Node):
    """Just enough node for a Router: a clock and an optional metrics,
    reported to through the node's own seam."""

    def __init__(self, metrics=None) -> None:
        super().__init__("stub")
        self.clock = _Clock()
        self.network = _StubNetwork(self.clock, metrics)


def _router(strategy, metrics=None, **params):
    """The router a node constructor would pick for ``strategy``."""
    node = _StubNode(metrics)
    return router_for(RoutingConfig(strategy=strategy, **params), node), node


# -- RoutingConfig validation ----------------------------------------------


def test_config_defaults_to_static():
    config = RoutingConfig()
    assert config.strategy == ROUTING_STATIC


@pytest.mark.parametrize("kwargs", [
    {"strategy": "round-robin"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ReproError):
        RoutingConfig(**kwargs)


# -- per-target tables -----------------------------------------------------


def test_ewma_first_sample_is_taken_verbatim():
    router, _ = _router(ROUTING_NEAREST_LATENCY)
    router.on_response("r1", rtt=2.0)
    assert router.latency("r1") == 2.0


def test_ewma_update_folds_with_alpha():
    metrics = MetricsRegistry()
    router, _ = _router(ROUTING_NEAREST_LATENCY, metrics=metrics)
    router.on_response("r1", rtt=2.0)
    router.on_response("r1", rtt=4.0)
    # prev + alpha * (rtt - prev)
    folded = 2.0 + EWMA_ALPHA * 2.0
    assert router.latency("r1") == pytest.approx(folded)
    router.on_response("r1", rtt=folded)
    assert router.latency("r1") == pytest.approx(folded)
    assert metrics.histogram("routing.rtt").count == 3


def test_ewma_ignores_negative_rtt():
    router, _ = _router(ROUTING_NEAREST_LATENCY)
    router.on_response("r1", rtt=-1.0)
    assert router.latency("r1") is None
    # The next good sample is still the first one folded.
    router.on_response("r1", rtt=1.0)
    assert router.latency("r1") == 1.0


def test_queue_depth_clamps_and_forgets():
    router, _ = _router(ROUTING_LEAST_LOADED)
    assert router.queue_depth("r1") is None
    router.on_response("r1", queue_depth=-3)
    assert router.queue_depth("r1") == 0
    router.on_busy("r1", queue_depth=7)
    assert router.queue_depth("r1") == 7
    router.forget("r1")
    assert router.queue_depth("r1") is None


def test_cooldown_grows_geometrically_and_caps():
    router, _ = _router(ROUTING_COOLDOWN_FAILOVER)
    armed = []
    for _ in range(7):
        router.on_timeout("r1")
        armed.append(router.remaining("r1"))
    assert armed == [0.5, 1.0, 2.0, 4.0, 8.0, COOLDOWN_MAX, COOLDOWN_MAX]


def test_cooldown_expires_with_the_clock():
    router, node = _router(ROUTING_COOLDOWN_FAILOVER)
    router.on_timeout("r1")
    assert router.cooling("r1")
    assert router.remaining("r1") == pytest.approx(0.5)
    node.clock.now = 0.4
    assert router.remaining("r1") == pytest.approx(0.1)
    node.clock.now = 0.5
    assert not router.cooling("r1")
    assert router.remaining("r1") == 0.0


def test_success_clears_streak_so_decay_restarts():
    router, _ = _router(ROUTING_COOLDOWN_FAILOVER)
    router.on_timeout("r1")
    router.on_timeout("r1")
    router.on_response("r1")
    assert not router.cooling("r1")
    # The streak reset: the next failure cools for base again, not 2.0.
    router.on_timeout("r1")
    assert router.remaining("r1") == 0.5


def test_cooldowns_are_per_target():
    router, _ = _router(ROUTING_COOLDOWN_FAILOVER)
    router.on_timeout("r1")
    assert not router.cooling("r2")
    router.on_timeout("r2")
    assert router.remaining("r2") == 0.5


# -- strategy ranking -------------------------------------------------------


def test_least_loaded_prefers_shallowest_queue():
    router, _ = _router(ROUTING_LEAST_LOADED)
    router.on_response("r1", queue_depth=5)
    router.on_response("r2", queue_depth=1)
    router.on_response("r3", queue_depth=3)
    assert router.order(["r1", "r2", "r3"]) == ["r2", "r3", "r1"]
    assert router.select(["r1", "r2", "r3"]) == "r2"


def test_least_loaded_counts_unseen_targets_as_idle():
    router, _ = _router(ROUTING_LEAST_LOADED)
    router.on_response("r1", queue_depth=2)
    # r2 never reported: depth 0, so it outranks the known-busy r1.
    assert router.order(["r1", "r2"]) == ["r2", "r1"]


def test_least_loaded_breaks_depth_ties_by_ewma_then_caller_order():
    router, _ = _router(ROUTING_LEAST_LOADED)
    for target in ("r1", "r2", "r3"):
        router.on_response(target, queue_depth=2)
    router.on_response("r2", rtt=0.8)
    router.on_response("r3", rtt=0.2)
    # Equal depth: measured-EWMA targets first (lowest first), the
    # never-measured r1 last.
    assert router.order(["r1", "r2", "r3"]) == ["r3", "r2", "r1"]
    # Full tie (same depth, no latency): the caller's order stands.
    router.forget("r2")
    router.forget("r3")
    router.on_response("r2", queue_depth=2)
    router.on_response("r3", queue_depth=2)
    assert router.order(["r3", "r1", "r2"]) == ["r3", "r1", "r2"]


def test_select_keeps_default_among_tied_best():
    # The cold-start contract: with no health signal every target ties,
    # and the caller's hash-spread default must win — otherwise every
    # client would herd onto the lexicographically first registry.
    router, _ = _router(ROUTING_LEAST_LOADED)
    assert router.select(["r1", "r2", "r3"], default="r2") == "r2"
    # Once a real signal separates the targets the default loses.
    router.on_response("r2", queue_depth=9)
    assert router.select(["r1", "r2", "r3"], default="r2") == "r1"
    # A default that is not a candidate stands for the first one.
    assert router.select(["r1", "r3"], default="r9") == "r1"
    assert router.select([], default="r9") == "r9"


def test_nearest_latency_prefers_measured_and_lowest():
    router, _ = _router(ROUTING_NEAREST_LATENCY)
    router.on_response("r2", rtt=1.5)
    router.on_response("r3", rtt=0.4)
    # Unmeasured r1 sorts after every measured target.
    assert router.order(["r1", "r2", "r3"]) == ["r3", "r2", "r1"]


def test_cooldown_pushes_targets_behind_healthy_ones():
    # Shared ranking: a cooling target loses to a healthy one in every
    # strategy, even when its load/latency looks better.
    for strategy in (ROUTING_NEAREST_LATENCY, ROUTING_LEAST_LOADED,
                     ROUTING_COOLDOWN_FAILOVER):
        router, _ = _router(strategy)
        router.on_response("r1", rtt=0.1, queue_depth=0)
        router.on_response("r2", rtt=5.0, queue_depth=9)
        router.on_timeout("r1")
        assert router.order(["r1", "r2"]) == ["r2", "r1"]


def test_cooldown_failover_orders_cooled_by_soonest_expiry():
    router, _ = _router(ROUTING_COOLDOWN_FAILOVER)
    router.on_timeout("r1")  # cools 0.5s
    router.on_timeout("r2")
    router.on_timeout("r2")  # streak of 2: cools 1.0s
    assert router.order(["r2", "r1", "r3"]) == ["r3", "r1", "r2"]


def test_static_order_is_identity():
    strategy = PassThrough()
    assert strategy.order(["r1", "r2"]) == ["r1", "r2"]
    assert strategy.select(["r1", "r2"], default="r2") == "r2"
    assert strategy.select(["r1", "r2"]) == "r1"


# -- Router facade ----------------------------------------------------------


def test_static_router_hooks_are_inert():
    router, _ = _router(ROUTING_STATIC, metrics=MetricsRegistry())
    router.on_response("r1", rtt=1.0, queue_depth=5)
    router.on_busy("r1", retry_after=3.0, queue_depth=9)
    router.on_timeout("r1")
    assert vars(router) == {}  # nothing kept
    assert not router.cooling("r1")
    assert router.usable(["r2", "r1"]) == (["r2", "r1"], 0)
    assert router.select(["r1", "r2"], default="r2") == "r2"
    assert router.order(["r2", "r1"]) == ["r2", "r1"]
    assert router.reroutes == 0


def test_static_pick_walk_consumes_the_rng():
    # The historical uniform walk: static must keep drawing from the
    # simulator RNG stream exactly as before the routing layer existed.
    class _Rng:
        def __init__(self):
            self.calls = []

        def choice(self, seq):
            self.calls.append(list(seq))
            return seq[-1]

    router, _ = _router(ROUTING_STATIC)
    rng = _Rng()
    assert router.pick_walk(["r1", "r2"], rng) == "r2"
    assert rng.calls == [["r1", "r2"]]


def test_adaptive_pick_walk_is_deterministic_and_skips_the_rng():
    class _Rng:
        def choice(self, seq):  # pragma: no cover - must not be called
            raise AssertionError("adaptive walk must not draw randomness")

    router, _ = _router(ROUTING_LEAST_LOADED)
    router.on_response("r2", queue_depth=0)
    router.on_response("r1", queue_depth=4)
    assert router.pick_walk(["r1", "r2"], _Rng()) == "r2"


def test_adaptive_select_counts_reroutes():
    metrics = MetricsRegistry()
    router, _ = _router(ROUTING_LEAST_LOADED, metrics=metrics)
    # Tie: default kept, no reroute.
    assert router.select(["r1", "r2"], default="r1") == "r1"
    assert router.reroutes == 0
    router.on_response("r1", queue_depth=8)
    assert router.select(["r1", "r2"], default="r1") == "r2"
    assert router.reroutes == 1
    assert metrics.counter("routing.reroutes").value == 1


def test_busy_cooldown_is_at_least_the_retry_after_hint():
    router, node = _router(ROUTING_LEAST_LOADED)
    router.on_busy("r1", retry_after=4.0, queue_depth=3)
    # record_failure armed 0.5s; the server's hint extends it to 4.0.
    assert router.remaining("r1") == pytest.approx(4.0)
    node.clock.now = 3.9
    assert router.cooling("r1")
    node.clock.now = 4.0
    assert not router.cooling("r1")


def test_response_clears_cooldown():
    router, _ = _router(ROUTING_NEAREST_LATENCY)
    router.on_timeout("r1")
    assert router.cooling("r1")
    router.on_response("r1", rtt=0.3)
    assert not router.cooling("r1")
    assert router.latency("r1") == pytest.approx(0.3)


def test_usable_keeps_everything_except_under_cooldown_failover():
    for strategy in (ROUTING_NEAREST_LATENCY, ROUTING_LEAST_LOADED):
        router, _ = _router(strategy)
        router.on_timeout("r1")
        kept, skipped = router.usable(["r1", "r2"])
        assert sorted(kept) == ["r1", "r2"]
        assert skipped == 0


def test_usable_skips_cooled_targets_but_never_all():
    router, node = _router(ROUTING_COOLDOWN_FAILOVER)
    router.on_timeout("r1")
    kept, skipped = router.usable(["r1", "r2"])
    assert kept == ["r2"]
    assert skipped == 1
    # Every target cooling: keep the whole (ordered) set rather than
    # black-holing the fan-out.
    router.on_timeout("r2")
    router.on_timeout("r2")
    kept, skipped = router.usable(["r1", "r2"])
    assert sorted(kept) == ["r1", "r2"]
    assert skipped == 0
    # r1 cools for less time, so it leads the fallback order.
    assert kept == ["r1", "r2"]


def test_forget_drops_all_target_state():
    router, _ = _router(ROUTING_LEAST_LOADED)
    router.on_response("r1", rtt=0.7, queue_depth=4)
    router.on_timeout("r1")
    router.forget("r1")
    assert router.latency("r1") is None
    assert router.queue_depth("r1") is None
    assert not router.cooling("r1")
