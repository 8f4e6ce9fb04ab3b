"""Unit tests for the adaptive routing layer (repro.core.routing).

Pins down the deterministic decision rules the E18 experiment relies
on: the EWMA latency fold, the geometric cooldown decay, the
queue-depth tie-breaking chain of the least-loaded strategy, the
default-preserving tie behavior of ``select`` (the hash-spread
cold-start contract), and the static strategy's complete inertness.
"""

import pytest

from repro.core.routing import (
    CooldownFailover,
    CooldownManager,
    LeastLoaded,
    NearestLatency,
    PassiveHealthTracker,
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

    def __call__(self) -> float:
        return self.now


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


# -- PassiveHealthTracker ---------------------------------------------------


def test_ewma_first_sample_is_taken_verbatim():
    health = PassiveHealthTracker(alpha=0.3)
    health.observe_latency("r1", 2.0)
    assert health.latency("r1") == 2.0


def test_ewma_update_folds_with_alpha():
    health = PassiveHealthTracker(alpha=0.25)
    health.observe_latency("r1", 2.0)
    health.observe_latency("r1", 4.0)
    # prev + alpha * (rtt - prev) = 2.0 + 0.25 * 2.0
    assert health.latency("r1") == pytest.approx(2.5)
    health.observe_latency("r1", 2.5)
    assert health.latency("r1") == pytest.approx(2.5)
    assert health.samples == 3


def test_ewma_ignores_negative_rtt():
    health = PassiveHealthTracker(alpha=0.5)
    health.observe_latency("r1", -1.0)
    assert health.latency("r1") is None
    assert health.samples == 0


def test_queue_depth_clamps_and_forgets():
    health = PassiveHealthTracker(alpha=0.3)
    assert health.queue_depth("r1") is None
    health.observe_queue_depth("r1", -3)
    assert health.queue_depth("r1") == 0
    health.observe_queue_depth("r1", 7)
    assert health.queue_depth("r1") == 7
    health.forget("r1")
    assert health.queue_depth("r1") is None


# -- CooldownManager --------------------------------------------------------


def test_cooldown_grows_geometrically_and_caps():
    clock = _Clock()
    cooldowns = CooldownManager(clock, base=0.5, factor=2.0, maximum=3.0)
    assert cooldowns.record_failure("r1") == 0.5
    assert cooldowns.record_failure("r1") == 1.0
    assert cooldowns.record_failure("r1") == 2.0
    assert cooldowns.record_failure("r1") == 3.0  # capped
    assert cooldowns.record_failure("r1") == 3.0  # stays capped


def test_cooldown_expires_with_the_clock():
    clock = _Clock()
    cooldowns = CooldownManager(clock, base=0.5, factor=2.0, maximum=3.0)
    cooldowns.record_failure("r1")
    assert cooldowns.in_cooldown("r1")
    assert cooldowns.remaining("r1") == pytest.approx(0.5)
    clock.now = 0.4
    assert cooldowns.remaining("r1") == pytest.approx(0.1)
    clock.now = 0.5
    assert not cooldowns.in_cooldown("r1")
    assert cooldowns.remaining("r1") == 0.0


def test_success_clears_streak_so_decay_restarts():
    clock = _Clock()
    cooldowns = CooldownManager(clock, base=0.5, factor=2.0, maximum=3.0)
    cooldowns.record_failure("r1")
    cooldowns.record_failure("r1")
    cooldowns.record_success("r1")
    assert not cooldowns.in_cooldown("r1")
    # The streak reset: the next failure cools for base again, not 2.0.
    assert cooldowns.record_failure("r1") == 0.5


def test_cooldowns_are_per_target():
    clock = _Clock()
    cooldowns = CooldownManager(clock, base=0.5, factor=2.0, maximum=3.0)
    cooldowns.record_failure("r1")
    assert not cooldowns.in_cooldown("r2")
    assert cooldowns.record_failure("r2") == 0.5


# -- strategy ranking -------------------------------------------------------


def _strategies(alpha=0.3):
    clock = _Clock()
    health = PassiveHealthTracker(alpha=alpha)
    cooldowns = CooldownManager(clock, base=0.5, factor=2.0, maximum=10.0)
    return clock, health, cooldowns


def test_least_loaded_prefers_shallowest_queue():
    _, health, cooldowns = _strategies()
    strategy = LeastLoaded(health, cooldowns)
    health.observe_queue_depth("r1", 5)
    health.observe_queue_depth("r2", 1)
    health.observe_queue_depth("r3", 3)
    assert strategy.order(["r1", "r2", "r3"]) == ["r2", "r3", "r1"]
    assert strategy.select(["r1", "r2", "r3"]) == "r2"


def test_least_loaded_counts_unseen_targets_as_idle():
    _, health, cooldowns = _strategies()
    strategy = LeastLoaded(health, cooldowns)
    health.observe_queue_depth("r1", 2)
    # r2 never reported: depth 0, so it outranks the known-busy r1.
    assert strategy.order(["r1", "r2"]) == ["r2", "r1"]


def test_least_loaded_breaks_depth_ties_by_ewma_then_caller_order():
    _, health, cooldowns = _strategies()
    strategy = LeastLoaded(health, cooldowns)
    for target in ("r1", "r2", "r3"):
        health.observe_queue_depth(target, 2)
    health.observe_latency("r2", 0.8)
    health.observe_latency("r3", 0.2)
    # Equal depth: measured-EWMA targets first (lowest first), the
    # never-measured r1 last.
    assert strategy.order(["r1", "r2", "r3"]) == ["r3", "r2", "r1"]
    # Full tie (same depth, no latency): the caller's order stands.
    health.forget("r2")
    health.forget("r3")
    health.observe_queue_depth("r2", 2)
    health.observe_queue_depth("r3", 2)
    assert strategy.order(["r3", "r1", "r2"]) == ["r3", "r1", "r2"]


def test_select_keeps_default_among_tied_best():
    # The cold-start contract: with no health signal every target ties,
    # and the caller's hash-spread default must win — otherwise every
    # client would herd onto the lexicographically first registry.
    _, health, cooldowns = _strategies()
    strategy = LeastLoaded(health, cooldowns)
    assert strategy.select(["r1", "r2", "r3"], default="r2") == "r2"
    # Once a real signal separates the targets the default loses.
    health.observe_queue_depth("r2", 9)
    assert strategy.select(["r1", "r2", "r3"], default="r2") == "r1"


def test_nearest_latency_prefers_measured_and_lowest():
    _, health, cooldowns = _strategies()
    strategy = NearestLatency(health, cooldowns)
    health.observe_latency("r2", 1.5)
    health.observe_latency("r3", 0.4)
    # Unmeasured r1 sorts after every measured target.
    assert strategy.order(["r1", "r2", "r3"]) == ["r3", "r2", "r1"]


def test_cooldown_pushes_targets_behind_healthy_ones():
    # Shared ranking: a cooling target loses to a healthy one in every
    # strategy, even when its load/latency looks better.
    clock, health, cooldowns = _strategies()
    for strategy_cls in (NearestLatency, LeastLoaded, CooldownFailover):
        strategy = strategy_cls(health, cooldowns)
        health.observe_queue_depth("r1", 0)
        health.observe_latency("r1", 0.1)
        health.observe_queue_depth("r2", 9)
        health.observe_latency("r2", 5.0)
        cooldowns.record_failure("r1")
        assert strategy.order(["r1", "r2"]) == ["r2", "r1"]
        cooldowns.record_success("r1")


def test_cooldown_failover_orders_cooled_by_soonest_expiry():
    clock, health, cooldowns = _strategies()
    strategy = CooldownFailover(health, cooldowns)
    cooldowns.record_failure("r1")  # cools 0.5s
    cooldowns.record_failure("r2")
    cooldowns.record_failure("r2")  # streak of 2: cools 1.0s
    assert strategy.order(["r2", "r1", "r3"]) == ["r3", "r1", "r2"]


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
    assert router.health.samples == 0
    assert router.health.queue_depth("r1") is None
    assert router.cooldowns.cooldowns_started == 0
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
    assert router.cooldowns.remaining("r1") == pytest.approx(4.0)
    node.clock.now = 3.9
    assert router.cooldowns.in_cooldown("r1")
    node.clock.now = 4.0
    assert not router.cooldowns.in_cooldown("r1")


def test_response_clears_cooldown():
    router, _ = _router(ROUTING_NEAREST_LATENCY)
    router.on_timeout("r1")
    assert router.cooldowns.in_cooldown("r1")
    router.on_response("r1", rtt=0.3)
    assert not router.cooldowns.in_cooldown("r1")
    assert router.health.latency("r1") == pytest.approx(0.3)


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
    assert router.health.latency("r1") is None
    assert router.health.queue_depth("r1") is None
    assert not router.cooldowns.in_cooldown("r1")
