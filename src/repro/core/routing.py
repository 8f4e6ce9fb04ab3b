"""Adaptive load-aware query routing: pluggable target-selection strategies.

The paper's dynamic-environment premise is that registries appear,
overload, and vanish mid-conversation; a fixed attachment plus circuit
breakers reacts to *death* but not to *load*. This module adds the
missing policy layer: a :class:`Router` facade every protocol agent can
consult when it has several plausible targets (sibling registries at
failover, WAN fan-out neighbors, random-walk next hops), with the
selection policy pluggable through :class:`RoutingConfig`.

The health signals are **passive** — nothing here sends a probe. The
protocol already produces everything an informed choice needs:

* query/renew response round-trips → per-target EWMA latency
  (:class:`PassiveHealthTracker`), mirrored into the obs metrics facade
  as the ``routing.rtt`` histogram;
* ``BUSY`` rejections and the admission-queue depth registries piggyback
  on ``RESPONSE``/``BUSY`` payloads → per-target queue depth;
* BUSY and aggregation timeouts → a decaying per-target cooldown
  (:class:`CooldownManager`), so a just-saturated target is not
  immediately re-picked.

Strategies:

``static``
    Today's behavior, the default: no :class:`Router` at all but a
    :class:`PassThrough` — selection returns the caller's own
    (hash-spread or sorted) choice, ordering is the identity, nothing is
    observed. A deployment that never sets ``DiscoveryConfig.routing`` is
    bit-identical to one built before this module existed.
``nearest-latency``
    Prefer the target with the lowest EWMA response latency; targets
    with no sample yet sort after measured ones.
``least-loaded``
    Prefer the target with the shallowest last-seen admission queue;
    unseen targets count as idle (depth 0) so new capacity gets tried.
    Depth ties break toward the caller's default (preserving the
    hash-spread even distribution on cold start), then lowest EWMA.
``cooldown-failover``
    Keep the caller's order but move targets in cooldown to the back
    (soonest-to-expire first); fan-outs may skip cooled targets
    entirely while healthy ones remain.

Every strategy is deterministic: decisions depend only on observed
sim-time signals and stable tie-breaks, never on fresh randomness — a
fixed seed still fully determines a run under any strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node

#: Strategy names accepted by :class:`RoutingConfig`.
ROUTING_STATIC = "static"
ROUTING_NEAREST_LATENCY = "nearest-latency"
ROUTING_LEAST_LOADED = "least-loaded"
ROUTING_COOLDOWN_FAILOVER = "cooldown-failover"

_ROUTING_STRATEGIES = frozenset({
    ROUTING_STATIC, ROUTING_NEAREST_LATENCY, ROUTING_LEAST_LOADED,
    ROUTING_COOLDOWN_FAILOVER,
})

#: Weight of the newest latency sample in the per-target EWMA.
EWMA_ALPHA = 0.3

#: First cooldown after a failure signal (seconds); it grows by
#: :data:`COOLDOWN_FACTOR` per *consecutive* failure of the same target,
#: up to :data:`COOLDOWN_MAX` (seconds).
COOLDOWN_BASE = 0.5
COOLDOWN_FACTOR = 2.0
COOLDOWN_MAX = 10.0


@dataclass(frozen=True)
class RoutingConfig:
    """Routing strategy selection: one of ``static`` (default),
    ``nearest-latency``, ``least-loaded``, ``cooldown-failover``."""

    strategy: str = ROUTING_STATIC

    def __post_init__(self) -> None:
        if self.strategy not in _ROUTING_STRATEGIES:
            raise ReproError(
                f"unknown routing strategy {self.strategy!r}; "
                f"choose from {sorted(_ROUTING_STRATEGIES)}"
            )


class PassiveHealthTracker:
    """Per-target EWMA response latency and last-seen queue depth.

    Fed opportunistically from traffic the node exchanges anyway; a
    target nobody has talked to recently simply has no entry.
    """

    def __init__(self, *, alpha: float) -> None:
        self.alpha = alpha
        self._ewma: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self.samples = 0

    def observe_latency(self, target: str, rtt: float) -> None:
        """Fold one response round-trip into the target's EWMA."""
        if rtt < 0:
            return
        self.samples += 1
        previous = self._ewma.get(target)
        if previous is None:
            self._ewma[target] = rtt
        else:
            self._ewma[target] = previous + self.alpha * (rtt - previous)

    def observe_queue_depth(self, target: str, depth: int) -> None:
        """Record the admission-queue depth a target reported."""
        self._depth[target] = max(0, int(depth))

    def latency(self, target: str) -> float | None:
        """EWMA response latency, or None with no samples yet."""
        return self._ewma.get(target)

    def queue_depth(self, target: str) -> int | None:
        """Last piggybacked queue depth, or None if never reported."""
        return self._depth.get(target)

    def forget(self, target: str) -> None:
        """Drop all state about a target (it left / was excluded)."""
        self._ewma.pop(target, None)
        self._depth.pop(target, None)


class CooldownManager:
    """Decaying per-target cooldown after BUSY/timeout signals.

    Each consecutive failure of the same target grows its cooldown
    geometrically (``base * factor^(streak-1)``, capped at ``maximum``);
    any success clears the streak. While a target is cooling, adaptive
    strategies deprioritize (or skip) it.
    """

    def __init__(
        self,
        clock,
        *,
        base: float,
        factor: float,
        maximum: float,
    ) -> None:
        self._clock = clock
        self.base = base
        self.factor = factor
        self.maximum = maximum
        self._until: dict[str, float] = {}
        self._streak: dict[str, int] = {}
        self.cooldowns_started = 0

    def record_failure(self, target: str) -> float:
        """One failure signal; returns the cooldown length armed."""
        streak = self._streak.get(target, 0) + 1
        self._streak[target] = streak
        length = min(self.maximum, self.base * self.factor ** (streak - 1))
        self._until[target] = self._clock() + length
        self.cooldowns_started += 1
        return length

    def record_success(self, target: str) -> None:
        """Proof of health: clear the streak and any active cooldown."""
        self._streak.pop(target, None)
        self._until.pop(target, None)

    def in_cooldown(self, target: str) -> bool:
        until = self._until.get(target)
        return until is not None and self._clock() < until

    def remaining(self, target: str) -> float:
        """Seconds of cooldown left (0.0 when not cooling)."""
        until = self._until.get(target)
        if until is None:
            return 0.0
        return max(0.0, until - self._clock())

    def hold(self, target: str, seconds: float) -> None:
        """Keep ``target`` cooling for at least ``seconds`` from now."""
        until = self._clock() + seconds
        self._until[target] = max(until, self._until.get(target, until))

    def forget(self, target: str) -> None:
        self._until.pop(target, None)
        self._streak.pop(target, None)


class RoutingStrategy:
    """Base strategy: rank candidate targets given passive health state.

    ``sort_key(target, index)`` returns a comparison tuple; lower sorts
    first. The shared ranking moves targets in cooldown behind healthy
    ones regardless of strategy, so a just-BUSY target never outranks a
    quiet one on a stale latency/depth sample.
    """

    def __init__(self, health: PassiveHealthTracker, cooldowns: CooldownManager) -> None:
        self.health = health
        self.cooldowns = cooldowns

    def sort_key(self, target: str, index: int):
        return (index,)

    def order(self, candidates: Sequence[str]) -> list[str]:
        """Candidates best-first; ties keep the caller's order."""
        return sorted(candidates, key=lambda t: self._full_key(t, candidates))

    def select(self, candidates: Sequence[str], default: str | None = None) -> str | None:
        """The best candidate; ``default`` wins among top-ranked ties."""
        if not candidates:
            return None
        best = self.order(candidates)[0]
        if default in candidates and \
                self._full_key(default, candidates)[:-1] == self._full_key(best, candidates)[:-1]:
            # The caller's (hash-spread) choice is among the tied best:
            # keep it, preserving the even cold-start spread.
            return default
        return best

    def _full_key(self, target: str, candidates: Sequence[str]):
        return (
            1 if self.cooldowns.in_cooldown(target) else 0,
            self.cooldowns.remaining(target),
            *self.sort_key(target, candidates.index(target)),
        )


class NearestLatency(RoutingStrategy):
    """Prefer the lowest EWMA response latency; unmeasured targets last."""

    def sort_key(self, target: str, index: int):
        ewma = self.health.latency(target)
        if ewma is None:
            return (1, 0.0, index)
        return (0, ewma, index)


class LeastLoaded(RoutingStrategy):
    """Prefer the shallowest last-seen admission queue.

    Unseen targets count as idle (depth 0), so fresh capacity gets
    tried; depth ties break by EWMA latency (measured first), then the
    caller's order — the tie-break chain the unit tests pin down.
    """

    def sort_key(self, target: str, index: int):
        depth = self.health.queue_depth(target)
        ewma = self.health.latency(target)
        return (
            depth if depth is not None else 0,
            1 if ewma is None else 0,
            ewma if ewma is not None else 0.0,
            index,
        )


class CooldownFailover(RoutingStrategy):
    """Keep the caller's order, but cooled targets go to the back."""

    # The shared cooldown-aware ranking in the base class is exactly
    # this strategy; only fan-out *skipping* (Router.usable) differs.


_STRATEGY_CLASSES = {
    ROUTING_NEAREST_LATENCY: NearestLatency,
    ROUTING_LEAST_LOADED: LeastLoaded,
    ROUTING_COOLDOWN_FAILOVER: CooldownFailover,
}


class Router:
    """Adaptive target selection for one protocol agent.

    Owns the passive health state and the configured strategy; the
    owning node reports response round-trips, BUSY rejections, piggy-
    backed queue depths, and timeouts through the ``on_*`` hooks and
    asks for decisions through :meth:`order`, :meth:`select`,
    :meth:`usable`, and :meth:`pick_walk`. Built by :func:`router_for`
    for every strategy but ``static``.
    """

    def __init__(self, config: RoutingConfig, node: "Node") -> None:
        self.config = config
        self._node = node
        #: Times a selection deviated from the caller's default.
        self.reroutes = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Nothing observed, nobody cooling: a restarted or roamed node
        forgets what traffic taught it."""
        self.health = PassiveHealthTracker(alpha=EWMA_ALPHA)
        self.cooldowns = CooldownManager(
            self._now,
            base=COOLDOWN_BASE,
            factor=COOLDOWN_FACTOR,
            maximum=COOLDOWN_MAX,
        )
        self.strategy: RoutingStrategy = _STRATEGY_CLASSES[self.config.strategy](
            self.health, self.cooldowns
        )

    def start(self) -> None:
        """Nothing to arm: traffic feeds the tracker."""

    def _now(self) -> float:
        if self._node.network is None:
            return 0.0
        return self._node.sim.now

    # -- decisions --------------------------------------------------------

    def order(self, candidates: Sequence[str]) -> list[str]:
        """Candidates best-first."""
        return self.strategy.order(candidates)

    def select(self, candidates: Sequence[str], default: str | None = None) -> str | None:
        """One target from ``candidates`` (``default`` with none to pick
        from); a ``default`` that is not a candidate stands for the first."""
        if not candidates:
            return default
        if default is not None and default not in candidates:
            default = candidates[0]
        choice = self.strategy.select(candidates, default=default)
        if default is not None and choice != default:
            self.reroutes += 1
            self._node.count("routing.reroutes")
        return choice

    def usable(self, targets: Sequence[str]) -> tuple[list[str], int]:
        """Fan-out gating: ``(kept, skipped_count)``.

        Only ``cooldown-failover`` skips targets (those in cooldown),
        and never all of them — with every target cooling, the full
        ordered list is kept so queries are not black-holed. Other
        strategies reorder but always keep the whole set: fan-out width
        is a coverage decision, not a load decision.
        """
        ordered = self.strategy.order(targets)
        if self.config.strategy != ROUTING_COOLDOWN_FAILOVER:
            return ordered, 0
        kept = [t for t in ordered if not self.cooldowns.in_cooldown(t)]
        if not kept:
            return ordered, 0
        return kept, len(ordered) - len(kept)

    def pick_walk(self, candidates: Sequence[str], rng) -> str:
        """Random-walk next hop: deterministically by rank, no draw."""
        choice = self.strategy.select(candidates)
        assert choice is not None
        return choice

    # -- passive observation hooks ----------------------------------------

    def on_response(
        self,
        target: str,
        *,
        rtt: float | None = None,
        queue_depth: int | None = None,
    ) -> None:
        """A target answered: feed latency/depth, clear its cooldown."""
        if rtt is not None:
            self.health.observe_latency(target, rtt)
            self._node.observe("routing.rtt", rtt)
        if queue_depth is not None:
            self.health.observe_queue_depth(target, queue_depth)
        self.cooldowns.record_success(target)

    def on_busy(
        self,
        target: str,
        *,
        retry_after: float | None = None,
        queue_depth: int | None = None,
    ) -> None:
        """A target shed our work: record its depth, start a cooldown.

        The cooldown is at least the server's ``retry_after`` hint —
        re-picking the target before it asked to be retried would just
        earn another BUSY.
        """
        if queue_depth is not None:
            self.health.observe_queue_depth(target, queue_depth)
        self.cooldowns.record_failure(target)
        if retry_after is not None:
            self.cooldowns.hold(target, retry_after)
        self._node.count("routing.busy_observed")

    def on_timeout(self, target: str) -> None:
        """A target went silent: start/extend its cooldown."""
        self.cooldowns.record_failure(target)
        self._node.count("routing.timeouts_observed")

    def forget(self, target: str) -> None:
        """Drop all health state about a departed target."""
        self.health.forget(target)
        self.cooldowns.forget(target)


class PassThrough:
    """``static`` routing: every decision is the caller's own, nothing is
    observed, counted or kept — a :class:`Router` that is simply not
    there. The tracker and cooldown table exist to be read (always empty:
    nothing here feeds them)."""

    reroutes = 0

    def __init__(self) -> None:
        self.health = PassiveHealthTracker(alpha=1.0)
        self.cooldowns = CooldownManager(lambda: 0.0, base=0.0, factor=1.0, maximum=0.0)

    def rebuild(self) -> None:
        """Nothing to forget: nothing here is ever fed."""

    def start(self) -> None:
        """Nothing to arm."""

    def order(self, candidates: Sequence[str]) -> list[str]:
        return list(candidates)

    def select(self, candidates: Sequence[str], default: str | None = None) -> str | None:
        if default is not None or not candidates:
            return default
        return candidates[0]

    def usable(self, targets: Sequence[str]) -> tuple[list[str], int]:
        return list(targets), 0

    def pick_walk(self, candidates: Sequence[str], rng) -> str:
        """The historical uniform walk, one draw from the simulator's RNG."""
        return rng.choice(list(candidates))

    def on_response(self, target: str, **_signal) -> None:
        pass

    on_busy = on_timeout = forget = on_response


def router_for(config: RoutingConfig, node: "Node") -> "Router | PassThrough":
    """What a node constructor asks its routing questions of, picked once."""
    if config.strategy == ROUTING_STATIC:
        return PassThrough()
    return Router(config, node)
