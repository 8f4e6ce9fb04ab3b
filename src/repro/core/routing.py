"""Adaptive load-aware query routing: pluggable target-selection strategies.

The paper's dynamic-environment premise is that registries appear,
overload, and vanish mid-conversation; a fixed attachment plus circuit
breakers reacts to *death* but not to *load*. This module adds the
missing policy layer: a :class:`Router` facade every protocol agent can
consult when it has several plausible targets (sibling registries at
failover, WAN fan-out neighbors, random-walk next hops), with the
selection policy pluggable through :class:`RoutingConfig`.

The health signals are **passive** — nothing here sends a probe. The
protocol already produces everything an informed choice needs, and the
:class:`Router` keeps each in one plain per-target table:

* query/renew response round-trips → an EWMA latency, mirrored into the
  obs metrics facade as the ``routing.rtt`` histogram;
* ``BUSY`` rejections and the admission-queue depth registries piggyback
  on ``RESPONSE``/``BUSY`` payloads → the last-seen queue depth;
* BUSY and aggregation timeouts → a cooldown that grows geometrically
  with each failure in a row (and a success clears), so a just-saturated
  target is not immediately re-picked.

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
    Depth ties break by lowest EWMA (measured first), then toward the
    caller's default (preserving the hash-spread even distribution on
    cold start).
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


class Router:
    """Adaptive target selection for one protocol agent.

    Four tables, all fed by traffic the node exchanges anyway: the EWMA
    response latency and the last piggybacked queue depth of each target,
    and when its cooldown ends and how many failures in a row armed it.
    The owning node reports round-trips, BUSY rejections and timeouts
    through the ``on_*`` hooks and asks for decisions through
    :meth:`order`, :meth:`select`, :meth:`usable` and :meth:`pick_walk`.
    Built by :func:`router_for` for every strategy but ``static``.
    """

    def __init__(self, config: RoutingConfig, node: "Node") -> None:
        self.strategy = config.strategy
        self._node = node
        #: Times a selection deviated from the caller's default.
        self.reroutes = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Nothing observed, nobody cooling: a restarted or roamed node
        forgets what traffic taught it."""
        self._ewma: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        #: Sim time each target's cooldown ends.
        self._until: dict[str, float] = {}
        #: Consecutive failures of each target since its last success.
        self._streak: dict[str, int] = {}

    def start(self) -> None:
        """Nothing to arm: traffic feeds the tables."""

    # -- reads --------------------------------------------------------------

    def latency(self, target: str) -> float | None:
        """EWMA response latency, or None with no sample yet."""
        return self._ewma.get(target)

    def queue_depth(self, target: str) -> int | None:
        """Last piggybacked queue depth, or None if never reported."""
        return self._depth.get(target)

    def remaining(self, target: str) -> float:
        """Seconds of cooldown left (0.0 when not cooling)."""
        until = self._until.get(target)
        if until is None:
            return 0.0
        return max(0.0, until - self._node.sim.now)

    def cooling(self, target: str) -> bool:
        """Whether ``target`` is in cooldown right now."""
        until = self._until.get(target)
        return until is not None and self._node.sim.now < until

    # -- decisions --------------------------------------------------------

    def _key(self, target: str, candidates: Sequence[str]) -> tuple:
        """Rank of ``target``; lower sorts first, and the last field is its
        place in ``candidates``.

        Cooling targets sort behind quiet ones under every strategy,
        soonest-to-expire first, so a just-BUSY target never outranks a
        quiet one on a stale sample. Then ``nearest-latency`` ranks by
        EWMA, unmeasured last; ``least-loaded`` by queue depth (unseen
        counts as idle), then EWMA, unmeasured last; ``cooldown-failover``
        keeps the caller's order.
        """
        ewma = self._ewma.get(target)
        if self.strategy == ROUTING_NEAREST_LATENCY:
            rank: tuple = (ewma is None, ewma or 0.0)
        elif self.strategy == ROUTING_LEAST_LOADED:
            rank = (self._depth.get(target, 0), ewma is None, ewma or 0.0)
        else:
            rank = ()
        return (self.remaining(target), *rank, candidates.index(target))

    def order(self, candidates: Sequence[str]) -> list[str]:
        """Candidates best-first; ties keep the caller's order."""
        return sorted(candidates, key=lambda t: self._key(t, candidates))

    def select(self, candidates: Sequence[str], default: str | None = None) -> str | None:
        """One target from ``candidates`` (``default`` with none to pick
        from); a ``default`` that is not a candidate stands for the first.
        ``default`` wins among the top-ranked ties, which keeps the
        caller's even (hash-spread) cold-start choice."""
        if not candidates:
            return default
        best = self.order(candidates)[0]
        if default is None:
            return best
        if default not in candidates:
            default = candidates[0]
        if self._key(default, candidates)[:-1] == self._key(best, candidates)[:-1]:
            return default
        self.reroutes += 1
        self._node.count("routing.reroutes")
        return best

    def usable(self, targets: Sequence[str]) -> tuple[list[str], int]:
        """Fan-out gating: ``(kept, skipped_count)``.

        Only ``cooldown-failover`` skips targets (those in cooldown),
        and never all of them — with every target cooling, the full
        ordered list is kept so queries are not black-holed. Other
        strategies reorder but always keep the whole set: fan-out width
        is a coverage decision, not a load decision.
        """
        ordered = self.order(targets)
        if self.strategy != ROUTING_COOLDOWN_FAILOVER:
            return ordered, 0
        kept = [t for t in ordered if not self.cooling(t)]
        if not kept:
            return ordered, 0
        return kept, len(ordered) - len(kept)

    def pick_walk(self, candidates: Sequence[str], rng) -> str:
        """Random-walk next hop: deterministically by rank, no draw."""
        return self.order(candidates)[0]

    # -- passive observation hooks ----------------------------------------

    def on_response(
        self,
        target: str,
        *,
        rtt: float | None = None,
        queue_depth: int | None = None,
    ) -> None:
        """A target answered: fold its round-trip into the EWMA, record
        its depth, clear its cooldown and failure streak."""
        if rtt is not None:
            if rtt >= 0:
                previous = self._ewma.get(target)
                self._ewma[target] = (
                    rtt if previous is None else previous + EWMA_ALPHA * (rtt - previous)
                )
            self._node.observe("routing.rtt", rtt)
        if queue_depth is not None:
            self._depth[target] = max(0, int(queue_depth))
        self._streak.pop(target, None)
        self._until.pop(target, None)

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
            self._depth[target] = max(0, int(queue_depth))
        self._cool(target)
        if retry_after is not None:
            until = self._node.sim.now + retry_after
            self._until[target] = max(until, self._until[target])
        self._node.count("routing.busy_observed")

    def on_timeout(self, target: str) -> None:
        """A target went silent: start/extend its cooldown."""
        self._cool(target)
        self._node.count("routing.timeouts_observed")

    def _cool(self, target: str) -> None:
        """One more failure in a row: cool for ``COOLDOWN_BASE`` times
        ``COOLDOWN_FACTOR`` per earlier failure, at most ``COOLDOWN_MAX``."""
        streak = self._streak.get(target, 0) + 1
        self._streak[target] = streak
        length = min(COOLDOWN_MAX, COOLDOWN_BASE * COOLDOWN_FACTOR ** (streak - 1))
        self._until[target] = self._node.sim.now + length

    def forget(self, target: str) -> None:
        """Drop all state about a departed target."""
        for table in (self._ewma, self._depth, self._until, self._streak):
            table.pop(target, None)


class PassThrough:
    """``static`` routing: every decision is the caller's own, nothing is
    observed, counted or kept — a :class:`Router` that is simply not
    there."""

    reroutes = 0

    def rebuild(self) -> None:
        """Nothing to forget: nothing here is ever fed."""

    def start(self) -> None:
        """Nothing to arm."""

    def cooling(self, target: str) -> bool:
        return False

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
