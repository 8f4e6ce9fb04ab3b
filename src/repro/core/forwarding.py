"""Query forwarding machinery: aggregation state and strategies.

"The key role of the registry network is to forward queries and
advertisements between registry nodes on different LANs. Several different
strategies for doing this can be used, including increasing the reach of a
query gradually in several rounds, random walks, or broadcasting in the
registry network … Loop avoidance must also be taken care of."

This module holds the bookkeeping shared by all strategies:

* :class:`SeenQueries` — query-id based loop avoidance with pruning,
* :class:`PendingAggregation` — hits awaited from a fan-out's targets
  or from a random walk (or a timeout), completing exactly once,
* :class:`RingController` — the expanding-ring round schedule,
* :class:`RandomWalk` — the random-walk strategy itself: starting a
  walk, relaying one, and the ``walk*`` message handlers the registry
  node adopts into its dispatch table,
* :class:`CircuitBreaker` — per-neighbor health gating the fan-out, so
  degraded-mode queries stop paying the aggregation timeout for peers
  the failure detector already suspects.

The registry node wires the rest to its protocol handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.core import protocol
from repro.registry.matching import QueryEvaluator, QueryHit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope
    from repro.netsim.node import Node, Timer
    from repro.obs.tracing import Span


class SeenQueries:
    """Loop avoidance: remembers recently seen query ids.

    Entries are pruned after ``retention`` seconds so long runs do not
    accumulate unbounded state — old ids cannot loop any more once every
    TTL has elapsed. ``max_entries`` additionally hard-bounds the table
    so a query *flood* cannot grow loop-avoidance state without limit
    within one retention window: when full, the oldest entries are
    evicted (and counted in :attr:`evictions`). An evicted id could in
    principle loop back and be treated as new, but by then its TTL has
    almost surely expired — the table holds the most recent
    ``max_entries`` ids, and loops are short.

    ``protected`` exempts ids from eviction (and pruning): the registry
    passes a predicate over its *live* aggregation/walk state, so a
    flood filling the table can never evict the id of a query still in
    flight — an evicted live id would let a late duplicate re-enter the
    fan-out and double-count hits in the pending aggregation. The table
    may transiently exceed ``max_entries`` by the number of in-flight
    queries, which is itself bounded by admission control.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        retention: float = 120.0,
        *,
        max_entries: int | None = 4096,
        protected: Callable[[str], bool] | None = None,
    ) -> None:
        self._clock = clock
        self._retention = retention
        self._max_entries = max_entries
        self._protected = protected
        self._seen: dict[str, float] = {}
        self.evictions = 0

    def check_and_mark(self, query_id: str) -> bool:
        """True if the id is new (and marks it); False for a duplicate."""
        self._prune()
        if query_id in self._seen:
            return False
        if self._max_entries is not None and len(self._seen) >= self._max_entries:
            # Evict oldest first: dict preserves insertion order, and
            # entries are only ever appended with the current clock.
            excess = len(self._seen) - self._max_entries + 1
            evicted = 0
            for old_id in list(self._seen):
                if evicted >= excess:
                    break
                if self._protected is not None and self._protected(old_id):
                    continue
                del self._seen[old_id]
                evicted += 1
            self.evictions += evicted
        self._seen[query_id] = self._clock()
        return True

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def _prune(self) -> None:
        horizon = self._clock() - self._retention
        if len(self._seen) > 1024:
            self._seen = {
                qid: t for qid, t in self._seen.items()
                if t >= horizon
                or (self._protected is not None and self._protected(qid))
            }


class PendingAggregation:
    """One in-flight query: local hits plus awaited neighbor responses.

    Completes exactly once — when every outstanding response has
    arrived, when :meth:`flush` is called, or when the aggregation
    timeout fires — by calling ``on_complete`` with the merged,
    response-controlled hit list.

    When the fan-out ``targets`` are known, the aggregation tracks which
    of them answered; a timeout reports each silent target through
    ``on_target_timeout`` so the caller can feed its failure detector
    (circuit breakers, §4.9 aliveness).

    Without a target set (and no ``outstanding`` count) nobody knows how
    many registries will answer — a random walk: every visited registry
    that has matches reports them, and only :meth:`flush` (the walk's
    end) or the timeout (the walk died mid-way) completes it.
    """

    def __init__(
        self,
        node: "Node",
        *,
        query_id: str,
        local_hits: list[QueryHit],
        outstanding: int | None = None,
        targets: tuple[str, ...] = (),
        timeout: float,
        max_results: int | None,
        on_complete: Callable[[list[QueryHit], int], None],
        on_target_timeout: Callable[[str], None] | None = None,
        trace_ctx: tuple[int, int] | None = None,
        on_retarget: Callable[[list[str], tuple[str, ...]], list[str]] | None = None,
    ) -> None:
        self.query_id = query_id
        self.batches: list[list[QueryHit]] = [local_hits]
        self.outstanding: float = (
            outstanding if outstanding is not None
            else len(targets) or float("inf")
        )
        self.silent: set[str] = set(targets)
        #: Every target contacted so far (originals plus retarget
        #: replacements) — the retarget planner must not re-pick them.
        self.targets: tuple[str, ...] = tuple(targets)
        self.max_results = max_results
        self.responders = 1  # ourselves
        self._on_complete = on_complete
        self._on_target_timeout = on_target_timeout
        #: Fault-masked reads (sharded federation): called once, at the
        #: first timeout, with the silent targets; returns replacement
        #: targets the caller has (re)contacted — the aggregation then
        #: waits one more timeout round for them instead of completing.
        self._on_retarget = on_retarget
        self._retargeted = False
        self._timeout_interval = timeout
        self._node = node
        self.trace_ctx = trace_ctx
        self._done = False
        #: Fan-out start time: responses arriving before completion yield
        #: a per-target round-trip sample for the routing health tracker.
        self.started_at = node.sim.now
        self._timer: "Timer" = node.after(timeout, self._timeout)

    def add_response(self, payload: protocol.ResponsePayload, *, src: str | None = None) -> None:
        """A neighbor answered: record its hits, maybe complete."""
        if self._done:
            return
        if src is not None:
            self.silent.discard(src)
        self.batches.append(list(payload.hits))
        self.responders += payload.responders
        self.outstanding -= 1
        if self.outstanding <= 0:
            self._complete()

    def _timeout(self) -> None:
        """Some neighbor never answered (crash/partition): finish anyway."""
        if self._done:
            return
        if self.trace_ctx is not None:
            self._node.note("aggregation.timeout", {"silent": len(self.silent)},
                            ctx=self.trace_ctx)
        if self._on_target_timeout is not None:
            for target in sorted(self.silent):
                self._on_target_timeout(target)
        if (
            self._on_retarget is not None
            and not self._retargeted
            and self.silent
        ):
            # One retry round on replacement targets; the silent ones are
            # written off (their suspicion was reported above).
            self._retargeted = True
            replacements = self._on_retarget(sorted(self.silent), self.targets)
            if replacements:
                self.silent = set(replacements)
                self.outstanding = len(replacements)
                self.targets = tuple(dict.fromkeys(
                    list(self.targets) + list(replacements)
                ))
                self._timer = self._node.after(
                    self._timeout_interval, self._timeout
                )
                return
        self._complete()

    def drain_target(self, target: str) -> None:
        """A target left the federation: stop waiting for its answer.

        Counts as an (empty) response so the aggregation completes as
        soon as the surviving targets have answered, instead of riding
        out the timeout against a tombstoned member.
        """
        if self._done or target not in self.silent:
            return
        self.silent.discard(target)
        self.outstanding -= 1
        if self.outstanding <= 0:
            self._complete()

    def flush(self) -> None:
        """Complete immediately with whatever has arrived: the walk
        ended, or we are leaving the federation.

        Unlike a timeout, no target is blamed.
        """
        if not self._done:
            self._complete()

    def _complete(self) -> None:
        self._done = True
        self._timer.cancel()
        merged = QueryEvaluator.merge(self.batches, max_results=self.max_results)
        self._on_complete(merged, self.responders)

    @property
    def done(self) -> bool:
        return self._done


@dataclass
class RingController:
    """Expanding-ring search: grow the TTL until satisfied.

    "Increasing the reach of a query gradually in several rounds." Each
    round is an independent flood with the round's TTL (and a round-scoped
    query id, so peers do not suppress it as a duplicate); hits accumulate
    across rounds. The search stops as soon as the satisfaction target is
    met — ``max_results`` hits when response control is on, one hit
    otherwise — or the TTL schedule is exhausted.
    """

    payload: protocol.QueryPayload
    ttls: tuple[int, ...]
    round_index: int = 0
    batches: list[list[QueryHit]] = field(default_factory=list)
    rounds_run: int = 0

    def round_query_id(self) -> str:
        """The query id used for the current round's flood."""
        return f"{self.payload.query_id}#r{self.round_index}"

    def current_ttl(self) -> int:
        return self.ttls[self.round_index]

    def record_round(self, hits: list[QueryHit]) -> None:
        """Fold one round's merged hits into the accumulated result."""
        self.batches.append(hits)
        self.rounds_run += 1

    def merged(self) -> list[QueryHit]:
        """All hits so far, de-duplicated and response-controlled."""
        return QueryEvaluator.merge(self.batches, max_results=self.payload.max_results)

    def satisfied(self) -> bool:
        """Whether the accumulated hits meet the round-stop target."""
        target = self.payload.max_results if self.payload.max_results is not None else 1
        return len(self.merged()) >= target

    def advance(self) -> bool:
        """Move to the next ring; returns False when the schedule is done."""
        self.round_index += 1
        return self.round_index < len(self.ttls)


class RandomWalk:
    """The random-walk strategy of one registry.

    "Random walks" instead of flooding: the query visits one registry
    after another, each reporting its local matches straight back to
    the registry that started the walk (``WALK_HITS``); the last one
    sends ``WALK_END``. This class starts walks for client queries (one
    target-less :class:`PendingAggregation` each, in the registry's
    in-flight map) and relays other registries' walks one hop on.
    """

    def __init__(self, registry: "RegistryNode") -> None:
        self.registry = registry

    def start(
        self, client: str, payload: protocol.QueryPayload, *, span: "Span | None" = None
    ) -> None:
        """Answer ``client`` from the local store plus one walk."""
        registry = self.registry
        config = registry.config
        local = registry._local_hits(payload, parent=span)
        target_count = payload.max_results if payload.max_results is not None else 1
        targets = registry.federation.forward_targets({client})
        if len(local) >= target_count or not targets or config.walk_length <= 1:
            registry._respond(client, payload.query_id, local, 1, span=span)
            return

        def complete(hits: list[QueryHit], responders: int) -> None:
            registry._pending.pop(payload.query_id, None)
            registry._respond(client, payload.query_id, hits, responders, span=span)

        registry._pending[payload.query_id] = PendingAggregation(
            registry,
            query_id=payload.query_id,
            local_hits=local,
            # Bounds the wait when the walk dies mid-way (crashed
            # registry, partition).
            timeout=config.aggregation_timeout * config.walk_length,
            max_results=payload.max_results,
            on_complete=complete,
        )
        self._hand_on(
            protocol.WalkPayload(
                query_id=payload.query_id,
                model_id=payload.model_id,
                query=payload.query,
                coordinator=registry.node_id,
                remaining=config.walk_length - 1,
                visited=(registry.node_id,),
                max_results=payload.max_results,
            ),
            targets, hops=1,
        )

    def _hand_on(self, walk: protocol.WalkPayload, candidates: list[str], *, hops: int) -> None:
        """Send the walk to its next hop, picked among ``candidates``."""
        registry = self.registry
        next_hop = registry.router.pick_walk(candidates, rng=registry.sim.rng)
        registry.send(next_hop, protocol.WALK, walk, hops=hops)
        registry.rim.queries_forwarded += 1

    def handle_walk(self, envelope: "Envelope") -> None:
        """A walk reached us: report our matches, pass it on or end it."""
        payload = envelope.payload
        registry = self.registry
        local = registry._local_hits(payload)
        if local:
            registry.send(
                payload.coordinator,
                protocol.WALK_HITS,
                protocol.ResponsePayload(
                    query_id=payload.query_id, hits=tuple(local), responders=1
                ),
            )
        visited = set(payload.visited) | {registry.node_id}
        candidates = [
            t for t in registry.federation.forward_targets({envelope.src})
            if t not in visited
        ]
        if payload.remaining <= 1 or not candidates:
            registry.send(
                payload.coordinator,
                protocol.WALK_END,
                protocol.ResponsePayload(query_id=payload.query_id, hits=(), responders=0),
            )
            return
        self._hand_on(
            replace(payload, remaining=payload.remaining - 1,
                    visited=tuple(sorted(visited))),
            candidates, hops=envelope.hops + 1,
        )

    def handle_walk_hits(self, envelope: "Envelope") -> None:
        """One visited registry reported its local matches."""
        walk = self.registry._pending.get(envelope.payload.query_id)
        if walk is not None:
            walk.add_response(envelope.payload)

    def handle_walk_end(self, envelope: "Envelope") -> None:
        """The walk reached its end: complete now."""
        walk = self.registry._pending.get(envelope.payload.query_id)
        if walk is not None:
            walk.flush()


#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-neighbor health: closed / open / half-open.

    Fed by the registry's existing aliveness signals — missed pongs from
    the federation ping round and silent targets from aggregation
    timeouts. After ``failure_threshold`` consecutive failures the breaker
    *opens*: the fan-out skips the neighbor (not counted as outstanding),
    so degraded-mode queries complete without eating the aggregation
    timeout for a peer that is already suspected dead. After
    ``reset_timeout`` seconds the breaker turns *half-open* and lets
    exactly **one** probe through (in practice the next ping/gossip round
    or a single forwarded query); a success closes it, a failure re-opens
    it. While that probe is in flight every other caller is refused —
    without the :attr:`probing` latch, several sends queued in the same
    tick would all read the elapsed reset timeout, all pass as "the one
    probe", and a still-down neighbor would re-trip the breaker with
    inflated failure counts (and eat one aggregation timeout per extra
    probe).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 10.0,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.times_opened = 0
        #: Probe failures: open → half-open → open round trips. A rising
        #: flap count means the neighbor keeps looking back up and then
        #: failing its single probe — the signature of a struggling (not
        #: cleanly dead) peer, and what the flapping watchdog keys on.
        self.flaps = 0
        #: True while the single half-open probe is unresolved.
        self.probing = False
        #: Observer called as ``(old_state, new_state)`` on every state
        #: change (the metrics bridge lives in the federation layer).
        self.on_transition = on_transition

    def _transition(self, new_state: str) -> None:
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state)

    def record_failure(self) -> bool:
        """One failure signal; returns True when this trip *opened* it."""
        if self.state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open, timer re-armed.
            self.opened_at = self._clock()
            self.times_opened += 1
            self.flaps += 1
            self.probing = False
            self._transition(BREAKER_OPEN)
            return True
        self.failures += 1
        if self.state == BREAKER_CLOSED and self.failures >= self.failure_threshold:
            self.opened_at = self._clock()
            self.times_opened += 1
            self._transition(BREAKER_OPEN)
            return True
        return False

    def record_success(self) -> bool:
        """One success signal; returns True when it *closed* the breaker."""
        was = self.state
        self.failures = 0
        self.probing = False
        self._transition(BREAKER_CLOSED)
        return was != BREAKER_CLOSED

    def allows(self) -> bool:
        """Whether traffic may flow to the neighbor right now.

        An open breaker whose reset timeout has elapsed flips to
        half-open as a side effect and admits the caller as the single
        probe; until that probe resolves (success or failure), every
        further caller — including others queued in the same simulation
        tick — is refused.
        """
        if self.state == BREAKER_OPEN:
            if self._clock() - self.opened_at >= self.reset_timeout:
                self.probing = True
                self._transition(BREAKER_HALF_OPEN)
                return True
            return False
        if self.state == BREAKER_HALF_OPEN:
            if self.probing:
                return False
            self.probing = True
            return True
        return True
