"""Query forwarding bookkeeping, shared by every strategy.

* :class:`ScatterPlan` — whom a query is forwarded to, and who stands in
  for a target that stays silent,
* :class:`SeenQueries` — query-id based loop avoidance with pruning,
* :class:`PendingAggregation` — hits awaited from a fan-out's targets
  or from a random walk (or a timeout), completing exactly once.

Which targets the fan-out stops waiting on is the
:class:`~repro.core.federation.Federation`'s breaker table: a peer's
consecutive failures since its last success.

The strategies themselves, and the registry's query handlers, are the
:class:`~repro.core.query.QueryCoordinator`'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.core import protocol
from repro.registry.matching import QueryEvaluator, QueryHit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node, Timer


class ScatterPlan(NamedTuple):
    """Whom a query goes to next, decided after local evaluation."""

    #: Who is asked; nobody — the local hits are the answer.
    targets: list[str]
    #: The TTL the query is forwarded with.
    ttl: int = 0
    #: ``retarget(failed, contacted)``: stand-ins for the targets still
    #: silent at the first timeout, asked once (sharded reads).
    retarget: Callable[[list[str], set[str]], list[str]] | None = None


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
