"""Query coordination: how a registry answers the queries it is handed.

"The key role of the registry network is to forward queries and
advertisements between registry nodes on different LANs. Several different
strategies for doing this can be used, including increasing the reach of a
query gradually in several rounds, random walks, or broadcasting in the
registry network … Loop avoidance must also be taken care of." (§4.9)

A registry's :class:`QueryCoordinator` serves every query message and owns
what a query needs in flight: the loop-avoidance table, the aggregations
awaited by query id, local evaluation and the answer. Every start is a
*scatter* — evaluate locally, let a plan name whom to ask, answer at once
if nobody, else gather — and how a client query starts is picked once, in
the constructor: a flood, informed routing, an expanding ring (a flood per
round), a random walk, or a sharded registry's replica-group cover.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

from repro.core import protocol
from repro.core.config import (
    STRATEGY_EXPANDING_RING,
    STRATEGY_FLOODING,
    STRATEGY_INFORMED,
    STRATEGY_RANDOM_WALK,
)
from repro.core.forwarding import PendingAggregation, ScatterPlan, SeenQueries
from repro.obs.metrics import COUNT_BUCKETS
from repro.obs.tracing import Span, TraceRecorder
from repro.registry.matching import QueryEvaluator, QueryHit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope


def _satisfied(hits: list[QueryHit], payload: protocol.QueryPayload) -> bool:
    """Whether ``hits`` are enough to stop looking: ``max_results`` of them
    under response control, one otherwise."""
    return len(hits) >= (payload.max_results if payload.max_results is not None else 1)


class QueryCoordinator:
    """Every query one registry evaluates, forwards or gathers answers for."""

    def __init__(self, registry: "RegistryNode", *, read_plan=None) -> None:
        self.registry = registry
        self.responses_sent = 0
        #: Query responses that arrived after their aggregation completed
        #: (work the aggregation timeout threw away).
        self.late_responses = 0
        #: How a client query starts: ``read_plan`` (a sharded registry's
        #: replica-group cover) where given, else the forwarding strategy.
        self._start = partial(self._scatter, plan=read_plan) if read_plan else {
            STRATEGY_FLOODING: partial(self._scatter, plan=self._plan_flood),
            STRATEGY_INFORMED: partial(self._scatter, plan=self._plan_informed),
            STRATEGY_EXPANDING_RING: self._start_ring,
            STRATEGY_RANDOM_WALK: partial(self._scatter, plan=self._plan_walk,
                                          gather=self._walk),
        }[registry.config.strategy]
        self.rebuild()

    def rebuild(self) -> None:
        """Build the in-flight state: nothing awaited, no query id seen."""
        registry = self.registry
        #: Every query this registry is gathering answers for, by query
        #: id: fan-outs and the random walks it coordinates alike.
        self._pending: dict[str, PendingAggregation] = {}
        # A flood filling the loop-avoidance table must not evict the id
        # of a query still in flight here, or a late duplicate would
        # re-enter the fan-out and double-count hits.
        self._seen = SeenQueries(lambda: registry.sim.now,
                                 protected=self._pending.__contains__)

    def start(self) -> None:
        """Nothing to arm: queries arrive."""

    def on_peer_departed(self, peer: str) -> None:
        """Aggregations waiting on ``peer`` stop waiting (an empty answer)."""
        for pending in list(self._pending.values()):
            pending.drain_target(peer)

    def on_departing(self) -> None:
        """We are leaving the federation: answer what we can, now."""
        for pending in list(self._pending.values()):
            pending.flush()

    # -- entry points ------------------------------------------------------------

    def handle_query(self, envelope: "Envelope") -> None:
        """A client query: this registry is the entry point/coordinator."""
        payload = envelope.payload
        self.registry.rim.queries_served += 1
        if self._duplicate(payload.query_id):
            return
        span = self._query_span("registry.query", envelope, payload)
        if not self._overload_shortcut(envelope.src, payload, span):
            self._start(envelope.src, payload, span=span)

    def handle_query_forward(self, envelope: "Envelope") -> None:
        """A peer registry forwarded a query to us."""
        payload = envelope.payload
        if self._duplicate(payload.query_id):
            # Duplicate via another path (or of a query we are still
            # aggregating): answer empty so the parent's outstanding
            # counter drains without waiting for the timeout.
            self._respond(envelope.src, payload.query_id, [], 0)
            return
        span = self._query_span("registry.forward", envelope, payload)
        if not self._overload_shortcut(envelope.src, payload, span):
            self._scatter(envelope.src, payload, plan=self._plan_flood, span=span,
                          hops=envelope.hops + 1)

    def handle_decentral_query(self, envelope: "Envelope") -> None:
        """Registries answer fallback multicasts too — they are LAN nodes."""
        payload = envelope.payload
        hits = self._local_hits(payload)
        if hits:
            self.registry.send(envelope.src, protocol.DECENTRAL_RESPONSE,
                               protocol.ResponsePayload(query_id=payload.query_id,
                                                        hits=tuple(hits), responders=1))

    def _duplicate(self, query_id: str) -> bool:
        """Whether ``query_id`` was seen before (marking it seen if not).

        Checking live aggregation/walk state first is belt and braces
        against loop-table eviction: a duplicate of a query we are still
        aggregating must never restart it.
        """
        return query_id in self._pending or not self._seen.check_and_mark(query_id)

    def _query_span(self, name: str, envelope: "Envelope",
                    payload: protocol.QueryPayload) -> Span | None:
        """Open a processing span for a (non-duplicate) query envelope.

        The span continues the envelope's trace (or roots a new one for
        untraced senders) and becomes this dispatch's active context, so
        synchronous child sends parent to it automatically. The span is
        closed by :meth:`_respond` when the answer leaves.
        """
        registry = self.registry
        span = registry.span(
            name,
            lambda: {"query": registry.alias(payload.query_id), "from": envelope.src,
                     "ttl": payload.ttl},
            ctx=TraceRecorder.extract(envelope.headers),
        )
        if span is not None:
            registry._trace_ctx = span.context
        return span

    # -- local evaluation and the answer -------------------------------------------

    def _local_hits(self, payload: protocol.QueryPayload | protocol.WalkPayload, *,
                    parent: Span | None = None) -> list[QueryHit]:
        registry = self.registry
        evaluator = registry.evaluator
        before = evaluator.descriptions_evaluated
        hits = evaluator.evaluate(payload.model_id, payload.query,
                                  max_results=payload.max_results)
        evaluated = evaluator.descriptions_evaluated - before
        registry.observe("matchmaker.evals_per_query", evaluated, COUNT_BUCKETS)
        ctx = parent.context if parent is not None else registry._trace_ctx
        if ctx is not None:
            registry.note("registry.match", {"evaluated": evaluated, "hits": len(hits)},
                          ctx=ctx)
        return hits

    def _respond(self, dst: str, query_id: str, hits: list[QueryHit], responders: int,
                 *, span: Span | None = None, degraded: bool = False) -> None:
        """Answer ``dst``; with ``span``, the response rides (and closes)
        that span's trace — needed for completions that fire from timers,
        where no envelope context is active."""
        registry = self.registry
        self.responses_sent += 1
        registry.send(
            dst,
            protocol.QUERY_RESPONSE,
            protocol.ResponsePayload(
                query_id=query_id, hits=tuple(hits), responders=responders,
                degraded=degraded,
                # Piggyback our admission-queue depth: free load signal
                # for the receiver's router (rides in the fixed payload
                # overhead, so wire size — and delivery time — is
                # unchanged).
                queue_depth=registry.admission.depth,
            ),
            headers=registry.headers_for(span),
        )
        registry.end(span, attrs=lambda: {"hits": len(hits), "responders": responders})

    def _overload_shortcut(self, requester: str, payload: protocol.QueryPayload,
                           span: Span | None) -> bool:
        """Degraded mode: past the threshold, skip WAN fan-out entirely.

        A saturated registry stops multiplying its own load through the
        federation — it serves whatever its local store holds and marks
        the answer ``degraded=True`` so the client knows coverage was
        sacrificed for latency. Returns True when the query was answered
        here.
        """
        registry = self.registry
        if not registry.admission.overloaded:
            return False
        local = self._local_hits(payload, parent=span)
        registry.count("admission.degraded")
        registry.note("admission.degraded",
                      {"query": registry.alias(payload.query_id),
                       "depth": registry.admission.depth},
                      ctx=span.context if span is not None else registry._trace_ctx)
        self._respond(requester, payload.query_id, local, 1, span=span, degraded=True)
        return True

    # -- scatter: local hits, a plan, then the answer or a gather ---------------------

    def _scatter(self, requester: str, payload: protocol.QueryPayload, *, plan,
                 gather=None, span: Span | None = None, hops: int = 1,
                 on_complete=None) -> None:
        """Gather the local hits plus those of whoever ``plan`` names.

        ``plan(requester, payload, local)`` runs after local evaluation and
        returns a :class:`ScatterPlan`; naming nobody, the local hits are
        the answer. A query the model gate refused as another model's
        record is not planned: no registry can accept it, so its (empty)
        local hits are the answer. ``gather`` asks the targets (default:
        the fan-out). ``on_complete(hits, responders)`` defaults to
        answering ``requester``.
        """
        evaluator = self.registry.evaluator
        malformed = evaluator.queries_malformed
        local = self._local_hits(payload, parent=span)
        chosen = (plan(requester, payload, local)
                  if evaluator.queries_malformed == malformed else ScatterPlan([]))
        if on_complete is None:
            on_complete = partial(self._respond, requester, payload.query_id, span=span)
        if not chosen.targets:
            on_complete(local, 1)
            return
        (gather or self._fan_out)(payload, chosen, local, on_complete=on_complete,
                                  parent=span, hops=hops)

    def _gather(self, query_id: str, local: list[QueryHit], on_complete,
                **aggregation) -> None:
        """Await the answers to ``query_id`` beside ``local``; the completed
        aggregation leaves the in-flight map before ``on_complete`` runs."""
        def complete(hits: list[QueryHit], responders: int) -> None:
            self._pending.pop(query_id, None)
            on_complete(hits, responders)

        self._pending[query_id] = PendingAggregation(
            self.registry, query_id=query_id, local_hits=local, on_complete=complete,
            **aggregation,
        )

    def _plan_flood(self, requester: str, payload: protocol.QueryPayload,
                    local) -> ScatterPlan:
        """Every neighbor but the one we got it from, while TTL lasts."""
        if payload.ttl <= 0:
            return ScatterPlan([])
        return ScatterPlan(self.registry.federation.forward_targets({requester}),
                           payload.ttl - 1)

    def _plan_informed(self, requester: str, payload: protocol.QueryPayload,
                       local) -> ScatterPlan:
        """Route the query directly to summary-matching registries.

        Content summaries learned through gossip tell us *which* known
        registries plausibly hold matches; each gets the query with TTL 0
        (evaluate-locally-and-answer). Registries without summary overlap
        are never bothered — the bandwidth win over flooding; a stale or
        missing summary is the recall risk (measured in E13).
        """
        registry = self.registry
        terms = registry.models.query_terms(payload.model_id, payload.query)
        return ScatterPlan([
            rid for rid, desc in sorted(registry.federation.known.items())
            if rid != registry.node_id and desc.summary_terms
            and terms & frozenset(desc.summary_terms)
        ])

    def _fan_out(self, payload: protocol.QueryPayload, plan: ScatterPlan,
                 local: list[QueryHit], *, on_complete, parent: Span | None,
                 hops: int) -> None:
        """Forward to ``plan.targets`` and aggregate their responses.

        Targets whose circuit breaker is open are skipped entirely — not
        sent to, and not counted as outstanding — so a degraded-mode
        query completes as soon as the healthy neighbors answer instead
        of riding out the aggregation timeout for a suspected-dead peer.
        """
        registry = self.registry
        forwarded = payload.with_ttl(plan.ttl)
        allowed = [t for t in plan.targets if registry.federation.breaker_allows(t)]
        skipped = len(plan.targets) - len(allowed)
        if skipped:
            registry.recovered("breaker-skip", skipped, traced=False)
        # Best-first ordering; cooldown-failover may additionally skip
        # targets still cooling off after a BUSY/timeout (never all —
        # coverage beats caution when everyone looks sick).
        allowed, cooled = registry.router.usable(allowed)
        if cooled:
            registry.recovered("routing-cooldown-skip", cooled, traced=False)
        if not allowed:
            on_complete(QueryEvaluator.merge([local], max_results=forwarded.max_results), 1)
            return
        fanout = registry.span(
            "registry.fanout",
            lambda: {"query": registry.alias(forwarded.query_id), "targets": len(allowed),
                     "skipped": skipped, "ttl": forwarded.ttl},
            ctx=parent.context if parent is not None else registry._trace_ctx,
        )

        def done(hits: list[QueryHit], responders: int) -> None:
            registry.end(fanout, attrs=lambda: {"hits": len(hits), "responders": responders})
            on_complete(hits, responders)

        headers = registry.headers_for(fanout)

        def forward(targets: list[str]) -> list[str]:
            for target in targets:
                registry.send(target, protocol.QUERY_FORWARD, forwarded,
                              headers=headers, hops=hops)
                registry.rim.queries_forwarded += 1
            return targets

        on_retarget = None
        if plan.retarget is not None:
            def on_retarget(failed: list[str], contacted: tuple[str, ...]) -> list[str]:
                return forward(plan.retarget(failed, set(contacted)))

        self._gather(
            forwarded.query_id, local, done, targets=tuple(allowed),
            # The timeout must cover the *downstream* aggregation chain: a
            # child forwarding with TTL t may itself wait ~t units for its
            # own dead branches before answering. A flat per-hop timeout
            # would fire before deep responses arrive and silently drop
            # them.
            timeout=registry.config.aggregation_timeout * (forwarded.ttl + 1),
            max_results=forwarded.max_results,
            on_target_timeout=self._target_timeout,
            trace_ctx=fanout.context if fanout is not None else None,
            on_retarget=on_retarget,
        )
        forward(allowed)

    def _target_timeout(self, target: str) -> None:
        """A fan-out target stayed silent: suspicion for breaker + router."""
        self.registry.federation.record_neighbor_failure(target)
        self.registry.router.on_timeout(target)

    def handle_query_response(self, envelope: "Envelope") -> None:
        registry = self.registry
        payload = envelope.payload
        # Any answer is proof of life, even a late one.
        registry.federation.record_neighbor_success(envelope.src)
        pending = self._pending.get(payload.query_id)
        registry.router.on_response(
            envelope.src,
            # Late: no round-trip to attribute, but the depth is still fresh.
            rtt=registry.sim.now - pending.started_at if pending is not None else None,
            queue_depth=payload.queue_depth,
        )
        if pending is None:
            # The aggregation already completed (timeout or duplicate):
            # the response's work is wasted — count it so experiments can
            # report how much the timeout threw away.
            self.late_responses += 1
            registry.recovered("late-response", traced=False)
            if registry._trace_ctx is not None:
                # The response envelope still carries the original trace,
                # so late work stays attributable to the query that paid
                # for it.
                registry.note("late-response",
                              {"from": envelope.src,
                               "query": registry.alias(payload.query_id),
                               "hits": len(payload.hits)})
            return
        if registry._trace_ctx is not None:
            registry.note("aggregation.response",
                          {"from": envelope.src, "hits": len(payload.hits)})
        pending.add_response(payload, src=envelope.src)

    def handle_busy(self, envelope: "Envelope") -> None:
        """A peer registry shed our forwarded work.

        Persistent BUSY is treated like suspicion: it feeds the same
        circuit breaker as missed pongs and aggregation timeouts, so a
        chronically saturated neighbor drops out of the fan-out until it
        recovers. The pending aggregation drains immediately with an
        empty answer instead of riding out the timeout; a shed walk has
        nobody left to carry it on and ends here.
        """
        registry = self.registry
        payload = envelope.payload
        registry.federation.record_neighbor_failure(envelope.src)
        registry.router.on_busy(envelope.src, retry_after=payload.retry_after,
                                queue_depth=payload.queue_depth)
        registry.count("admission.busy_received")
        pending = self._pending.get(payload.request_id)
        if pending is None:
            return
        if payload.msg_type == protocol.WALK:
            pending.flush()
        else:
            pending.drain_target(envelope.src)

    # -- expanding ring ------------------------------------------------------------

    def _start_ring(self, client: str, payload: protocol.QueryPayload, *,
                    span: Span | None = None) -> None:
        """"Increasing the reach of a query gradually in several rounds."

        The rounds are floods with TTL 0, 1 and 2 while below the query's
        own TTL, then with that TTL, each under the round-scoped id
        ``{query_id}#r{i}``, so peers do not suppress it as a duplicate. Hits accumulate across
        rounds until they are enough or the schedule is exhausted; the
        answer counts one responder per round run. A query the model gate
        refused in round 0 (local only, so done at once) runs no other round.
        """
        ttls = [t for t in (0, 1, 2) if t < payload.ttl] + [payload.ttl]
        batches: list[list[QueryHit]] = []
        malformed = self.registry.evaluator.queries_malformed

        def run(i: int) -> None:
            def done(hits: list[QueryHit], _responders: int) -> None:
                batches.append(hits)
                merged = QueryEvaluator.merge(batches, max_results=payload.max_results)
                if _satisfied(merged, payload) or i + 1 >= len(ttls) \
                        or (i == 0 and self.registry.evaluator.queries_malformed != malformed):
                    self._respond(client, payload.query_id, merged, len(batches), span=span)
                else:
                    run(i + 1)

            self._scatter(client, replace(payload, query_id=f"{payload.query_id}#r{i}",
                                          ttl=ttls[i]),
                          plan=self._plan_flood, span=span, on_complete=done)

        run(0)

    # -- random walk ------------------------------------------------------------------
    #
    # "Random walks" instead of flooding: the query visits one registry
    # after another, each reporting its local matches straight back to the
    # registry that started the walk (WALK_HITS); the last one sends
    # WALK_END. The walk's aggregation has no target set: only WALK_END (or
    # a BUSY for the walk) completes it, or the timeout when it died.

    def _plan_walk(self, requester: str, payload: protocol.QueryPayload,
                   local: list[QueryHit]) -> ScatterPlan:
        """A next hop among the neighbors — unless the local hits are
        enough already, or a walk would end here anyway."""
        if _satisfied(local, payload) or payload.ttl <= 1:
            return ScatterPlan([])
        return ScatterPlan(self.registry.federation.forward_targets({requester}))

    def _walk(self, payload: protocol.QueryPayload, plan: ScatterPlan,
              local: list[QueryHit], *, on_complete, parent: Span | None,
              hops: int) -> None:
        """Start a walk to one of ``plan.targets`` and gather its reports;
        the walk visits ``payload.ttl`` registries, this one included."""
        me = self.registry.node_id
        # The timeout bounds the wait when the walk dies mid-way (crashed
        # registry, partition).
        self._gather(payload.query_id, local, on_complete,
                     timeout=self.registry.config.aggregation_timeout * payload.ttl,
                     max_results=payload.max_results)
        walk = protocol.WalkPayload(
            query_id=payload.query_id, model_id=payload.model_id, query=payload.query,
            coordinator=me, remaining=payload.ttl - 1, visited=(me,),
            max_results=payload.max_results,
        )
        self._hand_on(walk, plan.targets, hops=hops)

    def _hand_on(self, walk: protocol.WalkPayload, candidates: list[str], *,
                 hops: int) -> None:
        """Send the walk to its next hop, picked among ``candidates``."""
        registry = self.registry
        next_hop = registry.router.pick_walk(candidates, rng=registry.sim.rng)
        registry.send(next_hop, protocol.WALK, walk, hops=hops)
        registry.rim.queries_forwarded += 1

    def handle_walk(self, envelope: "Envelope") -> None:
        """A walk reached us: report our matches, pass it on or end it. A
        walk the model gate refused as another model's record ends here:
        no registry can accept it."""
        payload = envelope.payload
        registry = self.registry
        malformed = registry.evaluator.queries_malformed
        local = self._local_hits(payload)
        if local:
            registry.send(payload.coordinator, protocol.WALK_HITS,
                          protocol.ResponsePayload(query_id=payload.query_id,
                                                   hits=tuple(local), responders=1))
        visited = set(payload.visited) | {registry.node_id}
        candidates = [t for t in registry.federation.forward_targets({envelope.src})
                      if t not in visited]
        if payload.remaining <= 1 or not candidates \
                or registry.evaluator.queries_malformed != malformed:
            registry.send(payload.coordinator, protocol.WALK_END,
                          protocol.ResponsePayload(query_id=payload.query_id, hits=(),
                                                   responders=0))
            return
        self._hand_on(replace(payload, remaining=payload.remaining - 1,
                              visited=tuple(sorted(visited))),
                      candidates, hops=envelope.hops + 1)

    def handle_walk_hits(self, envelope: "Envelope") -> None:
        """One visited registry reported its local matches."""
        walk = self._pending.get(envelope.payload.query_id)
        if walk is not None:
            walk.add_response(envelope.payload)

    def handle_walk_end(self, envelope: "Envelope") -> None:
        """The walk reached its end: complete now."""
        walk = self._pending.get(envelope.payload.query_id)
        if walk is not None:
            walk.flush()
