"""The client node: discovers registries, queries, falls back, fails over.

"A client node … first has to discover whether there are any registry
nodes available. When a client has obtained a connection to the registry
network, it can issue a query. Based on the response it gets, it may
invoke the service directly."

The client exposes an asynchronous :meth:`ClientNode.discover` returning a
:class:`DiscoveryCall` handle that experiments inspect after running the
simulator. The client keeps no history of its calls: once a call is
answered, the caller's handle is the only one. Failure handling follows
the paper:

* query timeout → the current registry is presumed dead → fail over to a
  signalling-provided alternative (E9) and retry;
* no registry at all → decentralized LAN multicast fallback (Fig. 3,
  right-hand mode, E6) when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import protocol
from repro.core.bootstrap import RegistryTracker
from repro.core.config import DiscoveryConfig
from repro.core.retry import RetryPolicy
from repro.core.routing import router_for
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.obs.tracing import Span
from repro.registry.advertisements import new_uuid
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceRequest

#: Backoff between query attempts (failover retries) and the attempt
#: budget of one call.
QUERY_RETRY = RetryPolicy(base=0.2, cap=2.0, max_attempts=3)


@dataclass
class Watch:
    """A standing query: hits arrive as services are published.

    Created by :meth:`ClientNode.watch`. The client keeps the
    subscription alive (periodic re-subscribe, the lease principle) and
    re-establishes it after registry failover.
    """

    sub_id: str
    request: ServiceRequest
    model_id: str
    created_at: float
    hits: list[QueryHit] = field(default_factory=list)
    notified_at: list[float] = field(default_factory=list)
    acked: bool = False
    active: bool = True

    def service_names(self) -> list[str]:
        """Names of all services notified so far, in arrival order."""
        return [hit.advertisement.service_name for hit in self.hits]


@dataclass
class _Attempt:
    """The one registry attempt a call has in flight: who was asked,
    when, and the span that closes when the attempt ends — by a
    response, a timeout, a BUSY or a crash."""

    registry: str
    sent_at: float
    span: Span | None


@dataclass
class DiscoveryCall:
    """Handle for one discovery operation.

    ``responses`` counts response *messages* received (the decentralized
    "response implosion" metric of E2); ``response_bytes`` their wire
    size; ``responders`` the registries/services that evaluated the query.
    """

    query_id: str
    request: ServiceRequest
    model_id: str
    issued_at: float
    hits: list[QueryHit] = field(default_factory=list)
    via: str = ""
    attempts: int = 1
    ttl: int = 0
    #: The registry the latest attempt was sent to ("" = none/fallback).
    sent_to: str = ""
    responses: int = 0
    response_bytes: int = 0
    responders: int = 0
    completed_at: float = 0.0
    #: Times :meth:`ClientNode._complete` ran for this call: the only
    #: count of it, so a call is completed exactly when it is positive.
    #: The client reports a second completion to the invariant checker.
    completions: int = 0
    #: Set by the synchronous driver when its deadline elapsed first.
    timed_out: bool = False
    #: BUSY rejections received across this call's attempts.
    busy_responses: int = 0
    #: True when the answering registry was overloaded and skipped WAN
    #: fan-out — hits are valid but coverage was best-effort.
    degraded: bool = False
    #: Client-local call index, from ``ClientNode.calls_issued``; keys
    #: retry jitter (query ids come from a process-global counter, so they
    #: are not stable run to run).
    seq: int = 0
    #: Absolute sim-time budget for registry attempts: a server-suggested
    #: retry delay is never scheduled past this point (satellite fix for
    #: the "retry dies in the timeout instead of failing over" bug).
    deadline: float = float("inf")
    #: Recorder-local trace id of this call's root span (None unless a
    #: trace capture or observer listens). All retries share it.
    trace_id: int | None = None
    _fallback_batches: list[list[QueryHit]] = field(default_factory=list)
    _span: Span | None = field(default=None, repr=False)
    _attempt: _Attempt | None = field(default=None, repr=False)

    @property
    def completed(self) -> bool:
        """Answered, failed or crashed: :meth:`ClientNode._complete` ran."""
        return self.completions > 0

    @property
    def succeeded(self) -> bool:
        """Completed with at least one hit."""
        return self.completed and bool(self.hits)

    @property
    def latency(self) -> float:
        """Seconds from issue to completion (0 while incomplete)."""
        return (self.completed_at - self.issued_at) if self.completed else 0.0

    def service_names(self) -> list[str]:
        """Names of the discovered services, best first."""
        return [hit.advertisement.service_name for hit in self.hits]

    def endpoints(self) -> list[str]:
        """Endpoints to invoke, best first."""
        return [hit.advertisement.endpoint for hit in self.hits]


class ClientNode(Node):
    """A consumer node issuing discovery queries."""

    role = "client"
    payload_records = protocol.MESSAGE_RECORDS

    def __init__(
        self,
        node_id: str,
        config: DiscoveryConfig,
        models: list[DescriptionModel],
        *,
        seeds: tuple[str, ...] = (),
    ) -> None:
        super().__init__(node_id)
        self.config = config
        self.models = ModelRegistry(models)
        self.router = router_for(config.routing, self)
        self.tracker = RegistryTracker(self, config,
                                       on_attached=self._on_attached,
                                       router=self.router, seeds=seeds)
        self.adopt_handlers(self.tracker)
        #: Calls issued so far; the next call's ``seq``.
        self.calls_issued = 0
        #: ``(query_id, completions)`` of each call completed more than
        #: once — what :func:`~repro.core.invariants.check_invariants`
        #: reports; empty unless the bookkeeping is broken.
        self.recompleted: list[tuple[str, int]] = []
        self.watches: dict[str, Watch] = {}
        self.fallback_queries = 0
        self.query_retries = 0
        self.busy_rejections = 0
        self.artifacts_fetched: dict[str, Ontology] = {}
        self.rebuild()

    # -- lifecycle ------------------------------------------------------------

    def rebuild(self) -> None:
        """No call awaiting an answer, a fresh router, no attachment; a
        restart keeps the count of calls issued, the watches, and the
        registries heard of."""
        #: Calls awaiting an answer, by the wire id of the attempt (or
        #: fallback multicast) in flight.
        self._by_wire_id: dict[str, DiscoveryCall] = {}
        self.router.rebuild()
        self.tracker.rebuild()

    def start(self) -> None:
        self.tracker.bootstrap()
        self.tracker.start_signalling_refresh()
        # Keep standing queries alive across their lease horizon.
        self.every(self.config.renew_interval, self._refresh_watches)

    def _on_attached(self, registry_id: str) -> None:
        """New registry attachment: re-establish standing queries there."""
        for watch in self.watches.values():
            if watch.active:
                self._send_subscribe(watch, registry_id)

    def on_crash(self) -> None:
        """Fail every in-flight call so bookkeeping drains with the node.

        A crashed client can never receive the responses it is waiting
        for; leaving the calls pending would undercount failures in
        experiments.
        """
        in_flight, self._by_wire_id = self._by_wire_id, {}
        for wire_id in sorted(in_flight):
            self._end_attempt(in_flight[wire_id], status="crashed")
        for call in in_flight.values():
            if not call.completed:
                self._complete(call, [], via="crashed")

    def on_moved(self, old_lan: str, new_lan: str) -> None:
        """Roamed: rebuild the attachment state — router, and a tracker
        that forgets the old LAN's registries — and bootstrap here. Calls
        in flight carry on; watches re-subscribe on the next attachment."""
        self.router.rebuild()
        self.tracker.rebuild(forget=True)
        self.tracker.bootstrap()

    # -- the public discovery API ------------------------------------------------

    def discover(
        self,
        request: ServiceRequest,
        *,
        model_id: str = "semantic",
        ttl: int | None = None,
    ) -> DiscoveryCall:
        """Issue a discovery query; returns immediately with the call handle.

        Run the simulator to let the call complete; then read
        ``call.hits``. ``ttl`` overrides the configured registry-network
        forwarding radius.
        """
        call = DiscoveryCall(
            query_id=new_uuid("q"),
            request=request,
            model_id=model_id,
            issued_at=self.sim.now,
            ttl=self.config.default_ttl if ttl is None else ttl,
            seq=self.calls_issued,
            # Worst-case registry-phase budget: every attempt running its
            # full timeout. Server retry hints are clamped to what is left.
            deadline=self.sim.now
            + QUERY_RETRY.max_attempts * self.config.query_timeout,
        )
        # The root span of the whole discovery trace; every retry, forward,
        # and (late) response hangs off it.
        call._span = self.span(
            "client.query", {"query": self.alias(call.query_id), "model": model_id},
            ctx=None)
        if call._span is not None:
            call.trace_id = call._span.trace_id
        self.calls_issued += 1
        self._dispatch(call)
        return call

    def _query_payload(self, call: DiscoveryCall) -> protocol.QueryPayload:
        """``call``'s query under the wire id of its current attempt —
        retries use fresh wire ids so loop suppression cannot eat them."""
        return protocol.QueryPayload(
            query_id=f"{call.query_id}/{call.attempts}",
            model_id=call.model_id,
            query=self.models.get(call.model_id).query_from(call.request),
            max_results=call.request.max_results,
            ttl=call.ttl,
        )

    def _dispatch(self, call: DiscoveryCall) -> None:
        if call.completed:
            # A backoff-delayed retry can race a crash-time completion.
            return
        payload = self._query_payload(call)
        wire_id = payload.query_id
        registry = self.tracker.current
        if registry is not None:
            # Load-aware per-query selection: the attachment stays where
            # it is (publishing, subscriptions), but each query may go to
            # whichever same-LAN sibling looks healthiest right now. The
            # attachment remains the tie-break default, so cold-start
            # behavior keeps the tracker's even hash-spread.
            local = sorted(
                rid for rid, desc in self.tracker.known.items()
                if desc.lan_name == self.lan_name
            )
            registry = self.router.select(local, default=registry)
            # Register the wire id only on paths that await a response —
            # an immediate failure must not strand a map entry.
            self._by_wire_id[wire_id] = call
            call._attempt = attempt = _Attempt(registry, self.sim.now, None)
            call.via = f"registry:{registry}"
            call.sent_to = registry
            if call._span is not None:
                attempt.span = self.span(
                    "client.attempt", {"attempt": call.attempts, "registry": registry},
                    ctx=call._span.context)
            self.send(registry, protocol.QUERY, payload, payload_type=call.model_id,
                      headers=self.headers_for(attempt.span))
            self.after(self.config.query_timeout, lambda: self._query_timed_out(call, wire_id))
        elif self.config.fallback_enabled:
            self._fallback(call, payload)
        else:
            self._complete(call, [], via="failed")

    def _end_attempt(
        self, call: DiscoveryCall, *, status: str = "ok",
        attrs: dict[str, object] | None = None,
    ) -> _Attempt | None:
        """Take ``call``'s in-flight attempt (if any), closing its span."""
        attempt, call._attempt = call._attempt, None
        if attempt is not None:
            self.end(attempt.span, status=status, attrs=attrs)
        return attempt

    def _query_timed_out(self, call: DiscoveryCall, wire_id: str) -> None:
        if not call.completed and self._by_wire_id.get(wire_id) is call:
            self._attempt_over(call, wire_id)

    def _attempt_over(
        self, call: DiscoveryCall, wire_id: str,
        busy: protocol.BusyPayload | None = None,
    ) -> None:
        """The attempt under ``wire_id`` got no answer: it timed out, or
        the registry shed it (``busy``). Retry, fall back, or fail.

        A timeout blames the registry and retries on our own capped
        exponential backoff, if another registry is there to take the
        retry. A BUSY means the registry is *saturated*, not dead: the
        retry waits out the server's ``retry_after`` (it knows its
        backlog better than we can guess) and only the second BUSY from
        the same attachment — or a hint that cannot fit the deadline —
        moves to a sibling registry. With the attempt budget spent, the
        decentralized LAN fallback answers from the services directly.
        """
        del self._by_wire_id[wire_id]
        attempt = self._end_attempt(call, status="timeout" if busy is None else "busy")
        # Only blame the registry this attempt used while it is still
        # "current": a concurrent failover already replaced it otherwise,
        # and the (possibly healthy) new attachment must not be evicted.
        attached = self.tracker.current == attempt.registry
        policy = QUERY_RETRY
        call.attempts += 1
        retry = call.attempts <= policy.max_attempts
        hint = budget = None
        if busy is None:
            self.router.on_timeout(attempt.registry)
            replacement = self.tracker.registry_failed() if attached \
                else self.tracker.current
            retry = retry and replacement is not None
        else:
            self.busy_rejections += 1
            call.busy_responses += 1
            budget = call.deadline - self.sim.now
            retry = retry and budget > 0
            if retry:
                # A hint that cannot fit the remaining deadline would just
                # die in the query timeout: fail over now and retry on our
                # own (budget-clamped) schedule instead.
                unaffordable = busy.retry_after > budget
                hint = None if unaffordable else busy.retry_after
                if attached and (unaffordable or call.busy_responses >= 2):
                    self.tracker.registry_failed()
        if retry:
            # Deterministic jitter keyed by the call, so concurrent
            # clients de-synchronize instead of stampeding the
            # replacement registry.
            self.query_retries += 1
            self.network.stats.record_retry("query" if busy is None else "query-busy")
            delay = policy.delay(
                call.attempts - 1, seed=self.sim.seed,
                key=f"{self.node_id}/{call.seq}",
                retry_after=hint, budget=budget,
            )
            if call._span is not None:
                self.note("query.retry" if busy is None else "query.busy",
                          {"attempt": call.attempts,
                           "delay" if busy is None else "retry_after": delay},
                          ctx=call._span.context)
            self.after(delay, lambda: self._dispatch(call))
        elif self.config.fallback_enabled:
            self._fallback(call, self._query_payload(call))
        else:
            self._complete(call, [], via="failed")

    # -- decentralized fallback ------------------------------------------------------

    def _fallback(self, call: DiscoveryCall, payload: protocol.QueryPayload) -> None:
        """Fig. 3 right-hand mode: multicast the query, collect replies."""
        self.fallback_queries += 1
        call.via = "fallback"
        wire_id = payload.query_id
        self._by_wire_id[wire_id] = call
        if call._span is not None:
            self.note("client.fallback", {"attempt": call.attempts},
                      ctx=call._span.context)
        self.multicast(protocol.DECENTRAL_QUERY, payload, payload_type=call.model_id,
                       headers=self.headers_for(call._span))
        self.after(
            self.config.fallback_timeout,
            lambda: self._fallback_done(call, wire_id),
        )

    def handle_decentral_response(self, envelope: Envelope) -> None:
        payload = envelope.payload
        call = self._by_wire_id.get(payload.query_id)
        if call is None or call.completed:
            return
        call.responses += 1
        call.response_bytes += envelope.size_bytes
        call.responders += payload.responders
        call._fallback_batches.append(list(payload.hits))

    def _fallback_done(self, call: DiscoveryCall, wire_id: str) -> None:
        # Drain the wire-id entry unconditionally: even a call completed
        # through another path must not leave its fallback entry behind.
        self._by_wire_id.pop(wire_id, None)
        if call.completed:
            return
        merged = QueryEvaluator.merge(
            call._fallback_batches, max_results=call.request.max_results
        )
        self._complete(call, merged, via="fallback")

    # -- responses ----------------------------------------------------------------------

    def handle_query_response(self, envelope: Envelope) -> None:
        payload = envelope.payload
        call = self._by_wire_id.pop(payload.query_id, None)
        if call is None or call.completed:
            return
        attempt = self._end_attempt(call, attrs={"hits": len(payload.hits)})
        if attempt is not None:
            # Passive health: the answered attempt's round-trip plus the
            # registry's piggybacked queue depth feed target selection.
            self.router.on_response(
                envelope.src,
                rtt=self.sim.now - attempt.sent_at,
                queue_depth=payload.queue_depth,
            )
        call.responses += 1
        call.response_bytes += envelope.size_bytes
        call.responders += payload.responders
        call.degraded = payload.degraded
        self._complete(call, list(payload.hits), via=call.via)

    def handle_busy(self, envelope: Envelope) -> None:
        """The registry shed this query attempt: see :meth:`_attempt_over`."""
        payload = envelope.payload
        # A BUSY is a health signal about its sender whatever happens to
        # the call below (no-op under the static strategy).
        self.router.on_busy(
            envelope.src,
            retry_after=payload.retry_after,
            queue_depth=payload.queue_depth,
        )
        call = self._by_wire_id.get(payload.request_id)
        if call is None or call.completed:
            # Late BUSY: the attempt already timed out, completed, or was
            # re-keyed by a retry — nothing to account or resurrect.
            return
        if call.via == "fallback":
            # A saturated registry also sheds DECENTRAL_QUERY multicasts,
            # but the fallback completes on its own timer from whatever
            # the service nodes answered — nothing to retry, and the
            # shared busy_rejections counter must not double-count a call
            # that already paid for its registry-path rejections.
            return
        self._attempt_over(call, payload.request_id, payload)

    def _complete(self, call: DiscoveryCall, hits: list[QueryHit], *, via: str) -> None:
        call.completions += 1
        if call.completions > 1:
            self.recompleted.append((call.query_id, call.completions))
        call.hits = hits
        call.via = via
        call.completed_at = self.sim.now
        # Only ``hits`` is read from here on; late replies return early.
        call._fallback_batches.clear()
        failed = via in ("failed", "crashed")
        self.observe("query.e2e_latency", call.latency)
        self.answered("query", ok=not failed, latency=call.latency)
        self.end(call._span, status=via if failed else ("ok" if hits else "empty"),
                 attrs={"via": via, "hits": len(hits), "attempts": call.attempts})

    # -- standing queries (notification extension) ----------------------------------------

    def watch(self, request: ServiceRequest, *, model_id: str = "semantic") -> Watch:
        """Register interest in future matching advertisements.

        Returns a :class:`Watch` that accumulates notified hits. The
        subscription is leased: this client refreshes it periodically and
        re-registers it after failover.
        """
        watch = Watch(
            sub_id=new_uuid("sub"),
            request=request,
            model_id=model_id,
            created_at=self.sim.now,
        )
        self.watches[watch.sub_id] = watch
        registry = self.tracker.current
        if registry is not None:
            self._send_subscribe(watch, registry)
        return watch

    def unwatch(self, watch: Watch) -> None:
        """Cancel a standing query."""
        watch.active = False
        registry = self.tracker.current
        if registry is not None:
            self.send(registry, protocol.UNSUBSCRIBE,
                      protocol.UnsubscribePayload(sub_id=watch.sub_id))

    def _send_subscribe(self, watch: Watch, registry: str) -> None:
        model = self.models.get(watch.model_id)
        self.send(
            registry,
            protocol.SUBSCRIBE,
            protocol.SubscribePayload(
                sub_id=watch.sub_id,
                model_id=watch.model_id,
                query=model.query_from(watch.request),
                duration=self.config.lease_duration,
            ),
            payload_type=watch.model_id,
        )

    def _refresh_watches(self) -> None:
        registry = self.tracker.current
        if registry is None:
            return
        for watch in self.watches.values():
            if watch.active:
                self._send_subscribe(watch, registry)

    def handle_subscribe_ack(self, envelope: Envelope) -> None:
        watch = self.watches.get(envelope.payload.sub_id)
        if watch is not None:
            watch.acked = True

    def handle_notify(self, envelope: Envelope) -> None:
        payload = envelope.payload
        watch = self.watches.get(payload.sub_id)
        if watch is None or not watch.active:
            return
        # De-duplicate by advertisement UUID (failover re-subscription can
        # replay publishes).
        known = {hit.advertisement.ad_id for hit in watch.hits}
        if payload.hit.advertisement.ad_id in known:
            return
        watch.hits.append(payload.hit)
        watch.notified_at.append(self.sim.now)

    # -- artifact fetching (§4.6) ----------------------------------------------------------

    def fetch_artifact(self, name: str) -> None:
        """Ask the current registry for an artifact (e.g. an ontology).

        On arrival, an ontology is attached to this client's semantic
        description model only if that model cannot evaluate yet, enabling
        local evaluation (E12); a model that already evaluates keeps its
        matchmaker.
        """
        registry = self.tracker.current
        if registry is None:
            return
        self.send(
            registry,
            protocol.ARTIFACT_REQUEST,
            protocol.ArtifactRequestPayload(artifact_name=name),
        )

    def handle_artifact_reply(self, envelope: Envelope) -> None:
        """Keep the artifact, and offer it to the models that cannot
        evaluate yet: one that can keeps the matchmaker it has."""
        payload = envelope.payload
        if payload.artifact is None:
            return
        self.artifacts_fetched[payload.artifact_name] = payload.artifact
        for model in self.models:
            if not model.can_evaluate():
                model.accept_artifact(payload.artifact)
