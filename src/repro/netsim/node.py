"""Base class for protocol agents.

A :class:`Node` is anything with an address on the simulated network:
client nodes, service nodes, registry nodes. The paper's roles are
implemented as subclasses in :mod:`repro.core`.

Nodes are *fail-stop*: :meth:`crash` silently drops all in-flight timers
and future deliveries; :meth:`restart` brings the node back with empty
volatile state and starts it again, mirroring the paper's "service node
must try to find another connection point" responsibility. "Empty" is
enforced: a protocol agent builds that state in :meth:`Node.rebuild`,
which its constructor calls and a restart calls again, and
``tests/test_lifecycle.py`` checks that a restarted node equals a fresh
one up to a declared set of survivors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import NetworkError
from repro.netsim.messages import Envelope
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.tracing import TRACE_ID_HEADER, Span, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import Network
    from repro.netsim.simulator import EventHandle, PeriodicHandle, Simulator
    from repro.obs.health import HealthMonitor
    from repro.obs.metrics import MetricsRegistry

#: "Under the context of the envelope being handled" — the default of
#: :meth:`Node.note` / :meth:`Node.span`; ``ctx=None`` means under none.
_CURRENT: Any = object()


class Timer:
    """A cancellable one-shot timer bound to a node's lifetime.

    The callback never fires if the node crashed (or the timer was
    cancelled) between scheduling and expiry.
    """

    __slots__ = ("_node", "_handle", "_fired")

    def __init__(self, node: "Node", delay: float, fn: Callable[[], None]) -> None:
        self._node = node
        self._fired = False

        def guarded() -> None:
            self._fired = True
            node._timers.pop(self, None)
            if node.alive:
                fn()

        self._handle: "EventHandle" = node.sim.schedule(delay, guarded)
        node._timers[self] = None

    @property
    def pending(self) -> bool:
        """True until the timer fires or is cancelled."""
        return not self._fired and not self._handle.cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent."""
        self._handle.cancel()
        self._node._timers.pop(self, None)


class Node:
    """A network endpoint with mailbox dispatch and crash/restart semantics.

    Message dispatch goes through a per-node table built once at
    construction: every ``handle_<type>`` method is registered under its
    message type (``handle_registry_probe`` serves ``"registry-probe"``),
    and :meth:`adopt_handlers` adds those of a component the node owns —
    a subsystem that is switched off is simply never adopted. Types
    without an entry go to :meth:`handle_message`, which counts and
    silently discards them — the paper's "nodes quickly filter and
    silently discard messages they cannot understand". So does
    :meth:`receive` with a served type whose payload is not the record
    ``payload_records`` declares for it: no handler asks what it was handed.

    Where that count is all a delivery would do, :meth:`discards` says so,
    and the transport counts a multicast copy without building it or
    calling :meth:`receive`. A class that overrides ``receive``,
    ``dispatch`` or ``handle_message`` gets every copy unless it overrides
    :meth:`discards` too.
    """

    #: Role tag used by experiments for reporting; subclasses override.
    role = "node"
    #: Message type → the class its payload must be an instance of; the
    #: simulator knows no protocol, so a plain node is checked for nothing.
    payload_records: dict[str, type] = {}
    #: Whether a delivery to this class runs Node's own ``receive``,
    #: ``dispatch`` and ``handle_message``; set by :meth:`__init_subclass__`.
    _base_delivery = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if any(name in vars(cls) for name in ("receive", "dispatch", "handle_message")):
            cls._base_delivery = False

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.alive = True
        self.network: "Network | None" = None
        self.lan_name: str | None = None
        #: Pending timers only, in creation order: a timer leaves when it
        #: fires or is cancelled, so a long-lived node pins neither.
        self._timers: dict[Timer, None] = {}
        self._periodics: list["PeriodicHandle"] = []
        self.unknown_messages = 0
        self.malformed_messages = 0
        self.crash_count = 0
        #: Message type → handler; see the class docstring.
        self.handlers: dict[str, Callable[[Envelope], None]] = {}
        self.adopt_handlers(self)
        #: Registered by a node with a bounded service model (a registry
        #: under admission control): ``intercept(envelope)`` returns True
        #: to take the delivery over — queue, delay or shed it.
        self.interceptor: Any = None
        #: Causal context of the envelope currently being handled, set by
        #: :meth:`receive` for the duration of the dispatch. Synchronous
        #: sends made inside a handler inherit it automatically; work
        #: completed later from timers must thread the context explicitly.
        self._trace_ctx: tuple[int, int] | None = None

    # -- wiring ---------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        """The simulator this node is attached to."""
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not attached to a network")
        return self.network.sim

    @property
    def trace(self) -> "TraceRecorder | None":
        """This run's trace recorder (``None`` while unattached)."""
        return self.network.sim.trace if self.network is not None else None

    @property
    def metrics(self) -> "MetricsRegistry | None":
        """This run's metrics registry (``None`` while unattached)."""
        return self.network.metrics if self.network is not None else None

    def attached(self, network: "Network", lan_name: str) -> None:
        """Called by :meth:`Network.add_node`; do not call directly."""
        self.network = network
        self.lan_name = lan_name

    # -- reporting ------------------------------------------------------
    #
    # How a protocol agent says what happened: one line, on its node. Only
    # these functions know whether the node is attached, where the run's
    # books are, which context is current and how a record is packed; an
    # unattached node reports nothing and raises nothing. Every call looks
    # the books and their methods up afresh (``benchmarks/perf`` wraps them
    # on their classes mid-run): nothing here is cached.

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the run's counter ``name``."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(name).inc(n)

    def observe(self, name: str, value: float,
                buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        """One sample for the run's histogram ``name`` (``buckets`` shape
        it where this sample is its first)."""
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram(name, buckets=buckets).observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the run's gauge ``name``, timed at the simulated now."""
        metrics = self.metrics
        if metrics is not None:
            metrics.gauge(name).set(value, now=self.sim.now)

    def alias(self, raw_id: str) -> str:
        """``raw_id`` as the run-local token a trace attribute may carry."""
        trace = self.trace
        return trace.alias(raw_id) if trace is not None else raw_id

    def note(self, name: str,
             attrs: dict[str, Any] | Callable[[], dict[str, Any]] | None = None, *,
             ctx: tuple[int, int] | None = _CURRENT) -> None:
        """Record the instant event ``name`` at this node. ``attrs`` is a
        dict because its order is the export's order and ``"from"`` /
        ``"class"`` are keys; it may be a function that builds them, called
        only when somebody listens (the event is still recorded, so the
        sequence number advances either way)."""
        trace = self.trace
        if trace is not None:
            if callable(attrs):
                attrs = attrs() if trace.listening else None
            trace.event(name, node=self.node_id, attrs=attrs,
                        ctx=self._trace_ctx if ctx is _CURRENT else ctx)

    def recovered(self, kind: str, n: int = 1, attrs: dict[str, Any] | None = None,
                  *, traced: bool = True) -> None:
        """``n`` self-healing events of ``kind``: the ``recovery.<kind>``
        counter and (unless ``traced=False``) an event of the same name move
        together."""
        self.count(f"recovery.{kind}", n)
        if traced:
            self.note(kind, attrs)

    def span(self, name: str,
             attrs: dict[str, Any] | Callable[[], dict[str, Any]] | None = None, *,
             ctx: tuple[int, int] | None = _CURRENT) -> Span | None:
        """Open the span ``name`` at this node (``None`` while unattached or
        unlistened); ``ctx=None`` roots a new trace. ``attrs`` may be a
        function that builds them: a hot path passes one, and it is called
        only when somebody listens."""
        trace = self.trace
        if trace is None:
            return None
        if callable(attrs):
            attrs = attrs() if trace.listening else None
        return trace.start_span(name, node=self.node_id, attrs=attrs,
                                ctx=self._trace_ctx if ctx is _CURRENT else ctx)

    def end(self, span: Span | None, *, status: str = "ok",
            attrs: dict[str, Any] | Callable[[], dict[str, Any]] | None = None) -> None:
        """Close ``span`` (the first close wins; ``None`` is nothing to
        close). ``attrs`` may be a function that builds them, called only
        for a real span."""
        if span is not None:
            self.trace.end_span(span, status=status,
                                attrs=attrs() if callable(attrs) else attrs)

    @staticmethod
    def headers_for(span: Span | None) -> dict[str, Any] | None:
        """Headers that put a message under ``span`` — for sends made from
        timers, where no envelope's context is current."""
        return None if span is None else TraceRecorder.inject({}, span.context)

    def _health(self) -> "HealthMonitor | None":
        """The run's health monitor where this node is attached and the
        deployment built one — for what has no trace record it could
        listen to."""
        return self.network.health if self.network is not None else None

    def answered(self, request_class: str, *, ok: bool, latency: float = 0.0) -> None:
        """One finished request of ``request_class``, for the SLO windows."""
        health = self._health()
        if health is not None:
            health.record_request(request_class, ok=ok, latency=latency)

    # -- lifecycle ------------------------------------------------------

    def rebuild(self) -> None:
        """Build the volatile state — everything a crash loses. A protocol
        agent's constructor calls it and :meth:`restart` calls it again.
        Default: a plain node keeps none."""

    def start(self) -> None:
        """Begin protocol activity. Subclasses override; default is a no-op."""

    def cancel_tasks(self) -> None:
        """Cancel every pending timer and periodic task on this node.

        Used by :meth:`crash` and by role changes (e.g. a standby registry
        demoting itself) that must stop activity without dying.
        """
        for timer in list(self._timers):
            timer.cancel()
        for periodic in self._periodics:
            periodic.stop()
        self._periodics.clear()

    def crash(self) -> None:
        """Fail-stop: stop all timers and ignore all future deliveries."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self.cancel_tasks()
        self.on_crash()
        health = self._health()
        if health is not None:
            health.on_node_crash(self.node_id)

    def restart(self) -> None:
        """Bring a crashed node back up: rebuild its volatile state, start
        it as if new, then run :meth:`on_restart`."""
        if self.alive:
            return
        self.alive = True
        self.rebuild()
        self.start()
        self.on_restart()
        health = self._health()
        if health is not None:
            health.on_node_restart(self.node_id)

    def on_crash(self) -> None:
        """Hook invoked after a crash to settle work in flight. Default: no-op."""

    def on_restart(self) -> None:
        """Hook invoked after a restart's rebuild and start. Default: no-op."""

    def on_moved(self, old_lan: str, new_lan: str) -> None:
        """Hook invoked after the node roamed to another LAN. Default: no-op."""

    # -- timers ---------------------------------------------------------

    def after(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` once after ``delay`` seconds, unless this node crashes."""
        return Timer(self, delay, fn)

    def every(
        self, interval: float, fn: Callable[[], None], *, initial_delay: float | None = None
    ) -> "PeriodicHandle":
        """Run ``fn`` every ``interval`` seconds while this node is alive."""

        def guarded() -> None:
            if self.alive:
                fn()

        handle = self.sim.every(interval, guarded, initial_delay=initial_delay)
        self._periodics.append(handle)
        return handle

    # -- messaging ------------------------------------------------------

    def send(
        self,
        dst: str,
        msg_type: str,
        payload: Any = None,
        *,
        payload_type: str | None = None,
        headers: dict[str, Any] | None = None,
        hops: int = 0,
    ) -> Envelope:
        """Unicast a message to node ``dst``. Returns the envelope sent.

        ``hops`` seeds the envelope's hop counter: forwarding handlers
        that repackage a payload into a *new* envelope (query fan-out,
        walks) pass the incoming ``envelope.hops + 1`` so path length
        survives re-enveloping.
        """
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not attached to a network")
        envelope = Envelope(
            msg_type=msg_type,
            src=self.node_id,
            dst=dst,
            payload=payload,
            payload_type=payload_type,
            headers=self._with_trace(headers),
            hops=hops,
        )
        self.network.unicast(envelope)
        return envelope

    def multicast(
        self,
        msg_type: str,
        payload: Any = None,
        *,
        payload_type: str | None = None,
        headers: dict[str, Any] | None = None,
    ) -> Envelope:
        """Multicast a message on this node's own LAN (local scope only —
        the paper rules out WAN multicast as "too heavy a burden")."""
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not attached to a network")
        envelope = Envelope(
            msg_type=msg_type,
            src=self.node_id,
            dst=None,
            payload=payload,
            payload_type=payload_type,
            headers=self._with_trace(headers),
        )
        self.network.multicast(envelope)
        return envelope

    def _with_trace(self, headers: dict[str, Any] | None) -> dict[str, Any]:
        """Copy ``headers``, propagating the active causal context.

        Explicit trace headers win; otherwise a send made while handling
        a traced envelope inherits that envelope's context, so response
        and forwarding hops stay on the originating trace without every
        call site knowing about tracing.
        """
        out = dict(headers or {})
        if self._trace_ctx is not None and TRACE_ID_HEADER not in out:
            TraceRecorder.inject(out, self._trace_ctx)
        return out

    def forward(self, envelope: Envelope, dst: str) -> Envelope:
        """Re-send ``envelope`` to ``dst`` with this node as the hop source."""
        if self.network is None:
            raise NetworkError(f"node {self.node_id!r} is not attached to a network")
        copy = envelope.forwarded(self.node_id, dst)
        self.network.unicast(copy)
        return copy

    # -- dispatch -------------------------------------------------------

    def receive(self, envelope: Envelope) -> None:
        """Entry point called by the network on delivery."""
        if not self.alive:
            return
        expected = self.payload_records.get(envelope.msg_type)
        if expected is not None and envelope.payload.__class__ is not expected \
                and self.malformed(envelope):  # the call only for a near miss
            return
        gate = self.interceptor
        if gate is not None and gate.intercept(envelope):
            return
        self.dispatch(envelope)

    def malformed(self, envelope: Envelope) -> bool:
        """Whether ``envelope`` is of a type this node serves and carries
        something other than the record declared for it — then it is
        counted and silently discarded, here and nowhere else."""
        expected = self.payload_records.get(envelope.msg_type)
        if expected is None or isinstance(envelope.payload, expected) \
                or envelope.msg_type not in self.handlers:
            return False
        self.malformed_messages += 1
        self.count("protocol.malformed")
        self.note("protocol.malformed", {"from": envelope.src, "type": envelope.msg_type},
                  ctx=TraceRecorder.extract(envelope.headers))
        return True

    def adopt_handlers(self, component: Any) -> None:
        """Register ``component``'s ``handle_<type>`` methods for the
        message types they name; entries already present (the node's own
        handlers come first) take precedence."""
        for name in dir(type(component)):
            if name.startswith("handle_") and name != "handle_message":
                msg_type = name[len("handle_"):].replace("_", "-")
                self.handlers.setdefault(msg_type, getattr(component, name))

    def dispatch(self, envelope: Envelope) -> None:
        """Route ``envelope`` to its handler (possibly after queueing)."""
        self._trace_ctx = TraceRecorder.extract(envelope.headers)
        try:
            handler = self.handlers.get(envelope.msg_type)
            if handler is not None:
                handler(envelope)
            else:
                self.handle_message(envelope)
        finally:
            self._trace_ctx = None

    def handle_message(self, envelope: Envelope) -> None:
        """Fallback handler for message types without a dedicated method."""
        self.unknown_messages += 1

    def discards(self, msg_type: str) -> bool:
        """Whether a delivery of ``msg_type`` would do nothing here but
        add one to ``unknown_messages``: no handler serves the type, no
        interceptor may take it over, and the delivery path is Node's own.
        The transport then counts the copy instead of delivering it."""
        return (msg_type not in self.handlers and self.interceptor is None
                and self._base_delivery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} lan={self.lan_name} {state}>"
