"""Causal tracing for the discovery fabric, in sim-time.

A :class:`TraceRecorder` is owned by the
:class:`~repro.netsim.simulator.Simulator` and records **spans** (timed
operations: a client query, a registry fan-out) and **events** (instant
marks: a lease expiry, a breaker opening) as the simulation executes. The
causal context — ``(trace_id, span_id)`` — rides across hops inside
:attr:`~repro.netsim.messages.Envelope.headers` under
:data:`TRACE_ID_HEADER` / :data:`SPAN_ID_HEADER`, so one client query can
be followed end-to-end through registry receive, matchmaking, WAN
fan-out, aggregation, and the response (late ones included).

Recording is not retaining. The recorder keeps no records of its own: it
hands them to its listeners as they happen — a :class:`TraceCapture`
(``recorder.capture()``), which keeps every span and event for reading
after the run, and the ``observers`` registered with
:meth:`TraceRecorder.listen` (the health layer's flight recorders), which
get each closed span and each event as a plain dict. A recorder nobody
listens to opens no span, builds no event and interns no id: a node's
context stays ``None``, so no header carries one and
``DiscoveryCall.trace_id`` is ``None``. A long run's memory is bounded by
what its agents hold, not by its length.

Determinism contract
--------------------
Exports must be byte-identical across two same-seed runs *in the same
process*. Three rules make that hold:

* trace/span ids are allocated from recorder-local counters (never from
  the process-global UUID counters, which keep advancing between runs);
* raw wire ids (query ids, ad ids, lease ids) never enter a record
  directly — :meth:`TraceRecorder.alias` interns them into run-local
  tokens like ``q~3`` in first-seen order, which *is* deterministic
  because event order is seed-deterministic;
* listeners are attached before the first record (right after the system
  is built: node starts are scheduled, so nothing is recorded before the
  first ``run()``). :meth:`TraceRecorder.capture` and
  :meth:`TraceRecorder.listen` raise :class:`RuntimeError` after that — a
  late capture would miss records and alias ids in a different order.

All timestamps are ``sim.now`` floats; the wall clock is never read.
:meth:`TraceCapture.export_jsonl` emits records in creation order with
sorted keys and canonical separators, so the bytes are a pure function of
the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

#: Envelope header keys carrying the causal context across hops. Headers
#: are free in the byte-size model, so tracing never perturbs bandwidth
#: accounting or medium occupancy.
TRACE_ID_HEADER = "trace-id"
SPAN_ID_HEADER = "span-id"

#: A propagated causal context: (trace_id, span_id).
TraceContext = "tuple[int, int]"


@dataclass(slots=True)
class Span:
    """One timed operation inside a trace."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    node: str
    start: float
    end: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Recorder-global creation sequence; fixes the export order.
    seq: int = 0

    @property
    def context(self) -> tuple[int, int]:
        """This span's propagable ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(slots=True)
class TraceEvent:
    """One instant mark, optionally attached to a span/trace."""

    trace_id: int | None
    span_id: int | None
    name: str
    node: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)
    seq: int = 0


class TraceRecorder:
    """Records spans and events against an injected sim-time clock, for
    whoever listens (see the module docstring)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._capture: TraceCapture | None = None
        self._seq = 0
        self._next_trace = 0
        self._next_span = 0
        self._aliases: dict[str, str] = {}
        self._alias_counts: dict[str, int] = {}
        #: Raw id head (``"q"``, ``"lease"``) -> its letters-only prefix.
        self._alias_prefixes: dict[str, str] = {}
        #: Live subscribers registered with :meth:`listen`: each closed span
        #: and each event is offered as a plain record dict.
        self.observers: list[Callable[[dict[str, Any]], None]] = []

    # -- listeners ---------------------------------------------------------

    def _before_first_record(self, what: str) -> None:
        if self._seq:
            raise RuntimeError(
                f"{what} attached after the first trace record would see a "
                "different trace; attach it right after the system is built")

    def capture(self) -> TraceCapture:
        """This recorder's :class:`TraceCapture`, attached on the first call
        (which must come before the first record); later calls return it."""
        if self._capture is None:
            self._before_first_record("a trace capture")
            self._capture = TraceCapture()
        return self._capture

    def listen(self, observer: Callable[[dict[str, Any]], None]) -> None:
        """Offer every later closed span and event to ``observer`` as a
        record dict (only before the first record)."""
        self._before_first_record("a trace observer")
        self.observers.append(observer)

    @property
    def listening(self) -> bool:
        """Whether anything would keep or see an event recorded now."""
        return self._capture is not None or bool(self.observers)

    @property
    def spans(self) -> list[Span] | tuple[()]:
        """The capture's spans (empty without one)."""
        return self._capture.spans if self._capture is not None else ()

    @property
    def events(self) -> list[TraceEvent] | tuple[()]:
        """The capture's events (empty without one)."""
        return self._capture.events if self._capture is not None else ()

    def _notify(self, record: dict[str, Any]) -> None:
        for observer in self.observers:
            observer(record)

    # -- id management ----------------------------------------------------

    def alias(self, raw_id: str) -> str:
        """Intern a process-global wire id into a run-local token.

        ``"q-000412"`` becomes ``"q~1"`` (first ``q``-prefixed id seen),
        the same raw id always maps to the same token within a run, and
        the numbering restarts per recorder — so exported attributes stay
        identical across same-seed runs even though the underlying UUID
        counters do not. With nobody listening the raw id comes back as
        it is and nothing is interned: no record will carry it.
        """
        if not self.listening:
            return raw_id
        token = self._aliases.get(raw_id)
        if token is None:
            head = raw_id.split("-", 1)[0]
            prefix = self._alias_prefixes.get(head)
            if prefix is None:
                prefix = self._alias_prefixes[head] = "".join(filter(str.isalpha, head)) or "id"
            self._alias_counts[prefix] = self._alias_counts.get(prefix, 0) + 1
            token = f"{prefix}~{self._alias_counts[prefix]}"
            self._aliases[raw_id] = token
        return token

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- recording --------------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        node: str = "",
        ctx: tuple[int, int] | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span | None:
        """Open a span. ``ctx`` is the parent context; ``None`` starts a
        new root trace. Returns ``None`` when nobody listens: then only the
        sequence number advances, as for :meth:`event`."""
        seq = self._next_seq()
        if not self.listening:
            return None
        if ctx is None:
            self._next_trace += 1
            trace_id, parent_id = self._next_trace, None
        else:
            trace_id, parent_id = ctx
        self._next_span += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            node=node,
            start=self.clock(),
            attrs=dict(attrs or {}),
            seq=seq,
        )
        if self._capture is not None:
            self._capture.spans.append(span)
        return span

    def end_span(self, span: Span, *, status: str = "ok",
                 attrs: dict[str, Any] | None = None) -> None:
        """Close a span (idempotent: the first close wins)."""
        if span.end is not None:
            return
        span.end = self.clock()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        if self.observers:
            self._notify({
                "t": span.end, "kind": "span", "name": span.name,
                "node": span.node, "start": span.start,
                "status": span.status, "attrs": dict(span.attrs),
            })

    def event(
        self,
        name: str,
        *,
        node: str = "",
        ctx: tuple[int, int] | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> TraceEvent | None:
        """Record an instant event, attached to ``ctx`` when given.

        Returns the record, or ``None`` when nobody listens: then only the
        sequence number advances, which still closes the door on late
        listeners.
        """
        seq = self._next_seq()
        capture = self._capture
        if capture is None and not self.observers:
            return None
        trace_id, span_id = ctx if ctx is not None else (None, None)
        record = TraceEvent(
            trace_id=trace_id,
            span_id=span_id,
            name=name,
            node=node,
            time=self.clock(),
            attrs=dict(attrs or {}),
            seq=seq,
        )
        if capture is not None:
            capture.events.append(record)
        if self.observers:
            self._notify({
                "t": record.time, "kind": "event", "name": record.name,
                "node": record.node, "attrs": dict(record.attrs),
            })
        return record

    # -- header propagation ------------------------------------------------

    @staticmethod
    def inject(headers: dict[str, Any], ctx: tuple[int, int]) -> dict[str, Any]:
        """Write a context into an envelope-header dict (returned back)."""
        headers[TRACE_ID_HEADER] = ctx[0]
        headers[SPAN_ID_HEADER] = ctx[1]
        return headers

    @staticmethod
    def extract(headers: dict[str, Any]) -> tuple[int, int] | None:
        """Read a context out of envelope headers, if one is present."""
        trace_id = headers.get(TRACE_ID_HEADER)
        if trace_id is None:
            return None
        return (trace_id, headers.get(SPAN_ID_HEADER, 0))


class TraceCapture:
    """Every span and event of a run, kept for reading after it.

    Obtained from :meth:`TraceRecorder.capture` before the first record;
    spans are kept when they open (a span still open at the end exports
    with ``"end": null``) and events when they happen.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []

    # -- queries -----------------------------------------------------------

    def traces(self) -> list[int]:
        """All trace ids with at least one span, ascending."""
        return sorted({span.trace_id for span in self.spans})

    def spans_of(self, trace_id: int) -> list[Span]:
        """The spans of one trace in creation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def events_of(self, trace_id: int) -> list[TraceEvent]:
        """The events attached to one trace in creation order."""
        return [ev for ev in self.events if ev.trace_id == trace_id]

    # -- export ------------------------------------------------------------

    def export_jsonl(self) -> str:
        """All records as JSON Lines, creation-ordered, byte-stable."""
        records: list[tuple[int, dict[str, Any]]] = []
        for span in self.spans:
            records.append((span.seq, {
                "kind": "span",
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "node": span.node,
                "start": span.start,
                "end": span.end,
                "status": span.status,
                "attrs": span.attrs,
            }))
        for ev in self.events:
            records.append((ev.seq, {
                "kind": "event",
                "trace": ev.trace_id,
                "span": ev.span_id,
                "name": ev.name,
                "node": ev.node,
                "time": ev.time,
                "attrs": ev.attrs,
            }))
        records.sort(key=lambda item: item[0])
        return "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for _seq, record in records
        )

    def render(self, trace_id: int) -> str:
        """ASCII span tree of one trace, events inlined under their span."""
        spans = self.spans_of(trace_id)
        if not spans:
            return f"trace {trace_id}: (no spans)"
        by_id = {span.span_id: span for span in spans}
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)
        events_by_span: dict[int | None, list[TraceEvent]] = {}
        for ev in self.events_of(trace_id):
            key = ev.span_id if ev.span_id in by_id else None
            events_by_span.setdefault(key, []).append(ev)

        t0 = min(span.start for span in spans)
        t_end = max((span.end for span in spans if span.end is not None),
                    default=t0)
        lines = [
            f"trace {trace_id} — {len(spans)} spans, "
            f"{len(self.events_of(trace_id))} events, {t_end - t0:.3f}s"
        ]

        def fmt_attrs(attrs: dict[str, Any]) -> str:
            if not attrs:
                return ""
            return " " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))

        def walk(span: Span, prefix: str, is_last: bool) -> None:
            connector = "└─" if is_last else "├─"
            dur = f"+{span.duration:.3f}s" if span.end is not None else "open"
            lines.append(
                f"{prefix}{connector} {span.name} [{span.node}] "
                f"@{span.start - t0:.3f}s {dur} status={span.status}"
                f"{fmt_attrs(span.attrs)}"
            )
            child_prefix = prefix + ("   " if is_last else "│  ")
            kids = sorted(children.get(span.span_id, []), key=lambda s: s.seq)
            marks = sorted(events_by_span.get(span.span_id, []), key=lambda e: e.seq)
            items: list[tuple[int, Any]] = [(s.seq, s) for s in kids]
            items += [(e.seq, e) for e in marks]
            items.sort(key=lambda pair: pair[0])
            for index, (_seq, item) in enumerate(items):
                last = index == len(items) - 1
                if isinstance(item, Span):
                    walk(item, child_prefix, last)
                else:
                    mark = "└─" if last else "├─"
                    lines.append(
                        f"{child_prefix}{mark} * {item.name} [{item.node}] "
                        f"@{item.time - t0:.3f}s{fmt_attrs(item.attrs)}"
                    )

        roots = sorted(children.get(None, []), key=lambda s: s.seq)
        for index, root in enumerate(roots):
            walk(root, "", index == len(roots) - 1)
        for ev in sorted(events_by_span.get(None, []), key=lambda e: e.seq):
            lines.append(f"* {ev.name} [{ev.node}] @{ev.time - t0:.3f}s"
                         f"{fmt_attrs(ev.attrs)}")
        return "\n".join(lines)
