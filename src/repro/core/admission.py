"""Registry admission control: bounded service queues and load shedding.

E1 shows the registry is where the paper's load concentrates ("the load
on the single node may become high"), yet an unmodelled registry serves
every message in zero time and can never be overwhelmed. This module
gives each registry a *bounded service model*: every admitted message
costs configurable service time, waits in a bounded priority queue, and
— when the queue is full — the lowest-priority work is **shed** with an
explicit ``BUSY(retry_after)`` answer instead of a silent drop.

The priority order encodes the soft-state survival argument: lease
RENEWs keep the store truthful and are cheapest to serve, so they jump
the queue; PUBLISHes come next; a client's own QUERY beats a forwarded
one (serve your LAN before the WAN's); anti-entropy and replication
traffic is pure background. Under a query flood a prioritized registry
therefore sacrifices query goodput first and lease aliveness last —
experiment E17 measures exactly that, against a shed-less FIFO baseline
whose renews drown behind the flood and whose leases collapse.

``retry_after`` grows linearly with the queue depth at shed time, so the
BUSY stream is a deterministic, *monotone* congestion signal clients and
services can back off on (server hint beats their own exponential
backoff — see :meth:`repro.core.retry.RetryPolicy.delay`).

Determinism: service completions are ordinary node timers on the
simulator heap, and shedding decisions depend only on arrival order and
the policy — a fixed seed still fully determines a run. With every cost
at its 0.0 default the controller intercepts nothing and the registry
behaves exactly as before.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import protocol
from repro.errors import ReproError
from repro.netsim.messages import Envelope
from repro.obs.tracing import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node

#: Admission classes, in shedding-priority order (lower = served first,
#: shed last).
CLASS_RENEW = "renew"
CLASS_PUBLISH = "publish"
CLASS_QUERY = "query"
CLASS_FORWARD = "forward"
CLASS_SYNC = "sync"

#: Priority rank per class (lower rank = higher priority).
PRIORITY: dict[str, int] = {
    CLASS_RENEW: 0,
    CLASS_PUBLISH: 1,
    CLASS_QUERY: 2,
    CLASS_FORWARD: 3,
    CLASS_SYNC: 4,
}

#: Seconds of BUSY back-off per queued message: the hint is
#: ``RETRY_AFTER_BASE * (1 + queue_depth)``, deterministic and monotone in
#: the backlog, so repeated BUSYs push clients off a saturated registry
#: progressively harder.
RETRY_AFTER_BASE = 0.1

#: Which protocol messages fall under which admission class. Everything
#: *not* listed here — probes, beacons, pings, federation handshakes,
#: query responses, artifact transfers — is control plane: it is never
#: queued or shed, because delaying it would blind the very failure
#: detectors overload protection leans on.
MESSAGE_CLASS: dict[str, str] = {
    protocol.RENEW: CLASS_RENEW,
    protocol.PUBLISH: CLASS_PUBLISH,
    protocol.REMOVE: CLASS_PUBLISH,
    protocol.SUBSCRIBE: CLASS_PUBLISH,
    protocol.UNSUBSCRIBE: CLASS_PUBLISH,
    protocol.QUERY: CLASS_QUERY,
    protocol.DECENTRAL_QUERY: CLASS_QUERY,
    protocol.QUERY_FORWARD: CLASS_FORWARD,
    protocol.WALK: CLASS_FORWARD,
    protocol.AD_FORWARD: CLASS_SYNC,
    protocol.ANTIENTROPY_DIGEST: CLASS_SYNC,
    protocol.ANTIENTROPY_PULL: CLASS_SYNC,
    protocol.ANTIENTROPY_ADS: CLASS_SYNC,
}


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-registry overload-protection knobs.

    Attributes
    ----------
    renew_cost, publish_cost, query_cost, forward_cost, sync_cost:
        Service time (seconds) per message of that class. A class with
        cost 0.0 bypasses the queue entirely — the default for *every*
        class, so admission control is opt-in per deployment.
    queue_limit:
        Maximum queued messages (excluding the one in service); ``None``
        = unbounded (the shed-less baseline of E17).
    prioritized:
        True serves the queue in class-priority order and sheds the
        lowest-priority entry on overflow; False is a plain FIFO with
        tail drop — the "fair" queue whose renews drown behind floods.
    degrade_at:
        Fraction of ``queue_limit`` at which the registry enters
        *degraded mode*: WAN fan-out is skipped and queries are answered
        from the local store with ``degraded=True``.

    The BUSY hint's scale is the module constant :data:`RETRY_AFTER_BASE`.
    """

    renew_cost: float = 0.0
    publish_cost: float = 0.0
    query_cost: float = 0.0
    forward_cost: float = 0.0
    sync_cost: float = 0.0
    queue_limit: int | None = 64
    prioritized: bool = True
    degrade_at: float = 0.5

    def __post_init__(self) -> None:
        for name in ("renew_cost", "publish_cost", "query_cost",
                     "forward_cost", "sync_cost"):
            value = getattr(self, name)
            if value < 0:
                raise ReproError(f"{name} must be >= 0, got {value}")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ReproError(
                f"queue_limit must be >= 1 or None, got {self.queue_limit}"
            )
        if not 0.0 < self.degrade_at <= 1.0:
            raise ReproError(f"degrade_at must be in (0, 1], got {self.degrade_at}")

    def cost_for(self, admission_class: str) -> float:
        """Service time for one message of ``admission_class``."""
        return getattr(self, f"{admission_class}_cost")

    def classify(self, msg_type: str) -> str | None:
        """The admission class of ``msg_type`` (None = control plane)."""
        return MESSAGE_CLASS.get(msg_type)

    def active(self) -> bool:
        """Whether any class actually pays service time."""
        return any(self.cost_for(cls) > 0 for cls in PRIORITY)

    def retry_after(self, queue_depth: int) -> float:
        """The BUSY back-off hint for a shed at ``queue_depth``."""
        return RETRY_AFTER_BASE * (1 + queue_depth)


@dataclass
class _Ticket:
    """One intercepted message waiting for (or receiving) service."""

    seq: int
    envelope: Envelope
    admission_class: str
    cost: float
    priority: int


def request_id_of(envelope: Envelope) -> str:
    """The correlation id a BUSY should echo for ``envelope``: the field
    its record declares (``correlation`` in :mod:`repro.core.protocol`),
    chosen so the original sender can find its own bookkeeping — the wire
    query id for queries/walks, the lease id for renewals, the
    advertisement id for (re)publishes and removals.
    """
    payload = envelope.payload
    field = getattr(payload, "correlation", "")
    return getattr(payload, field) if field else ""


class AdmissionController:
    """The bounded single-server queue in front of one registry.

    Registered as the registry's ``interceptor`` where the policy is
    active: :meth:`~repro.netsim.node.Node.receive` then calls
    :meth:`intercept` before dispatch. Messages whose class carries a
    positive cost are queued (or shed with a BUSY); a service timer
    dispatches the head of the queue after its cost elapses. Everything
    else flows through untouched.

    Accounting is exhaustive so the queue-drain invariant can audit it:
    every intercepted message is eventually *dispatched*, *shed* (with
    exactly one BUSY), or *lost to a crash*; no message is ever both
    shed and dispatched.
    """

    def __init__(self, node: "Node", policy: AdmissionPolicy) -> None:
        self.node = node
        self.policy = policy
        #: Numbers the intercepted messages for the audit; it survives a
        #: crash so one audit id never names two messages.
        self._next_seq = 0
        # -- accounting (audited by core.invariants) ---------------------
        self.intercepted = 0
        self.dispatched = 0
        self.shed = 0
        self.busy_sent = 0
        self.lost_on_crash = 0
        self.max_depth = 0
        self.shed_by_class: dict[str, int] = {}
        #: ``(queue_depth, retry_after)`` per shed, in shed order — the
        #: overload smoke asserts retry_after is monotone in depth.
        self.shed_log: list[tuple[int, float]] = []
        self._shed_ids: set[int] = set()
        self._dispatched_ids: set[int] = set()
        self.rebuild()

    def rebuild(self) -> None:
        """Build the server: nothing queued, nothing in service."""
        self._queue: list[tuple[int, int, _Ticket]] = []
        self._in_service: _Ticket | None = None

    def start(self) -> None:
        """Nothing to arm: deliveries drive the server."""

    # -- queue state -----------------------------------------------------

    @property
    def depth(self) -> int:
        """Messages currently held: queued plus the one in service."""
        return len(self._queue) + (1 if self._in_service is not None else 0)

    @property
    def pending(self) -> int:
        """Alias of :attr:`depth` for the invariant sweep."""
        return self.depth

    @property
    def backlog_cost(self) -> float:
        """Seconds of service time currently committed."""
        queued = sum(entry[2].cost for entry in self._queue)
        if self._in_service is not None:
            queued += self._in_service.cost
        return queued

    @property
    def overloaded(self) -> bool:
        """Whether the degraded-mode threshold has been crossed.

        Only a *bounded* queue can be overloaded: the unbounded baseline
        never degrades (and never sheds) — it just falls behind; an
        inert policy queues nothing, and depth 0 is below any threshold.
        """
        limit = self.policy.queue_limit
        return limit is not None and self.depth >= self.policy.degrade_at * limit

    # -- interception ----------------------------------------------------

    def intercept(self, envelope: Envelope) -> bool:
        """Take charge of ``envelope`` if its class pays service time.

        Returns True when the controller queued (or shed) the message;
        False tells the caller to dispatch it synchronously as before.
        """
        policy = self.policy
        admission_class = policy.classify(envelope.msg_type)
        if admission_class is None:
            return False
        cost = policy.cost_for(admission_class)
        if cost <= 0:
            return False
        self.intercepted += 1
        ticket = _Ticket(
            seq=self._next_seq,
            envelope=envelope,
            admission_class=admission_class,
            cost=cost,
            priority=PRIORITY[admission_class] if policy.prioritized else 0,
        )
        self._next_seq += 1
        if self._in_service is None and not self._queue:
            self._begin_service(ticket)
            return True
        limit = policy.queue_limit
        if limit is not None and len(self._queue) >= limit:
            worst = self._queue[-1][2]
            if (ticket.priority, ticket.seq) >= (worst.priority, worst.seq):
                # The newcomer is the lowest-priority work in sight
                # (always true in FIFO mode: tail drop).
                self._shed(ticket)
                return True
            self._queue.pop()
            self._shed(worst)
        bisect.insort(self._queue, (ticket.priority, ticket.seq, ticket))
        self._touch()
        return True

    # -- service ---------------------------------------------------------

    def _begin_service(self, ticket: _Ticket) -> None:
        self._in_service = ticket
        self._touch()
        self.node.after(ticket.cost, lambda: self._finish(ticket))

    def _finish(self, ticket: _Ticket) -> None:
        if self._in_service is not ticket:
            # A crash reset the server while this timer was pending.
            return
        self._in_service = None
        self.dispatched += 1
        self._dispatched_ids.add(ticket.seq)
        self.node.dispatch(ticket.envelope)
        self._serve_next()
        self._touch()

    def _serve_next(self) -> None:
        if self._in_service is None and self._queue:
            _, _, ticket = self._queue.pop(0)
            self._begin_service(ticket)

    # -- shedding --------------------------------------------------------

    def _shed(self, ticket: _Ticket) -> None:
        """Reject ``ticket`` with an explicit BUSY carrying the back-off
        hint — never a silent drop."""
        envelope = ticket.envelope
        depth = self.depth
        retry_after = self.policy.retry_after(depth)
        self.shed += 1
        self.shed_by_class[ticket.admission_class] = (
            self.shed_by_class.get(ticket.admission_class, 0) + 1
        )
        self._shed_ids.add(ticket.seq)
        self.shed_log.append((depth, retry_after))
        self.busy_sent += 1
        ctx = TraceRecorder.extract(envelope.headers)
        self.node.send(
            envelope.src,
            protocol.BUSY,
            protocol.BusyPayload(
                request_id=request_id_of(envelope),
                msg_type=envelope.msg_type,
                retry_after=retry_after,
                queue_depth=depth,
            ),
            headers=TraceRecorder.inject({}, ctx) if ctx is not None else None,
        )
        self.node.count("admission.shed")
        self.node.count(f"admission.shed.{ticket.admission_class}")
        self.node.count("admission.busy")
        self.node.note(
            "admission.shed",
            {"type": envelope.msg_type, "depth": depth, "retry_after": retry_after},
            ctx=ctx)
        self._touch()

    # -- lifecycle -------------------------------------------------------

    def on_crash(self) -> None:
        """The node died: queued and in-service work is lost with it.

        The node's crash already cancelled the service timer; here we
        only settle the books so the drain invariant stays exact.
        """
        self.lost_on_crash += self.depth
        self.rebuild()
        self._touch()

    # -- observability / auditing ----------------------------------------

    def _touch(self) -> None:
        depth = self.depth
        if depth > self.max_depth:
            self.max_depth = depth
        self.node.gauge("registry.queue_depth", depth)

    def counters(self) -> dict[str, int]:
        """A plain snapshot for experiment rows."""
        return {
            "intercepted": self.intercepted,
            "dispatched": self.dispatched,
            "shed": self.shed,
            "busy_sent": self.busy_sent,
            "lost_on_crash": self.lost_on_crash,
            "pending": self.pending,
            "max_depth": self.max_depth,
        }

    def audit(self) -> list[str]:
        """The queue-drain invariant: exhaustive, non-overlapping fates.

        * conservation — every intercepted message is dispatched, shed,
          lost to a crash, or still pending (nothing vanishes);
        * one BUSY per shed — rejected work is always *answered*;
        * disjoint fates — no message is both shed and dispatched.
        """
        violations: list[str] = []
        accounted = self.dispatched + self.shed + self.lost_on_crash + self.pending
        if accounted != self.intercepted:
            violations.append(
                f"admission conservation broken: intercepted={self.intercepted} "
                f"but dispatched={self.dispatched} + shed={self.shed} + "
                f"lost={self.lost_on_crash} + pending={self.pending} = {accounted}"
            )
        if self.busy_sent != self.shed:
            violations.append(
                f"shed work not answered: shed={self.shed} "
                f"but busy_sent={self.busy_sent}"
            )
        overlap = self._shed_ids & self._dispatched_ids
        if overlap:
            violations.append(
                f"{len(overlap)} messages both shed and dispatched "
                f"(seqs {sorted(overlap)[:5]})"
            )
        return violations
