"""Deterministic discrete-event scheduler.

The simulator is the single source of time and randomness for a run.
Events are ``[time, sequence, callback, args]`` lists on a binary heap; the
monotonically increasing sequence number breaks ties so that two events
scheduled for the same instant always fire in scheduling order, which makes
whole-system runs deterministic under a fixed seed.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.tracing import TraceRecorder


class EventHandle(list):
    """A heap entry ``[time, seq, callback, args]``, handed back by
    :meth:`Simulator.schedule` so the caller can cancel it.

    Lists compare item by item in C and ``seq`` is unique, so ordering
    two entries never reaches the callback. A cancelled entry stays in
    the heap with its callback slot cleared and is skipped when popped.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """The simulated time at which the event will fire."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self[2] = None


class PeriodicHandle:
    """Handle for a repeating task created with :meth:`Simulator.every`."""

    __slots__ = ("_sim", "_interval", "_fn", "_next", "_stopped")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable[[], None]) -> None:
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._stopped = False
        self._next: EventHandle | None = None

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._next = self._sim.schedule(self._interval, self._fire)

    def start(self, initial_delay: float | None = None) -> "PeriodicHandle":
        """Arm the periodic task; first firing after ``initial_delay``
        (defaults to one full interval)."""
        delay = self._interval if initial_delay is None else initial_delay
        self._next = self._sim.schedule(delay, self._fire)
        return self

    def stop(self) -> None:
        """Stop the task; any pending firing is cancelled. Idempotent."""
        self._stopped = True
        if self._next is not None:
            self._next.cancel()


class Simulator:
    """Heap-based discrete-event simulator with a seeded RNG.

    Parameters
    ----------
    seed:
        Seed for the simulator's private :class:`random.Random`. All
        stochastic behaviour in a run (loss, churn, workload sampling)
        must draw from :attr:`rng` so that a seed fully determines a run.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: list[EventHandle] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self.seed = seed
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: Causal trace recorder for this run; spans/events are stamped
        #: with ``self.now``, so trace output is a pure function of the
        #: seed (see the determinism contract in :mod:`repro.obs.tracing`).
        self.trace = TraceRecorder(lambda: self._now)

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now={self._now}")
        self._seq += 1
        entry = EventHandle((when, self._seq, callback, args))
        heapq.heappush(self._heap, entry)
        return entry

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        initial_delay: float | None = None,
    ) -> PeriodicHandle:
        """Run ``callback`` every ``interval`` seconds until stopped."""
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        return PeriodicHandle(self, interval, callback).start(initial_delay)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the simulated time afterwards.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the last event fired earlier, so periodic measurements can use
        ``sim.now`` as the window length.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                when, _, callback, args = self._heap[0]
                if until is not None and when > until:
                    break
                heapq.heappop(self._heap)
                if callback is None:
                    continue
                self._now = when
                callback(*args)
                self.events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self, until: float | None = None) -> bool:
        """Process exactly one pending (non-cancelled) event.

        Returns ``True`` if an event fired; ``False`` if the heap is empty
        or (with ``until``) the next event lies beyond ``until``, in which
        case that event is left in the heap and time does not advance —
        callers stepping toward a deadline never execute past it.
        """
        while self._heap:
            when, _, callback, args = self._heap[0]
            if callback is None:
                heapq.heappop(self._heap)
                continue
            if until is not None and when > until:
                return False
            heapq.heappop(self._heap)
            self._now = when
            callback(*args)
            self.events_processed += 1
            return True
        return False

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` without firing any events.

        Only legal when no pending event is scheduled at or before
        ``when`` (use :meth:`run` or :meth:`step` to execute those first).
        Used to close out a bounded window — e.g. a synchronous discovery
        deadline — so ``now`` reflects the full window length.
        """
        if when < self._now:
            raise SimulationError(f"cannot advance to {when} < now={self._now}")
        for event in self._heap:
            if not event.cancelled and event.time <= when:
                raise SimulationError(
                    f"cannot advance past pending event at t={event.time}"
                )
        self._now = when
        return self._now

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for e in self._heap if not e.cancelled)

    def clear(self) -> None:
        """Drop all pending events without running them."""
        self._heap.clear()
