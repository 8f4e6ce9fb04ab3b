"""Failure and churn models.

Dynamic environments are "surroundings with continuous change … both
services and registries can come and go. In other words, they are
transient." This module provides the two randomized ways a run exercises
that transience (scripted crashes at known times are
:meth:`repro.netsim.faults.FaultPlan.crash` / ``restart``):

* :class:`ChurnProcess` — a Poisson process of crashes with exponential
  downtimes over a pool of nodes (E4 staleness vs churn rate).
* :class:`AttackSchedule` — progressive removal of nodes, either uniformly
  at random or targeted at the most valuable nodes first (E3/E11, the
  random-vs-targeted robustness claims of the complex-networks work the
  paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import SimulationError
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


@dataclass
class FailureEvent:
    """One entry in a failure history: ``kind`` is ``"crash"`` or ``"restart"``."""

    time: float
    kind: str
    node_id: str


class ChurnProcess:
    """Poisson churn over a pool of nodes.

    Crash events arrive with exponential inter-arrival times of mean
    ``1 / rate``; each event crashes one uniformly chosen *currently alive*
    pool member. Crashed members restart after an exponential downtime of
    mean ``mean_downtime`` unless ``permanent`` is set, in which case they
    never return (the paper's "services … disappear abruptly").

    Parameters
    ----------
    rate:
        Expected crashes per second across the whole pool.
    mean_downtime:
        Mean seconds a crashed node stays down.
    permanent:
        If true, crashed nodes never restart.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pool: Iterable[str],
        *,
        rate: float,
        mean_downtime: float = 30.0,
        permanent: bool = False,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"churn rate must be positive, got {rate}")
        if mean_downtime < 0:
            raise SimulationError(f"mean_downtime must be non-negative, got {mean_downtime}")
        self.sim = sim
        self.network = network
        self.pool = sorted(pool)
        self.rate = rate
        self.mean_downtime = mean_downtime
        self.permanent = permanent
        self.history: list[FailureEvent] = []
        self._running = False

    def start(self) -> "ChurnProcess":
        """Begin generating churn events."""
        self._running = True
        self._schedule_next()
        return self

    def stop(self) -> None:
        """Stop generating new crash events (pending restarts still fire)."""
        self._running = False

    def _schedule_next(self) -> None:
        delay = self.sim.rng.expovariate(self.rate)
        self.sim.schedule(delay, self._next_event)

    def _next_event(self) -> None:
        if not self._running:
            return
        alive = [nid for nid in self.pool if self.network.node(nid).alive]
        if alive:
            victim = self.sim.rng.choice(alive)
            self.network.node(victim).crash()
            self.history.append(FailureEvent(self.sim.now, "crash", victim))
            if not self.permanent:
                downtime = self.sim.rng.expovariate(1.0 / self.mean_downtime) \
                    if self.mean_downtime > 0 else 0.0
                self.sim.schedule(downtime, self._restart, victim)
        self._schedule_next()

    def _restart(self, node_id: str) -> None:
        node = self.network.node(node_id)
        if not node.alive:
            node.restart()
            self.history.append(FailureEvent(self.sim.now, "restart", node_id))

    def crashes(self) -> int:
        """Number of crash events generated so far."""
        return sum(1 for event in self.history if event.kind == "crash")


@dataclass
class AttackSchedule:
    """Progressive node removal: random failures or targeted attacks.

    ``strategy="random"`` shuffles the target list with the simulator RNG;
    ``strategy="targeted"`` removes the highest-value nodes first according
    to ``value`` (default: every node is equal, so targeted degenerates to
    list order — callers pass e.g. registry degree).

    Nodes are crashed permanently, one every ``interval`` seconds starting
    at ``start_time``.
    """

    sim: Simulator
    network: Network
    targets: Sequence[str]
    strategy: str = "random"
    interval: float = 1.0
    start_time: float = 0.0
    value: Callable[[str], float] | None = None
    history: list[FailureEvent] = field(default_factory=list)

    def plan(self) -> list[str]:
        """The removal order this schedule will use."""
        targets = list(self.targets)
        if self.strategy == "random":
            self.sim.rng.shuffle(targets)
        elif self.strategy == "targeted":
            key = self.value or (lambda _node_id: 0.0)
            # Highest value first; node id breaks ties deterministically.
            targets.sort(key=lambda nid: (-key(nid), nid))
        else:
            raise SimulationError(f"unknown attack strategy {self.strategy!r}")
        return targets

    def launch(self) -> list[str]:
        """Schedule the removals; returns the removal order."""
        order = self.plan()
        for index, node_id in enumerate(order):
            when = self.start_time + index * self.interval
            self.sim.schedule_at(when, self._crash, node_id)
        return order

    def _crash(self, node_id: str) -> None:
        node = self.network.node(node_id)
        if node.alive:
            node.crash()
            self.history.append(FailureEvent(self.sim.now, "crash", node_id))
