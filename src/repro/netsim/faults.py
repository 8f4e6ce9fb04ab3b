"""Declarative, deterministic fault injection.

The paper's central claim is that autonomous federated registries with
leasing *degrade gracefully* in dynamic environments — churn, crashes,
partitions, lossy links. :class:`FaultPlan` turns that from a qualitative
claim into assertable behavior: a plan is a declarative schedule of fault
actions (node crash/restart, a roam to another LAN, LAN partition/heal,
timed loss bursts, latency spikes) that drives the existing
:class:`~repro.netsim.simulator.Simulator` and
:class:`~repro.netsim.network.Network` primitives.

Two properties make plans useful for experiments:

* **Determinism** — a plan holds no hidden randomness; applying the same
  plan to two identically seeded deployments produces bit-identical runs
  (the stochastic churn builder draws from its *own* seeded RNG at build
  time, and :func:`removal_order` shuffles with the RNG it is handed).
* **Accounting** — every injected fault is counted in the run's
  ``fault.<kind>`` counter and recorded in the applied plan's history, so
  an experiment row can state exactly what it survived.

Example
-------
>>> plan = (FaultPlan()                                # doctest: +SKIP
...         .crash(10.0, "registry-00")
...         .partition(12.0, [["lan-0"], ["lan-1", "lan-2"]])
...         .loss_burst(12.0, 8.0, 0.5, lan="lan-1")
...         .heal(25.0)
...         .restart(30.0, "registry-00"))
>>> applied = plan.apply(system)                       # doctest: +SKIP
>>> system.run(until=60.0)                             # doctest: +SKIP
>>> applied.counts()                                   # doctest: +SKIP
{'crash': 1, 'partition': 1, 'loss-window': 1, 'heal': 1, 'restart': 1}
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.netsim.network import LatencySpike, LossWindow, Network
from repro.netsim.simulator import Simulator

#: Fault kinds a plan can schedule.
KIND_CRASH = "crash"
KIND_RESTART = "restart"
KIND_PARTITION = "partition"
KIND_HEAL = "heal"
KIND_LOSS = "loss-window"
KIND_LATENCY = "latency-spike"
KIND_DISK_TORN = "disk-torn-write"
KIND_DISK_CORRUPT = "disk-corruption"
KIND_REPLICA_KILL = "replica-kill"
KIND_MOVE = "move"

#: Roles a plan refuses to roam: a registry describes, and federates on,
#: the LAN it started serving on for the rest of that life.
STATIONARY_ROLES = frozenset({"registry", "standby-registry"})


@dataclass
class FailureEvent:
    """One executed fault in :attr:`AppliedFaults.history` (``kind`` is a ``KIND_*``)."""

    time: float
    kind: str
    node_id: str


def removal_order(
    targets: Iterable[str],
    strategy: str,
    *,
    rng: random.Random,
    value: Callable[[str], float] | None = None,
) -> list[str]:
    """The order an attack removes ``targets`` in (E3/E11).

    ``"random"`` shuffles ``targets``, taken in the order given, with
    ``rng``; ``"targeted"`` puts the highest ``value`` first with the
    node id breaking ties (no ``value``: id order). Crash the prefix you
    want with :meth:`FaultPlan.crash`.
    """
    order = list(targets)
    if strategy == "random":
        rng.shuffle(order)
    elif strategy == "targeted":
        key = value or (lambda _node_id: 0.0)
        order.sort(key=lambda node_id: (-key(node_id), node_id))
    else:
        raise SimulationError(f"unknown attack strategy {strategy!r}")
    return order


@dataclass(frozen=True)
class FaultAction:
    """One declarative entry in a :class:`FaultPlan` schedule."""

    time: float
    kind: str
    node_id: str = ""
    groups: tuple[tuple[str, ...], ...] = ()
    window: LossWindow | None = None
    spike: LatencySpike | None = None
    file: str = ""
    #: Shard key whose replica set a targeted kill resolves at fire time.
    key: str = ""
    #: How many of the key's alive replicas a targeted kill crashes.
    count: int = 0
    #: The LAN a move takes its node to.
    lan: str = ""

    def describe(self) -> str:
        """Human-readable one-liner for histories and experiment notes."""
        if self.kind in (KIND_CRASH, KIND_RESTART):
            return f"t={self.time:g} {self.kind} {self.node_id}"
        if self.kind == KIND_MOVE:
            return f"t={self.time:g} move {self.node_id} to {self.lan}"
        if self.kind == KIND_REPLICA_KILL:
            return f"t={self.time:g} replica-kill {self.count} of key {self.key!r}"
        if self.kind in (KIND_DISK_TORN, KIND_DISK_CORRUPT):
            return f"t={self.time:g} {self.kind} {self.node_id}:{self.file}"
        if self.kind == KIND_PARTITION:
            return f"t={self.time:g} partition {list(map(list, self.groups))}"
        if self.kind == KIND_LOSS:
            w = self.window
            scope = w.lan or (w.link and "<->".join(sorted(w.link))) or "global"
            return f"t={w.start:g} loss {w.rate:g} on {scope} until {w.end:g}"
        if self.kind == KIND_LATENCY:
            s = self.spike
            scope = s.lan or (s.link and "<->".join(sorted(s.link))) or "global"
            return f"t={s.start:g} +{s.extra:g}s latency on {scope} until {s.end:g}"
        return f"t={self.time:g} {self.kind}"


class FaultPlan:
    """A declarative schedule of faults, applied to a deployment at once.

    Builder methods return ``self`` so plans read as a chain. Times are
    absolute simulated seconds; applying a plan whose earliest action is
    already in the past raises.
    """

    def __init__(self) -> None:
        self._actions: list[FaultAction] = []

    def __len__(self) -> int:
        return len(self._actions)

    # -- builders ---------------------------------------------------------

    def crash(self, at: float, node_id: str) -> "FaultPlan":
        """Crash ``node_id`` at time ``at`` (no-op if already down)."""
        self._actions.append(FaultAction(time=at, kind=KIND_CRASH, node_id=node_id))
        return self

    def restart(self, at: float, node_id: str) -> "FaultPlan":
        """Restart ``node_id`` at time ``at`` (no-op if already up)."""
        self._actions.append(FaultAction(time=at, kind=KIND_RESTART, node_id=node_id))
        return self

    def move(self, at: float, node_id: str, lan: str) -> "FaultPlan":
        """Roam client or service ``node_id`` to ``lan`` at time ``at``
        (no-op if it is down or already there); applying the plan where
        it is a registry raises :class:`SimulationError`."""
        self._actions.append(
            FaultAction(time=at, kind=KIND_MOVE, node_id=node_id, lan=lan))
        return self

    def disk_torn_write(self, at: float, node_id: str, *, file: str = "wal") -> "FaultPlan":
        """Tear the tail of ``node_id``'s durable ``file`` at time ``at``.

        Models a crash mid-``write(2)``: a deterministic chunk of the most
        recent append is chopped off, leaving a half-written final record.
        Recovery must stop replay at the torn frame without crashing.
        No-op when the node never attached a disk.
        """
        self._actions.append(
            FaultAction(time=at, kind=KIND_DISK_TORN, node_id=node_id, file=file)
        )
        return self

    def disk_corrupt(self, at: float, node_id: str, *, file: str = "wal") -> "FaultPlan":
        """Flip a byte in the middle of ``node_id``'s durable ``file``.

        Models silent media corruption. Recovery must skip (and count)
        the CRC-failing record and let anti-entropy repair the loss.
        Deterministic: the flipped offset depends only on file length.
        No-op when the node never attached a disk.
        """
        self._actions.append(
            FaultAction(time=at, kind=KIND_DISK_CORRUPT, node_id=node_id, file=file)
        )
        return self

    def kill_replicas(self, at: float, key: str, count: int) -> "FaultPlan":
        """Crash ``count`` alive replicas of shard key ``key`` at ``at``.

        Placement is resolved *at fire time* from the first (sorted)
        alive registry with an active shard manager, so the kill targets
        whatever the ring then assigns — the adversarial fault E21 uses
        to knock out R−1 copies of one shard at once. No-op when no
        sharded registry is alive.
        """
        if count < 1:
            raise SimulationError(f"kill_replicas count must be >= 1, got {count}")
        self._actions.append(
            FaultAction(time=at, kind=KIND_REPLICA_KILL, key=key, count=count)
        )
        return self

    def partition(self, at: float, groups: Iterable[Iterable[str]]) -> "FaultPlan":
        """Split the WAN into LAN groups at time ``at`` (see
        :meth:`Network.partition`; every LAN must appear in one group)."""
        frozen = tuple(tuple(group) for group in groups)
        self._actions.append(FaultAction(time=at, kind=KIND_PARTITION, groups=frozen))
        return self

    def heal(self, at: float) -> "FaultPlan":
        """Heal all partitions at time ``at``."""
        self._actions.append(FaultAction(time=at, kind=KIND_HEAL))
        return self

    def loss_burst(
        self,
        start: float,
        duration: float,
        rate: float,
        *,
        lan: str | None = None,
        link: tuple[str, str] | None = None,
    ) -> "FaultPlan":
        """Extra delivery loss of ``rate`` during ``[start, start+duration)``.

        Scope with ``lan`` (traffic touching one LAN) or ``link`` (traffic
        between a LAN pair); neither means network-wide.
        """
        window = LossWindow(
            start=start, end=start + duration, rate=rate,
            lan=lan, link=frozenset(link) if link else None,
        )
        self._actions.append(FaultAction(time=start, kind=KIND_LOSS, window=window))
        return self

    def latency_spike(
        self,
        start: float,
        duration: float,
        extra: float,
        *,
        lan: str | None = None,
        link: tuple[str, str] | None = None,
    ) -> "FaultPlan":
        """Additive delivery latency of ``extra`` seconds during the window."""
        spike = LatencySpike(
            start=start, end=start + duration, extra=extra,
            lan=lan, link=frozenset(link) if link else None,
        )
        self._actions.append(FaultAction(time=start, kind=KIND_LATENCY, spike=spike))
        return self

    @staticmethod
    def churn(
        node_ids: Iterable[str],
        *,
        rate: float,
        window: float,
        seed: int = 0,
        mean_downtime: float | None = None,
        start: float = 0.0,
    ) -> "FaultPlan":
        """A Poisson crash/restart plan over ``node_ids``.

        The randomness is consumed *here*, from a private RNG, so the
        resulting plan is a fixed schedule — every deployment it is
        applied to sees byte-identical dynamics, whatever else consumes
        its simulator's RNG. ``mean_downtime=None`` makes crashes
        permanent; ``0`` restarts a victim at the instant it crashed
        (after the crash); otherwise downtimes are exponential with that
        mean, and a restart that would fall outside the window is dropped.
        """
        pool = sorted(node_ids)
        if not pool:
            raise SimulationError("churn plan needs at least one node")
        if rate <= 0:
            raise SimulationError(f"churn rate must be positive, got {rate}")
        if mean_downtime is not None and mean_downtime < 0:
            raise SimulationError(
                f"mean_downtime must be non-negative, got {mean_downtime}"
            )
        rng = random.Random(seed)
        plan = FaultPlan()
        down: set[str] = set()
        now = start
        while True:
            now += rng.expovariate(rate)
            if now >= start + window:
                break
            alive = [nid for nid in pool if nid not in down]
            if not alive:
                continue
            victim = rng.choice(alive)
            plan.crash(now, victim)
            if mean_downtime is None:
                down.add(victim)
            else:
                back = now
                if mean_downtime > 0:
                    back += rng.expovariate(1.0 / mean_downtime)
                if back < start + window:
                    plan.restart(back, victim)
                else:
                    down.add(victim)
        return plan

    # -- introspection ----------------------------------------------------

    def actions(self) -> list[FaultAction]:
        """The schedule in time order (stable within equal times)."""
        return sorted(self._actions, key=lambda a: a.time)

    def describe(self) -> list[str]:
        """Human-readable schedule, one line per action."""
        return [action.describe() for action in self.actions()]

    # -- application ------------------------------------------------------

    def apply(self, target) -> "AppliedFaults":
        """Schedule every action of this plan onto a deployment.

        ``target`` is a :class:`Network` or anything exposing ``.network``
        and ``.sim`` (e.g. :class:`~repro.core.system.DiscoverySystem`).
        Returns the :class:`AppliedFaults` handle whose history fills in
        as the simulation executes the schedule. A plan may be applied to
        any number of (fresh) deployments.
        """
        network: Network = target if isinstance(target, Network) else target.network
        sim: Simulator = network.sim
        applied = AppliedFaults(plan=self, network=network)
        for action in self.actions():
            if action.time < sim.now:
                raise SimulationError(
                    f"fault action at t={action.time} is in the past (now={sim.now})"
                )
            if action.kind == KIND_MOVE:
                node = network.nodes.get(action.node_id)
                if action.lan not in network.lans:
                    raise SimulationError(f"{action.describe()}: unknown LAN")
                if node is not None and node.role in STATIONARY_ROLES:
                    raise SimulationError(
                        f"{action.describe()}: a {node.role} does not roam")
            if action.kind == KIND_LOSS:
                network.add_loss_window(action.window)
            elif action.kind == KIND_LATENCY:
                network.add_latency_spike(action.spike)
            sim.schedule_at(action.time, applied._execute, action)
        return applied


@dataclass
class AppliedFaults:
    """The live handle for one plan application: history and counters."""

    plan: FaultPlan
    network: Network
    history: list[FailureEvent] = field(default_factory=list)

    def _execute(self, action: FaultAction) -> None:
        """Fire one scheduled fault action (simulator callback)."""
        now = self.network.sim.now
        if action.kind == KIND_CRASH:
            node = self.network.nodes.get(action.node_id)
            if node is None or not node.alive:
                return
            node.crash()
        elif action.kind == KIND_RESTART:
            node = self.network.nodes.get(action.node_id)
            if node is None or node.alive:
                return
            node.restart()
        elif action.kind == KIND_MOVE:
            node = self.network.nodes.get(action.node_id)
            if node is None or not node.alive or node.lan_name == action.lan:
                return
            self.network.move_node(action.node_id, action.lan)
        elif action.kind == KIND_PARTITION:
            self.network.partition(action.groups)
        elif action.kind == KIND_HEAL:
            self.network.heal_partition()
        elif action.kind == KIND_DISK_TORN:
            disk = self.network.disks.get(action.node_id)
            if disk is None or disk.tear_tail(action.file) == 0:
                return
        elif action.kind == KIND_DISK_CORRUPT:
            disk = self.network.disks.get(action.node_id)
            if disk is None or not disk.corrupt(action.file):
                return
        elif action.kind == KIND_REPLICA_KILL:
            victims = self._resolve_replicas(action.key, action.count)
            if not victims:
                return
            for node_id in victims:
                self.network.nodes[node_id].crash()
                self.history.append(FailureEvent(now, KIND_CRASH, node_id))
        # Loss windows and latency spikes were installed at apply time
        # (they are time-scoped); this event just marks their onset.
        self.network.metrics.counter(f"fault.{action.kind}").inc()
        self.history.append(FailureEvent(now, action.kind, action.node_id))

    def _resolve_replicas(self, key: str, count: int) -> list[str]:
        """First ``count`` alive replicas of ``key``, per the live ring."""
        for node_id in sorted(self.network.nodes):
            node = self.network.nodes[node_id]
            # A registry that places advertisements by ring names it.
            ring = getattr(getattr(node, "writes", None), "ring", None)
            if (
                node.alive
                and getattr(node, "active", True)  # skip dormant standbys
                and ring is not None
            ):
                replicas = [
                    rid for rid in ring.replicas_for(key)
                    if (peer := self.network.nodes.get(rid)) is not None and peer.alive
                ]
                return replicas[:count]
        return []

    def counts(self) -> dict[str, int]:
        """Executed fault events by kind."""
        counts: dict[str, int] = {}
        for event in self.history:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
