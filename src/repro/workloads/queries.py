"""Query workloads: timed discovery requests with ground truth.

A :class:`QueryWorkload` is a fixed list of labelled requests (request +
the ontology-derived set of relevant service names); a
:class:`QueryDriver` plays a workload against a deployment — issuing each
query from a deterministic-randomly chosen client at a steady rate — and
collects the completed :class:`~repro.core.DiscoveryCall` handles for the
metrics layer. :func:`play` is the measured play every experiment runs:
an anchored workload, a driver, and a traffic window around both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.client_node import ClientNode, DiscoveryCall
from repro.core.system import DiscoverySystem
from repro.errors import WorkloadError
from repro.obs.metrics import Histogram
from repro.semantics.generator import LabelledRequest, ProfileGenerator
from repro.semantics.matchmaker import DegreeOfMatch
from repro.semantics.profiles import ServiceProfile
from repro.workloads.scenarios import BuiltScenario

if TYPE_CHECKING:
    from repro.metrics.bandwidth import TrafficWindow


@dataclass
class QueryWorkload:
    """A reproducible list of labelled discovery requests."""

    labelled: list[LabelledRequest]

    def __len__(self) -> int:
        return len(self.labelled)

    @staticmethod
    def anchored(
        generator: ProfileGenerator,
        profiles: list[ServiceProfile],
        count: int,
        *,
        generalize: int = 1,
        min_degree: DegreeOfMatch = DegreeOfMatch.SUBSUMES,
        max_results: int | None = None,
    ) -> "QueryWorkload":
        """Requests anchored at random deployed profiles (always satisfiable).

        ``max_results`` applies the response-control cap to every request.
        """
        if not profiles:
            raise WorkloadError("cannot anchor queries on an empty profile set")
        labelled = generator.labelled_requests(
            profiles, count, generalize=generalize, min_degree=min_degree
        )
        if max_results is not None:
            labelled = [
                replace(item, request=replace(item.request, max_results=max_results))
                for item in labelled
            ]
        return QueryWorkload(labelled=labelled)


@dataclass
class IssuedQuery:
    """One query as played: the call handle plus its ground truth."""

    call: DiscoveryCall
    relevant: frozenset[str]
    client: str
    issued_at: float


@dataclass
class QueryDriver:
    """Plays a workload against a deployment at a steady rate.

    Queries are issued round-interval apart, each from a client chosen
    with the *driver's own* seeded RNG (so the schedule does not perturb
    the simulator's RNG stream and stays comparable across architectures).
    """

    system: DiscoverySystem
    workload: QueryWorkload
    model_id: str = "semantic"
    interval: float = 1.0
    seed: int = 0
    issued: list[IssuedQuery] = field(default_factory=list)

    def play(self, *, clients: list[ClientNode] | None = None,
             settle: float = 2.0, drain: float = 10.0) -> list[IssuedQuery]:
        """Issue every request, then run until all calls complete.

        ``settle`` seconds run first so bootstrap (probes, publishes)
        finishes; ``drain`` seconds of slack run after the last issue.
        Returns the issued queries, completed or not.
        """
        pool = clients if clients is not None else self.system.clients
        if not pool:
            raise WorkloadError("deployment has no clients to query from")
        rng = random.Random(self.seed)
        sim = self.system.sim
        self.system.run(until=sim.now + settle)
        for index, item in enumerate(self.workload.labelled):
            client = pool[rng.randrange(len(pool))]
            when = sim.now + index * self.interval

            def issue(client=client, item=item) -> None:
                if not client.alive:
                    return
                call = client.discover(item.request, model_id=self.model_id)
                self.issued.append(
                    IssuedQuery(
                        call=call,
                        relevant=item.relevant,
                        client=client.node_id,
                        issued_at=sim.now,
                    )
                )

            sim.schedule_at(when, issue)
        sim.run(until=sim.now + len(self.workload.labelled) * self.interval + drain)
        return self.issued

    def completed(self) -> list[IssuedQuery]:
        """The issued queries whose calls completed."""
        return [q for q in self.issued if q.call.completed]


@dataclass
class Play:
    """One measured play (see :func:`play`); scoring is the caller's."""

    issued: list[IssuedQuery]
    completed: list[IssuedQuery]
    window: TrafficWindow
    #: The window's :meth:`~TrafficWindow.close` report.
    traffic: dict[str, float]
    #: The run's cumulative ``query.e2e_latency`` summary after the play.
    latency: dict[str, float]


def play(
    built: BuiltScenario,
    n_queries: int,
    *,
    interval: float = 0.5,
    settle: float = 0.0,
    drain: float = 10.0,
    clients: list[ClientNode] | None = None,
    model_id: str = "semantic",
    max_results: int | None = None,
) -> Play:
    """Play ``n_queries`` requests anchored at the deployed profiles.

    A :class:`QueryDriver` seeded with the spec's seed issues them
    ``interval`` apart after ``settle`` seconds and runs ``drain``
    seconds past the last; the traffic window opens before the settle
    and closes after the drain.
    """
    # Imported here: repro.metrics imports this module, and networkx.
    from repro.metrics.bandwidth import TrafficWindow

    system = built.system
    workload = QueryWorkload.anchored(built.generator, built.profiles, n_queries,
                                      generalize=1, max_results=max_results)
    window = TrafficWindow.open(system.network.stats, system.sim.now)
    driver = QueryDriver(system, workload, model_id=model_id, interval=interval,
                         seed=built.spec.seed)
    issued = driver.play(clients=clients, settle=settle, drain=drain)
    traffic = window.close(system.sim.now)
    name = "query.e2e_latency"
    latency = (system.metrics.histograms.get(name) or Histogram(name)).summary()
    return Play(issued, driver.completed(), window, traffic, latency)
