"""Isolated probes: one layer at a time, no deployment around it.

These are the ``benchmarks/test_micro.py`` cases (scheduler, multicast,
warm subsumption, rank-100) plus WAL append/replay, re-expressed so their
numbers land in the benchmark's results instead of pytest-benchmark's
never-written ``.benchmarks/``. Each probe repeats its body and reports
the median repetition.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.core.durability import WAL_FILE, frame_record, scan_records
from repro.netsim.disk import SimDisk
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.semantics.generator import ProfileGenerator, battlefield_ontology
from repro.semantics.matchmaker import Matchmaker
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile
from repro.semantics.reasoner import Reasoner

REPEATS = 5


def _median_seconds(body: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        body()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def netsim_probes() -> dict[str, float]:
    """Scheduler throughput and multicast fan-out on an otherwise idle net."""

    def tick() -> None:
        pass

    def run_events() -> None:
        sim = Simulator(seed=0)
        for i in range(10_000):
            sim.schedule(i * 0.001, tick)
        sim.run()
        if sim.events_processed != 10_000:
            raise RuntimeError("scheduler probe lost events")

    def run_multicasts() -> None:
        sim = Simulator(seed=0)
        net = Network(sim)
        net.add_lan("lan")
        nodes = [net.add_node(Node(f"n{i}"), "lan") for i in range(20)]
        for _ in range(100):
            nodes[0].multicast("beacon", payload="b" * 64)
        sim.run(until=10.0)
        if net.stats.messages_delivered != 100 * 19:
            raise RuntimeError("multicast probe lost deliveries")

    return {
        "netsim.sim.events_per_s": 10_000 / _median_seconds(run_events),
        "netsim.net.multicast_deliveries_per_s": 1_900 / _median_seconds(run_multicasts),
    }


def semantics_probes(ontology: Ontology) -> dict[str, float]:
    """Warm subsumption, cold closure build on ``ontology``, and rank-100."""
    battlefield = battlefield_ontology()
    reasoner = Reasoner(battlefield)
    classes = battlefield.classes()[:20]
    pairs = [(a, b) for a in classes for b in classes]

    def check_all() -> None:
        for _ in range(50):
            for a, b in pairs:
                reasoner.subsumes(a, b)

    check_all()  # warm

    def closure_build() -> None:
        cold = Reasoner(ontology)
        for uri in ontology.classes():
            cold.closure_bits(uri)

    generator = ProfileGenerator(battlefield, seed=0)
    matchmaker = Matchmaker(Reasoner(battlefield))
    profiles = generator.profiles(100)
    request = generator.request_for(profiles[0], generalize=1)

    def rank() -> None:
        for _ in range(20):
            matchmaker.rank(profiles, request, limit=10)

    return {
        "semantics.reasoner.subsumes_per_s": 50 * len(pairs) / _median_seconds(check_all),
        "semantics.reasoner.closure_build_ms": _median_seconds(closure_build) * 1e3,
        "semantics.match.rank100_per_s": 20 / _median_seconds(rank),
    }


def wal_probes(profiles: list[ServiceProfile]) -> dict[str, float]:
    """Framing + appending store records to a disk, and scanning them back."""
    records = [
        ("store", profile, f"lease-{i:06d}", 60.0, 60.0 + i, 0)
        for i, profile in enumerate(profiles[:2_000])
    ]
    disk = SimDisk()

    def append_all() -> None:
        disk.write(WAL_FILE, b"")
        for record in records:
            disk.append(WAL_FILE, frame_record(record))

    def replay_all() -> None:
        replayed, corrupt, torn = scan_records(disk.read(WAL_FILE))
        if len(replayed) != len(records) or corrupt or torn:
            raise RuntimeError("WAL probe did not replay what it appended")

    append_s = _median_seconds(append_all)
    return {
        "core.durability.wal_append_per_s": len(records) / append_s,
        "core.durability.wal_replay_per_s": len(records) / _median_seconds(replay_all),
    }
