"""Per-phase bandwidth accounting.

Experiments separate the cost of *maintenance* (beacons, pings, renewals,
gossip) from the cost of *query* traffic: the paper's bandwidth claims are
about both, but they scale differently (maintenance with time and
population; queries with query load). A :class:`TrafficWindow` brackets a
phase and reports the delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.netsim.stats import TrafficStats

#: The message types that carry queries and their answers; everything else
#: a window sees is maintenance.
QUERY_TYPES = frozenset({
    "query", "query-forward", "query-response",
    "walk", "walk-hits", "walk-end",
    "decentral-query", "decentral-response",
})


@dataclass
class TrafficWindow:
    """Deltas of the traffic counters over a bracketed phase.

    Usage::

        window = TrafficWindow.open(network.stats, sim.now)
        ...  # run the phase
        report = window.close(sim.now)
        report["bytes_sent"], report["bytes_per_second"]
    """

    stats: TrafficStats
    opened_at: float
    baseline: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def open(stats: TrafficStats, now: float) -> "TrafficWindow":
        """Start a measurement window at simulated time ``now``."""
        return TrafficWindow(stats=stats, opened_at=now, baseline=stats.snapshot())

    def close(self, now: float) -> dict[str, float]:
        """Scalar deltas since open, plus the per-second rate."""
        delta = self.stats.delta_since(self.baseline)
        duration = max(now - self.opened_at, 1e-9)
        report: dict[str, float] = dict(delta)
        report["duration"] = duration
        report["bytes_per_second"] = delta["bytes_sent"] / duration
        report["messages_per_second"] = delta["messages_sent"] / duration
        return report

    def bytes_by_type(self) -> dict[str, int]:
        """Per-message-type byte deltas since open (e.g. 'publish', 'query')."""
        before = {msg_type: entry["bytes"] for msg_type, entry in self.baseline["by_type"].items()}
        return {
            msg_type: bytes_ - before.get(msg_type, 0)
            for msg_type, bytes_ in self.stats.by_type_bytes.items()
            if bytes_ != before.get(msg_type, 0)
        }

    def query_bytes(self) -> int:
        """Bytes spent carrying queries and responses."""
        return sum(
            bytes_ for msg_type, bytes_ in self.bytes_by_type().items()
            if msg_type in QUERY_TYPES
        )

    def maintenance_bytes(self) -> int:
        """Bytes spent on registry-network upkeep: every byte that is not
        query traffic (beacons, pings, renewals, gossip, anti-entropy,
        shard placement)."""
        return sum(self.bytes_by_type().values()) - self.query_bytes()
