"""Traffic accounting.

Every byte the transport moves is recorded here, broken down by message
type, by node, and by scope (LAN-local unicast, multicast, WAN). The
experiment harness reads these counters to produce the bandwidth columns
of E1/E6/E7/E8/E10. What the protocol did about it (retries, injected
faults, recoveries, drops by reason) is counted once, in the run's
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass
class TrafficStats:
    """Mutable counters the transport updates on every delivery attempt."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_wan: int = 0
    bytes_multicast: int = 0
    by_type_count: Counter = field(default_factory=Counter)
    by_type_bytes: Counter = field(default_factory=Counter)
    #: Bytes delivered per receiving node (E1's ``max_node_load``).
    node_bytes_received: Counter = field(default_factory=Counter)

    def record_send(self, msg_type: str, src: str, size: int, *, wan: bool, multicast: bool) -> None:
        """Account for one transmission leaving ``src``."""
        self.messages_sent += 1
        self.bytes_sent += size
        self.by_type_count[msg_type] += 1
        self.by_type_bytes[msg_type] += size
        if wan:
            self.bytes_wan += size
        if multicast:
            self.bytes_multicast += size

    def record_delivery(self, dst: str, size: int) -> None:
        """Account for one copy arriving at ``dst``."""
        self.messages_delivered += 1
        self.bytes_delivered += size
        self.node_bytes_received[dst] += size

    def record_deliveries(self, dsts: list[str], size: int) -> None:
        """Account for one ``size``-byte copy arriving at each of ``dsts``,
        as :meth:`record_delivery` would once per receiver (a new node's
        key in receiver order), without a Python-level call per copy."""
        self.messages_delivered += len(dsts)
        self.bytes_delivered += size * len(dsts)
        node_bytes = self.node_bytes_received
        get = node_bytes.get
        for dst in dsts:
            node_bytes[dst] = get(dst, 0) + size

    def record_drop(self) -> None:
        """Account for a transmission that never arrived (loss/partition/crash)."""
        self.messages_dropped += 1

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy of the counters (for experiment tables).

        Scalars plus a nested ``by_type`` section with per-message-type
        count/bytes breakdowns.
        """
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "bytes_wan": self.bytes_wan,
            "bytes_multicast": self.bytes_multicast,
            "by_type": {
                msg_type: {
                    "count": self.by_type_count[msg_type],
                    "bytes": self.by_type_bytes[msg_type],
                }
                for msg_type in sorted(self.by_type_count)
            },
        }

    def delta_since(self, earlier: dict[str, Any]) -> dict[str, Any]:
        """Counters accumulated since an earlier :meth:`snapshot`.

        The nested ``by_type`` section is differenced per message type;
        types with a zero delta are omitted so windows stay compact.
        """
        current = self.snapshot()
        delta: dict[str, Any] = {}
        for key, value in current.items():
            if key == "by_type":
                earlier_types = earlier.get("by_type", {})
                types: dict[str, dict[str, int]] = {}
                for msg_type in sorted(set(value) | set(earlier_types)):
                    now_entry = value.get(msg_type, {"count": 0, "bytes": 0})
                    was_entry = earlier_types.get(msg_type, {"count": 0, "bytes": 0})
                    entry = {
                        "count": now_entry["count"] - was_entry["count"],
                        "bytes": now_entry["bytes"] - was_entry["bytes"],
                    }
                    if entry["count"] or entry["bytes"]:
                        types[msg_type] = entry
                delta[key] = types
            else:
                delta[key] = value - earlier.get(key, 0)
        return delta

    def max_node_load(self) -> tuple[str | None, int]:
        """The node that received the most bytes, and how many.

        Measures the paper's "load on the single node may become high"
        concern for centralized topologies.
        """
        if not self.node_bytes_received:
            return None, 0
        node, load = max(self.node_bytes_received.items(), key=lambda item: (item[1], item[0]))
        return node, load
