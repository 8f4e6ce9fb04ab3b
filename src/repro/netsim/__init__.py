"""Discrete-event network simulator substrate.

The paper targets "dynamic environments" — LANs and WANs where nodes with
wireless links appear and disappear. This package provides the deterministic
substrate every protocol in :mod:`repro.core` runs on, the paper's
architecture and its baselines alike:

* :class:`~repro.netsim.simulator.Simulator` — a heap-based discrete-event
  scheduler with a seeded RNG and stable event ordering, so every run is
  reproducible bit-for-bit.
* :class:`~repro.netsim.node.Node` — the base class for protocol agents
  (clients, service nodes, registries) with mailbox dispatch, timers, and
  crash/restart semantics.
* :class:`~repro.netsim.network.Network` / :class:`~repro.netsim.network.Lan`
  — LAN segments are multicast domains; LANs are joined by WAN links.
* :class:`~repro.netsim.messages.Envelope` — every message carries a byte
  size so bandwidth claims are *measured*, not asserted.
* :mod:`~repro.netsim.faults` — the one way a run makes nodes fail:
  declarative :class:`~repro.netsim.faults.FaultPlan` schedules
  (crash/restart, seeded churn, partition/heal, loss bursts, latency
  spikes) driving the primitives above deterministically, and
  :func:`~repro.netsim.faults.removal_order` for random/targeted attacks.
"""

from repro.netsim.messages import Envelope, SizeModel
from repro.netsim.network import Lan, LatencySpike, LossWindow, Network
from repro.netsim.node import Node, Timer
from repro.netsim.simulator import Simulator
from repro.netsim.stats import TrafficStats
from repro.netsim.faults import AppliedFaults, FaultAction, FaultPlan, removal_order

__all__ = [
    "AppliedFaults",
    "Envelope",
    "FaultAction",
    "FaultPlan",
    "Lan",
    "LatencySpike",
    "LossWindow",
    "Network",
    "Node",
    "SizeModel",
    "Simulator",
    "Timer",
    "TrafficStats",
    "removal_order",
]
