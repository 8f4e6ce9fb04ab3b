"""Workload generation: scenarios and query drivers.

The paper motivates the architecture with two concrete dynamic
environments — a multi-agency crisis-management operation (§1) and the
network-centric battlefield (the MILCOM companion paper). Neither has
public traces, so this package generates synthetic but structurally
faithful workloads:

* :mod:`~repro.workloads.scenarios` — deployment builders populating a
  :class:`~repro.core.DiscoverySystem` (or a baseline system) with LANs,
  registries, services drawn from a domain ontology, and clients.
* :mod:`~repro.workloads.queries` — timed query workloads with
  ontology-derived ground-truth relevance for recall/precision metrics.

Transience over time is not generated here: it is a
:class:`~repro.netsim.faults.FaultPlan` (``FaultPlan.churn`` for Poisson
service churn) applied to the built deployment.
"""

from repro.workloads.scenarios import (
    ScenarioSpec,
    battlefield_scenario,
    build_scenario,
    crisis_scenario,
)
from repro.workloads.queries import QueryDriver, QueryWorkload

__all__ = [
    "QueryDriver",
    "QueryWorkload",
    "ScenarioSpec",
    "battlefield_scenario",
    "build_scenario",
    "crisis_scenario",
]
