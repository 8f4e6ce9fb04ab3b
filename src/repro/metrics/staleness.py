"""Staleness: obsolete advertisements and obsolete responses.

The paper's freshness requirement: "The responses to queries should
mirror the current state in the service network and should not return
obsolete service descriptions that represent services that are no longer
present on the network."

Two measures:

* :func:`response_staleness` — of the hits returned to clients, what
  fraction named a service whose node was dead at response time? This is
  the user-visible failure.
* :func:`registry_staleness` — of the advertisements currently stored in
  registries, what fraction belong to dead services? This is the systemic
  rot that leasing drains and UDDI accumulates (E4).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.system import DiscoverySystem
from repro.workloads.queries import IssuedQuery


def _dead_services(system: DiscoverySystem) -> frozenset[str]:
    return frozenset(
        service.profile.service_name for service in system.services if not service.alive
    )


def response_staleness(
    issued: Iterable[IssuedQuery],
    dead_at_completion: dict[str, frozenset[str]],
) -> float:
    """Fraction of returned hits that named a dead service.

    ``dead_at_completion`` maps each call's ``query_id`` to the set of
    service names dead when the call completed (recorded by the
    experiment loop at completion time, since liveness changes during a
    run).
    """
    returned = 0
    stale = 0
    for query in issued:
        if not query.call.completed:
            continue
        dead = dead_at_completion.get(query.call.query_id, frozenset())
        for name in query.call.service_names():
            returned += 1
            if name in dead:
                stale += 1
    return stale / returned if returned else 0.0


def registry_staleness(system: DiscoverySystem) -> float:
    """Fraction of advertisements stored registry-wide whose service is dead."""
    dead = _dead_services(system)
    total = 0
    stale = 0
    for registry in system.registries:
        if not registry.alive:
            continue
        for ad in registry.store.all():
            total += 1
            if ad.service_name in dead:
                stale += 1
    return stale / total if total else 0.0
