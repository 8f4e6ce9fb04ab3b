"""Advertisement records and the UUID convention.

UUIDs here are deterministic within a run (a monotonic counter rendered in
UUID-ish form) so that simulations are reproducible; real deployments
would use RFC 4122 UUIDs as UDDI 3.0 does, which the paper cites as the
model for its identification convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.descriptions import Description

_uuid_counter = itertools.count(1)


def reset_uuids() -> None:
    """Restart the UUID counter (new simulation run).

    Identifiers are only meaningful within one simulated system, but the
    counter is process-global — and under sharding the raw ``ad_id``
    string drives consistent-hash placement, so two same-seed systems
    built in one process would otherwise place the same advertisements
    on different replica sets.
    """
    global _uuid_counter
    _uuid_counter = itertools.count(1)

#: Record overhead beyond the description payload: UUID, endpoint,
#: timestamps, lease linkage.
_RECORD_OVERHEAD_BYTES = 96


def new_uuid(kind: str = "ad") -> str:
    """A fresh run-deterministic identifier, e.g. ``"ad-000042"``."""
    return f"{kind}-{next(_uuid_counter):06d}"


def new_serial() -> int:
    """A fresh run-deterministic number from the counter behind
    :func:`new_uuid`, for an id kept as an int (a lease's, rendered
    ``lease-{n:06d}`` on demand)."""
    return next(_uuid_counter)


@dataclass(frozen=True, slots=True)
class Advertisement:
    """One published service description as stored in a registry.

    Attributes
    ----------
    ad_id:
        The advertisement's UUID — the handle for renew/update/remove and
        for de-duplicating responses gathered from several registries.
    service_node:
        Node id of the publishing service node.
    service_name:
        The described service's name (stable across republishes).
    endpoint:
        Where to invoke the service ("service invocations are performed
        directly").
    model_id:
        The description model of :attr:`description` ("next header").
    description:
        The model's description record (URI record, template, semantic
        profile), admitted by the registry's model gate; the class checks
        nothing itself, because a benchmark builds 100k of them.
    version:
        Incremented on republish; registries keep only the newest.
    home_registry:
        The registry the advertisement was originally published to
        (provenance for federation/replication).
    """

    ad_id: str
    service_node: str
    service_name: str
    endpoint: str
    model_id: str
    description: Description
    version: int = 1
    published_at: float = 0.0
    home_registry: str = ""

    def bumped(self, description: Description, now: float) -> "Advertisement":
        """A republished copy with a newer version and description."""
        return replace(self, description=description, version=self.version + 1,
                       published_at=now)

    def size_bytes(self) -> int:
        """Wire size: the description payload plus record overhead."""
        return self.description.size_bytes() + _RECORD_OVERHEAD_BYTES
