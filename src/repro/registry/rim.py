"""Registry information model (RIM).

"Often, registry technologies have their own Registry Information Model,
or RIM … An agreed-upon taxonomy of service types can be registered with
some of the registry technologies."

Our RIM is deliberately thin — the paper argues *against* forcing service
descriptions through RIM fields ("the registry cannot assist in
fine-grained service matching, since it does not know the meaning of the
custom fields") — so it holds only what the registry itself must know:

* which description models it supports (the plug-ins; the ontologies
  uploaded to it live in its §4.6 repository, ``core/repository.py``),
* operational statistics exposed to peers during registry signalling
  ("capacity and statistics reports" in the protocol-profiling list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from repro.records import PerItem, record


@record(overhead=32)
class RegistryDescription:
    """The self-description a registry shares with clients and peers.

    ``artifact_names`` advertises the repository content (§4.6) so peers
    lacking an ontology know where to fetch it from.
    """

    registry_id: str
    lan_name: str
    supported_models: Annotated[tuple[str, ...], PerItem(8)]
    advertisement_count: int
    neighbor_count: int
    artifact_names: Annotated[tuple[str, ...], PerItem(8)] = ()
    #: Content summary: index terms of stored advertisements (§4.9 —
    #: "summary information about the advertisements present in a
    #: registry"). Empty when summaries are disabled.
    summary_terms: Annotated[tuple[str, ...], PerItem(8)] = ()
    #: When this snapshot was taken (simulated time); gossip keeps the
    #: freshest snapshot per registry.
    issued_at: float = 0.0
    #: Consistent-hash ring identity (sharded federation): the id whose
    #: virtual-node positions this registry occupies. Empty when sharding
    #: is off (and then contributes zero bytes); differs from
    #: ``registry_id`` only for a promoted warm standby, which inherits
    #: the dead registry's positions.
    ring_id: str = ""


@dataclass
class RegistryInfoModel:
    """Mutable registry-side RIM: taxonomies, capabilities, statistics."""

    registry_id: str
    lan_name: str
    supported_models: list[str] = field(default_factory=list)
    publishes: int = 0
    renews: int = 0
    removals: int = 0
    queries_served: int = 0
    queries_forwarded: int = 0

    def describe(self, *, advertisement_count: int, neighbor_count: int,
                 artifact_names: tuple[str, ...] = (),
                 summary_terms: tuple[str, ...] = (),
                 issued_at: float = 0.0,
                 ring_id: str = "") -> RegistryDescription:
        """A snapshot suitable for beacons and signalling messages."""
        return RegistryDescription(
            registry_id=self.registry_id,
            lan_name=self.lan_name,
            supported_models=tuple(sorted(self.supported_models)),
            advertisement_count=advertisement_count,
            neighbor_count=neighbor_count,
            artifact_names=artifact_names,
            summary_terms=summary_terms,
            issued_at=issued_at,
            ring_id=ring_id,
        )

    def stats(self) -> dict[str, int]:
        """Operational counters (for experiment tables and signalling)."""
        return {
            "publishes": self.publishes,
            "renews": self.renews,
            "removals": self.removals,
            "queries_served": self.queries_served,
            "queries_forwarded": self.queries_forwarded,
        }
