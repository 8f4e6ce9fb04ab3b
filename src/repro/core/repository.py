"""The artifact repository hosted by registry nodes (§4.6).

"We cannot rely on WWW and DNS availability in dynamic environments …
regular XML Schema and ontology import mechanisms may have to be bypassed.
To remove dependency on Internet availability, a repository for ontologies
and XML Schemas is needed. Our registry network could fill this role."

Artifacts are named blobs; ontologies are the artifact type the semantic
description model actually needs (experiment E12 shows discovery failing
without it). The repository also accepts opaque artifacts (schemas,
transformations) as sized byte strings.
"""

from __future__ import annotations

from typing import Any

from repro.netsim.messages import estimate_payload_size


class ArtifactRepository:
    """Named artifact storage inside one registry node."""

    def __init__(self) -> None:
        self._artifacts: dict[str, Any] = {}
        self.requests_served = 0
        self.requests_missed = 0

    def __len__(self) -> int:
        return len(self._artifacts)

    def __contains__(self, name: str) -> bool:
        return name in self._artifacts

    def store(self, name: str, artifact: Any) -> None:
        """Store or replace an artifact under ``name``."""
        self._artifacts[name] = artifact

    def fetch(self, name: str) -> Any | None:
        """Return the artifact, or ``None``; updates hit/miss counters."""
        artifact = self._artifacts.get(name)
        if artifact is None:
            self.requests_missed += 1
        else:
            self.requests_served += 1
        return artifact

    def names(self) -> list[str]:
        """All stored artifact names, sorted."""
        return sorted(self._artifacts)

    def total_bytes(self) -> int:
        """Modelled storage footprint of all artifacts."""
        return sum(estimate_payload_size(a) for a in self._artifacts.values())

    def clear(self) -> None:
        """Drop all artifacts (registry crash loses volatile state)."""
        self._artifacts.clear()
