"""The artifact repository hosted by registry nodes (§4.6).

"We cannot rely on WWW and DNS availability in dynamic environments …
regular XML Schema and ontology import mechanisms may have to be bypassed.
To remove dependency on Internet availability, a repository for ontologies
and XML Schemas is needed. Our registry network could fill this role."

Artifacts are named ontologies, the artifact the semantic description
model needs (experiment E12 shows discovery failing without it) and the
one record an artifact reply declares.

:class:`ArtifactRepository` is a registry component (``registry.repository``)
that answers artifact requests, hosts what peers send back and — where
``artifact_sync`` is on — asks each new neighbor for what it lacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope
    from repro.semantics.ontology import Ontology


class ArtifactRepository:
    """Named artifact storage inside one registry node."""

    def __init__(self, registry: "RegistryNode") -> None:
        self.registry = registry
        if registry.config.artifact_sync:
            registry.federation.watch("neighbor_added", self.neighbor_added)
        self.rebuild()

    def rebuild(self) -> None:
        """Build an empty repository, its request counters at zero."""
        self._artifacts: dict[str, Ontology] = {}
        self.requests_served = 0
        self.requests_missed = 0

    def start(self) -> None:
        """Nothing to arm: requests and new links drive the repository."""

    def __len__(self) -> int:
        return len(self._artifacts)

    def __contains__(self, name: str) -> bool:
        return name in self._artifacts

    def store(self, name: str, artifact: Ontology) -> None:
        """Store or replace an artifact under ``name``."""
        self._artifacts[name] = artifact

    def fetch(self, name: str) -> Ontology | None:
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
        return sum(a.size_bytes() for a in self._artifacts.values())

    # -- the registry's artifact traffic ---------------------------------------

    def handle_artifact_request(self, envelope: "Envelope") -> None:
        name = envelope.payload.artifact_name
        artifact = self.fetch(name)
        self.registry.send(
            envelope.src,
            protocol.ARTIFACT_REPLY,
            protocol.ArtifactReplyPayload(artifact_name=name, artifact=artifact),
        )

    def handle_artifact_reply(self, envelope: "Envelope") -> None:
        """An artifact arrived from a peer: host it, and offer it to the
        models that cannot evaluate yet (an ontology, in experiment E12)."""
        payload = envelope.payload
        if payload.artifact is None:
            return
        self.store(payload.artifact_name, payload.artifact)
        for model in self.registry.models:
            if not model.can_evaluate():
                model.accept_artifact(payload.artifact)

    def neighbor_added(self, neighbor: str) -> None:
        """A federation link formed: ask the neighbor for the artifacts it
        advertises and this registry lacks."""
        registry = self.registry
        known = registry.federation.known.get(neighbor)
        if known is None:
            return
        for name in known.artifact_names:
            if name not in self._artifacts:
                registry.send(neighbor, protocol.ARTIFACT_REQUEST,
                              protocol.ArtifactRequestPayload(artifact_name=name))
