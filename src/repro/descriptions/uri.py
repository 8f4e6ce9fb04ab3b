"""URI-based descriptions: the WS-Discovery / simple-Web-Services model.

"The simpler ways to describe a service is using a string for its name, or
an URI for its type … In WS-Dynamic Discovery, services are also described
using Unified Resource Identifiers." Matching is exact string equality on
the type URI — no semantics, so a request phrased at a broader level than
the advertisement (e.g. asking for ``Sensor`` when ``Radar`` was
advertised) silently fails. Experiment E5 quantifies that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.descriptions.base import DescriptionModel, ModelMatch
from repro.semantics.profiles import ServiceProfile, ServiceRequest


@dataclass(frozen=True)
class UriDescription:
    """An advertisement consisting of a type URI and an endpoint."""

    type_uri: str
    endpoint: str
    service_name: str = ""

    def size_bytes(self) -> int:
        """URIs on the wire: just the strings."""
        return len(self.type_uri.encode("utf-8")) + len(self.endpoint.encode("utf-8")) + \
            len(self.service_name.encode("utf-8"))


@dataclass(frozen=True)
class UriQuery:
    """A query for services of exactly one pre-agreed type URI."""

    type_uri: str
    max_results: int | None = None

    def size_bytes(self) -> int:
        return len(self.type_uri.encode("utf-8")) + 8


class UriModel(DescriptionModel):
    """Exact-match URI discovery.

    The type URI of a capability is its category concept — the convention
    "one would let a URI correspond to a given WSDL schema registered with
    a UDDI registry".
    """

    model_id = "uri"
    description_record = UriDescription
    query_record = UriQuery

    def describe(self, profile: ServiceProfile, endpoint: str) -> UriDescription:
        return UriDescription(
            type_uri=profile.category,
            endpoint=endpoint,
            service_name=profile.service_name,
        )

    def query_from(self, request: ServiceRequest) -> UriQuery:
        # A URI query can only express the category; richer constraints
        # (outputs, QoS) are silently dropped — that is the model's point.
        type_uri = request.category or (
            request.desired_outputs[0] if request.desired_outputs else ""
        )
        return UriQuery(type_uri=type_uri, max_results=request.max_results)

    def evaluate(self, description: UriDescription, query: UriQuery) -> ModelMatch:
        if description.type_uri == query.type_uri:
            return ModelMatch(matched=True, degree=1, score=1.0)
        return ModelMatch.no_match()

    def summary_terms(self, description: UriDescription) -> tuple[str, ...]:
        return (description.type_uri,)

    def query_terms(self, query: UriQuery) -> tuple[str, ...]:
        return (query.type_uri,)
