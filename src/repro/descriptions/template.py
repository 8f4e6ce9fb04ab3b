"""Keyword/template descriptions: the UDDI / WSDL registry model.

"Querying for a service is most often accomplished by filling out a
partial template for the service wanted, and submitting this to the
registry, which finds service advertisements matching this template."

Descriptions carry the service name, a category string, and a bag of
keywords tokenized from the capability's names and free text. A query
matches when *all* its tokens appear in the description's token bag —
UDDI-style categorized keyword search: reasonable recall when vocabulary
overlaps lexically, no notion of subsumption, no QoS filtering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.descriptions.base import DescriptionModel, ModelMatch
from repro.semantics.profiles import ServiceProfile, ServiceRequest

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|[^A-Za-z0-9]+")


def tokenize(text: str) -> frozenset[str]:
    """Lower-case word tokens, splitting camel-case and punctuation.

    ``"ncw:GroundTrackService"`` -> ``{"ncw", "ground", "track", "service"}``.
    """
    parts = _CAMEL_BOUNDARY.split(text)
    return frozenset(part.lower() for part in parts if part)


@dataclass(frozen=True)
class TemplateDescription:
    """A UDDI-like businessService record: name, category, keyword bag."""

    service_name: str
    category: str
    keywords: frozenset[str]
    endpoint: str

    def size_bytes(self) -> int:
        """Name + category + tModel keyword entries, with XML overhead."""
        keyword_bytes = sum(len(k.encode("utf-8")) + 24 for k in sorted(self.keywords))
        return (
            256  # businessService skeleton
            + len(self.service_name.encode("utf-8"))
            + len(self.category.encode("utf-8"))
            + len(self.endpoint.encode("utf-8"))
            + keyword_bytes
        )


@dataclass(frozen=True)
class TemplateQuery:
    """A partial template: tokens that must all be present."""

    tokens: frozenset[str]
    max_results: int | None = None

    def size_bytes(self) -> int:
        return 128 + sum(len(t.encode("utf-8")) + 16 for t in sorted(self.tokens))


class TemplateModel(DescriptionModel):
    """All-tokens-present keyword matching over template records."""

    model_id = "template"
    description_record = TemplateDescription
    query_record = TemplateQuery

    def describe(self, profile: ServiceProfile, endpoint: str) -> TemplateDescription:
        keywords = (
            tokenize(profile.service_name)
            | tokenize(profile.category)
            | tokenize(profile.text)
            | frozenset(t for concept in profile.outputs for t in tokenize(concept))
        )
        return TemplateDescription(
            service_name=profile.service_name,
            category=profile.category,
            keywords=keywords,
            endpoint=endpoint,
        )

    def query_from(self, request: ServiceRequest) -> TemplateQuery:
        tokens: set[str] = set(t.lower() for t in request.keywords)
        if request.category:
            tokens |= tokenize(request.category)
        for concept in request.desired_outputs:
            tokens |= tokenize(concept)
        # Namespace prefixes ("ncw", "ems", "gen") appear in every concept
        # and carry no selectivity; a human filling a UDDI template would
        # not type them.
        tokens -= {"ncw", "ems", "gen", "owl", "thing"}
        return TemplateQuery(tokens=frozenset(tokens), max_results=request.max_results)

    def evaluate(self, description: TemplateDescription, query: TemplateQuery) -> ModelMatch:
        if not query.tokens:
            return ModelMatch.no_match()
        if query.tokens <= description.keywords:
            # Fewer extra keywords = a tighter record; prefer those.
            extra = len(description.keywords - query.tokens)
            score = 1.0 / (1.0 + extra)
            return ModelMatch(matched=True, degree=1, score=score)
        return ModelMatch.no_match()

    def summary_terms(self, description: TemplateDescription) -> frozenset[str]:
        return tokenize(description.category)

    def query_terms(self, query: TemplateQuery) -> frozenset[str]:
        return query.tokens
