"""Semantic descriptions: OWL-S-style profiles with degree-of-match.

The advertisement payload *is* the :class:`~repro.semantics.ServiceProfile`
and the query payload *is* the :class:`~repro.semantics.ServiceRequest`;
evaluation delegates to the :class:`~repro.semantics.Matchmaker`.

A node can only evaluate semantic queries if it holds the shared ontology
("additional ontologies may be needed by clients for them to be able to
evaluate and use services" — §2). A :class:`SemanticModel` constructed
without an ontology reports ``can_evaluate() == False`` and fails all
matches until :meth:`attach_ontology` is called — typically after fetching
the ontology from the registry network's repository (§4.6, experiment E12).

The nodes of one deployment reason over one ontology, so they share one
:class:`~repro.semantics.Matchmaker` (``DiscoverySystem.matchmaker``,
passed to each node's model as ``shared``): a LAN multicast query answered by
a hundred services builds its request plan once, and the closure, depth
and pair caches are warmed once. The model wrapper stays per node, and
with it the per-node counters.
"""

from __future__ import annotations

from repro.descriptions.base import NO_MATCH, DescriptionModel, ModelMatch
from repro.semantics.matchmaker import DegreeOfMatch, Matchmaker
from repro.semantics.ontology import THING, Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.semantics.reasoner import Reasoner

_FAIL = DegreeOfMatch.FAIL


class SemanticModel(DescriptionModel):
    """Degree-of-match evaluation over OWL-S-like profiles."""

    model_id = "semantic"

    def __init__(self, ontology: Ontology | None = None, *,
                 shared: Matchmaker | None = None) -> None:
        """``shared`` is the deployment's matchmaker: used whenever the
        attached ontology is the one it reasons over. Without it the
        model builds a matchmaker of its own."""
        self._shared = shared
        self._matchmaker: Matchmaker | None = None
        self.missing_ontology_failures = 0
        if ontology is not None:
            self.attach_ontology(ontology)

    def attach_ontology(self, ontology: Ontology) -> None:
        """Install (or replace) the ontology used for evaluation: the shared
        matchmaker if it reasons over this very ontology, else a new one."""
        shared = self._shared
        if shared is not None and shared.reasoner.ontology is ontology:
            self._matchmaker = shared
        else:
            self._matchmaker = Matchmaker(Reasoner(ontology))

    @property
    def ontology(self) -> Ontology | None:
        """The attached ontology, if any."""
        return self._matchmaker.reasoner.ontology if self._matchmaker else None

    @property
    def matchmaker(self) -> Matchmaker | None:
        """The live matchmaker (replaced whenever the ontology is)."""
        return self._matchmaker

    @property
    def reasoner(self) -> Reasoner | None:
        """The live subsumption reasoner, if an ontology is attached."""
        return self._matchmaker.reasoner if self._matchmaker else None

    def can_evaluate(self) -> bool:
        return self._matchmaker is not None

    def accept_artifact(self, artifact) -> bool:
        """A fetched ontology is attached at once (experiment E12)."""
        accepted = isinstance(artifact, Ontology)
        if accepted:
            self.attach_ontology(artifact)
        return accepted

    def make_index(self):
        """An inverted concept index over this model's advertisements.

        The index reads the ontology/reasoner through this model at every
        lookup, so attaching or swapping the ontology later (repository
        fetch, E12) is picked up without re-wiring.
        """
        from repro.registry.index import SemanticConceptIndex

        return SemanticConceptIndex(self)

    def describe(self, profile: ServiceProfile, endpoint: str) -> ServiceProfile:
        # The profile is already a full semantic description; the endpoint
        # travels in the advertisement record, not the payload.
        return profile

    def query_from(self, request: ServiceRequest) -> ServiceRequest:
        return request

    def prefilter(self, description: ServiceProfile, query: ServiceRequest) -> bool:
        """QoS pre-filter: reject constraint-failing profiles unscored.

        A profile violating any hard QoS constraint evaluates to FAIL
        (``Matchmaker.match`` checks constraints before anything else), so
        rejecting it here skips the semantic scoring without changing the
        hit list. Non-profile payloads pass through (``evaluate`` counts them).
        """
        if not isinstance(query, ServiceRequest) or not query.qos_constraints:
            return True
        if not isinstance(description, ServiceProfile):
            return True
        for constraint in query.qos_constraints:
            if not constraint.satisfied_by(description.qos_value(constraint.attribute)):
                return False
        return True

    def prefilter_for(self, query: ServiceRequest):
        """``None`` unless ``query`` carries QoS constraints (see :meth:`prefilter`)."""
        if not isinstance(query, ServiceRequest) or not query.qos_constraints:
            return None
        return self.prefilter

    def summary_terms(self, description: ServiceProfile) -> set[str]:
        """Category and outputs *plus all their ancestors*: a summary
        holding ``Radar`` also answers to a request for ``Sensor`` —
        subsumption-aware routing without shipping the advertisements."""
        if not self._well_typed(description, ServiceProfile):
            return set()
        return self._with_ancestors({description.category, *description.outputs})

    def query_terms(self, query: ServiceRequest) -> set[str]:
        if not self._well_typed(query, ServiceRequest):
            return set()
        concepts = set(query.desired_outputs)
        if query.category is not None:
            concepts.add(query.category)
        return self._with_ancestors(concepts)

    def _with_ancestors(self, concepts: set[str]) -> set[str]:
        """``concepts`` plus their ontology ancestors (the reasoner's
        memoized closures), minus THING — it would match everything."""
        terms = set(concepts)
        reasoner = self.reasoner
        if reasoner is not None:
            for concept in concepts:
                if concept in reasoner.ontology:
                    terms |= reasoner.ancestors_of(concept)
        terms.discard(THING)
        return terms

    def too_general(self, term: str) -> bool:
        """Near-root concepts (depth <= 1) match almost any query and
        would make every summary a false positive."""
        reasoner = self.reasoner
        return (reasoner is not None and term in reasoner.ontology
                and reasoner.depth_of(term) <= 1)

    def evaluate(self, description: ServiceProfile, query: ServiceRequest) -> ModelMatch:
        if self._matchmaker is None:
            self.missing_ontology_failures += 1
            return NO_MATCH
        if not isinstance(description, ServiceProfile) or not isinstance(query, ServiceRequest):
            self.malformed_payloads += 1
            return NO_MATCH
        verdict = self._matchmaker.verdict(description, query)
        if verdict[0] is _FAIL:
            return NO_MATCH
        return ModelMatch(True, int(verdict[0]), verdict[1])
