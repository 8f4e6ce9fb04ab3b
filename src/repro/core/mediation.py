"""Mediator selection and light service composition.

§4.3: "To reduce the load on limited devices, service selection, mediator
selection, composition and reasoning support in registries may be needed"
and §2: "new functionality such as mediation between different
vocabularies may introduce additional queries or hints by the discovery
service. This could be the case when an interesting service is found, but
an additional translation or mediation service may be needed to use it."

The planner implements exactly the "additional queries" reading: when a
direct query yields nothing, it

1. discovers the deployed *translators* (one category query),
2. searches backwards from each desired output through chains of up to
   ``max_depth`` translators (concept-level reasoning over the translator
   profiles' inputs/outputs),
3. discovers *producers* for each chain's input concept (one query per
   distinct concept, memoized), constrained to inputs the client can
   actually supply,
4. returns ranked :class:`MediationPlan`s:
   producer → translator₁ → … → translatorₙ → client.

Semantic descriptions make this possible at all: the planner reasons over
the input/output concepts in the discovered profiles, which URI/keyword
advertisements do not expose. Works over any deployment, WAN included,
because each step is an ordinary discovery query. Translators with more
than one input are used only as the *final* hop of a depth-1 plan (their
other inputs must be client-suppliable), keeping the search tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client_node import ClientNode
from repro.core.system import DiscoverySystem
from repro.registry.matching import QueryHit
from repro.semantics.matchmaker import DegreeOfMatch, Matchmaker
from repro.semantics.profiles import ServiceRequest
from repro.semantics.reasoner import Reasoner


@dataclass(frozen=True)
class MediationPlan:
    """A plan: invoke ``producer``, then apply ``translators`` in order."""

    produces: str
    producer: QueryHit
    translators: tuple[QueryHit, ...]
    score: float

    @property
    def translator(self) -> QueryHit:
        """The final translator (the one yielding the requested concept)."""
        return self.translators[-1]

    @property
    def depth(self) -> int:
        """Number of translation steps."""
        return len(self.translators)

    def describe(self) -> str:
        """Human-readable plan summary, e.g. ``"a -> t1 -> t2"``."""
        names = [self.producer.advertisement.service_name]
        names.extend(t.advertisement.service_name for t in self.translators)
        return " -> ".join(names)


@dataclass
class MediatedResult:
    """Outcome of a mediation-aware discovery."""

    request: ServiceRequest
    direct_hits: list[QueryHit] = field(default_factory=list)
    plans: list[MediationPlan] = field(default_factory=list)
    extra_queries: int = 0

    @property
    def satisfied(self) -> bool:
        """Whether every desired output is met, directly or via plans."""
        if self.direct_hits:
            return True
        if not self.plans:
            return False
        covered = {plan.produces for plan in self.plans}
        return set(self.request.desired_outputs) <= covered


class MediationPlanner:
    """Plans mediated discovery for one client.

    Parameters
    ----------
    system:
        The deployment (provides the synchronous discovery wrapper and
        the shared ontology for concept reasoning).
    translator_category:
        Ontology concept identifying translation/mediation services
        (e.g. ``"ems:TranslationService"``).
    """

    def __init__(self, system: DiscoverySystem, *, translator_category: str) -> None:
        self.system = system
        self.translator_category = translator_category
        self._matchmaker = (
            Matchmaker(Reasoner(system.ontology))
            if system.ontology is not None else None
        )

    # -- public API ---------------------------------------------------------

    def discover(
        self,
        client: ClientNode,
        request: ServiceRequest,
        *,
        max_plans: int = 5,
        max_depth: int = 2,
        timeout: float = 30.0,
    ) -> MediatedResult:
        """Direct discovery first; chain planning only when it comes up empty."""
        result = MediatedResult(request=request)
        direct = self.system.discover(client, request, timeout=timeout)
        result.direct_hits = list(direct.hits)
        if result.direct_hits or not request.desired_outputs:
            return result

        translators = self._all_translators(client, result, timeout)
        if not translators:
            return result
        producer_cache: dict[str, list[QueryHit]] = {}
        for goal in request.desired_outputs:
            result.plans.extend(
                self._plan_chains(client, request, goal, translators,
                                  producer_cache, result, max_depth, timeout)
            )
        result.plans.sort(key=lambda p: (p.depth, -p.score, p.describe()))
        seen: set[str] = set()
        unique: list[MediationPlan] = []
        for plan in result.plans:
            key = f"{plan.produces}|{plan.describe()}"
            if key not in seen:
                seen.add(key)
                unique.append(plan)
        result.plans = unique[:max_plans]
        return result

    # -- building blocks --------------------------------------------------------

    def _degree(self, requested: str, advertised: str) -> DegreeOfMatch:
        if self._matchmaker is not None:
            return self._matchmaker.concept_degree(requested, advertised)
        return DegreeOfMatch.EXACT if requested == advertised \
            else DegreeOfMatch.FAIL

    def _is_translator(self, category: str) -> bool:
        """Strict test: the category is the translator concept or below it.

        Deliberately *not* the degree-of-match (whose direct-subclass
        "exact" rule would also flag the translator category's parent —
        e.g. a generic information service).
        """
        if self._matchmaker is not None:
            return self._matchmaker.reasoner.subsumes(
                self.translator_category, category
            )
        return category == self.translator_category

    def _all_translators(self, client, result: MediatedResult,
                         timeout: float) -> list[QueryHit]:
        """Every deployed translator, in one category query."""
        call = self.system.discover(
            client,
            ServiceRequest.build(self.translator_category),
            timeout=timeout,
        )
        result.extra_queries += 1
        return [hit for hit in call.hits if hit.advertisement.description.inputs]

    def _translators_producing(self, concept: str,
                               translators: list[QueryHit]) -> list[QueryHit]:
        return [
            hit for hit in translators
            if any(
                self._degree(concept, out) > DegreeOfMatch.FAIL
                for out in hit.advertisement.description.outputs
            )
        ]

    def _find_producers(self, client, concept: str, request: ServiceRequest,
                        cache: dict[str, list[QueryHit]],
                        result: MediatedResult, timeout: float) -> list[QueryHit]:
        """Non-translator services producing ``concept`` the client can feed."""
        if concept not in cache:
            producer_request = ServiceRequest.build(
                None,
                outputs=[concept],
                inputs=list(request.provided_inputs),
            )
            call = self.system.discover(client, producer_request,
                                        timeout=timeout)
            result.extra_queries += 1
            cache[concept] = [
                hit for hit in call.hits
                if not self._is_translator(hit.advertisement.description.category)
            ]
        return cache[concept]

    def _plan_chains(self, client, request: ServiceRequest, goal: str,
                     translators: list[QueryHit],
                     producer_cache: dict[str, list[QueryHit]],
                     result: MediatedResult, max_depth: int,
                     timeout: float) -> list[MediationPlan]:
        """Backward search: goal <- translator chain <- producer."""
        plans: list[MediationPlan] = []
        # Frontier entries: (needed concept, chain applied after it).
        frontier: list[tuple[str, tuple[QueryHit, ...]]] = [(goal, ())]
        visited: set[str] = {goal}
        for _depth in range(max_depth):
            next_frontier: list[tuple[str, tuple[QueryHit, ...]]] = []
            for needed, chain in frontier:
                for translator in self._translators_producing(needed, translators):
                    profile = translator.advertisement.description
                    if translator.advertisement.service_name in {
                        t.advertisement.service_name for t in chain
                    }:
                        continue  # no translator twice in one chain
                    if len(profile.inputs) > 1 and chain:
                        # Multi-input translators only as the final hop.
                        continue
                    new_chain = (translator, *chain)
                    input_concept = profile.inputs[0]
                    producers = self._find_producers(
                        client, input_concept, request, producer_cache,
                        result, timeout,
                    )
                    for producer in producers:
                        if producer.advertisement.service_name in {
                            t.advertisement.service_name for t in new_chain
                        }:
                            continue
                        plans.append(MediationPlan(
                            produces=goal,
                            producer=producer,
                            translators=new_chain,
                            score=(
                                producer.score
                                + sum(t.score for t in new_chain)
                            ) / (1 + len(new_chain)),
                        ))
                    if not producers and input_concept not in visited:
                        visited.add(input_concept)
                        next_frontier.append((input_concept, new_chain))
            frontier = next_frontier
            if not frontier:
                break
        return plans
