"""Degree-of-match semantic matchmaking.

Implements the capability-matching algorithm of Paolucci, Kawamura, Payne
and Sycara ("Semantic Matching of Web Services Capabilities", ISWC 2002) —
the matchmaker the OWL-S line of work the paper cites builds on — extended
with the QoS filtering and ranked selection the paper's registries need for
query response control.

Degrees, from strongest to weakest, for a requested output ``outR``
against an advertised output ``outA``:

* ``EXACT``    — ``outA == outR``, or ``outR`` is a *direct* subclass of
  ``outA`` (the provider advertised at the immediately more general level).
* ``PLUGIN``   — ``outA`` subsumes ``outR``: the advertised output is more
  general, so the service can plausibly "plug in" for the request.
* ``SUBSUMES`` — ``outR`` subsumes ``outA``: the service provides something
  more specific than asked; it partially satisfies the request.
* ``FAIL``     — the concepts are unrelated.

For inputs the direction flips: the *service's* advertised input ``inA``
is matched against the concepts the client can provide, because the client
must be able to feed the service.

The overall degree of a profile is the minimum over all requested outputs
(every desired output must be served), combined with the input and
category degrees; ranking is lexicographic on (degree, score), where the
score blends semantic similarity and QoS headroom.

A registry scores all candidates of one request back to back, so the
request is read once per query, not once per candidate: a single-slot
**plan**, keyed by request identity and ontology version, holds the
request's constraints and, for its category and each desired output, that
concept's **pair table** ``advertised -> (degree, similarity)``. Tables
fill on a miss, live for one ontology version, and make scoring a
candidate one string-keyed lookup per advertised concept. Beside them,
for the concept index's score bounds, each requested concept's
**similarity levels** (:meth:`Matchmaker.similarity_levels`) are kept for
the same version: one copy for every node sharing the matchmaker.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.semantics.reasoner import Reasoner


class DegreeOfMatch(enum.IntEnum):
    """Match strength; higher is better, ``FAIL`` means no match."""

    FAIL = 0
    SUBSUMES = 1
    PLUGIN = 2
    EXACT = 3


#: Read per scored candidate: module globals, not class attribute lookups.
_FAIL, _EXACT = DegreeOfMatch.FAIL, DegreeOfMatch.EXACT


#: The highest score a match can have: :func:`combined_score` of parts that
#: are all 1.0, whatever their number.
BEST_SCORE = 1.0


def combined_score(parts: list[float] | tuple[float, ...], constrained: object) -> float:
    """A match's score from its similarity parts — the category's, then each
    desired output's in request order — plus a 1.0 QoS part when the request
    has constraints (``constrained`` is truthy; a scored profile satisfies
    all of them): their mean, 1.0 for no parts at all.

    The one formula for a verdict's score and for the concept index's score
    bounds. IEEE addition and division by a positive count are monotone, so
    per-part upper bounds give an upper bound on the score, and the very
    score wherever every bound is the part itself.
    """
    if constrained:
        return (sum(parts) + 1.0) / (len(parts) + 1)
    return sum(parts) / len(parts) if parts else 1.0


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of matching one profile against one request.

    ``degree`` is the overall (weakest-link) degree; ``score`` in [0, 1]
    is used only to rank results of equal degree. ``failed_constraints``
    lists QoS attributes that disqualified the profile.
    """

    profile: ServiceProfile
    degree: DegreeOfMatch
    score: float
    output_degree: DegreeOfMatch
    input_degree: DegreeOfMatch
    category_degree: DegreeOfMatch
    failed_constraints: tuple[str, ...] = ()

    @property
    def matched(self) -> bool:
        """Whether the profile satisfies the request at all."""
        return self.degree > DegreeOfMatch.FAIL

    def sort_key(self) -> tuple:
        """Descending-quality sort key (degree, then score, then name)."""
        return (-int(self.degree), -self.score, self.profile.service_name)


class _PairTable(dict):
    """``advertised -> (degree, similarity)`` for one requested concept.

    Fills itself on a miss, so the matchmaker's hot loops pay one
    string-keyed subscript per advertised concept for both numbers.
    ``degree`` is ``None`` while a pair has only been read for its
    similarity (an output listed after an EXACT one): no subsumption
    check is spent on a degree nobody asked for.
    """

    __slots__ = ("requested", "matchmaker")

    def __init__(self, requested: str, matchmaker: "Matchmaker") -> None:
        self.requested = requested
        self.matchmaker = matchmaker

    def __missing__(self, advertised: str) -> tuple[DegreeOfMatch, float]:
        pair = self[advertised] = self.matchmaker._compute_pair(self.requested, advertised)
        return pair

    def degree(self, advertised: str) -> DegreeOfMatch:
        """The pair's degree, reasoned now if only its similarity was."""
        pair = self[advertised]
        if pair[0] is None:
            pair = self.__missing__(advertised)
        return pair[0]

    def similarity(self, advertised: str) -> float:
        """The pair's similarity alone (a miss leaves the degree unreasoned)."""
        pair = self.get(advertised)
        if pair is None:
            pair = self[advertised] = self.matchmaker._compute_pair(
                self.requested, advertised, degree=False)
        return pair[1]


class Matchmaker:
    """Ranks :class:`ServiceProfile` advertisements against requests.

    Parameters
    ----------
    reasoner:
        Subsumption reasoner over the shared ontology. Profiles or
        requests referencing concepts missing from the ontology simply
        fail to match (the paper's motivation for hosting ontologies in
        the registry network — see experiment E12).
    """

    def __init__(self, reasoner: Reasoner) -> None:
        self.reasoner = reasoner
        self.evaluations = 0
        #: Request plans resolved; one per query while a registry scores
        #: the candidates of one request back to back.
        self.plans_built = 0
        #: requested -> pair table, valid for one ontology version. Stores
        #: draw their concepts from a small vocabulary, so the pair space
        #: is tiny next to the number of (profile, request) evaluations.
        self._pair_tables: dict[str, _PairTable] = {}
        #: requested -> its similarity levels (:meth:`similarity_levels`),
        #: valid for the same ontology version as the pair tables.
        self._levels: dict[str, tuple[tuple[float, ...], tuple[tuple[str, ...], ...]]] = {}
        self._tables_version = reasoner.ontology.version
        #: The single-slot request plan (see :meth:`_plan_for`).
        self._plan: tuple = (None,)

    # -- concept-level degrees -------------------------------------------

    def concept_degree(self, requested: str, advertised: str) -> DegreeOfMatch:
        """Paolucci degree of ``advertised`` against ``requested``."""
        return self._table(requested).degree(advertised)

    def _table(self, requested: str) -> _PairTable:
        """Pair table of ``requested`` under the current ontology version.

        Every table, and every concept's similarity levels, is dropped
        when the ontology moved (the reasoner's public methods sync their
        own caches on the misses that follow).
        """
        version = self.reasoner.ontology.version
        if version != self._tables_version:
            self._drop_tables(version)
        table = self._pair_tables.get(requested)
        if table is None:
            table = self._pair_tables[requested] = _PairTable(requested, self)
        return table

    def _drop_tables(self, version: int) -> None:
        self._pair_tables.clear()
        self._levels.clear()
        self._tables_version = version

    def similarity_levels(
        self, requested: str
    ) -> tuple[tuple[float, ...], tuple[tuple[str, ...], ...]]:
        """The ontology's classes by their similarity to ``requested``:
        ``(values, classes)``, ``classes[i]`` the classes at similarity
        ``values[i]``, values strictly descending from ``requested``
        itself at 1.0 (the reasoner clamps multi-parent ratios, so other
        classes may share it). ``values`` ends with one more entry, 0.0:
        the similarity of a concept outside the ontology, below every
        level. Both are empty but for that 0.0 when ``requested`` is
        outside the ontology.

        The pair tables' similarities, grouped: an advertised concept's
        score part is the value of the level holding it, which is what the
        concept index bounds a score with. A pure function of the concept
        and the ontology version, memoized for that version like the pair
        tables.
        """
        version = self.reasoner.ontology.version
        if version != self._tables_version:
            self._drop_tables(version)
        levels = self._levels.get(requested)
        if levels is None:
            reasoner = self.reasoner
            ontology = reasoner.ontology
            by_value: dict[float, list[str]] = {}
            for other in ontology.classes() if requested in ontology else ():
                by_value.setdefault(reasoner.similarity(requested, other), []).append(other)
            values = sorted(by_value, reverse=True)
            levels = self._levels[requested] = (
                (*values, 0.0), tuple(tuple(by_value[value]) for value in values))
        return levels

    def _compute_pair(self, requested: str, advertised: str, *, degree: bool = True) -> tuple:
        """Degree (unless declined) and Wu-Palmer similarity of one pair.

        A concept outside the ontology fails the pair; its similarity is
        0.0, the floor every score part starts from, so it can never
        raise one.
        """
        reasoner = self.reasoner
        ontology = reasoner.ontology
        if requested not in ontology or advertised not in ontology:
            return DegreeOfMatch.FAIL, 0.0
        similarity = reasoner.similarity(requested, advertised)
        if not degree:
            return None, similarity
        if requested == advertised:
            return DegreeOfMatch.EXACT, similarity
        if advertised in ontology.parents(requested):
            # Requested is a direct subclass of advertised: treated as exact.
            return DegreeOfMatch.EXACT, similarity
        if reasoner.subsumes(advertised, requested):
            return DegreeOfMatch.PLUGIN, similarity
        if reasoner.subsumes(requested, advertised):
            return DegreeOfMatch.SUBSUMES, similarity
        return DegreeOfMatch.FAIL, similarity

    def _input_degree(self, inputs: tuple[str, ...], provided: tuple[str, ...]) -> DegreeOfMatch:
        """Whether the client can feed every input the service requires.

        For each advertised input ``inA`` the client must provide some
        concept ``inR`` with ``inA`` subsuming ``inR`` (the service accepts
        anything at least as specific as what it asks for). Not asked when
        the request declares no inputs: such a client is unconstrained.
        """
        overall = DegreeOfMatch.EXACT
        for advertised in inputs:
            table = self._table(advertised)
            best = DegreeOfMatch.FAIL
            for concept in provided:
                degree = table.degree(concept)
                if degree > best:
                    best = degree
                    if best is DegreeOfMatch.EXACT:
                        break
            overall = min(overall, best)
            if overall is DegreeOfMatch.FAIL:
                break
        return overall

    # -- profile-level matching ------------------------------------------

    def _plan_for(self, request: ServiceRequest) -> tuple:
        """Everything ``verdict`` reads from ``request``, resolved once.

        One slot, keyed by request *identity* and ontology version: a
        registry scores all candidates of one request back to back, and
        the plan holds the request, so its ``id`` cannot be reused while
        the slot is live. Building one is a handful of dict lookups.
        """
        self.plans_built += 1
        category_table = None if request.category is None else self._table(request.category)
        output_tables = tuple(self._table(out) for out in request.desired_outputs)
        self._plan = plan = (
            request, self.reasoner.ontology.version, request.qos_constraints,
            category_table, output_tables, request.provided_inputs,
        )
        return plan

    def verdict(self, profile: ServiceProfile, request: ServiceRequest) -> tuple:
        """:meth:`match` unwrapped — ``(degree, score, output_degree,
        input_degree, category_degree, failed_constraints)`` — for callers
        scoring many candidates that keep only the first two."""
        self.evaluations += 1
        plan = self._plan
        if plan[0] is not request or plan[1] != self.reasoner.ontology.version:
            plan = self._plan_for(request)
        _, _, constraints, category_table, output_tables, provided_inputs = plan
        FAIL, EXACT = _FAIL, _EXACT

        if constraints:
            failed = tuple(
                constraint.attribute
                for constraint in constraints
                if not constraint.satisfied_by(profile.qos_value(constraint.attribute))
            )
            if failed:
                return FAIL, 0.0, FAIL, FAIL, FAIL, failed

        # Score parts, in order: category, outputs in request order, QoS.
        parts: list[float] = []
        overall = category_degree = output_degree = input_degree = EXACT
        if category_table is not None:
            category_degree, similarity = category_table[profile.category]
            if category_degree is None:
                category_degree = category_table.degree(profile.category)
            overall = category_degree
            parts.append(similarity)
        outputs = profile.outputs
        for table in output_tables:
            best_degree = FAIL
            best_similarity = 0.0
            for advertised in outputs:
                if best_degree is EXACT:
                    # Only the similarity of the remaining outputs matters.
                    similarity = table.similarity(advertised)
                else:
                    degree, similarity = table[advertised]
                    if degree is None:
                        degree = table.degree(advertised)
                    if degree > best_degree:
                        best_degree = degree
                if similarity > best_similarity:
                    best_similarity = similarity
            if best_degree < output_degree:
                output_degree = best_degree
            parts.append(best_similarity)
        if output_degree < overall:
            overall = output_degree
        if provided_inputs and profile.inputs:
            input_degree = self._input_degree(profile.inputs, provided_inputs)
            if input_degree < overall:
                overall = input_degree

        if overall is FAIL:
            return FAIL, 0.0, output_degree, input_degree, category_degree, ()
        # A match has every requested concept (and the profile's category)
        # inside the ontology, so each part above is a real similarity.
        # The QoS gate already established every constraint holds: the
        # satisfied ratio is 1.0 by construction.
        score = combined_score(parts, constraints)
        return overall, score, output_degree, input_degree, category_degree, ()

    def match(self, profile: ServiceProfile, request: ServiceRequest) -> MatchResult:
        """Evaluate one advertisement against one request."""
        return MatchResult(profile, *self.verdict(profile, request))

    def rank(
        self,
        profiles: list[ServiceProfile],
        request: ServiceRequest,
        *,
        limit: int | None = None,
    ) -> list[MatchResult]:
        """All matching profiles, best first, optionally capped at ``limit``.

        The cap implements the paper's registry-side *query response
        control*: constrained clients "delegate service selection to
        registry nodes (they may return only the best service
        advertisement)".
        """
        matched = (r for profile in profiles if (r := self.match(profile, request)).matched)
        if limit is not None:
            # Top-k selection: O(n log k) instead of a full O(n log n) sort.
            # ``nsmallest`` is stable (equivalent to ``sorted(...)[:k]``),
            # so capped results stay a prefix of the full ranking.
            return heapq.nsmallest(limit, matched, key=MatchResult.sort_key)
        return sorted(matched, key=MatchResult.sort_key)
