"""Inverted concept indexing for sub-linear semantic matchmaking.

A full store scan per query is the scalability ceiling of a centralized
semantic registry (the survey literature's standing criticism, and the
reason the paper wants registry-side selection to stay cheap). This module
prunes the scan: every stored semantic advertisement is indexed under its
category/output concepts *and their ancestor closure*, so a request's
desired concepts map straight to the plugin/subsumes-compatible candidate
set before any degree-of-match scoring runs.

Correctness contract (verified property-style in
``tests/test_registry_index.py`` and ``tests/test_query_path_properties.py``):
the candidate set is a **superset** of the advertisements the linear scan
would accept. Two concepts are related (degree > FAIL) only if one is an
ancestor-or-self of the other; indexing each advertised concept under its
ancestor-or-self closure and looking up the requested concept's
ancestor-or-self closure covers both directions:

* advertised at-or-below requested (EXACT/SUBSUMES) — the *closure* table
  keys every advertisement under its concepts' ancestor-or-self closure,
  so one lookup of the requested concept finds every advertisement
  advertising it or a descendant;
* advertised strictly above requested (EXACT-direct-parent/PLUGIN) — the
  *exact* table keys every advertisement under its own concepts only, so
  looking up the requested concept's ancestors finds precisely the
  advertisements advertising one of those more general concepts.

Splitting the two directions across two tables is what keeps the candidate
set tight: looking up ancestors in the closure table instead would drag in
every advertisement sharing a subtree root — a full scan in disguise.
THING would be a closure key on every advertisement (everything's
ancestor), so closure keys exclude it; an advertisement literally
advertising THING still carries THING as its exact key, and a request for
THING matches every indexed profile by construction.

Representation: each advertisement occupies the dense integer *slot* the
store gave it (:class:`~repro.registry.store.AdvertisementStore`). A
posting is one ``bytearray`` bitset over the store's slot space per
(table, concept), so a write flips one byte per key; a query reads the same bits
as an int, built from the bytes on first use and patched bit by bit from
then on, and intersects them — the per-field candidate pulls AND together
(smallest posting first, with early exit on empty), so selectivity
multiplies across the requested category and *every* desired output
instead of being bounded by one field. The same per-field table
membership classifies every candidate with its exact per-field degree
(the overall degree can only be lowered further by input/QoS checks,
never raised), and the exact tables say at which **similarity level** a
candidate advertises each requested concept: the ontology's classes
grouped by their similarity to that concept, descending
(``Matchmaker.similarity_levels``, one copy per deployment). A
candidate's score part for a field is the value of the highest level at
which it advertises a concept there, so a set of candidates known to
sit at or below one level per field is bounded by the matchmaker's own
score formula over those levels' values — and scores exactly that where
every field is *resolved* (known to sit at its level), since a matched
verdict's score is that very formula over its per-field best
similarities. So :meth:`candidate_buckets` hands out candidates in
groups of strictly descending **(degree, score) upper bounds**,
advertisements ascending by ``ad_id`` inside each, and the query
evaluator stops at the first candidate whose best possible rank key its
k-th hit already beats: before a group is opened, or in the middle of
one (``QueryEvaluator.early_terminations`` counts either) — right after
the k-th hit, inside a resolved group. A degree large enough to pay for
it (``SPLIT_ABOVE``) is refined best-first: the pending group of the
highest bound is split on one unresolved field (the one whose value falls
furthest at its next level) into the candidates at that field's level (the OR of the level's exact postings: resolved, same
bound) and those below it (one level down, a lower bound), until it is
resolved or holds at most ``max_results`` candidates; settled groups of
equal bound are handed out as one. Each group's bound is handed out
before its body, and a degree's first group is refined only when its
body is first iterated, so a consumer whose hits already beat the degree
pays for no refinement.
Expansion scans bytes, not bits: ``bytes.translate`` marks the mask's
non-zero bytes, ``bytes.find`` hops between them and a 256-entry table
gives each byte's set bits, and each bit's slot is the store's record —
O(mask bytes + ids), with no id resolved.

The candidate set is concept-exact per field; residual false positives
(e.g. QoS-violating or input-incompatible profiles) are harmless because
the matchmaker still scores every candidate, so indexed and linear query
paths return bit-identical results. Requests carrying no concepts
(keyword-only templates) fall back to the linear scan transparently. The
store holds only this model's own records (the node's model gate admits
nothing else), so every record the index sees is a profile.

The index is maintained incrementally on ``put``/``remove`` and rebuilt
lazily when the ontology's version counter moves or the ontology object is
swapped (mirroring ``Reasoner.sync``), so mid-run ontology growth — the
repository experiments do this — never yields stale candidates; the first
query after a bulk load or a restart's replay pays the same rebuild. Nothing is
kept per advertisement beyond its bits: the store's slot list is the
rebuild source, and the keys an advertisement sits under are derived, not
stored — ancestor-closure keys are memoized per *concept*
(expanded once from the reasoner's closure bitsets) and a removal derives
the same keys from the same memo, while a write that finds the ontology
moved touches no posting and leaves the record to the pending rebuild. A
posting emptied by removals stays, as zero bytes, until that rebuild.
A rebuild works per advertised concept, not per (advertisement, key): one
pass over the records gathers each advertised category's and output's
slots into one bitset, that concept's exact posting, and a closure posting
is the OR of the bitsets of the concepts whose closure keys name it: one
append per advertised concept of a record, then one big-int OR per
(concept, closure key), where a key-by-key build pays per (record, key).
The OR of a similarity level's postings is kept for one query only;
no cache is kept per request.
Postings no query has asked for have no int form, which keeps the bulk
load's puts free of big-int work (:meth:`SemanticConceptIndex.audit`
checks all of this against its own rebuild, advertisement by advertisement).
"""

from __future__ import annotations

import abc
from functools import cache, partial
from heapq import heappop, heappush
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.semantics.matchmaker import BEST_SCORE, combined_score
from repro.semantics.ontology import THING
from repro.semantics.profiles import ServiceProfile, ServiceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.descriptions.semantic import SemanticModel
    from repro.registry.advertisements import Advertisement


class ConceptIndexer(abc.ABC):
    """Store-side candidate pruning for one description model.

    The :class:`~repro.registry.store.AdvertisementStore` notifies an
    attached indexer on every mutation, naming the record's slot; the
    query evaluator asks it for candidates. Returning ``None`` from
    :meth:`candidate_ids` means "cannot prune this query" and routes the
    evaluator to the plain linear scan.
    """

    #: The description model whose advertisements this indexer covers.
    model_id: str = ""

    @abc.abstractmethod
    def add(self, slot: int, ad: "Advertisement") -> None:
        """A record of this model entered the store at ``slot`` (a
        replacement is a :meth:`discard` of the old record first)."""

    @abc.abstractmethod
    def discard(self, slot: int, ad: "Advertisement") -> None:
        """The record of this model at ``slot`` is leaving the store."""

    @abc.abstractmethod
    def reset(self, records: list["Advertisement | None"]) -> None:
        """Drop all index state and index what ``records`` already holds:
        the store's slot list, kept by reference (slot ``i`` holds
        ``records[i]``), whose records of this model are this indexer's
        bulk load. The store calls no :meth:`add` for them."""

    @abc.abstractmethod
    def candidate_ids(self, query: Any) -> set[str] | None:
        """Superset of matching ad ids, or ``None`` to force a linear scan."""

    def audit(self) -> list[str]:
        """Bookkeeping violations a self-check finds (``core.invariants``)."""
        return []

    def candidate_buckets(
        self, query: Any
    ) -> Iterator[tuple[tuple[int, float], Iterable["Advertisement"]]] | None:
        """Candidates grouped by descending ``(degree, score)`` upper bound.

        Yields disjoint ``((degree, score), advertisements)`` groups whose
        bounds strictly descend — groups with equal bounds are one group —
        and whose records ascend by ``ad_id``. Their union must obey the
        same superset contract as :meth:`candidate_ids`, and no
        advertisement in a group may match with a ``(degree, score)`` above
        the group's bound. The best rank key a record can then reach is
        ``(-degree, -score, ad_id)`` of its group, and every record after
        it, in its group or a later one, ranks below that: a consumer
        holding k hits stops at the first record whose best key its k-th
        hit beats. The records are a **single-pass iterable**: the consumer
        checks the bound first and iterates them at most once, only if the
        group can still change its answer, so an indexer may produce them
        on demand (a sorted list is the simplest valid group). Groups and
        the iterator itself must be consumed before the next store
        mutation.
        ``None`` (the default) means the indexer cannot rank this query and
        the evaluator should fall back to unranked candidates.
        """
        return None


#: Table order used throughout: closure tables first, exact tables second.
_CATEGORY_CLOSURE, _OUTPUT_CLOSURE, _CATEGORY_EXACT, _OUTPUT_EXACT = range(4)

#: A degree's candidates are refined by score bound only when there are
#: more than this many times the request's ``max_results`` of them. Below
#: that, refining saves scorings but costs more time than they do.
#: Measured on the best-first refinement (``tools/perf_pairs.py``, 5
#: pairs per workload, seeds 1000-1004, no failed operation):
#:
#: * refining every capped degree (no constant) scores fewer
#:   descriptions per discover (``wan_100k`` 24.93 -> 20.36, ``churn_mix``
#:   17.51 -> 12.72), yet loses every pair on ``churn_mix`` p50 (x1.10)
#:   and on ``wan_small`` ops (x0.89) and p50 (x1.13), and gains nothing
#:   on ``wan_100k`` (p50 x1.04). It hands out twice the groups (one
#:   ``churn_mix`` run: 7,126 -> 14,703 ``_expand`` calls), and each
#:   expansion is as wide as the slot space;
#: * refining to full resolution (ignoring ``max_results``) reaches the
#:   exact-bound floor (15.00 scored per ``wan_100k`` discover) and loses
#:   every pair on ``churn_mix`` ops (x0.66) and p50 (x1.55) and on
#:   ``wan_small`` ops (x0.78).
SPLIT_ABOVE = 8

#: Bitset expansion: byte value -> its set bits, ascending; and the
#: ``bytes.translate`` table that marks every non-zero byte with a 1.
_SET_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))
_NONZERO_BYTES = bytes([0] + [1] * 255)

#: A group's sort key: candidates ascend by ``ad_id``.
_AD_ID = attrgetter("ad_id")


class SemanticConceptIndex(ConceptIndexer):
    """Inverted ancestor-closure index over semantic advertisements.

    Holds a reference to the node's :class:`SemanticModel` rather than a
    fixed ontology: the model may receive its ontology later (repository
    fetch, experiment E12) or swap it, and the index follows along by
    rebuilding on the next lookup.

    Postings are ``bytearray`` bitsets over the store's slots with a
    lazily cached int form, so the per-query field combination is a
    handful of big-int AND/OR operations regardless of posting-list
    length, and every mutation patches exactly the bitsets it touched (see
    the module doc).
    """

    model_id = "semantic"

    def __init__(self, model: "SemanticModel") -> None:
        self._model = model
        #: The store's slot list (:meth:`reset`): the rebuild source, and
        #: what an expanded bit resolves to.
        self._records: list["Advertisement | None"] = []
        #: Posting tables (see module doc), all mapping concept -> slot
        #: bitset, little-endian; each grows with the highest slot set in it.
        self._tables: tuple[dict[str, bytearray], ...] = tuple({} for _ in range(4))
        #: concept -> ancestor-closure keys, shared across all ads using
        #: the concept (the bulk-put fix: closures expand once per concept
        #: per ontology version, not once per advertisement).
        self._closure_key_cache: dict[str, tuple[str, ...]] = {}
        #: (table, concept) -> the posting as an int, built on first use
        #: and patched bit by bit whenever that posting mutates.
        self._mask_cache: dict[tuple[int, str], int] = {}
        #: Bitset of every indexed profile's slot, kept like a posting
        #: bitset: ``None`` until a query first needs it, patched from then on.
        self._profiles_mask: int | None = None
        self._indexed_ontology: Any = None
        self._indexed_version: int | None = None
        self.rebuilds = 0
        self.lookups = 0
        self.fallbacks = 0
        #: Records handed out, across all queries: each of a candidate set,
        #: and each of a ranked group that its consumer took. Every one of
        #: them is scored by the evaluator.
        self.expanded = 0

    # -- store notifications ---------------------------------------------

    def add(self, slot: int, ad: "Advertisement") -> None:
        self._mark(slot, ad.description, present=True)

    def discard(self, slot: int, ad: "Advertisement") -> None:
        self._mark(slot, ad.description, present=False)

    def reset(self, records: list["Advertisement | None"]) -> None:
        self._records = records
        self._clear_tables()
        self._profiles_mask = None
        self._indexed_ontology = None
        self._indexed_version = None

    def _mark(self, slot: int, description: ServiceProfile, *, present: bool) -> None:
        """Enter or drop the record at ``slot``: its posting bits."""
        self._set_keys(slot, description, present=present)
        mask = self._profiles_mask
        if mask is not None:
            self._profiles_mask = mask | 1 << slot if present else mask & ~(1 << slot)

    def _clear_tables(self) -> None:
        for table in self._tables:
            table.clear()
        self._closure_key_cache.clear()
        self._mask_cache.clear()

    # -- candidate lookup ------------------------------------------------

    def candidate_ids(self, query: Any) -> set[str] | None:
        """Ads plausibly matching ``query``, or ``None`` for linear scan.

        The result is the intersection of the per-concept candidate sets:
        the requested category (when given) must relate to the advertised
        category, and *every* desired output must relate to some advertised
        output — exactly the conditions under which the matchmaker can
        return a degree above FAIL.
        """
        masks = self._query_masks(query)
        if masks is None:
            return None
        found = self._expand(masks[0] | masks[1] | masks[2])
        self.expanded += len(found)
        return {ad.ad_id for ad in found}

    def candidate_buckets(
        self, query: Any
    ) -> Iterator[tuple[tuple[int, float], Iterator["Advertisement"]]] | None:
        """Candidates in groups of descending ``(degree, score)`` bound.

        The degree bound is the exact per-field degree implied by the
        posting tables (EXACT for the concept itself or a direct parent,
        PLUGIN for a farther ancestor, SUBSUMES for a descendant),
        minimized across the requested fields — a true upper bound on the
        overall degree, since input and QoS checks can only lower it.

        A degree of at most ``SPLIT_ABOVE`` times the request's
        ``max_results`` candidates is one group bounded by the best score
        any match has: refining it would save scorings, but the extra
        groups cost more time than those scorings (measured: see
        ``SPLIT_ABOVE``). A larger
        one is refined by score bound (:meth:`_refined`): first the group
        of the best score, whose body refines the degree when it is first
        iterated — so a consumer whose hits already beat the degree pays
        for no refinement — then one group per weaker score bound. Each
        bound is the matchmaker's score formula over one similarity level
        per requested field, and every match of a group resolved in all
        fields scores exactly its bound (a matched verdict's score is the
        same formula over its per-field best similarities), so a consumer
        holding k hits stops right after the k-th. A group's records are
        expanded and sorted when the consumer first asks for one, and each
        counts in ``expanded`` once taken.
        Each group is single-pass; consume it, and the iterator, before the
        next store mutation.
        """
        masks = self._query_masks(query)
        if masks is None:
            return None
        return self._groups(query, masks)

    def _groups(
        self, query: ServiceRequest, masks: tuple[int, int, int]
    ) -> Iterator[tuple[tuple[int, float], Iterator["Advertisement"]]]:
        limit = query.max_results
        reaches: dict[tuple[int, int], int] = {}
        for degree, bits in zip((3, 2, 1), masks):
            count = bits.bit_count()
            if not count:
                continue
            if limit is not None and count <= SPLIT_ABOVE * limit:
                yield (degree, BEST_SCORE), self._hand_out(bits)
                continue
            settled = self._refined(bits, count, query, reaches)
            top = cache(partial(next, settled))  # refined at first use
            yield (degree, BEST_SCORE), self._hand_out_top(top)
            top()
            for bound, group in settled:
                yield (degree, bound), self._hand_out(group)

    def _hand_out_top(self, top: Callable[[], tuple[float, int]]) -> Iterator["Advertisement"]:
        """The best-score group of a refined degree, refined when first iterated."""
        yield from self._hand_out(top()[1])

    def _hand_out(self, bits: int) -> Iterator["Advertisement"]:
        """One group's records, ``bits``'s, in ascending ``ad_id`` order,
        expanded and sorted at the first ``next()``.

        A record counts in ``expanded`` when the consumer comes back for
        the next one (or the group ends): the one a consumer looks at and
        stops on is not counted, so on the ranked path ``expanded`` moves
        exactly with the evaluator's scored count.
        """
        ads = self._expand(bits)
        ads.sort(key=_AD_ID)
        for ad in ads:
            yield ad
            self.expanded += 1

    def _refined(
        self, bits: int, count: int, query: ServiceRequest, reaches: dict[tuple[int, int], int]
    ) -> Iterator[tuple[float, int]]:
        """One degree's ``count`` candidates, ``bits``, by score bound, best first:
        ``(bound, bitset)`` with bounds strictly descending, the first
        bounded by ``BEST_SCORE`` (and empty when no candidate reaches it),
        the others non-empty.

        Per requested field, a candidate's score part is the value of the
        highest similarity level (:meth:`Matchmaker.similarity_levels
        <repro.semantics.matchmaker.Matchmaker.similarity_levels>`) at
        which it advertises a concept, 0.0 below them all. A pending group
        holds candidates known to sit at or below one level per field,
        some fields *resolved* (at exactly that level); its bound is the
        matchmaker's own score formula over those levels' values. The
        heap's best group is split on the unresolved field whose value
        falls furthest one level down into the candidates advertising a
        concept at the field's level (the OR of that level's exact
        postings, kept in ``reaches`` for the query) — the field resolved,
        the bound unchanged — and the rest, one level down. A group is
        settled once every field is resolved — its bound is then each
        member's score — or once it holds at most ``max_results``
        candidates; the settled groups of one bound are handed out as one.
        """
        # With no cap every group is refined to full resolution.
        limit = -1 if query.max_results is None else query.max_results
        constrained = query.qos_constraints
        matchmaker = self._model.matchmaker
        # Per field: its exact table, its levels' values (and 0.0 below
        # them all), and the classes at each level.
        fields = [(exact, *matchmaker.similarity_levels(concept))
                  for _, exact, concept in self._fields(query)]
        whole = (1 << len(fields)) - 1
        # Pending groups: (-bound, push order, level per field, resolved
        # fields as a bitset, candidate count, slots).
        heap = [(-BEST_SCORE, 0, (0,) * len(fields), 0, count, bits)]
        pushed = 0
        while heap:
            bound = -heap[0][0]
            settled = 0
            while heap and heap[0][0] == -bound:
                _, _, at, resolved, count, group = heappop(heap)
                while resolved != whole and count > limit:
                    # Split where the bound falls furthest one level down.
                    drop = -1.0
                    for f, (_, values, _) in enumerate(fields):
                        if not resolved >> f & 1:
                            step = values[at[f]] - values[at[f] + 1]
                            if step > drop:
                                drop, field = step, f
                    level = at[field]
                    table, _, classes = fields[field]
                    reach = reaches.get((field, level))
                    if reach is None:
                        reach = 0
                        for concept in classes[level]:
                            reach |= self._mask(table, concept)
                        reaches[field, level] = reach
                    inside = group & reach
                    if inside != group:
                        lower = at[:field] + (level + 1,) + at[field + 1:]
                        parts = [values[i] for i, (_, values, _) in zip(lower, fields)]
                        # Below the last level a part is 0.0 exactly: resolved.
                        below = resolved | 1 << field if level + 1 == len(classes) else resolved
                        inside_count = inside.bit_count() if inside else 0
                        pushed += 1
                        heappush(heap, (-combined_score(parts, constrained), pushed, lower,
                                        below, count - inside_count, group ^ inside))
                        group, count = inside, inside_count
                        if not group:
                            break
                    resolved |= 1 << field
                settled |= group
            if settled or bound == BEST_SCORE:
                yield bound, settled

    @staticmethod
    def _fields(query: ServiceRequest) -> list[tuple[int, int, str]]:
        """``(closure table, exact table, concept)`` per requested concept, in
        the matchmaker's score-part order: the category, then each output."""
        fields = [(_OUTPUT_CLOSURE, _OUTPUT_EXACT, out) for out in query.desired_outputs]
        if query.category is not None:
            fields.insert(0, (_CATEGORY_CLOSURE, _CATEGORY_EXACT, query.category))
        return fields

    def _query_masks(self, query: ServiceRequest) -> tuple[int, int, int] | None:
        """Disjoint candidate bitsets by degree upper bound (3, 2, 1)."""
        if self._model.ontology is None:
            self.fallbacks += 1
            return None
        if query.category is None and not query.desired_outputs:
            # Keyword-only request: no concept to prune on.
            self.fallbacks += 1
            return None
        self._ensure_synced()
        reasoner = self._model.reasoner
        assert reasoner is not None
        reasoner.sync()
        self.lookups += 1
        # Cumulative per-field masks: degree >= 3 / >= 2 / >= 1, combined
        # smallest posting first so the intersection narrows fastest.
        cumulative = []
        for closure_table, exact_table, concept in self._fields(query):
            m3, m2, m1 = self._field_masks(closure_table, exact_table, concept)
            cumulative.append((m3, m3 | m2, m3 | m2 | m1))
        cumulative.sort(key=lambda field: field[2].bit_count())
        at_least_3, at_least_2, at_least_1 = cumulative[0]
        for c3, c2, c1 in cumulative[1:]:
            if not at_least_1:
                break
            at_least_3 &= c3
            at_least_2 &= c2
            at_least_1 &= c1
        return (
            at_least_3,
            at_least_2 & ~at_least_3,
            at_least_1 & ~at_least_2,
        )

    def _field_masks(
        self, closure_table: int, exact_table: int, concept: str
    ) -> tuple[int, int, int]:
        """One field's posting bitsets, split by that field's exact degree.

        * EXACT (3): ads advertising ``concept`` itself or one of its
          *direct* parents (the matchmaker's direct-parent rule);
        * PLUGIN (2): ads advertising a farther strict ancestor;
        * SUBSUMES (1): ads advertising ``concept`` or a descendant (the
          closure posting; overlap with the stronger masks is removed by
          the caller's cumulative combination).

        Out-of-ontology concepts get empty postings — the matchmaker can
        never match them, so they must never make an ad a candidate.
        """
        reasoner = self._model.reasoner
        ontology = reasoner.ontology
        if concept not in ontology:
            return (0, 0, 0)
        if concept == THING:
            # Only a literal THING advertisement is EXACT for a THING
            # request; every other indexed profile relates at SUBSUMES.
            return (self._mask(exact_table, THING), 0, self._all_profiles_mask())
        parents = ontology.parents(concept)
        exact = self._mask(exact_table, concept)
        for parent in parents:
            exact |= self._mask(exact_table, parent)
        plugin = 0
        for ancestor in reasoner.ancestors_of(concept):
            if ancestor not in parents:
                plugin |= self._mask(exact_table, ancestor)
        return (exact, plugin, self._mask(closure_table, concept))

    def _mask(self, table: int, concept: str) -> int:
        """Posting bitset for one (table, concept) key, lazily cached."""
        key = (table, concept)
        cached = self._mask_cache.get(key)
        if cached is None:
            cached = int.from_bytes(self._tables[table].get(concept, b""), "little")
            self._mask_cache[key] = cached
        return cached

    def _all_profiles_mask(self) -> int:
        """Bitset of every indexed profile's slot, built on first use."""
        if self._profiles_mask is None:
            self._profiles_mask = self._bits_of(slot for slot, _ in self._indexed())
        return self._profiles_mask

    def _indexed(self) -> Iterator[tuple[int, ServiceProfile]]:
        """``(slot, profile)`` of every record of this model in the store,
        ascending by slot: what the postings must say."""
        for slot, ad in enumerate(self._records):
            if ad is not None and ad.model_id == self.model_id:
                yield slot, ad.description

    def _bits_of(self, slots: Iterable[int]) -> int:
        """Build a bitset from slot numbers in O(slots + space/8)."""
        buf = bytearray(len(self._records) // 8 + 1)
        for slot in slots:
            buf[slot >> 3] |= 1 << (slot & 7)
        return int.from_bytes(buf, "little")

    def _expand(self, bits: int) -> list["Advertisement"]:
        """A slot bitset's records in ascending slot order.

        A scan of the mask's bytes (see the module docstring): no big-int
        arithmetic per record.
        """
        records = self._records
        octets = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        nonzero = octets.translate(_NONZERO_BYTES)
        ads: list["Advertisement"] = []
        at = nonzero.find(1)
        while at >= 0:
            base = at << 3
            for offset in _SET_BITS[octets[at]]:
                ads.append(records[base + offset])
            at = nonzero.find(1, at + 1)
        return ads

    # -- maintenance -----------------------------------------------------

    def _in_sync(self) -> bool:
        ontology = self._model.ontology
        return (
            ontology is not None
            and self._indexed_ontology is ontology
            and self._indexed_version == ontology.version
        )

    def _ensure_synced(self) -> None:
        """Rebuild the postings, per advertised concept (see the module
        doc), if the ontology moved underneath us."""
        if self._in_sync():
            return
        ontology = self._model.ontology
        self._clear_tables()
        self._indexed_ontology = ontology
        self._indexed_version = ontology.version
        self.rebuilds += 1
        categories: dict[str, list[int]] = {}
        outputs: dict[str, list[int]] = {}
        for slot, profile in self._indexed():
            categories.setdefault(profile.category, []).append(slot)
            for output in profile.outputs:
                outputs.setdefault(output, []).append(slot)
        wide: tuple[dict[str, int], ...] = tuple({} for _ in self._tables)
        for closure, exact, advertised in zip(wide[:2], wide[2:], (categories, outputs)):
            for concept, slots in advertised.items():
                bits = self._bits_of(slots)
                if concept in ontology:
                    exact[concept] = bits
                for key in self._closure_keys(concept):
                    closure[key] = closure.get(key, 0) | bits
        for table, postings in zip(self._tables, wide):
            for key, bits in postings.items():
                table[key] = bytearray(bits.to_bytes((bits.bit_length() + 7) >> 3, "little"))

    def audit(self) -> list[str]:
        """Bookkeeping violations, empty when sound (``core.invariants``).

        The profile mask and the cached ints must mirror what they cache;
        in sync, every posting must equal the one
        rebuilt from the store's records. Out of sync, postings are stale
        until the next query.
        """
        violations: list[str] = []
        records, in_sync = self._records, self._in_sync()
        indexed = dict(self._indexed())
        if self._profiles_mask not in (None, self._bits_of(indexed)):
            violations.append("profile mask differs from the indexed profiles")
        postings = {
            (table_id, key): int.from_bytes(posting, "little")
            for table_id, table in enumerate(self._tables)
            for key, posting in table.items()
        }
        for where, cached in self._mask_cache.items():
            if cached != postings.get(where, 0):
                violations.append(f"cached bitset {where} differs from its posting")
        rebuilt: dict[tuple[int, str], bytearray] = {}
        for slot, profile in indexed.items() if in_sync else ():
            for table_id, keys in enumerate(self._keys_of(profile)):
                for key in keys:
                    bits = rebuilt.setdefault((table_id, key), bytearray(len(records) // 8 + 1))
                    bits[slot >> 3] |= 1 << (slot & 7)
        for where in sorted(postings.keys() | rebuilt.keys()):
            found = postings.get(where, 0)
            if found >> len(records):
                violations.append(f"posting {where} has a bit beyond the slot space")
            if in_sync and found != int.from_bytes(rebuilt.get(where, b""), "little"):
                violations.append(f"posting {where} differs from its rebuild")
        return violations

    def _set_keys(self, slot: int, profile: ServiceProfile, *, present: bool) -> None:
        """Set or clear ``slot``'s bit in every posting ``profile`` sits
        under, and in the int form of each that a query has cached (one
        OR/AND here instead of a rebuild from the bytes on the next query).
        """
        if not self._in_sync():
            # Keys derived under a moved ontology are not the keys the
            # postings were built with: touch nothing, and rebuild at the
            # next query even if the ontology has moved back by then.
            self._indexed_ontology = None
            return
        byte, bit, mask_cache = slot >> 3, 1 << (slot & 7), self._mask_cache
        wide = 1 << slot if mask_cache else 0  # a bulk load builds no big int
        for table_id, keys in enumerate(self._keys_of(profile)):
            table = self._tables[table_id]
            for key in keys:
                posting = table.get(key)
                if posting is None:
                    table[key] = posting = bytearray(byte + 1)
                elif byte >= len(posting):
                    posting.extend(bytes(byte + 1 - len(posting)))
                posting[byte] = posting[byte] | bit if present else posting[byte] & ~bit
                cached = mask_cache.get((table_id, key)) if mask_cache else None
                if cached is not None:
                    mask_cache[table_id, key] = cached | wide if present else cached & ~wide

    def _keys_of(self, profile: ServiceProfile) -> tuple[tuple[str, ...], ...]:
        """One profile's concept keys per table: a pure function of the
        profile, the ontology version and the closure memo."""
        ontology = self._model.ontology
        return (
            self._closure_keys(profile.category),
            tuple(chain.from_iterable(map(self._closure_keys, profile.outputs))),
            (profile.category,) if profile.category in ontology else (),
            tuple(o for o in profile.outputs if o in ontology),
        )

    def _closure_keys(self, concept: str) -> tuple[str, ...]:
        """Ancestor-or-self keys for one advertised concept, memoized.

        Expanded from the reasoner's closure bitset. Out-of-ontology
        concepts get no keys. THING is kept only when it *is* the
        advertised concept (see module doc).
        """
        cached = self._closure_key_cache.get(concept)
        if cached is None:
            reasoner = self._model.reasoner
            ontology = reasoner.ontology
            if concept not in ontology:
                cached = ()
            elif concept == THING:
                cached = (THING,)
            else:
                # THING holds concept id 0 in every ontology; drop its bit
                # so it never becomes a closure key.
                bits = reasoner.closure_bits(concept) & ~1
                cached = tuple(ontology.uris_from_bits(bits))
            self._closure_key_cache[concept] = cached
        return cached
