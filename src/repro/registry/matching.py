"""Query evaluation over the store, with response control.

The evaluator is where the paper's "opportunity to allow service selection
support in registries … to relieve constrained clients" lives: it
dispatches a query payload to its description model, scores every stored
advertisement of that model, and returns the best hits — capped when the
query carries a ``max_results`` header (query response control, §3).

Two optimizations keep the scored set far below the candidate set while
returning bit-identical results:

* **QoS pre-filter** — before any semantic scoring, each candidate is
  offered to the model's cheap :meth:`~repro.descriptions.base.DescriptionModel.prefilter`;
  an advertisement that cannot satisfy the request's hard QoS constraints
  would evaluate to FAIL anyway, so rejecting it early never changes the
  hit list. The model is asked once per query (``prefilter_for``) whether
  the filter can reject anything; when it cannot, no candidate pays the call.
* **Bounded top-k early termination** — when the query carries
  ``max_results`` and the store can rank candidates in groups of
  ``(degree, score)`` upper bound, ids ascending inside each
  (:meth:`~repro.registry.store.AdvertisementStore.ranked_candidates`),
  candidates are scored strongest-group first and scoring stops at the
  first one whose best possible rank key ``(-bound degree, -bound score,
  ad_id)`` the k-th best hit's key is strictly less than — at a group's
  bound, before the group is opened, or in the middle of a group. No
  unscored advertisement can then displace any of the top k, so the
  capped ranking equals the exhaustive one bit for bit.

A hit is built only for an advertisement that is returned: per match the
scoring loop allocates one rank key ``(-degree, -score, ad_id, ad)`` —
:meth:`QueryHit.sort_key` plus the record, which is never compared because
``ad_id`` is unique in a store — so selection orders keys in C with no key
function, and negating an int or a float twice gives the verdict's value back.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.registry.advertisements import Advertisement
from repro.registry.store import AdvertisementStore


@dataclass(frozen=True, slots=True)
class QueryHit:
    """One matching advertisement with its rank information."""

    advertisement: Advertisement
    degree: int
    score: float

    def sort_key(self) -> tuple:
        """Descending-quality ordering; UUID breaks ties deterministically."""
        return (-self.degree, -self.score, self.advertisement.ad_id)

    def size_bytes(self) -> int:
        """A hit on the wire is the full advertisement plus rank fields."""
        return self.advertisement.size_bytes() + 16


def _hits(keys: Iterable[tuple]) -> list[QueryHit]:
    """The hits of rank keys (see the module docstring), in their order."""
    return [QueryHit(ad, -neg_degree, -neg_score) for neg_degree, neg_score, _, ad in keys]


class QueryEvaluator:
    """Evaluates model-typed queries against an advertisement store.

    At construction the evaluator attaches each model's concept indexer
    (when the model provides one) to the store, so queries are scored only
    against index-pruned candidate sets; models without an indexer — and
    queries an indexer cannot prune — take the linear scan, with
    bit-identical results either way. Set ``use_indexes=False`` to force
    linear scans everywhere (the benchmark baseline).
    """

    def __init__(
        self,
        store: AdvertisementStore,
        models: ModelRegistry,
        *,
        use_indexes: bool = True,
    ) -> None:
        self.store = store
        self.models = models
        self.queries_evaluated = 0
        self.queries_discarded = 0
        #: Of those, the ones refused as another model's record under a
        #: model id this node supports: no node can accept such a query.
        self.queries_malformed = 0
        #: Stored descriptions actually scored, across all queries — the
        #: number a concept index exists to shrink.
        self.descriptions_evaluated = 0
        #: Candidates rejected by the model's QoS pre-filter before any
        #: semantic scoring (they would have evaluated to FAIL).
        self.prefiltered = 0
        #: Ranked queries that stopped with a candidate left unscored: at a
        #: group's bound, or at an id inside a group that could not enter.
        self.early_terminations = 0
        if use_indexes:
            for model_id in models.model_ids():
                indexer = models.get(model_id).make_index()
                if indexer is not None:
                    store.attach_index(indexer)

    def evaluate(
        self,
        model_id: str | None,
        query: Any,
        *,
        max_results: int | None = None,
    ) -> list[QueryHit]:
        """All matching advertisements for ``query``, best first.

        Queries the model gate refuses — an unsupported model, or another
        model's record — are silently discarded (counted once, there) —
        "nodes quickly filter and silently discard messages they cannot
        understand anyway". ``max_results`` of ``None`` returns every
        match (the no-response-control configuration).
        """
        model = self.models.for_query(model_id, query)
        if model is None or not model.can_evaluate():
            self.queries_discarded += 1
            if model is None and model_id in self.models:
                self.queries_malformed += 1
            return []
        self.queries_evaluated += 1
        if max_results is not None:
            ranked = self.store.ranked_candidates(model.model_id, query)
            if ranked is not None:
                return self._evaluate_top_k(model, query, ranked, max_results)
        keys = self._score_all(model, query, self.store.candidates(model.model_id, query))
        if max_results is not None:
            # Top-k selection (O(n log k)); ``nsmallest`` is stable, so
            # this is exactly the full sort's prefix.
            return _hits(heapq.nsmallest(max_results, keys))
        keys.sort()
        return _hits(keys)

    def _evaluate_top_k(
        self,
        model: DescriptionModel,
        query: Any,
        ranked: Iterator[tuple[tuple[int, float], Iterable[Advertisement]]],
        max_results: int,
    ) -> list[QueryHit]:
        """Score ranked candidates until no unscored one can enter the top k.

        Groups arrive in strictly descending ``(degree, score)`` bound
        order with ids ascending inside each, so the best rank key the
        next candidate can reach is ``(-bound degree, -bound score,
        ad_id)``, and every candidate after it ranks below that. Once
        ``max_results`` hits are held and the k-th best key is strictly
        less, scoring stops: at a group's bound, before its body is touched
        (group bodies are lazy, so that group is never expanded, split or
        resolved), or at the first id inside a group that cannot enter.
        Hits are deterministic per (advertisement, query), so the capped
        ranking is bit-identical to exhaustively scoring every candidate.
        """
        prefilter, evaluate = model.prefilter_for(query), model.evaluate
        keys: list[tuple] = []  # the best rank keys so far, ascending
        kth = None  # keys[-1] once ``max_results`` keys are held
        scored = prefiltered = 0
        stopped = False
        for (bound_degree, bound_score), ads in ranked:
            floor_degree, floor_score = -bound_degree, -bound_score
            if kth is not None and (kth[0], kth[1]) < (floor_degree, floor_score):
                stopped = True
                break
            for ad in ads:
                ad_id = ad.ad_id
                if kth is not None and kth < (floor_degree, floor_score, ad_id):
                    stopped = True
                    break
                scored += 1
                description = ad.description
                if prefilter is not None and not prefilter(description, query):
                    prefiltered += 1
                    continue
                verdict = evaluate(description, query)
                if verdict.matched:
                    key = (-verdict.degree, -verdict.score, ad_id, ad)
                    if kth is None:
                        insort(keys, key)
                        if len(keys) == max_results:
                            kth = keys[-1]
                    elif key < kth:
                        keys.pop()
                        insort(keys, key)
                        kth = keys[-1]
            if stopped:
                break
        self.descriptions_evaluated += scored
        self.prefiltered += prefiltered
        self.early_terminations += stopped
        return _hits(keys)

    def _score_all(
        self, model: DescriptionModel, query: Any, ads: Iterable[Advertisement]
    ) -> list[tuple]:
        """The unranked scoring loop: count, pre-filter, evaluate, and collect
        the rank key of every match among ``ads``."""
        prefilter, evaluate = model.prefilter_for(query), model.evaluate
        keys: list[tuple] = []
        scored = 0
        for ad in ads:
            scored += 1
            description = ad.description
            if prefilter is not None and not prefilter(description, query):
                self.prefiltered += 1
                continue
            verdict = evaluate(description, query)
            if verdict.matched:
                keys.append((-verdict.degree, -verdict.score, ad.ad_id, ad))
        self.descriptions_evaluated += scored
        return keys

    @staticmethod
    def merge(
        batches: list[list[QueryHit]],
        *,
        max_results: int | None = None,
    ) -> list[QueryHit]:
        """Merge hit lists from several registries, de-duplicating by UUID.

        The paper: UUIDs "could also be used to correlate query responses
        received from different registry nodes with a registry node's own
        results." The highest-ranked copy of each advertisement wins.
        """
        best: dict[str, QueryHit] = {}
        for batch in batches:
            for hit in batch:
                ad_id = hit.advertisement.ad_id
                current = best.get(ad_id)
                if current is None or hit.sort_key() < current.sort_key():
                    best[ad_id] = hit
        merged = sorted(best.values(), key=QueryHit.sort_key)
        if max_results is not None:
            merged = merged[:max_results]
        return merged
