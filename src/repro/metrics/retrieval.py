"""Retrieval quality: precision, recall, F1.

Ground truth is the ontology-derived relevant set attached to each query
by the workload generator; a call's *returned* set is the service names of
its hits. Response control (``max_results``) truncates returns, so recall
is also reported against the truncated ideal (``recall_at_k``) for fair
comparison when caps are active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.client_node import DiscoveryCall
from repro.workloads.queries import IssuedQuery


@dataclass(frozen=True)
class RetrievalScores:
    """Aggregated precision/recall/F1 over a set of queries."""

    queries: int
    precision: float
    recall: float
    f1: float
    returned_mean: float
    relevant_mean: float

    @staticmethod
    def from_pairs(pairs: list[tuple[frozenset[str], frozenset[str]]]) -> "RetrievalScores":
        """Score (returned, relevant) set pairs; macro-averaged."""
        if not pairs:
            return RetrievalScores(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        scored = [_precision_recall(returned, relevant) for returned, relevant in pairs]
        precision = sum(p for p, _ in scored) / len(pairs)
        recall = sum(r for _, r in scored) / len(pairs)
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        return RetrievalScores(
            queries=len(pairs),
            precision=precision,
            recall=recall,
            f1=f1,
            returned_mean=sum(len(r) for r, _ in pairs) / len(pairs),
            relevant_mean=sum(len(t) for _, t in pairs) / len(pairs),
        )


def returned_names(call: DiscoveryCall) -> frozenset[str]:
    """The set of service names a completed call returned."""
    return frozenset(call.service_names())


def score_call(call: DiscoveryCall, relevant: frozenset[str]) -> tuple[float, float]:
    """(precision, recall) of one call against its ground truth."""
    return _precision_recall(returned_names(call), relevant)


def _precision_recall(returned: frozenset[str], relevant: frozenset[str]) -> tuple[float, float]:
    correct = len(returned & relevant)
    precision = correct / len(returned) if returned else (1.0 if not relevant else 0.0)
    recall = correct / len(relevant) if relevant else 1.0
    return precision, recall


def score_queries(
    issued: Iterable[IssuedQuery],
    *,
    alive_only: frozenset[str] | None = None,
) -> RetrievalScores:
    """Aggregate scores for a completed query batch.

    ``alive_only`` restricts ground truth to services alive at scoring
    time — under churn a system cannot be penalized for not returning
    services that no longer exist.
    """
    pairs = []
    for query in issued:
        if not query.call.completed:
            continue
        relevant = query.relevant
        if alive_only is not None:
            relevant = relevant & alive_only
        pairs.append((returned_names(query.call), relevant))
    return RetrievalScores.from_pairs(pairs)
