"""Perf benchmark: indexed vs. linear semantic matchmaking (tier-2 smoke).

Measures queries/sec and matchmaker evaluations-per-query at store sizes
{100, 1k, 10k} for the index-pruned and linear-scan query paths, writes
the perf trajectory to ``BENCH_matchmaking.json`` at the repo root, and
enforces the regression floor: the indexed path must never evaluate more
descriptions than the linear path, and at 10k advertisements selective
requests must see at least a 5x evaluation reduction.

A second, indexed-only sweep scales the store to 100k advertisements and
writes ``BENCH_query_100k.json`` (build seconds — the deferred ``put``s
alone — first-query seconds, which pay the index rebuild, queries/sec, and
evaluations-per-query per size). Its CI gates are **count-based only** —
deterministic across machines: the fitted log-log growth exponent of
evaluations-per-query vs. store size must stay below 1.0 (sub-linear),
the absolute evaluations-per-query at 100k must stay under a hard cap,
the most descriptions any single query scores must stay under a ceiling
at every size of both sweeps,
and the index must hand out exactly the ids the evaluator scores
(``ids_expanded_per_query == descriptions_scored_per_query``: no
candidate group is opened before its bound is checked, and the id a
query stops on is not taken), the matchmaker must resolve each request
once per query (``request_plans_per_query == 1.0`` at 10k and at 100k),
and the evaluator must build a ``QueryHit`` only for an advertisement it
returns (``hits_built_per_query <= max_results`` on both paths at 10k
and at 100k). Wall-clock numbers — queries/sec, ``first_query_seconds``,
``match_us_each`` (the cost of one ``SemanticModel.evaluate``) and
``expand_us_per_group`` (expanding and sorting the ids of one candidate
group the evaluator opened) — are recorded for the trajectory but never
gated.

Run directly (no pytest-benchmark dependency)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_matchmaking.py -q
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from operator import attrgetter
from unittest import mock

import pytest

from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.registry import matching
from repro.registry.advertisements import Advertisement
from repro.registry.index import SemanticConceptIndex
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_matchmaking.json"
BENCH_100K_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_query_100k.json"

STORE_SIZES = (100, 1_000, 10_000)
QUERIES_PER_SIZE = 25
MAX_RESULTS = 5
SEED = 42
#: Profiles each request is matched against for ``match_us_each``.
MATCH_SAMPLE = 400
#: Required evaluations-per-query reduction at the largest store size.
MIN_REDUCTION_AT_10K = 5.0

#: Indexed-only scaling sweep: the linear baseline is hopeless at 100k
#: (tens of seconds per measurement), and correctness equivalence is
#: already pinned at <=10k above and in the property suite.
SCALING_SIZES = (1_000, 10_000, 100_000)
#: Sub-linear gate: fitted slope of log(evaluations/query) over
#: log(store size) across the scaling sweep.
MAX_EVALUATIONS_GROWTH_EXPONENT = 1.0
#: Absolute ceiling on evaluations-per-query at 100k advertisements
#: (a linear scan would be 100_000; score-bounded groups stop at ~5).
MAX_EVALUATIONS_PER_QUERY_AT_100K = 50.0
#: Ceilings on the descriptions the costliest single query scores, per
#: store size: the tail the mean hides (indexed path, both sweeps; the
#: readings once score bounds were refined over every similarity level —
#: before, 19 / 30 / 42 and 30 / 69 / 20).
MAX_SCORED_IN_ONE_QUERY = {100: 19, 1_000: 29, 10_000: 41}
MAX_SCORED_IN_ONE_QUERY_SCALING = {1_000: 30, 10_000: 41, 100_000: 20}


def _advertise(profile, index: int) -> Advertisement:
    return Advertisement(
        ad_id=f"ad-{index:06d}",
        service_node=f"svc-node-{index}",
        service_name=profile.service_name,
        endpoint=f"svc://{profile.service_name}",
        model_id="semantic",
        description=profile,
    )


def _counted_pass(evaluator, requests) -> tuple[int, list[int], int]:
    """One more, untimed pass over ``requests``: how many ``QueryHit``
    objects it builds, the bitset of every candidate group the evaluator
    opened (a group whose bound ends the query is never started), and the
    most descriptions any one query scored."""
    built = most_scored = 0
    opened: list[int] = []
    hand_out = SemanticConceptIndex._hand_out

    class CountedHit(QueryHit):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            nonlocal built
            built += 1
            super().__init__(*args, **kwargs)

    def recording(index, bits: int):
        opened.append(bits)  # runs at the group's first ``next()``
        yield from hand_out(index, bits)

    with mock.patch.object(matching, "QueryHit", CountedHit), \
            mock.patch.object(SemanticConceptIndex, "_hand_out", recording):
        for request in requests:
            scored = evaluator.descriptions_evaluated
            evaluator.evaluate("semantic", request, max_results=MAX_RESULTS)
            most_scored = max(most_scored, evaluator.descriptions_evaluated - scored)
    return built, opened, most_scored


def _measure(ontology, profiles, requests, *, use_indexes: bool) -> dict:
    """One query-path measurement over a freshly built store."""
    store = AdvertisementStore()
    model = SemanticModel(ontology)
    evaluator = QueryEvaluator(store, ModelRegistry([model]), use_indexes=use_indexes)
    build_start = time.perf_counter()
    for i, profile in enumerate(profiles):
        store.put(_advertise(profile, i))
    build_seconds = time.perf_counter() - build_start

    # Warm-up pass: populate degree/ancestor caches so both paths are
    # measured steady-state (the production-relevant regime). Its first
    # query pays the index rebuild the deferred ``put``s left pending.
    first_start = time.perf_counter()
    evaluator.evaluate("semantic", requests[0], max_results=MAX_RESULTS)
    first_query_seconds = time.perf_counter() - first_start
    for request in requests[1:]:
        evaluator.evaluate("semantic", request, max_results=MAX_RESULTS)

    index = store.index_for("semantic")
    evals_before = model.matchmaker.evaluations
    plans_before = model.matchmaker.plans_built
    scored_before = evaluator.descriptions_evaluated
    expanded_before = index.expanded if index is not None else 0
    hits_digest = []
    query_start = time.perf_counter()
    for request in requests:
        hits = evaluator.evaluate("semantic", request, max_results=MAX_RESULTS)
        hits_digest.append(tuple(
            (h.advertisement.ad_id, h.degree, round(h.score, 12)) for h in hits
        ))
    elapsed = time.perf_counter() - query_start
    n = len(requests)
    evaluations = model.matchmaker.evaluations - evals_before
    plans = model.matchmaker.plans_built - plans_before
    # The matchmaker alone, request-major as a registry drives it: one
    # ``SemanticModel.evaluate`` per (request, profile) over a fixed sample;
    # the first pass fills the pair tables, the second is timed.
    sample = profiles[:MATCH_SAMPLE]
    for _pass in range(2):
        match_start = time.perf_counter()
        for request in requests:
            for profile in sample:
                model.evaluate(profile, request)
        match_seconds = time.perf_counter() - match_start
    result = {
        "build_seconds": round(build_seconds, 6),
        "first_query_seconds": round(first_query_seconds, 6),
        "queries_per_sec": round(n / elapsed, 2) if elapsed > 0 else float("inf"),
        "evaluations_per_query": evaluations / n,
        "descriptions_scored_per_query": (evaluator.descriptions_evaluated - scored_before) / n,
        "request_plans_per_query": plans / n,
        "match_us_each": round(match_seconds * 1e6 / (n * len(sample)), 3),
        "_hits_digest": hits_digest,
    }
    if index is not None:
        result["ids_expanded_per_query"] = (index.expanded - expanded_before) / n
    built, opened, most_scored = _counted_pass(evaluator, requests)
    result["hits_built_per_query"] = built / n
    result["descriptions_scored_max_per_query"] = most_scored
    if opened:
        # Expanding and sorting alone, replayed over those groups; the best
        # of five passes.
        expand_seconds = float("inf")
        for _pass in range(5):
            expand_start = time.perf_counter()
            for bits in opened:
                sorted(index._expand(bits), key=attrgetter("ad_id"))
            expand_seconds = min(expand_seconds, time.perf_counter() - expand_start)
        result["expand_us_per_group"] = round(expand_seconds * 1e6 / len(opened), 3)
    return result


@pytest.fixture(scope="module")
def bench_results():
    ontology = OntologyGenerator(SEED).random_ontology()
    generator = ProfileGenerator(ontology, seed=SEED)
    rows = []
    for size in STORE_SIZES:
        profiles = generator.profiles(size)
        # Selective anchored requests (generalize one step): the common
        # query-response-control shape the paper's registries serve.
        requests = [
            generator.request_for(
                profiles[(i * 37) % size], generalize=1, max_results=MAX_RESULTS
            )
            for i in range(QUERIES_PER_SIZE)
        ]
        linear = _measure(ontology, profiles, requests, use_indexes=False)
        indexed = _measure(ontology, profiles, requests, use_indexes=True)
        assert indexed.pop("_hits_digest") == linear.pop("_hits_digest"), \
            f"indexed and linear hits diverged at store size {size}"
        reduction = (
            linear["evaluations_per_query"] / indexed["evaluations_per_query"]
            if indexed["evaluations_per_query"] else float("inf")
        )
        rows.append({
            "store_size": size,
            "queries": QUERIES_PER_SIZE,
            "linear": linear,
            "indexed": indexed,
            "evaluation_reduction": round(reduction, 2),
            "query_speedup": round(
                indexed["queries_per_sec"] / linear["queries_per_sec"], 2
            ),
        })
    return rows


def test_perf_trajectory_written(bench_results, results_dir):
    payload = {
        "benchmark": "indexed vs linear semantic matchmaking",
        "config": {
            "seed": SEED,
            "queries_per_size": QUERIES_PER_SIZE,
            "max_results": MAX_RESULTS,
            "ontology": "OntologyGenerator(42).random_ontology()  # 40+60 classes",
            "requests": "anchored, generalize=1 (selective)",
        },
        "sizes": bench_results,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        f"{'store':>7} {'lin q/s':>9} {'idx q/s':>9} {'lin ev/q':>9} "
        f"{'idx ev/q':>9} {'reduction':>10}"
    ]
    for row in bench_results:
        lines.append(
            f"{row['store_size']:>7} {row['linear']['queries_per_sec']:>9} "
            f"{row['indexed']['queries_per_sec']:>9} "
            f"{row['linear']['evaluations_per_query']:>9.1f} "
            f"{row['indexed']['evaluations_per_query']:>9.1f} "
            f"{row['evaluation_reduction']:>9.1f}x"
        )
    table = "\n".join(lines)
    (results_dir / "perf_matchmaking.txt").write_text(table + "\n")
    print()
    print(table)


@pytest.fixture(scope="module")
def scaling_results():
    """Indexed-path-only sweep to 100k advertisements."""
    ontology = OntologyGenerator(SEED).random_ontology()
    generator = ProfileGenerator(ontology, seed=SEED)
    rows = []
    profiles: list = []
    for size in SCALING_SIZES:
        # Grow the profile set incrementally so the 100k row reuses the
        # 10k row's profiles (same generator stream as a fresh call).
        profiles.extend(
            generator.random_profile(i) for i in range(len(profiles), size)
        )
        requests = [
            generator.request_for(
                profiles[(i * 37) % size], generalize=1, max_results=MAX_RESULTS
            )
            for i in range(QUERIES_PER_SIZE)
        ]
        indexed = _measure(ontology, profiles, requests, use_indexes=True)
        indexed.pop("_hits_digest")
        rows.append({"store_size": size, "queries": QUERIES_PER_SIZE, **indexed})
    return rows


def _fitted_exponent(rows) -> float:
    """Least-squares slope of log(evaluations/query) vs. log(store size)."""
    points = [
        (math.log(row["store_size"]), math.log(max(row["evaluations_per_query"], 1e-9)))
        for row in rows
    ]
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )


def test_query_100k_trajectory_written(scaling_results, results_dir):
    exponent = _fitted_exponent(scaling_results)
    payload = {
        "benchmark": "indexed semantic query path, scaling to 100k ads",
        "config": {
            "seed": SEED,
            "queries_per_size": QUERIES_PER_SIZE,
            "max_results": MAX_RESULTS,
            "ontology": "OntologyGenerator(42).random_ontology()  # 40+60 classes",
            "requests": "anchored, generalize=1 (selective)",
            "gates": "count-based only: growth exponent + absolute cap "
                     "+ most scored by one query, per size "
                     "+ ids expanded == descriptions scored "
                     "+ one request plan per query "
                     "+ hits built <= max_results",
        },
        "sizes": scaling_results,
        "fitted_evaluations_exponent": round(exponent, 4),
        "max_allowed_exponent": MAX_EVALUATIONS_GROWTH_EXPONENT,
    }
    BENCH_100K_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        f"{'store':>7} {'build s':>9} {'first q s':>10} {'idx q/s':>10} {'idx ev/q':>9} "
        f"{'scored/q':>9} {'max scored':>11} {'expanded/q':>11} {'hits built/q':>13} "
        f"{'expand us/group':>16}"
    ]
    for row in scaling_results:
        lines.append(
            f"{row['store_size']:>7} {row['build_seconds']:>9.3f} "
            f"{row['first_query_seconds']:>10.3f} "
            f"{row['queries_per_sec']:>10} {row['evaluations_per_query']:>9.1f} "
            f"{row['descriptions_scored_per_query']:>9.1f} "
            f"{row['descriptions_scored_max_per_query']:>11} "
            f"{row['ids_expanded_per_query']:>11.1f} "
            f"{row['hits_built_per_query']:>13.1f} {row['expand_us_per_group']:>16.1f}"
        )
    lines.append(f"fitted evaluations-growth exponent: {exponent:.3f} "
                 f"(gate: < {MAX_EVALUATIONS_GROWTH_EXPONENT})")
    table = "\n".join(lines)
    (results_dir / "perf_query_100k.txt").write_text(table + "\n")
    print()
    print(table)


def test_scaling_is_sublinear_through_100k(scaling_results):
    """ISSUE gate: evaluations/query must grow sub-linearly in store size."""
    largest = scaling_results[-1]
    assert largest["store_size"] == 100_000
    exponent = _fitted_exponent(scaling_results)
    assert exponent < MAX_EVALUATIONS_GROWTH_EXPONENT, scaling_results
    assert largest["evaluations_per_query"] \
        <= MAX_EVALUATIONS_PER_QUERY_AT_100K, largest


def test_no_query_scores_more_than_its_ceiling(bench_results, scaling_results):
    """Gate on the tail: at every store size of both sweeps, the costliest
    single query scores no more descriptions than the recorded ceiling."""
    most = {row["store_size"]: row["indexed"]["descriptions_scored_max_per_query"]
            for row in bench_results}
    assert most.keys() == MAX_SCORED_IN_ONE_QUERY.keys()
    assert all(most[size] <= MAX_SCORED_IN_ONE_QUERY[size] for size in most), most
    most = {row["store_size"]: row["descriptions_scored_max_per_query"]
            for row in scaling_results}
    assert most.keys() == MAX_SCORED_IN_ONE_QUERY_SCALING.keys()
    assert all(most[size] <= MAX_SCORED_IN_ONE_QUERY_SCALING[size] for size in most), most


def test_every_expanded_id_is_scored_at_100k(scaling_results):
    """Gate: every id the index hands out is scored — no candidate group
    is opened before its bound is checked, and the id a query stops on is
    looked at, not taken."""
    largest = scaling_results[-1]
    assert largest["store_size"] == 100_000
    assert largest["ids_expanded_per_query"] \
        == largest["descriptions_scored_per_query"], largest


def test_one_request_plan_per_query(bench_results, scaling_results):
    """ISSUE gate: the matchmaker reads a request once per query, not once
    per candidate — on either path at 10k, and on the indexed path at 100k."""
    at_10k, at_100k = bench_results[-1], scaling_results[-1]
    assert (at_10k["store_size"], at_100k["store_size"]) == (10_000, 100_000)
    assert at_10k["indexed"]["request_plans_per_query"] == 1.0, at_10k
    assert at_10k["linear"]["request_plans_per_query"] == 1.0, at_10k
    assert at_100k["request_plans_per_query"] == 1.0, at_100k


def test_a_hit_is_built_only_for_a_returned_advertisement(bench_results, scaling_results):
    """ISSUE gate: the evaluator ranks on plain tuples and builds a ``QueryHit``
    for the survivors of the cap only — never one per scored match."""
    at_10k, at_100k = bench_results[-1], scaling_results[-1]
    assert (at_10k["store_size"], at_100k["store_size"]) == (10_000, 100_000)
    assert at_10k["indexed"]["hits_built_per_query"] <= MAX_RESULTS, at_10k
    assert at_10k["linear"]["hits_built_per_query"] <= MAX_RESULTS, at_10k
    assert at_100k["hits_built_per_query"] <= MAX_RESULTS, at_100k


def test_indexed_never_scores_more_than_linear(bench_results):
    """Regression floor: pruning must only ever shrink the candidate set."""
    for row in bench_results:
        assert row["indexed"]["descriptions_scored_per_query"] \
            <= row["linear"]["descriptions_scored_per_query"], row
        # The linear path scores the whole store, every query.
        assert row["linear"]["descriptions_scored_per_query"] == row["store_size"]


def test_reduction_floor_at_10k(bench_results):
    """ISSUE acceptance: >= 5x fewer matchmaker evaluations at 10k ads."""
    largest = bench_results[-1]
    assert largest["store_size"] == 10_000
    assert largest["evaluation_reduction"] >= MIN_REDUCTION_AT_10K, largest


def test_indexed_throughput_wins_at_10k(bench_results):
    """Pruning must translate into wall-clock wins where scans are costly."""
    largest = bench_results[-1]
    assert largest["indexed"]["queries_per_sec"] \
        > largest["linear"]["queries_per_sec"], largest
