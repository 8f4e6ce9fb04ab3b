"""Overload smoke — the `make overload-smoke` CI gate (E17, §3.1).

Replays the canonical query-flood scenario at a fixed seed and asserts
the *shape* of overload protection rather than exact numbers: the
priority queue keeps lease renewals alive through saturation while the
shed-less FIFO baseline collapses, BUSY back-pressure carries a
retry-after hint that grows monotonically with queue depth, goodput
plateaus instead of cliffing, and the whole flood is deterministic.

The full E17 sweep (the results table under ``benchmarks/results/``)
regenerates in :func:`test_e17_overload`.
"""

import pytest

from repro.experiments.e17_overload import (
    run,
    run_overload_smoke,
    shedding_policy,
)


@pytest.fixture(scope="module")
def smoke():
    return run_overload_smoke(seed=0)


def test_shedding_protects_renewals_through_saturation(smoke):
    shedding = smoke["shedding_4x"]
    baseline = smoke["baseline_4x"]
    # The acceptance bound: priority shedding sustains lease-renew
    # survival at 4x capacity; the FIFO baseline queues renews behind
    # the flood until leases expire and the store collapses.
    assert shedding["renew_survival"] >= 0.9
    assert baseline["renew_survival"] < 0.5
    # Renews outrank queries, so renew survival must dominate query
    # survival inside the flood window.
    assert shedding["renew_survival"] >= shedding["window_survival"]
    # Shedding actually happened, and every shed was answered with
    # exactly one BUSY instead of a silent drop.
    assert shedding["shed"] > 0
    assert shedding["busy"] == shedding["shed"]
    assert baseline["shed"] == 0 and baseline["busy"] == 0


def test_busy_retry_after_monotone_in_queue_depth(smoke):
    pairs = smoke["shed_pairs"]
    assert pairs, "the 4x flood must shed work"
    base = smoke["retry_after_base"]
    for depth, retry_after in pairs:
        assert retry_after == pytest.approx(base * (1 + depth))
    # Monotone: a deeper queue never promises a *shorter* retry-after.
    by_depth = sorted(pairs)
    for (d1, r1), (d2, r2) in zip(by_depth, by_depth[1:]):
        assert d1 > d2 or r1 <= r2
    # The unbounded baseline never sheds, hence never sends BUSY.
    assert smoke["baseline_shed_pairs"] == []


def test_goodput_plateaus_and_queue_stays_bounded(smoke):
    shedding_1x = smoke["shedding_1x"]
    shedding_4x = smoke["shedding_4x"]
    # Goodput at 4x saturation stays on a plateau (no cliff): at least
    # 60% of the at-capacity goodput.
    assert shedding_4x["goodput_qps"] >= 0.6 * shedding_1x["goodput_qps"]
    # The bounded queue is actually bounded: depth never exceeds the
    # configured limit plus the one ticket in service.
    limit = shedding_policy().queue_limit
    assert shedding_4x["max_depth"] <= limit + 1
    # Degraded mode engaged: the saturated registry served local-only
    # answers instead of fanning out over the WAN.
    assert shedding_4x["degraded"] > 0


def test_overload_smoke_is_deterministic(smoke):
    again = run_overload_smoke(seed=0)
    assert again == smoke


def test_e17_overload(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(multipliers=(0.5, 1.0, 4.0)), rounds=1, iterations=1
    )
    record(result)
    peak = result.metrics["renew_survival_at_peak"]
    assert peak["shedding"] >= 0.9
    assert peak["baseline"] < 0.5
    shedding_rows = result.where(mode="shedding")
    assert all(row["renew_survival"] >= 0.9 for row in shedding_rows)
