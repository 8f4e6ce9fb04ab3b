"""Bench E21 — sharded, replicated federation.

Gates the PR's acceptance criteria:

* **Load** — per-node store size tracks the ideal ``K*R/S`` at every
  sweep size (max/mean < 1.35 at 100k ads / 16 registries), and the
  scoped partner digest shrinks anti-entropy bytes by roughly the
  sharding factor against the full-store digest.
* **Churn** — one join or leave moves no more than ``K*R/S`` replica
  assignments (1.25x virtual-node slack): consistent hashing's minimal
  movement, measured on the production ring.
* **Availability** — in the 16-registry live scenario, R−1 replicas of
  one shard fail-stop at t=20 and stay down; the steady probe stream
  keeps finding every reachable service (success >= 0.99) because the
  read cover routes around the dead replicas.
* **Self-healing** — the faulted run ends with zero shard-placement and
  zero replica-convergence violations: per-shard anti-entropy re-fills
  the surviving replicas.
* **Determinism** — two same-seed faulted runs export byte-identical
  trace JSONL.

That sharding left disabled changes nothing is not gated here: a
registry whose configuration does not enable it registers none of it,
which ``tests/test_kernel_surface.py`` states for every subsystem.
"""

from repro.experiments.e21_sharding import R, run, run_shard_smoke


def test_e21_sharding(benchmark, record, results_dir):
    result = benchmark.pedantic(lambda: run(seed=0), rounds=1, iterations=1)
    record(result)
    for row in result.where(run="ring-sweep"):
        assert row["max_over_mean"] < 1.35, row
        assert row["join_moved"] <= row["join_bound"], row
        assert row["leave_moved"] <= row["leave_bound"], row
        assert row["digest_ratio"] < 2.2 * R / row["registries"], row
    live = result.single(run="replica-kill")
    assert live["success"] >= 0.99
    assert live["victims"]


def test_e21_smoke_gates():
    smoke = run_shard_smoke(seed=0)

    # Availability through the replica kill, and a clean end state.
    faulted = smoke["faulted"]
    assert len(faulted["victims"]) == R - 1
    assert faulted["success"] >= 0.99
    assert faulted["placement_violations"] == []
    assert faulted["convergence_violations"] == []
    assert faulted["shard_counters"]["quorum_writes"] > 0

    # Load and churn bounds on the analytic 100k-ad sweep.
    for row in smoke["sweep"]:
        assert row["max_over_mean"] < 1.35, row
        assert row["join_moved"] <= row["join_bound"], row
        assert row["leave_moved"] <= row["leave_bound"], row
    # Digest economics at the headline size: scoped partner digests are
    # a small fraction of the full-store digest an unsharded federation
    # would gossip each round.
    largest = smoke["sweep"][-1]
    assert largest["digest_ratio"] < 2.2 * R / largest["registries"]

    # Determinism: same seed, same trace bytes.
    assert faulted["trace"] == smoke["repeat_trace"]
    assert faulted["trace"]
