"""Alternating parent/change pairs of the repo's benchmark, with a verdict.

    make perf-pairs PARENT=<rev> [CHANGE=<rev>] WORKLOAD=<name>|all [PAIRS=10] [SEED=1000]
    python3 tools/perf_pairs.py --parent <rev> [--change <rev>] --workload <name>|all \
        [--pairs N] [--seed S]

The *change* is this working tree, or ``--change <rev>``; the *parent* is
``<rev>``. Both sides run from a fresh copy in a temporary directory,
removed on exit: a revision is exported with ``git archive`` (nothing is
written under ``.git``), the working tree by copying its tracked and
untracked files, ignored ones left out. ``--change`` equal to
``--parent`` is an A/A run: what it reads is the noise a claim has to
clear. Pair ``i`` runs

    python3 benchmarks/perf/run.py --workload W --seed S+i --seconds R --trace 0

in both trees, one process at a time, the parent first on even pairs and
the change first on odd ones; ``R`` is ``run_seconds`` of ``BENCHMARK.json``.
It refuses to run when ``BENCHMARK.json`` or ``benchmarks/perf`` differ
between the two sides: a pair is only a pair under the same harness.

Per end-to-end metric it prints both sides' medians and quartiles, how
many pairs the change won, and a verdict by the ``choosing-metrics`` rule:

gain / regression
    one side is better in at least nine tenths of the pairs (ties count
    for neither) and the medians are further apart than the parent's own
    quartiles; also *regression* whenever the change's median is worse
    than the parent's by more than the metric's bound.
unchanged
    neither, and the run-to-run spread is inside the bound (or every run
    of the change reads better than every run of the parent).
unresolved
    neither, and the spread is wider than the bound.

Every run made is listed, so the output can be pasted as the record.
``--workload all`` does this for every workload of ``BENCHMARK.json`` in
turn, one table each, against one export of the parent; the exit status is
1 if any of them regressed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
HARNESS = ("BENCHMARK.json", "benchmarks/perf")
#: Share of the pairs one side must win before a difference is claimed.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], *, better: str, bound: float) -> dict:
    """Compare paired samples of one metric (``parent[i]`` ran with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    losses = sum(sign * c < sign * p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (c_med - p_med)
    apart = abs(improvement) > p_q3 - p_q1
    needed = WIN_SHARE * len(parent)
    spread = max(p_q3 - p_q1, c_q3 - c_q1) / abs(p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= needed and apart and improvement > 0:
        word = "gain"
    elif (losses >= needed and apart and improvement < 0) or -improvement > bound * abs(p_med):
        word = "regression"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med, "wins": wins, "losses": losses,
        "ties": len(parent) - wins - losses, "verdict": word,
    }


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``; the parsed last line of its output."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{tree}: run.py exit {proc.returncode} without a result\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def same_harness(parent: str, change: str | None) -> None:
    """Exit unless ``parent``'s harness equals ``change``'s (default: this
    working tree's, whose untracked harness files the copy would run too)."""
    revs = [parent, change] if change else [parent]
    untracked = not change and subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", *HARNESS],
        cwd=ROOT, check=True, capture_output=True).stdout
    if untracked or subprocess.run(
            ["git", "diff", "--quiet", *revs, "--", *HARNESS], cwd=ROOT).returncode:
        sys.exit(f"{' and '.join(HARNESS)} differ from {parent}: "
                 "a change that edits the benchmark cannot be paired against it")


@contextlib.contextmanager
def exported(rev: str | None) -> Iterator[pathlib.Path]:
    """``rev`` exported into a temporary directory, removed on exit;
    ``None`` copies this working tree's files that git does not ignore."""
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        if rev is None:
            listed = subprocess.run(
                ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                cwd=ROOT, check=True, capture_output=True).stdout.decode()
            for name in filter(None, listed.split("\0")):
                source, target = ROOT / name, pathlib.Path(tmp, name)
                if source.is_file():  # a tracked file deleted here is listed too
                    target.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copy2(source, target)
        else:
            archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield pathlib.Path(tmp)


def compare(trees: dict[str, pathlib.Path], spec: dict, workload: str,
            *, parent: str, change: str, pairs: int, seed: int) -> bool:
    """Run and print one workload's pairs and table; whether it regressed."""
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    values = {side: {name: [] for name in names} for side in trees}
    ops = {side: [0, 0] for side in trees}  # failed, attempted
    print(f"# {workload}: {pairs} pairs, parent {parent}, change {change}, "
          f"--seconds {seconds} --trace 0")
    print(f"# {'seed':>6} {'side':<7}" + "".join(f"{n:>19}" for n in names))
    for i in range(pairs):
        for side in (("parent", "change"), ("change", "parent"))[i % 2]:
            result = run_once(trees[side], workload, seed + i, seconds)
            ops[side][0] += result["failed"]
            ops[side][1] += result["attempted"]
            row = [result["metrics"][name]["value"] for name in names]
            for name, value in zip(names, row):
                values[side][name].append(value)
            print(f"  {seed + i:>6} {side:<7}"
                  + "".join(f"{v:>19.6g}" for v in row), flush=True)

    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"\n{'metric':<18} {'parent med [q1, q3]':<30} {'change med [q1, q3]':<30} "
          f"{'chg/par':>8} {'win/tie/loss':>13}  verdict")
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = verdict(values["parent"][name], values["change"][name],
                    better=metric["better"], bound=metric["bound"])
        regressed |= v["verdict"] == "regression"
        print(f"{name:<18} {cell(v['parent']):<30} {cell(v['change']):<30} "
              f"{v['ratio']:>8.3f} {v['wins']:>5}/{v['ties']}/{v['losses']:<5}  "
              f"{v['verdict']} ({metric['better']} is better, bound {metric['bound']})")
    for side, (failed, attempted) in ops.items():
        print(f"{side}: {failed} failed of {attempted} operations attempted")
    return regressed or ops["change"][0] > ops["parent"][0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", help="revision to compare (default: this working tree)")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="pair i runs seed S+i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}")
        workloads = [args.workload]
    same_harness(args.parent, args.change)
    with contextlib.ExitStack() as stack:
        trees = {"parent": stack.enter_context(exported(args.parent)),
                 "change": stack.enter_context(exported(args.change))}
        regressed = [compare(trees, spec, workload, parent=args.parent,
                             change=args.change or "working tree",
                             pairs=args.pairs, seed=args.seed)
                     for workload in workloads]
    return 1 if any(regressed) else 0


if __name__ == "__main__":
    sys.exit(main())
