"""Which kind of discover sets a workload's tail: its operations by class.

    make op-classes [WORKLOAD=lan_fallback] [SEED=1000] [TREE=<checkout>]
    python3 tools/op_classes.py [--workload W] [--seed N] [--scale F] [--tree DIR]

``benchmarks/perf/run.py --trace 0`` reports one ``discover_p50_kref`` and
one ``discover_p99_kref``. On a registry-less LAN the discovers are not
alike: the services' periodic registry probes fall inside some of them.
This tool runs the same untraced pass as ``run.py`` — it imports the
workload and the timing loop from ``benchmarks/perf`` (nothing there is
edited or patched): same set-up, same kref clock, and the number of rounds
``run.py`` derives from the checkout's ``BENCHMARK.json`` ``run_seconds`` —
and sorts each discover by what the simulator did during it:

* **probe arrival** — copies of a ``registry-probe`` multicast arrived;
* **probe send** — a ``registry-probe`` was sent, and none arrived;
* **plain** — neither.

Per class it prints the count, the median in kref, that median over the
run's p50, and how many of the discovers in the p98.5–p99.5 band — the
samples ``discover_p99_kref`` is the mean of — fall in the class.
``--tree`` points it at another checkout (``git archive <rev> | tar -x -C
DIR``), which is how a parent/change pair of tables is made.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CLASSES = ("plain", "probe send", "probe arrival")
PROBE = "registry-probe"


class Classified:
    """``workload``'s operations with each one's class recorded beside
    it; the counters are read outside the operation's own clock."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.classes: list[tuple[str, str]] = []

    def op(self, dep):
        before = _probe_counts(dep)
        kind, elapsed = self.workload.op(dep)
        sent, arrived = (after - was for after, was in zip(_probe_counts(dep), before))
        self.classes.append((kind, "probe arrival" if arrived
                             else "probe send" if sent else "plain"))
        return kind, elapsed


def _probe_counts(dep) -> tuple[int, int]:
    """Registry probes sent so far, and probe copies arrived so far."""
    network = dep.system.network
    arrivals = network.metrics.histograms.get(f"latency.{PROBE}")
    return network.stats.by_type_count[PROBE], arrivals.count if arrivals else 0


def band(n: int) -> slice:
    """The p98.5–p99.5 samples of ``n`` sorted ones, as ``run.p99`` takes them."""
    low = max(1, math.ceil(n * 98.5 / 100))
    return slice(low - 1, max(low, math.ceil(n * 99.5 / 100)))


def table(classes: list[str], relative: list[float], p50: float) -> list[str]:
    """One row per class: count, median kref, median / p50, discovers in band."""
    tail = [cls for _, cls in sorted(zip(relative, classes), key=lambda pair: pair[0])
            [band(len(relative))]]
    rows = [f"{'class':<15}{'count':>7}{'median kref':>13}{'x p50':>8}{'in band':>9}"]
    for cls in CLASSES:
        values = [v for v, c in zip(relative, classes) if c == cls]
        median = statistics.median(values) if values else float("nan")
        rows.append(f"{cls:<15}{len(values):>7}{median:>13.2f}{median / p50:>8.2f}"
                    f"{tail.count(cls):>9}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="lan_fallback")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tree", type=pathlib.Path, default=ROOT)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "perf")]
    from deployments import WORKLOADS
    from run import MIN_ROUNDS, p99, percentile, set_up, timed_rounds

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(tree / "BENCHMARK.json") as fh:
        seconds = float(json.load(fh)["run_seconds"])
    # ``run.end_to_end`` up to its timed rounds, which keep every sample
    # (``end_to_end`` returns only their statistics).
    dep, _setup_s = set_up(workload, workload.inputs(args.seed, args.scale))
    workload.prepare(dep)
    gc.collect()
    rounds = max(MIN_ROUNDS, round(workload.rounds_per_s * seconds * args.scale))
    classified = Classified(workload)
    latencies, _rates = timed_rounds(classified, dep, rounds,
                                     max(8, int(workload.round_ops * args.scale)))
    if dep.failed:
        sys.exit(f"{dep.failed} of {dep.attempted} operations failed")
    classes = [cls for kind, cls in classified.classes if kind == "discover"]
    relative = [kref for _ns, kref in latencies["discover"]]
    p50 = percentile(relative, 50)
    tail = band(len(relative))
    n_band = tail.stop - tail.start
    print(f"{args.workload} seed {args.seed}: {len(relative)} discovers, "
          f"p50 {p50:.2f} kref, p98.5-p99.5 band {n_band} discovers "
          f"averaging {p99(relative):.2f} kref")
    print("\n".join(table(classes, relative, p50)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
