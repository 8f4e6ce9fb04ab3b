"""Where a benchmark deployment's memory goes: by module, by line, by phase.

    make mem-attr [WORKLOAD=wan_100k] [SEED=1000] [TREE=<checkout>]
    python3 tools/mem_attr.py [--workload W] [--seed N] [--scale F] [--tree DIR] [--top N]
    python3 tools/mem_attr.py --phases [...]

``benchmarks/perf/run.py`` has one memory number, ``peak_rss_mb``, and the
harness may not change under a pull request that claims a gain on it. This
is the attribution probe beside it: it imports the workload from
``benchmarks/perf/deployments.py`` (nothing there is edited or patched),
generates the inputs, and then

* by default, runs ``Workload.build`` — bulk load, lease grants, settle,
  warm-up — under ``tracemalloc`` and prints what the build *retains*
  (the inputs' records exist before tracing starts and are not counted),
  in MiB and in bytes per advertisement, grouped by source module and by
  allocating line;
* with ``--phases``, runs inputs / build / prepare / one round of
  operations *without* ``tracemalloc`` (which would inflate them) and
  prints ``VmRSS`` and ``VmHWM`` from ``/proc/self/status`` after each, so
  the phase that sets ``peak_rss_mb`` can be read off.

``--tree`` points both at another checkout (``git archive <rev> | tar -x -C
DIR``), which is how a parent/change pair of tables is made. One process,
one deployment; ``wan_100k`` under ``tracemalloc`` takes about a minute.
"""

from __future__ import annotations

import argparse
import gc
import linecache
import pathlib
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
MIB = 1024 * 1024


def load_workload(tree: pathlib.Path, name: str):
    """The named workload object of ``tree``'s benchmark harness."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "perf")]
    from deployments import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]


def where(filename: str, tree: pathlib.Path) -> str:
    """``filename`` relative to the checkout, or its last two parts."""
    path = pathlib.Path(filename)
    try:
        return str(path.relative_to(tree))
    except ValueError:
        return "/".join(path.parts[-2:])


def attribution(workload, inputs, tree: pathlib.Path, top: int) -> None:
    n_ads = len(inputs.ads) or len(inputs.profiles)
    gc.collect()
    tracemalloc.start()
    try:
        dep = workload.build(inputs)  # noqa: F841 - alive until the snapshot is taken
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    by_line = snapshot.statistics("lineno")
    total = sum(stat.size for stat in by_line)
    print(f"## retained by {type(workload).__name__}.build under tracemalloc "
          f"(input records not counted): {total / MIB:.1f} MiB, "
          f"{total / n_ads:.0f} B/ad over {n_ads} advertisements")
    print(f"\n{'module':<44}{'MiB':>9}{'B/ad':>9}{'share':>8}")
    for stat in snapshot.statistics("filename")[:top]:
        module = where(stat.traceback[0].filename, tree)
        print(f"{module:<44}{stat.size / MIB:>9.2f}{stat.size / n_ads:>9.0f}"
              f"{stat.size / total:>8.1%}")
    print(f"\n{'line':<44}{'MiB':>9}{'B/ad':>9}{'blocks':>9}  source")
    for stat in by_line[:top]:
        frame = stat.traceback[0]
        source = linecache.getline(frame.filename, frame.lineno).strip()
        at = f"{where(frame.filename, tree)}:{frame.lineno}"
        print(f"{at:<44}{stat.size / MIB:>9.2f}{stat.size / n_ads:>9.0f}"
              f"{stat.count:>9}  {source[:60]}")


def vm_mib(field: str) -> float:
    """``VmRSS`` / ``VmHWM`` of this process in MiB (Linux)."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    return float("nan")


def phases(workload, seed: int, scale: float) -> None:
    print(f"{'phase':<28}{'seconds':>9}{'VmRSS MiB':>11}{'VmHWM MiB':>11}")

    def report(name: str, t0: float) -> None:
        print(f"{name:<28}{time.perf_counter() - t0:>9.2f}"
              f"{vm_mib('VmRSS'):>11.1f}{vm_mib('VmHWM'):>11.1f}")

    t0 = time.perf_counter()
    report("imports", t0)
    inputs = workload.inputs(seed, scale)
    report("inputs (records built)", t0)
    t0 = time.perf_counter()
    dep = workload.build(inputs)
    report("build (load, leases, warm)", t0)
    t0 = time.perf_counter()
    workload.prepare(dep)
    gc.collect()
    report("prepare (linear oracle)", t0)
    t0 = time.perf_counter()
    ops = max(8, int(workload.round_ops * scale))
    for _ in range(ops):
        workload.op(dep)
    report(f"one round ({ops} ops)", t0)
    if dep.failed:
        sys.exit(f"{dep.failed} of {dep.attempted} operations failed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="wan_100k")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tree", type=pathlib.Path, default=ROOT,
                        help="checkout whose src/ and benchmarks/perf/ are measured")
    parser.add_argument("--top", type=int, default=15, help="rows per table")
    parser.add_argument("--phases", action="store_true",
                        help="VmRSS/VmHWM per set-up phase instead of tracemalloc")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    workload = load_workload(tree, args.workload)
    print(f"# mem-attr {args.workload} seed={args.seed} scale={args.scale:g} tree={tree}")
    if args.phases:
        phases(workload, args.seed, args.scale)
    else:
        attribution(workload, workload.inputs(args.seed, args.scale), tree, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
