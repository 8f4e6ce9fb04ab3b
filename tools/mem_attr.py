"""Where a benchmark deployment's memory goes: by module, by line, by phase.

    make mem-attr [WORKLOAD=wan_100k] [SEED=1000] [TREE=<checkout>] [GROWTH=N]
    python3 tools/mem_attr.py [--workload W] [--seed N] [--scale F] [--tree DIR] [--top N]
    python3 tools/mem_attr.py --phases [...]
    python3 tools/mem_attr.py --inputs [...]
    python3 tools/mem_attr.py --growth N [...]

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
  the phase that sets ``peak_rss_mb`` can be read off;
* with ``--inputs``, runs ``Workload.inputs`` under ``tracemalloc`` and
  prints what the generated records hold — profiles, advertisements,
  requests, the ontology — in MiB and in bytes per generated profile record, by
  module and by line: the part of the high-water mark the default table
  leaves out;
* with ``--growth N``, builds and prepares the deployment and runs one
  round of operations untraced, then runs ``N`` more under ``tracemalloc``
  and prints what they leave behind in bytes per operation, by module and
  by line: memory that grows with the length of a run, not its size.

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


def attribution(action, title: str, count, unit: str, noun: str,
                tree: pathlib.Path, top: int) -> None:
    """Run ``action()`` under ``tracemalloc`` and print what it leaves
    allocated — in MiB and in bytes per ``unit`` over ``count`` of them (a
    number, or a function of what ``action`` returned) — by source module
    and by allocating line."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = action()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    if callable(count):
        count = count(kept)
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    by_line = snapshot.statistics("lineno")
    total = sum(stat.size for stat in by_line)
    per = f"B/{unit}"
    print(f"## retained by {title}: {total / MIB:.1f} MiB, "
          f"{total / count:.0f} {per} over {count} {noun}")
    print(f"\n{'module':<44}{'MiB':>9}{per:>9}{'share':>8}")
    for stat in snapshot.statistics("filename")[:top]:
        module = where(stat.traceback[0].filename, tree)
        print(f"{module:<44}{stat.size / MIB:>9.2f}{stat.size / count:>9.0f}"
              f"{stat.size / total:>8.1%}")
    print(f"\n{'line':<44}{'MiB':>9}{per:>9}{'blocks':>9}  source")
    for stat in by_line[:top]:
        frame = stat.traceback[0]
        source = linecache.getline(frame.filename, frame.lineno).strip()
        at = f"{where(frame.filename, tree)}:{frame.lineno}"
        print(f"{at:<44}{stat.size / MIB:>9.2f}{stat.size / count:>9.0f}"
              f"{stat.count:>9}  {source[:60]}")


def build(workload, inputs, tree: pathlib.Path, top: int) -> None:
    n_ads = len(inputs.ads) or len(inputs.profiles)
    attribution(lambda: workload.build(inputs),
                f"{type(workload).__name__}.build under tracemalloc (input records not counted)",
                n_ads, "ad", "advertisements", tree, top)


def generated(workload, seed: int, scale: float, tree: pathlib.Path, top: int) -> None:
    attribution(lambda: workload.inputs(seed, scale),
                f"{type(workload).__name__}.inputs under tracemalloc",
                lambda inputs: len(inputs.profiles) + len(inputs.publish_pool),
                "record", "generated profile records", tree, top)


def growth(workload, inputs, tree: pathlib.Path, top: int, n_ops: int) -> None:
    dep = workload.build(inputs)
    workload.prepare(dep)
    for _ in range(max(1, int(workload.round_ops * inputs.scale))):
        workload.op(dep)

    def operations() -> None:
        for _ in range(n_ops):
            workload.op(dep)

    attribution(operations,
                f"{n_ops} x {type(workload).__name__}.op after a warm round, under tracemalloc",
                n_ops, "op", "operations", tree, top)
    if dep.failed:
        sys.exit(f"{dep.failed} of {dep.attempted} operations failed")


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
    parser.add_argument("--inputs", action="store_true",
                        help="what the generated input records hold, instead of the build")
    parser.add_argument("--growth", type=int, metavar="N",
                        help="bytes retained per operation over N operations "
                             "after a warm round, instead of the build")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    workload = load_workload(tree, args.workload)
    print(f"# mem-attr {args.workload} seed={args.seed} scale={args.scale:g} tree={tree}")
    if args.phases:
        phases(workload, args.seed, args.scale)
    elif args.inputs:
        generated(workload, args.seed, args.scale, tree, args.top)
    elif args.growth:
        growth(workload, workload.inputs(args.seed, args.scale), tree, args.top, args.growth)
    else:
        build(workload, workload.inputs(args.seed, args.scale), tree, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
