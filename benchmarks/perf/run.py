"""The repo's benchmark: one whole ``discover()`` end to end, layer by layer.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py [--seed N] [--workload W] [--scale F]

The first form is one measurement in this process. ``--trace 0`` leaves the
program untouched and prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed number of rounds untraced, then as many under
wall-clock spans recorded from outside (``spans.py``), and prints the
per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.

The second form (no ``--trace``) is the report: every selected workload, both
passes, each in a fresh process so peak memory and the program's own
trace list do not leak from one workload into the next; it prints every
metric by name with its unit and writes ``results/report.json``.

Everything is single-threaded, ``gc`` stays at the interpreter's defaults
with one ``gc.collect()`` before the timed phase, and ``PYTHONHASHSEED`` is
left alone: the count metrics do not depend on it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

#: ``round_spread`` above this marks a run as noisy (diagnostic only).
NOISY_SPREAD = 0.10
#: Fewest rounds a timed phase is made of.
MIN_ROUNDS = 3
#: Iterations of the reference kernel (~0.5 ms) and how much measured work
#: may pass before it is timed again.
KREF_LOOPS = 10_000
KREF_EVERY_NS = 50_000_000
WRITE_KINDS = ("publish", "renew", "remove")


def percentile(values: list[float], q: float, half_band: float = 0.0) -> float:
    """Mean of the samples between the ``q - half_band``-th and the
    ``q + half_band``-th percentile (nearest rank; with no band, the
    ``q``-th percentile itself).

    The band is for the tail. A request cycle is a few classes of requests,
    and the slowest classes (two "monster" requests of 256, plus full
    collections) make up almost exactly 1 % of the discovers: the plain 99th
    percentile falls on the edge between two classes and jumps by 2x from
    run to run. The band moves smoothly as the edge moves.
    """
    ordered = sorted(values)
    n = len(ordered)
    low = max(1, math.ceil(n * (q - half_band) / 100))
    high = max(low, math.ceil(n * (q + half_band) / 100))
    band = ordered[low - 1:high]
    return float(sum(band) / len(band))


def p99(values: list[float]) -> float:
    return percentile(values, 99, half_band=0.5)


def run_ops(workload, dep, count: int) -> tuple[dict[str, list[int]], int]:
    """``count`` operations; per-kind host latencies and their sum."""
    latencies: dict[str, list[int]] = {}
    busy = 0
    for _ in range(count):
        kind, elapsed = workload.op(dep)
        latencies.setdefault(kind, []).append(elapsed)
        busy += elapsed
    return latencies, busy


def reference_kernel() -> int:
    """Host ns of a fixed integer loop: the machine's speed right now.

    The reference box drifts by +-20 % for seconds at a time (neighbours on
    the same core), which no amount of work per run averages out. Every
    latency is therefore also reported in units of this kernel's time as
    measured within the last ``KREF_EVERY_NS`` of work ("kref").
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(KREF_LOOPS):
        acc += i * i
    return time.perf_counter_ns() - t0


def timed_rounds(workload, dep, rounds: int, round_ops: int):
    """``rounds`` rounds of ``round_ops`` operations each.

    A round is one pass over the request cycle, so every round does the
    same work and its rate is comparable with the next one's. The clock is
    the sum of the operations' own host time: the oracle checks and the
    reference kernel between operations neither count as work nor shorten
    a round. Returns per-kind ``(ns, kref)`` latency pairs and per-round
    ``(ops/s, ops/kref)`` rates.
    """
    latencies: dict[str, list[tuple[int, float]]] = {}
    rates = []
    for _ in range(rounds):
        busy = 0
        busy_kref = 0.0
        since = KREF_EVERY_NS
        for _ in range(round_ops):
            if since >= KREF_EVERY_NS:
                kref = reference_kernel()
                since = 0
            kind, elapsed = workload.op(dep)
            if elapsed >= KREF_EVERY_NS:
                # A long operation: the speed it ran at lies between the
                # kernel before it and the kernel after it.
                after = reference_kernel()
                relative = 2 * elapsed / (kref + after)
                kref, since = after, 0
            else:
                relative = elapsed / kref
                since += elapsed
            latencies.setdefault(kind, []).append((elapsed, relative))
            busy += elapsed
            busy_kref += relative
        rates.append((round_ops / busy * 1e9, round_ops / busy_kref))
    return latencies, rates


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, inputs):
    """Set up ``setup_repeats`` times from scratch; keep the last."""
    seconds = []
    dep = None
    for _ in range(workload.setup_repeats):
        dep = None
        gc.collect()
        t0 = time.perf_counter()
        dep = workload.build(inputs)
        seconds.append(time.perf_counter() - t0)
    return dep, statistics.median(seconds)


def end_to_end(workload, seed: int, seconds: float, scale: float):
    """The untraced pass: the program at its shipped defaults.

    The number of rounds is a function of ``--seconds`` only (calibrated so
    that the timed phase lasts about that long on the reference box): the
    program keeps per-query state, so its speed and memory depend on how
    many operations came before, and only a fixed count makes two runs
    measure the same thing.
    """
    inputs = workload.inputs(seed, scale)
    dep, setup_s = set_up(workload, inputs)
    workload.prepare(dep)
    gc.collect()
    rounds = max(MIN_ROUNDS, round(workload.rounds_per_s * seconds * scale))
    latencies, rates = timed_rounds(
        workload, dep, rounds, max(8, int(workload.round_ops * scale)))
    rss = peak_rss_mb()
    workload.finish(dep)
    host_ns, relative = zip(*latencies["discover"])
    per_s = [rate for rate, _ in rates]
    quartiles = statistics.quantiles(per_s, n=4)
    spread = (quartiles[2] - quartiles[0]) / quartiles[1]
    metrics = {
        "setup_s": setup_s,
        "ops_per_kref": statistics.median(rate for _, rate in rates),
        "discover_p50_kref": percentile(relative, 50),
        "discover_p99_kref": p99(relative),
        "peak_rss_mb": rss,
    }
    # The same statistics in host time, for the reader: on the reference box
    # they spread by ~0.2 of their median from run to run, so no bound can
    # sit on them. The traced run reports them as (unbounded) metrics.
    notes = {
        "ops_per_s": statistics.median(per_s),
        "discover_p50_ms": percentile(host_ns, 50) / 1e6,
        "discover_p99_ms": p99(host_ns) / 1e6,
        "discover_samples": len(host_ns),
        "rounds": rounds,
        "timed_s": sum(ns for pairs in latencies.values() for ns, _ in pairs) / 1e9,
        "round_spread": spread,
        "noisy": spread > NOISY_SPREAD,
    }
    return metrics, notes, dep


def per_layer(workload, seed: int, seconds: float, scale: float):
    """The traced pass. Operation counts are fixed (a function of
    ``--seconds`` only), so every count metric repeats exactly."""
    import layers
    from spans import HOT_TARGETS, TIMER_TARGETS, SpanRecorder, patched

    inputs = workload.inputs(seed, scale)
    rec = SpanRecorder()
    count = (max(1, round(workload.trace_rounds_per_s * seconds * scale))
             * max(8, int(workload.round_ops * scale)))
    with patched(rec, TIMER_TARGETS):
        dep = workload.build(inputs)
        workload.prepare(dep)
        extras = workload.before_ops(dep)
        gc.collect()
        plain, plain_busy = run_ops(workload, dep, count)
        before = dep.counters()
        with patched(rec, HOT_TARGETS):
            rec.on, dep.rec = True, rec
            traced, traced_busy = run_ops(workload, dep, count)
            rec.on, dep.rec = False, None
        after = dep.counters()
        extras.update(workload.finish(dep))
        extras.update(workload.after_ops(dep))

    writes = sum(len(traced.get(kind, ())) for kind in WRITE_KINDS)
    metrics, shares = layers.derive(
        rec, ops=count, writes=writes,
        delta={key: after[key] - before[key] for key in after},
    )
    metrics["ops_per_s"] = count / plain_busy * 1e9
    metrics["discover_p50_ms"] = percentile(plain["discover"], 50) / 1e6
    metrics["discover_p99_ms"] = p99(plain["discover"]) / 1e6
    metrics["bench.span_overhead_frac"] = traced_busy / plain_busy - 1
    plain_writes = [ns for kind in WRITE_KINDS for ns in plain.get(kind, ())]
    for kind in WRITE_KINDS:
        if kind in plain:
            metrics[f"{kind}_p50_ms"] = percentile(plain[kind], 50) / 1e6
    if plain_writes:
        metrics["write_p99_ms"] = p99(plain_writes) / 1e6
    metrics.update(extras)

    RESULTS.mkdir(exist_ok=True)
    rec.dump(str(RESULTS / f"trace_{workload.name}.json"), meta={
        "workload": workload.name, "seed": seed, "traced_ops": count,
        "traced_wall_ns": traced_busy, "layer_self_share": shares,
    })
    notes = {"traced_ops": count, "spans": len(rec), "layer_self_share": shares}
    return metrics, notes, dep


def measure(args, spec: dict) -> int:
    """One measurement in this process; the last line printed is the result."""
    try:
        from deployments import WORKLOADS
    except ImportError as exc:
        sys.exit(f"cannot import the program under test from {ROOT / 'src'}: {exc}")
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        metrics, notes, dep = per_layer(workload, args.seed, args.seconds, args.scale)
        metrics["failed_frac"] = dep.failed / dep.attempted
        # A layer metric that does not apply to this workload reads zero.
        missing = set()
    else:
        metrics, notes, dep = end_to_end(workload, args.seed, args.seconds, args.scale)
        missing = set(units) - set(metrics)
    # An emitted name BENCHMARK.json does not declare is as wrong as a
    # declared one that is not emitted.
    missing = sorted(missing | (set(metrics) - set(units)))
    out = {name: {"value": metrics.get(name, 0.0), "unit": unit}
           for name, unit in units.items()}
    for name, cell in out.items():
        print(f"{args.workload:<13} {name:<42} {cell['value']:>16.6g} {cell['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    if missing:
        print(f"# metrics missing or undeclared: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": dep.failed == 0 and not missing,
        "attempted": dep.attempted,
        "failed": dep.failed,
        "metrics": out,
    }))
    return 1 if dep.failed or missing else 0


def report(args, spec: dict) -> int:
    """Every selected workload, both passes, a fresh process each."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results: dict[str, dict] = {}
    status = 0
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                status = 1
            if lines and lines[-1].startswith("{"):
                results[name]["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "report.json", "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                   "claim": None, "workloads": results}, fh, indent=1)
    print(f"wrote {RESULTS / 'report.json'}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies store sizes, warm-up and measured time (self-test)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.trace is None:
        return report(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
