"""Command-line interface: run experiments and demos without writing code.

Usage (installed entry point or ``python -m repro``)::

    python -m repro list                       # available experiments
    python -m repro experiment e4              # run one, print its table
    python -m repro experiment e4 --seed 3
    python -m repro experiment e4 --json       # machine-readable dump
    python -m repro experiment all             # run everything
    python -m repro ablations                  # the knob sweeps
    python -m repro trace e7                   # render a causal query trace
    python -m repro metrics e7                 # render the metrics registry
    python -m repro metrics e7 --format prom   # Prometheus text exposition
    python -m repro health e20                 # capacity-planning report
    python -m repro demo                       # 30-second guided demo

Experiment runners are imported lazily so ``list`` stays fast.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Callable

#: Experiment id -> (module, human description). Kept in sync with
#: DESIGN.md §3.
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "e1": ("repro.experiments.e1_topology",
           "Fig. 1/§3 — the three discovery topologies"),
    "e2": ("repro.experiments.e2_response_control",
           "§3.1 — response implosion vs registry response control"),
    "e3": ("repro.experiments.e3_robustness",
           "§3 — recall under random/targeted registry failures"),
    "e4": ("repro.experiments.e4_staleness",
           "§4.8 — stale advertisements under churn (leasing vs none)"),
    "e5": ("repro.experiments.e5_matchmaking",
           "§4.2 — semantic vs syntactic matchmaking"),
    "e6": ("repro.experiments.e6_lan_fallback",
           "Fig. 3 — LAN discovery modes across a registry outage"),
    "e7": ("repro.experiments.e7_wan_federation",
           "Figs. 2/4 — WAN federation: seeding, cooperation, gateways"),
    "e8": ("repro.experiments.e8_forwarding",
           "§4.9 — flooding vs ring vs walk vs informed forwarding"),
    "e9": ("repro.experiments.e9_signalling",
           "§4.5 — failover via registry signalling"),
    "e10": ("repro.experiments.e10_stack",
            "Fig. 5 — description models on one generic stack"),
    "e11": ("repro.experiments.e11_survivability",
            "MILCOM — survivability of the three topologies"),
    "e12": ("repro.experiments.e12_repository",
            "§4.6 — the registry network as ontology repository"),
    "e13": ("repro.experiments.e13_notifications",
            "extension — notification push vs polling"),
    "e14": ("repro.experiments.e14_mediation",
            "§4.3 — mediator selection / translator chains"),
    "e15": ("repro.experiments.e15_standby",
            "§4.9 — registry-role negotiation (standby promotion)"),
    "e16": ("repro.experiments.e16_mobility",
            "§1 — roaming services across LANs"),
    "e17": ("repro.experiments.e17_overload",
            "§3.1 — overload protection: admission control, priority "
            "shedding, BUSY back-off"),
    "e18": ("repro.experiments.e18_routing",
            "§3.1 — adaptive load-aware routing under skewed registry "
            "load"),
    "e19": ("repro.experiments.e19_recovery",
            "extension — durable crash recovery (WAL + snapshot vs "
            "memory-only)"),
    "e20": ("repro.experiments.e20_health",
            "extension — runtime health under faults (alarms, flight "
            "recorders, SLO burn)"),
    "e21": ("repro.experiments.e21_sharding",
            "extension — sharded, replicated federation (quorum writes, "
            "read cover, self-healing)"),
}

#: Experiments whose ``run`` accepts ``report_dir`` and emits a
#: capacity-planning report (see :mod:`repro.obs.report`).
HEALTH_EXPERIMENTS = ("e17", "e18", "e19", "e20")


def _runner(experiment_id: str) -> Callable:
    module_name, _description = EXPERIMENTS[experiment_id]
    module = importlib.import_module(module_name)
    return module.run


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(key) for key in EXPERIMENTS)
    for key, (_module, description) in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {description}")
    print(f"{'ablations'.ljust(width)}  §4 knob sweeps (lease/beacon/ttl/zip)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    targets = list(EXPERIMENTS) if args.id == "all" else [args.id]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(try 'list')", file=sys.stderr)
        return 2
    dumps = []
    for target in targets:
        result = _runner(target)(seed=args.seed)
        if args.json:
            dumps.append(result.to_json())
            continue
        print(result.table())
        if args.chart:
            _print_chart(result, args.chart)
        print()
    if args.json:
        payload = dumps[0] if len(dumps) == 1 else dumps
        print(json.dumps(payload, indent=2, default=str))
    return 0


def _print_chart(result, value_column: str) -> int:
    """Render one numeric column as ASCII bars under the table."""
    from repro.experiments.common import bar_chart

    if value_column not in result.columns():
        print(f"no column {value_column!r}; columns: "
              f"{', '.join(result.columns())}", file=sys.stderr)
        return 2
    label = result.columns()[0]
    print()
    print(bar_chart(result, label=label, value=value_column))
    return 0


def cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import run

    result = run(seed=args.seed)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, default=str))
    else:
        print(result.table())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a canonical traced capture and render one query's span tree."""
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r} (try 'list')",
              file=sys.stderr)
        return 2
    from repro.obs.capture import run_traced

    run = run_traced(args.experiment, seed=args.seed)
    if args.jsonl:
        print(run.capture.export_jsonl())
        return 0
    if args.all:
        trace_ids = run.capture.traces()
    elif run.sample_trace is not None:
        trace_ids = [run.sample_trace]
    else:
        trace_ids = []
    if not trace_ids:
        print("no completed traces recorded", file=sys.stderr)
        return 1
    for trace_id in trace_ids:
        print(run.capture.render(trace_id))
        print()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a canonical traced capture and render its metrics registry."""
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r} (try 'list')",
              file=sys.stderr)
        return 2
    from repro.obs.capture import run_traced

    run = run_traced(args.experiment, seed=args.seed)
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps(run.metrics.snapshot(), indent=2, default=str))
    elif fmt == "prom":
        print(run.metrics.render_prom())
    else:
        print(run.metrics.render())
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Run a health-instrumented experiment; render its capacity report."""
    if args.experiment not in HEALTH_EXPERIMENTS:
        print(f"unknown health experiment {args.experiment!r} "
              f"(one of: {', '.join(HEALTH_EXPERIMENTS)})", file=sys.stderr)
        return 2
    import pathlib

    from repro.obs.report import render_report

    module = importlib.import_module(EXPERIMENTS[args.experiment][0])
    module.run(seed=args.seed, report_dir=args.dir)
    path = pathlib.Path(args.dir) / (
        f"health_{args.experiment}_seed{args.seed}.json"
    )
    report = json.loads(path.read_text())
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(render_report(report))
        print(f"\nwritten: {path}")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    """A guided single-LAN walk-through (the quickstart, narrated)."""
    from repro import DiscoverySystem, ServiceProfile, ServiceRequest
    from repro.semantics import emergency_ontology

    print("building a one-LAN deployment (registry + ambulance service)...")
    system = DiscoverySystem(seed=1, ontology=emergency_ontology())
    system.add_lan("field-hq")
    system.add_registry("field-hq")
    system.add_service("field-hq", ServiceProfile.build(
        "medevac-dispatch", "ems:AmbulanceDispatchService",
        outputs=["ems:UnitLocation"], qos={"latency_ms": 120.0}))
    client = system.add_client("field-hq")
    system.run(until=2.0)
    print("bootstrap done: probe -> attach -> publish -> lease")
    request = ServiceRequest.build("ems:MedicalService",
                                   outputs=["ems:Location"])
    print("querying for any MedicalService producing Locations "
          "(broader terms than advertised)...")
    call = system.discover(client, request)
    print(f"  found {call.service_names()} via {call.via} "
          f"in {call.latency * 1000:.1f} ms simulated")
    print("crashing the registry; querying again (fallback mode)...")
    system.registries[0].crash()
    call = system.discover(client, request, timeout=30.0)
    print(f"  found {call.service_names()} via {call.via} — "
          "the decentralized LAN fallback (Fig. 3)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic service discovery in dynamic environments — "
                    "experiments and demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list)

    experiment = sub.add_parser("experiment",
                                help="run one experiment (or 'all')")
    experiment.add_argument("id", help="experiment id, e.g. e4, or 'all'")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--chart", metavar="COLUMN", default=None,
        help="also render COLUMN as an ASCII bar chart",
    )
    experiment.add_argument(
        "--json", action="store_true",
        help="print the result as JSON instead of a table",
    )
    experiment.set_defaults(func=cmd_experiment)

    ablations = sub.add_parser("ablations", help="run the §4 knob sweeps")
    ablations.add_argument("--seed", type=int, default=0)
    ablations.add_argument(
        "--json", action="store_true",
        help="print the result as JSON instead of a table",
    )
    ablations.set_defaults(func=cmd_ablations)

    trace = sub.add_parser(
        "trace",
        help="run a traced capture of an experiment scenario and "
             "render a query's causal span tree",
    )
    trace.add_argument("experiment", help="experiment id, e.g. e7")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--all", action="store_true",
                       help="render every recorded trace, not just one")
    trace.add_argument("--jsonl", action="store_true",
                       help="dump the raw trace records as JSON Lines")
    trace.set_defaults(func=cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run a traced capture of an experiment scenario and "
             "render its metrics registry",
    )
    metrics.add_argument("experiment", help="experiment id, e.g. e7")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--json", action="store_true",
                         help="print the metrics snapshot as JSON "
                              "(same as --format json)")
    metrics.add_argument("--format", choices=("text", "json", "prom"),
                         default="text",
                         help="output format; 'prom' renders Prometheus "
                              "text exposition")
    metrics.set_defaults(func=cmd_metrics)

    health = sub.add_parser(
        "health",
        help="run a health-instrumented experiment and render its "
             "capacity-planning report",
    )
    health.add_argument("experiment",
                        help=f"one of: {', '.join(HEALTH_EXPERIMENTS)}")
    health.add_argument("--seed", type=int, default=0)
    health.add_argument("--dir", default="benchmarks/results",
                        help="directory the JSON report is written to")
    health.add_argument("--json", action="store_true",
                        help="print the raw JSON report instead")
    health.set_defaults(func=cmd_health)

    sub.add_parser("demo", help="a 30-second guided demo").set_defaults(
        func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
