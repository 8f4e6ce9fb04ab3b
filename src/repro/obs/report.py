"""Capacity-planning reports: how much headroom does a deployment have?

ROADMAP item 5 asks every scenario to answer the operator's question —
"what is the maximum sustainable load before my objectives break, and
what does breaking look like" — not just to print raw tables.
:func:`build_capacity_report` post-processes an experiment's swept rows
(offered load vs outcome) plus whatever runtime state is available (the
metrics registry's latency histograms, a
:class:`~repro.obs.health.HealthMonitor`'s SLO windows and alarm
timeline) into one structured, JSON-serializable report:

* ``max_sustainable_qps`` — the highest offered load whose row still
  met the success-rate and latency objectives (0.0 when none did);
* ``points`` — the sweep, each point annotated with whether it held;
* ``latency`` — whole-run p50/p95/p99 from ``query.e2e_latency``;
* ``shed_rate``, ``alarms``, ``slo`` — the overload/health posture.

Reports are deterministic: same seed, same rows, same bytes. The
experiments (E17/E18/E19/E20) attach one via their ``report_dir``
parameter and the ``repro health`` CLI renders and writes them to
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.health import HealthMonitor
    from repro.obs.metrics import MetricsRegistry

#: Report schema version (bump on breaking shape changes).
SCHEMA_VERSION = 1


def build_capacity_report(
    experiment: str,
    *,
    seed: int,
    points: Iterable[Mapping[str, Any]],
    success_target: float = 0.95,
    latency_target: float = 2.0,
    metrics: "MetricsRegistry | None" = None,
    monitor: "HealthMonitor | None" = None,
    shed: int | None = None,
    issued: int | None = None,
    notes: tuple[str, ...] = (),
) -> dict[str, Any]:
    """Assemble one capacity report.

    ``points`` are mappings with at least ``qps`` (offered load),
    ``success`` (success ratio in [0, 1]), and ``latency`` (the point's
    tail-latency figure, seconds); extra keys ride along untouched. A
    point *holds* when success >= ``success_target`` and latency <=
    ``latency_target``; ``max_sustainable_qps`` is the highest holding
    offered load.
    """
    annotated = []
    for point in points:
        entry = dict(point)
        entry["slo_ok"] = (
            float(entry["success"]) >= success_target
            and float(entry["latency"]) <= latency_target
        )
        annotated.append(entry)
    annotated.sort(key=lambda p: float(p["qps"]))
    sustainable = [p for p in annotated if p["slo_ok"]]
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": seed,
        "objective": {
            "success_target": success_target,
            "latency_target": latency_target,
        },
        "points": annotated,
        "max_sustainable_qps": (
            max(float(p["qps"]) for p in sustainable) if sustainable else 0.0
        ),
    }
    if metrics is not None:
        histogram = metrics.histograms.get("query.e2e_latency")
        if histogram is not None and histogram.count:
            report["latency"] = {
                "count": histogram.count,
                "p50": histogram.percentile(0.50),
                "p95": histogram.percentile(0.95),
                "p99": histogram.percentile(0.99),
            }
    if shed is not None and issued:
        report["shed_rate"] = shed / issued
    elif shed is not None:
        report["shed"] = shed
    if monitor is not None:
        report["alarms"] = monitor.alarm_timeline()
        report["slo"] = monitor.slo.snapshot()
    if notes:
        report["notes"] = list(notes)
    return report


def render_report(report: Mapping[str, Any]) -> str:
    """A compact human rendering of one capacity report."""
    lines = [
        f"capacity report — {report['experiment']} (seed {report['seed']})",
        f"  max sustainable qps: {report['max_sustainable_qps']:g} "
        f"(success >= {report['objective']['success_target']:g}, "
        f"latency <= {report['objective']['latency_target']:g}s)",
    ]
    latency = report.get("latency")
    if latency:
        lines.append(
            f"  query latency: p50={latency['p50']:.4g}s "
            f"p95={latency['p95']:.4g}s p99={latency['p99']:.4g}s "
            f"({latency['count']} queries)"
        )
    if "shed_rate" in report:
        lines.append(f"  shed rate: {report['shed_rate']:.3f}")
    lines.append("  sweep:")
    for point in report["points"]:
        verdict = "ok " if point["slo_ok"] else "FAIL"
        lines.append(
            f"    [{verdict}] qps={float(point['qps']):8.2f}  "
            f"success={float(point['success']):.3f}  "
            f"latency={float(point['latency']):.4g}s"
        )
    alarms = report.get("alarms")
    if alarms is not None:
        lines.append(f"  alarms: {len(alarms)}")
        for alarm in alarms:
            where = f" [{alarm['node']}]" if alarm.get("node") else ""
            lines.append(f"    t={alarm['t']:g} {alarm['alarm']}{where}")
    return "\n".join(lines)


def write_report(report: Mapping[str, Any], directory: str | pathlib.Path) -> pathlib.Path:
    """Write a report as canonical JSON; returns the path written."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"health_{str(report['experiment']).lower()}_seed{report['seed']}.json"
    )
    path.write_text(
        json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    )
    return path
