"""Shared experiment plumbing: result tables and small helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.client_node import ClientNode
from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.errors import ExperimentError
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.scenarios import lans

#: The request every :func:`radar` profile answers.
REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


@dataclass
class ExperimentResult:
    """A small result table with aligned-text rendering.

    ``rows`` are dicts sharing the same keys; ``notes`` carries free-form
    observations the EXPERIMENTS.md write-up quotes.
    """

    experiment: str
    description: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Named metric summaries (histogram ``summary()`` dicts, counter
    #: maps) the experiment attaches — rendered as a block after the
    #: table and dumped into ``benchmarks/results/`` by the benches.
    metrics: dict[str, Any] = field(default_factory=dict)

    def add(self, **row: Any) -> None:
        """Append one result row."""
        self.rows.append(row)

    def note(self, text: str) -> None:
        """Record a free-form observation."""
        self.notes.append(text)

    def columns(self) -> list[str]:
        """Column names in first-seen order across all rows."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def column(self, name: str) -> list[Any]:
        """One column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def where(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all equality criteria."""
        return [
            row for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def single(self, **criteria: Any) -> dict[str, Any]:
        """Exactly one row matching the criteria (raises otherwise)."""
        matches = self.where(**criteria)
        if len(matches) != 1:
            raise ExperimentError(
                f"{self.experiment}: expected 1 row for {criteria}, found {len(matches)}"
            )
        return matches[0]

    def table(self) -> str:
        """Aligned plain-text rendering (what the benches print)."""
        columns = self.columns()
        if not columns:
            return f"{self.experiment}: (no rows)"
        rendered = [[_fmt(row.get(col)) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(line[i]) for line in rendered)) if rendered else len(col)
            for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        divider = "  ".join("-" * widths[i] for i in range(len(columns)))
        body = "\n".join(
            "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
            for line in rendered
        )
        parts = [f"== {self.experiment}: {self.description} ==", header, divider, body]
        if self.metrics:
            parts.append("")
            parts.append("metrics:")
            for name in sorted(self.metrics):
                value = self.metrics[name]
                if isinstance(value, dict):
                    inner = "  ".join(
                        f"{k}={_fmt(value[k])}" for k in sorted(value)
                    )
                    parts.append(f"  {name}: {inner}")
                else:
                    parts.append(f"  {name}: {_fmt(value)}")
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable dump (``repro experiment --json``)."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "rows": self.rows,
            "metrics": self.metrics,
            "notes": self.notes,
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.table()


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for empty input."""
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def stdev(values: Iterable[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    items = list(values)
    if len(items) < 2:
        return 0.0
    mu = mean(items)
    return (sum((x - mu) ** 2 for x in items) / len(items)) ** 0.5


def radar(name: str) -> ServiceProfile:
    """A ``ncw:RadarService`` producing ``ncw:AirTrack``."""
    return ServiceProfile.build(name, "ncw:RadarService", outputs=["ncw:AirTrack"])


def radar_ring(config: DiscoveryConfig, seed: int, *,
               clients: int) -> tuple[DiscoverySystem, list[ClientNode]]:
    """Three LANs with one registry each, ring-federated, services
    ``radar-{i}-{j}`` (two per LAN) and ``clients`` clients on lan-0."""
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(), config=config)
    for lan in lans(3):
        system.add_lan(lan)
        system.add_registry(lan)
    system.federate_ring()
    for i, lan in enumerate(lans(3)):
        for j in range(2):
            system.add_service(lan, radar(f"radar-{i}-{j}"))
    return system, [system.add_client("lan-0") for _ in range(clients)]


def schedule_discovers(system, arrivals: Iterable[tuple[float, Any, Any]]) -> list:
    """Schedule one semantic ``discover`` per ``(time, client, request)``.

    Arrivals are scheduled (and drawn, if ``arrivals`` is a generator) in
    iteration order; a client that is down at its arrival time issues
    nothing. Returns the list the issued calls are appended to.
    """
    calls: list = []
    for when, client, request in arrivals:

        def issue(client=client, request=request) -> None:
            if client.alive:
                calls.append(client.discover(request, model_id="semantic"))

        system.sim.schedule_at(when, issue)
    return calls


def round_robin_probes(system, clients, request, *, start: float, stop: float,
                       step: float) -> list:
    """A steady background feed: one query every ``step`` seconds in
    ``[start, stop)``, the clients taking turns."""
    def arrivals():
        t, i = start, 0
        while t < stop:
            yield t, clients[i % len(clients)], request
            t += step
            i += 1

    return schedule_discovers(system, arrivals())


def repeat_runs(
    run_fn: Callable[..., ExperimentResult],
    *,
    seeds: Iterable[int],
    group_by: list[str],
    **kwargs: Any,
) -> ExperimentResult:
    """Run an experiment across several seeds and aggregate.

    Rows are grouped by the key columns in ``group_by``; every numeric
    column becomes ``<name>`` (the cross-seed mean) plus ``<name>_sd``.
    Non-numeric, non-key columns are dropped. This is how single-seed
    experiment shapes are checked for robustness — see
    ``benchmarks/test_repeatability.py``.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise ExperimentError("repeat_runs needs at least one seed")
    per_seed = [run_fn(seed=seed, **kwargs) for seed in seed_list]
    base = per_seed[0]
    grouped: dict[tuple, list[dict[str, Any]]] = {}
    for result in per_seed:
        for row in result.rows:
            key = tuple(row.get(column) for column in group_by)
            grouped.setdefault(key, []).append(row)

    aggregated = ExperimentResult(
        experiment=f"{base.experiment}xN",
        description=f"{base.description} (mean of {len(seed_list)} seeds)",
    )
    for key, rows in grouped.items():
        out: dict[str, Any] = dict(zip(group_by, key))
        numeric_columns = [
            column for column in rows[0]
            if column not in group_by
            and isinstance(rows[0][column], (int, float))
            and not isinstance(rows[0][column], bool)
        ]
        for column in numeric_columns:
            values = [float(row[column]) for row in rows if column in row]
            out[column] = mean(values)
            out[f"{column}_sd"] = stdev(values)
        out["n"] = len(rows)
        aggregated.add(**out)
    return aggregated


def bar_chart(
    result: ExperimentResult,
    *,
    label: str,
    value: str,
    width: int = 40,
) -> str:
    """Render one numeric column as an ASCII horizontal bar chart.

    The executable stand-in for the figures a paper would plot::

        arch=centralized  ████████████████████████████████  292590
        arch=distributed  ██████████████████████████        240127
    """
    rows = [row for row in result.rows if isinstance(
        row.get(value), (int, float))]
    if not rows:
        return f"{result.experiment}: no numeric values in {value!r}"
    peak = max(abs(float(row[value])) for row in rows) or 1.0
    labels = [f"{label}={row.get(label)}" for row in rows]
    label_width = max(len(text) for text in labels)
    lines = [f"{result.experiment}: {value}"]
    for text, row in zip(labels, rows):
        magnitude = abs(float(row[value]))
        bar = "#" * max(1, round(width * magnitude / peak))
        lines.append(f"{text.ljust(label_width)}  {bar}  {_fmt(row[value])}")
    return "\n".join(lines)
