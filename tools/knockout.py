"""Knock out one mechanism at a time and record what notices.

    make knockouts [REV=HEAD]
    python3 tools/knockout.py [--rev REV] [--write docs/KNOCKOUTS.md]

Each entry of :data:`MECHANISMS` names a method under ``src/`` that carries
one mechanism. Knocking it out replaces that method, from outside, by a
no-op or by a declared return value; with ``caller`` set, only the calls
made from inside that one method are replaced (the mechanism is one call
in a method that does more). Nothing under ``src/`` knows about this.

For each mechanism the tool exports ``REV`` (``git archive``, as
``tools/perf_pairs.py`` does: nothing in this working tree is written) and
runs there, with the knock-out loaded as a pytest plugin (``-p knockout``):

* the tier-1 test files that name the mechanism's module, plus the pins
  (``tests/test_reporting_pin.py``, ``tests/test_reply_paths.py``,
  ``tests/test_cli.py``);
* the test run of ``make results-check``, which regenerates every table
  under ``benchmarks/results`` and runs the experiments' gates.

A row lists the tests that fail and the results lines that move, both
beyond what the same runs give with nothing knocked out (the baseline,
run first). Prints the Markdown table, or writes it with ``--write``. One
process runs at a time; a row takes a minute or two (eight rows and the
baseline: ~11 min on two cores).
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import re
import shutil
import subprocess
import sys
from typing import Any, Callable, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The pins every row runs: metric names and trace hashes, reply-path
#: fingerprints, and the ``trace eN --jsonl`` hashes.
PINS = ("tests/test_reporting_pin.py", "tests/test_reply_paths.py", "tests/test_cli.py")
#: ``make results-check``'s test run, and the tables it leaves out (their
#: columns are wall-clock).
RESULTS_RUN = ("benchmarks", "--ignore=benchmarks/perf",
               "--ignore=benchmarks/test_perf_matchmaking.py")
RESULTS_SKIPPED = re.compile(r"^(e5\.txt|perf_.*\.txt)$")
#: Failing tests and moved lines shown per cell before "+N more", and the
#: characters shown of a moved line.
SHOWN, WIDTH = 6, 90


class Mechanism(NamedTuple):
    name: str
    #: ``module:Class.method`` replaced.
    target: str
    #: What the replacement returns: a value, or a function of the call's
    #: arguments (``self`` first).
    returns: Any = None
    #: ``module:Class.method``: only calls made from inside it are replaced.
    caller: str | None = None
    #: Which part of the table the row belongs to.
    part: str = "sharded ring"

    @property
    def module(self) -> str:
        """The module the mechanism lives in: its caller's, if scoped."""
        return (self.caller or self.target).split(":")[0]


_NEXT = "next to audit"

MECHANISMS = (
    Mechanism("stray sweep", "repro.core.sharding:ShardManager.sweep_strays"),
    Mechanism("first-sighting rumor", "repro.core.registry_node:RegistryNode.send",
              caller="repro.core.sharding:ShardManager.registry_observed"),
    Mechanism("join-time digest", "repro.core.antientropy:AntiEntropy.sync_with",
              caller="repro.core.sharding:ShardManager.neighbor_added"),
    Mechanism("read retarget", "repro.core.sharding:ShardManager._retarget", returns=[]),
    Mechanism("rebalance transfer", "repro.core.sharding:ShardManager._schedule_rebalance"),
    Mechanism("breaker half-open probe", "repro.core.forwarding:CircuitBreaker.would_allow",
              returns=lambda breaker: breaker.state == "closed", part=_NEXT),
    Mechanism("artifact sync on neighbor_added",
              "repro.core.repository:ArtifactRepository.neighbor_added", part=_NEXT),
    Mechanism("standby promotion", "repro.core.standby:StandbyRegistry._promote", part=_NEXT),
)


def resolve(spec: str) -> tuple[type, str, Callable]:
    """``module:Class.method`` → ``(class, method name, function)``."""
    module, _, qualname = spec.partition(":")
    owner_name, _, method = qualname.rpartition(".")
    owner = importlib.import_module(module)
    for part in owner_name.split("."):
        owner = getattr(owner, part)
    function = getattr(owner, method)
    if not callable(function):
        raise TypeError(f"{spec} is not a method")
    return owner, method, function


def knock_out(mechanism: Mechanism) -> None:
    """Replace the mechanism's method on its class, for this process."""
    owner, method, original = resolve(mechanism.target)
    returns = mechanism.returns
    caller = resolve(mechanism.caller)[2].__code__ if mechanism.caller else None

    def knocked(*args, **kwargs):
        if caller is not None and sys._getframe(1).f_code is not caller:
            return original(*args, **kwargs)
        return returns(*args, **kwargs) if callable(returns) else returns

    setattr(owner, method, knocked)


def _by_name(name: str) -> Mechanism:
    for mechanism in MECHANISMS:
        if mechanism.name == name:
            return mechanism
    raise SystemExit(f"unknown mechanism {name!r}")


def pytest_configure(config) -> None:
    """Loaded as a pytest plugin (``-p knockout``): knock out the mechanism
    named in ``REPRO_KNOCKOUT`` before any test builds a deployment."""
    if os.environ.get("REPRO_KNOCKOUT"):
        knock_out(_by_name(os.environ["REPRO_KNOCKOUT"]))


# -- running ------------------------------------------------------------------


def _tests_naming(tree: pathlib.Path, module: str) -> list[str]:
    word = module.rsplit(".", 1)[-1]
    return sorted(str(path.relative_to(tree)) for path in (tree / "tests").glob("test_*.py")
                  if word in path.read_text(encoding="utf-8"))


def _failures(tree: pathlib.Path, args: list[str], knocked: str | None) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "tools"]))
    env.pop("REPRO_KNOCKOUT", None)
    if knocked:
        env["REPRO_KNOCKOUT"] = knocked
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-p", "knockout", *args],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if run.returncode not in (0, 1):
        failed.add(f"(pytest exit {run.returncode})")
    return failed


def _moved(results: pathlib.Path, pristine: pathlib.Path) -> list[str]:
    """Each moved table line as ``file: old → new`` (only the words that
    differ), and restore the tables."""
    moved: list[str] = []
    for path in sorted(pristine.iterdir()):
        if RESULTS_SKIPPED.match(path.name):
            continue
        new = results / path.name
        before = path.read_text(encoding="utf-8").splitlines()
        after = new.read_text(encoding="utf-8").splitlines() if new.exists() else []
        for old_line, new_line in zip(before, after):
            if old_line != new_line:
                old_words, new_words = old_line.split(), new_line.split()
                gone = [w for w in old_words if w not in new_words]
                came = [w for w in new_words if w not in old_words]
                moved.append(f"{path.name}: {' '.join(gone) or '∅'} → {' '.join(came) or '∅'}")
        if len(before) != len(after):
            moved.append(f"{path.name}: {len(before)} → {len(after)} lines")
    shutil.rmtree(results)
    shutil.copytree(pristine, results)
    return moved


def run_row(tree: pathlib.Path, pristine: pathlib.Path, tests: list[str],
            knocked: str | None) -> tuple[set[str], list[str]]:
    failed = _failures(tree, tests, knocked) | _failures(tree, list(RESULTS_RUN), knocked)
    return failed, _moved(tree / "benchmarks" / "results", pristine)


def _cell(items: list[str]) -> str:
    if not items:
        return "—"
    shown = [f"`{item if len(item) <= WIDTH else item[:WIDTH] + '…'}`".replace("|", "\\|")
             for item in items[:SHOWN]]
    if len(items) > SHOWN:
        shown.append(f"+{len(items) - SHOWN} more")
    return "<br>".join(shown)


def table(rows: list[tuple[Mechanism, list[str], list[str]]],
          baseline: tuple[set[str], list[str]]) -> str:
    lines = [
        "# Knock-outs: what each mechanism is needed for",
        "",
        "Generated by `make knockouts` (`tools/knockout.py`) from the tree it is",
        "committed with; do not edit by hand. Each row replaces one method from",
        "outside `src/` (a no-op, or the declared return value; *from* limits it",
        "to the calls made inside that method), then runs the tier-1 tests that",
        "name the mechanism's module, the pins, and `make results-check`'s test run.",
        "*Fails* lists the tests and gates that fail, *moves* the",
        "`benchmarks/results` lines that change (the words that differ), both",
        "beyond the baseline run with nothing knocked out.",
        "",
        "| part | mechanism | knocked out | fails | moves |",
        "|---|---|---|---|---|",
    ]
    for mechanism, failed, moved in rows:
        target = f"`{mechanism.target.split(':')[1]}`"
        if mechanism.caller:
            target += f" from `{mechanism.caller.split(':')[1]}`"
        if mechanism.returns is not None:
            target += " → declared value"
        lines.append(f"| {mechanism.part} | {mechanism.name} | {target} | "
                     f"{_cell(failed)} | {_cell(moved)} |")
    failed, moved = baseline
    lines += ["", f"Baseline: {len(failed)} failing, {len(moved)} lines moved."]
    if failed or moved:
        lines.append(f"{_cell(sorted(failed))} {_cell(moved)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    from perf_pairs import exported

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="revision to export and run")
    parser.add_argument("--write", type=pathlib.Path, help="write the table here")
    args = parser.parse_args(argv)
    with exported(args.rev) as tree:
        pristine = tree / "knockout-pristine-results"
        shutil.copytree(tree / "benchmarks" / "results", pristine)
        selected = {m.name: sorted({*_tests_naming(tree, m.module), *PINS}) for m in MECHANISMS}
        everything = sorted({test for tests in selected.values() for test in tests})
        print(f"baseline: {len(everything)} test files", file=sys.stderr)
        baseline = run_row(tree, pristine, everything, None)
        rows = []
        for mechanism in MECHANISMS:
            print(f"{mechanism.name}: {len(selected[mechanism.name])} test files",
                  file=sys.stderr)
            failed, moved = run_row(tree, pristine, selected[mechanism.name], mechanism.name)
            rows.append((mechanism, sorted(failed - baseline[0]),
                         [line for line in moved if line not in baseline[1]]))
    text = table(rows, baseline)
    if args.write:
        args.write.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
