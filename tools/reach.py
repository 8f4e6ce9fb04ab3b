"""Which lines of ``src/repro`` the tests never run: a reach census.

    make reach                 # writes docs/REACH.md (tier-1, then the smoke gates)
    make reach-check           # tier-1 only; fails if more lines go unrun
    python3 tools/reach.py [--write docs/REACH.md | --check docs/REACH.md]

Runs the tier-1 suite, then the smoke gates of the Makefile's ``SMOKES``
table, each in its own process under a ``sys.settrace`` line tracer, and
reports every function-body line of ``src/repro`` neither run reached.
``coverage`` is not needed (nor installed); this is the stdlib tracer
alone:

* A line counts when a function body holds it: the lines
  ``co_lines()`` gives the instructions after a code object's first
  ``RESUME`` (the prologue carries only the ``def`` line), for every
  ``def`` and the comprehensions and lambdas nested in it. Module and
  class bodies run at import and are not counted.
* The tracer is installed before ``pytest`` (and so ``repro``) is
  imported, or functions that run only at import, such as the record
  declarations of ``records.py``, would read as unrun. It is installed
  again at each test phase, because tests may replace it.
* A code object whose every line has been seen is no longer traced, so a
  hot loop pays only until its first full pass.
* ``--hypothesis-seed=0`` fixes the examples, so two runs of one tree
  agree line for line.

Line events differ between interpreter versions, so the census is taken,
and checked, on one version (the header of ``docs/REACH.md`` names it).
``--write`` rewrites ``docs/REACH.md``: a summary by package, then each
unrun range with its function, once for tier-1 and once for tier-1 plus
the smoke gates (the perf smoke rewrites ``BENCH_*.json`` and
``benchmarks/results/perf_*.txt``; they are put back). ``--check`` runs
tier-1 alone and exits 1 when its unrun count outside ``experiments/``
exceeds the committed one.
``tests/test_reach.py`` checks in tier-1 that every range still names an
existing function.
"""

from __future__ import annotations

import argparse
import dis
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
#: pytest options of both runs; tier-1 is ``pyproject.toml``'s ``testpaths``.
OPTIONS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
_TOTAL_ROW = re.compile(r"^\| all but `experiments/` \| (\d+) \| \*\*(\d+)\*\* \|")
_VERSION_LINE = re.compile(r"Python (\d+\.\d+)")


# -- the tracer ------------------------------------------------------------------


def body_lines(code) -> set[int]:
    """The lines of ``code``'s body a line event can report."""
    resume = next(ins.offset for ins in dis.get_instructions(code) if ins.opname == "RESUME")
    return {line for start, _end, line in code.co_lines()
            if line is not None and start > resume}


class LineTracer:
    """A ``sys.settrace`` function that records the lines each
    ``src/repro`` function runs, and stops tracing a function once it has
    seen every line of it."""

    def __init__(self) -> None:
        self.prefix = str(SRC) + os.sep
        #: code object -> its local tracer, or None once it needs none.
        self.tracers: dict = {}
        #: code object of a ``src/repro`` function -> (its body lines,
        #: those of them not yet run).
        self.lines: dict = {}

    def __call__(self, frame, _event, _arg):
        try:
            return self.tracers[frame.f_code]
        except KeyError:
            return self._first_call(frame.f_code)

    def _first_call(self, code):
        if not (code.co_filename.startswith(self.prefix)
                and code.co_flags & inspect.CO_OPTIMIZED):
            self.tracers[code] = None
            return None
        body = body_lines(code)
        left = set(body)
        self.lines[code] = (body, left)
        tracers = self.tracers

        def local(frame, event, _arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    tracers[code] = None
                    return None
            return local

        tracers[code] = local
        return local

    def install(self) -> None:
        sys.settrace(self)
        threading.settrace(self)

    def ran(self) -> dict[str, list[int]]:
        """The lines run so far, per file relative to ``src/repro``."""
        ran: dict[str, set[int]] = defaultdict(set)
        for code, (body, left) in self.lines.items():
            ran[str(pathlib.Path(code.co_filename).relative_to(SRC))] |= body - left
        return {path: sorted(lines) for path, lines in sorted(ran.items())}


def traced_pytest(out: pathlib.Path, args: list[str]) -> int:
    """Run ``pytest args`` in this process under the tracer, and write the
    lines each ``src/repro`` file ran to ``out`` as JSON."""
    tracer = LineTracer()
    tracer.install()
    import pytest

    class Reinstall:
        """Puts the tracer back before each phase of each test."""

        pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = \
            pytest.hookimpl(tryfirst=True)(lambda self, item: tracer.install())

    status = pytest.main(args, plugins=[Reinstall()])
    sys.settrace(None)
    threading.settrace(None)
    out.write_text(json.dumps(tracer.ran()))
    return int(status)


# -- the census ---------------------------------------------------------------------


def _codes(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            yield const
            yield from _codes(const)


def function_lines(path: pathlib.Path) -> dict[int, str]:
    """Every function-body line of one source file -> the qualified name
    of the innermost ``def`` holding it."""
    codes = [code for code in _codes(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
             if code.co_flags & inspect.CO_OPTIMIZED]
    defs = {code.co_qualname for code in codes if not code.co_name.startswith("<")}
    owner: dict[int, str] = {}
    for code in codes:
        parts = code.co_qualname.split(".")
        while parts and parts[-1].startswith("<"):
            parts.pop()
        name = ".".join(parts)
        if name in defs:
            for line in body_lines(code):
                owner[line] = name
    return owner


def _run(label: str, args: list[str]) -> dict[str, set[int]]:
    """The lines ``pytest args`` ran, traced in a child process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "ran.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        began = time.monotonic()
        status = subprocess.run([sys.executable, __file__, "--trace-into", str(out), "--", *args],
                                cwd=ROOT, env=env).returncode
        print(f"{label}: {time.monotonic() - began:.0f} s", file=sys.stderr)
        if status != 0:
            raise SystemExit(f"{label} failed under the tracer (exit {status}); no census")
        return {path: set(lines) for path, lines in json.loads(out.read_text()).items()}


def smoke_files() -> list[str]:
    """The smoke gates' test files, from the Makefile's ``SMOKES`` table."""
    text = (ROOT / "Makefile").read_text(encoding="utf-8")
    table = re.search(r"^SMOKES := (.*?)\nSMOKE_TARGETS", text, re.S | re.M).group(1)
    return [f"benchmarks/{pair.split(':')[1]}.py" for pair in table.replace("\\", " ").split()]


def _unrun(owners: dict[str, dict[int, str]], ran: dict[str, set[int]]):
    """``(file, first, last, function)`` per maximal unrun range (the
    function-body lines from ``first`` to ``last``, all of one function,
    that ``ran`` does not hold), and how many lines those are."""
    ranges, count = [], 0
    for path, owner in owners.items():
        done = ran.get(path, set())
        current = None
        for line in sorted(owner):
            if line in done:
                current = None
                continue
            count += 1
            if current is not None and current[3] == owner[line]:
                current[2] = line
            else:
                current = [path, line, line, owner[line]]
                ranges.append(current)
    return [tuple(r) for r in ranges], count


def _package(path: str) -> str:
    return path.split("/", 1)[0] + "/" if "/" in path else "repro/*.py"


def _outside_experiments(owners: dict[str, dict[int, str]]) -> dict[str, dict[int, str]]:
    return {path: owner for path, owner in owners.items()
            if not path.startswith("experiments/")}


def report(owners, tier1, smoke) -> str:
    """docs/REACH.md: the summary by package, then both sections."""
    both = {path: tier1.get(path, set()) | smoke.get(path, set()) for path in owners}

    def counts(subset):
        """Function-body lines, unrun by tier-1, unrun by both."""
        return sum(map(len, subset.values())), *(_unrun(subset, ran)[1] for ran in (tier1, both))

    lines = [
        "# Reach: the `src/repro` lines the tests never run",
        "",
        f"Generated by `make reach` (`tools/reach.py`, Python {VERSION}); do not edit.",
        "A line counts when a function body holds it (module and class bodies run",
        "at import). `make reach-check` fails when tier-1 leaves more lines unrun",
        "outside `experiments/` than the bold figure below.",
        "",
        "| package | function-body lines | unrun by tier-1 | unrun by tier-1 + smoke |",
        "|---|---:|---:|---:|",
    ]
    for package in sorted({_package(path) for path in owners}):
        total, one, two = counts({path: owner for path, owner in owners.items()
                                  if _package(path) == package})
        lines.append(f"| `{package}` | {total} | {one} | {two} |")
    total, one, two = counts(_outside_experiments(owners))
    lines.append(f"| all but `experiments/` | {total} | **{one}** | {two} |")
    total, one, two = counts(owners)
    lines.append(f"| all | {total} | {one} | {two} |")
    lines += ["", "## Unrun by tier-1", "",
              "The last column says whether `make -k smoke` runs any of the range.", "",
              "| file | lines | function | smoke |", "|---|---|---|---|"]
    for path, first, last, name in _unrun(owners, tier1)[0]:
        span = f"{first}" if first == last else f"{first}–{last}"
        reached = not smoke.get(path, set()).isdisjoint(range(first, last + 1))
        lines.append(f"| `{path}` | {span} | `{name}` | {'yes' if reached else 'no'} |")
    lines += ["", "## Unrun by tier-1 plus `make -k smoke`", "",
              "| file | lines | function |", "|---|---|---|"]
    for path, first, last, name in _unrun(owners, both)[0]:
        span = f"{first}" if first == last else f"{first}–{last}"
        lines.append(f"| `{path}` | {span} | `{name}` |")
    return "\n".join(lines) + "\n"


def owners_of_tree() -> dict[str, dict[int, str]]:
    return {str(path.relative_to(SRC)): owner for path in sorted(SRC.rglob("*.py"))
            if (owner := function_lines(path))}


def committed(path: pathlib.Path) -> tuple[str, int]:
    """The interpreter version and tier-1's unrun count outside
    ``experiments/`` that ``path`` (a written census) records."""
    text = path.read_text(encoding="utf-8")
    return (_VERSION_LINE.search(text).group(1),
            int(next(m.group(2) for line in text.splitlines() if (m := _TOTAL_ROW.match(line)))))


def main() -> int:
    if "--trace-into" in sys.argv:
        split = sys.argv.index("--")
        sys.path[0] = str(ROOT)
        return traced_pytest(pathlib.Path(sys.argv[sys.argv.index("--trace-into") + 1]),
                             sys.argv[split + 1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", type=pathlib.Path, help="write the census to this file")
    group.add_argument("--check", type=pathlib.Path,
                       help="run tier-1 only and compare with this committed census")
    args = parser.parse_args()
    owners = owners_of_tree()
    if args.check is not None:
        version, ceiling = committed(args.check)
        if version != VERSION:
            raise SystemExit(f"{args.check} was taken on Python {version}; this is {VERSION}")
        unrun = _unrun(_outside_experiments(owners), _run("tier-1", OPTIONS))[1]
        print(f"unrun by tier-1 outside experiments/: {unrun} (committed {ceiling})")
        return 1 if unrun > ceiling else 0
    tier1 = _run("tier-1", OPTIONS)
    written = [*ROOT.glob("BENCH_*.json"), *(ROOT / "benchmarks" / "results").glob("perf_*.txt")]
    kept = {path: path.read_bytes() for path in written}
    try:
        smoke = _run("smoke", [*OPTIONS, *smoke_files()])
    finally:
        for path, data in kept.items():
            path.write_bytes(data)
    text = report(owners, tier1, smoke)
    if args.write is None:
        sys.stdout.write(text)
    else:
        args.write.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
