"""``docs/REACH.md``, the census of what the tests never run, still names
real code: every unrun range it lists names a function that exists in
its file. Taking the census runs the suite under a line tracer for
minutes and is not done here (``make reach``, ``make reach-check``)."""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: ``| `file` | first–last | `function` | ...`` — one unrun range.
ROW = re.compile(r"^\| `([\w/]+\.py)` \| (\d+)(?:–(\d+))? \| `([\w.<>]+)` \|")


def _qualnames(tree: ast.AST, prefix: str = "") -> set[str]:
    """Every function's qualified name in ``tree``, as ``co_qualname``
    spells it."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            names |= {name} | _qualnames(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            names |= _qualnames(node, prefix + node.name + ".")
        else:
            names |= _qualnames(node, prefix)
    return names


def test_every_unrun_range_names_an_existing_function():
    rows = [ROW.match(line) for line in
            (ROOT / "docs" / "REACH.md").read_text(encoding="utf-8").splitlines()]
    rows = [row for row in rows if row]
    assert rows, "docs/REACH.md lists no range; regenerate it with `make reach`"
    functions: dict[str, set[str]] = {}
    missing = []
    for row in rows:
        path, first, last, name = row.group(1), int(row.group(2)), row.group(3), row.group(4)
        assert last is None or int(last) >= first, row.group(0)
        if path not in functions:
            source = SRC / path
            functions[path] = (_qualnames(ast.parse(source.read_text(encoding="utf-8")))
                               if source.exists() else set())
        if name not in functions[path]:
            missing.append(f"{path}: {name}")
    assert not missing, ("docs/REACH.md names functions that no longer exist; "
                         "regenerate it with `make reach`: " + ", ".join(sorted(set(missing))))
