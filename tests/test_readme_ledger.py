"""Every code name in the README's criterion ledger resolves.

The ledger (rows c01-c11 of the "Criterion ledger" table in README.md)
names what each criterion computes, what it compares against and the
test that bites it.  A name left behind by a rename or a deletion reads
as a description of code that is gone, so each backquoted span of a row
must resolve:

* ``path::Class::name``: the file exists under the repository root and
  defines each name of the chain inside the one before it;
* a path (a span with ``/``): the file exists;
* a dotted name: a chain of attributes of some ``ellwall`` module
  (``labels._PAIR``, ``WallChart.walls``);
* a bare name: a function, class, method, module- or class-level
  assignment, slot or ``self.<name>`` attribute in ``src/``, or a test
  function in ``tests/``.

A span with a space or an operator (``eps * denom``,
``verify-all --seed 42``) is prose, not a name, and is skipped.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import ellwall

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^\| (c\d\d) \|")
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(r"^[\w./:]+$")


def ledger_spans(readme: str) -> list[tuple[str, str]]:
    """(row id, span) for every backquoted span of the ledger rows."""
    section = readme.split("### Criterion ledger", 1)[1].split("\n## ", 1)[0]
    return [
        (m.group(1), span)
        for line in section.splitlines()
        if (m := ROW.match(line))
        for span in SPAN.findall(line)
    ]


def _slot_names(node: ast.AST) -> set[str]:
    return {
        c.value
        for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def _scope_names(body: list[ast.stmt]) -> set[str]:
    """Names a module or class body defines."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= _scope_names(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
                    if t.id in ("__slots__", "_fields") and node.value is not None:
                        names |= _slot_names(node.value)
    return names


def src_names() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        names |= _scope_names(tree.body)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def _test_function_names() -> set[str]:
    return {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def ellwall_modules() -> list:
    mods = [ellwall]
    for info in pkgutil.walk_packages(ellwall.__path__, "ellwall."):
        if not info.name.endswith("__main__"):
            mods.append(importlib.import_module(info.name))
    return mods


def _resolves_in_file(path: Path, chain: list[str]) -> bool:
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(), str(path)).body
    for name in chain:
        node = next(
            (
                n
                for n in body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
            ),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def _has_attr_chain(obj, parts: list[str]) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def unresolved(spans: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The spans that name code and do not resolve."""
    defined = src_names() | _test_function_names()
    modules = ellwall_modules()
    missing = []
    for row, span in spans:
        if not NAME.match(span):
            continue
        if "::" in span:
            path, *chain = span.split("::")
            ok = _resolves_in_file(ROOT / path, chain)
        elif "/" in span:
            ok = (ROOT / span).exists()
        elif "." in span:
            parts = span.split(".")
            ok = any(_has_attr_chain(m, parts) for m in modules)
        else:
            ok = span in defined
        if not ok:
            missing.append((row, span))
    return missing


def test_ledger_lists_every_criterion():
    rows = {row for row, _ in ledger_spans((ROOT / "README.md").read_text())}
    assert rows == {f"c{i:02d}" for i in range(1, 12)}


def test_every_ledger_name_resolves():
    spans = ledger_spans((ROOT / "README.md").read_text())
    assert unresolved(spans) == []


def test_stale_names_are_caught():
    readme = (
        "### Criterion ledger\n\n"
        "| c09 | claim | `simple_tensor` | `character_value` | blind (item 3) |\n"
        "| c10 | claim | `WallChart.wallz`, `eps * denom` | `hh0_audit` "
        "| `tests/test_cli.py::TestCrossProcess::test_gone`, `tests/gone.py` |\n"
    )
    assert unresolved(ledger_spans(readme)) == [
        ("c09", "simple_tensor"),
        ("c09", "character_value"),
        ("c10", "WallChart.wallz"),
        ("c10", "tests/test_cli.py::TestCrossProcess::test_gone"),
        ("c10", "tests/gone.py"),
    ]
