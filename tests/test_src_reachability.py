"""Every module-level definition in ``src/ellwall`` is reached, and every
import is read.

A definition is a module-level function, class or assigned name; dunder
names are left out, since Python reads them itself.  A definition is
reached when its name is read (an ``ast.Name`` or ``ast.Attribute``
load, so not a string or an import alias) in ``scripts/``, or in
``src/`` outside the definition itself and outside every unreached
definition.  The unreached
set grows to a fixed point, so code that only unreached code reads is
unreached too.  A plain name resolves through its module's definitions
and ``from`` imports; an attribute matches every definition of that name.

The criteria and the CLI commands are reached from ``cli.main``, which
``__main__`` reads at module level; so a definition that no criterion,
command or script reaches fails the test.

Methods are left to ``test_call_profile``, which runs the README's
commands and the scripts under ``sys.setprofile`` and fails on any
function or method that nothing enters: a name read cannot tell a method
from another of the same name (``to_json_dict``, ``is_zero``) on a class
nothing calls it on.  This test keeps what that one cannot see: a class,
constant or other assigned name that nothing reads, and an unread import.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class Source:
    """One parsed file: its definitions, its ``from`` imports and, for
    every name it reads, the definitions that enclose the read."""

    def __init__(self, path: Path, module: str, package: str):
        self.module = module
        self.package = package
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs: dict[str, ast.AST] = {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and not _is_dunder(t.id):
                        self.defs[t.id] = node
        self.from_imports: dict[str, tuple[str, str]] = {}
        self.aliases: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                base = self._absolute(node)
                for a in node.names:
                    self.from_imports[a.asname or a.name] = (base, a.name)
                    self.aliases.add(a.asname or a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    self.aliases.add(a.asname or a.name.partition(".")[0])
        owner_of = {id(node): f"{self.module}:{key}" for key, node in self.defs.items()}
        # (name, is_attribute, keys of the enclosing definitions)
        self.reads: list[tuple[str, bool, frozenset[str]]] = []
        self._collect(self.tree, frozenset(), owner_of)

    def _absolute(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = self.package.split(".")
        base = ".".join(parts[: len(parts) - node.level + 1])
        return f"{base}.{node.module}" if node.module else base

    def _collect(self, node: ast.AST, owners: frozenset[str], owner_of: dict) -> None:
        key = owner_of.get(id(node))
        if key is not None:
            owners = owners | {key}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self.reads.append((node.id, False, owners))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self.reads.append((node.attr, True, owners))
        for child in ast.iter_child_nodes(node):
            self._collect(child, owners, owner_of)


def _load() -> tuple[dict[str, Source], list[Source]]:
    package: dict[str, Source] = {}
    for path in sorted((SRC / "ellwall").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            module = ".".join(parts[:-1])
            package[module] = Source(path, module, module)
        else:
            module = ".".join(parts)
            package[module] = Source(path, module, ".".join(parts[:-1]))
    scripts = [
        Source(path, f"scripts.{path.stem}", "scripts")
        for path in sorted((ROOT / "scripts").glob("*.py"))
    ]
    return package, scripts


def _resolve(package: dict[str, Source], src: Source, name: str):
    """The definition a plain name read in ``src`` refers to, if any."""
    if name in src.defs:
        return f"{src.module}:{name}"
    module, orig = src.from_imports.get(name, (None, None))
    if module in package:
        return _resolve(package, package[module], orig)
    return None


def unreached_definitions() -> set[str]:
    package, scripts = _load()
    every = {f"{m}:{key}" for m, src in package.items() for key in src.defs}
    by_short: dict[str, set[str]] = {}
    for key in every:
        by_short.setdefault(key.rpartition(":")[2], set()).add(key)
    events: list[tuple[frozenset[str], frozenset[str]]] = []
    for src in [*package.values(), *scripts]:
        for name, is_attr, owners in src.reads:
            if is_attr:
                targets = by_short.get(name, set())
            else:
                hit = _resolve(package, src, name)
                targets = {hit} if hit else set()
            if targets:
                events.append((frozenset(targets), owners))
    unreached: set[str] = set()
    while True:
        reached = set()
        for targets, owners in events:
            if not owners & unreached:
                reached |= targets - owners
        grown = every - reached - unreached
        if not grown:
            break
        unreached |= grown
    return unreached


def unread_imports() -> list[str]:
    package, _ = _load()
    out = []
    for module, src in package.items():
        read = {name for name, is_attr, _ in src.reads if not is_attr}
        for alias in src.aliases:
            if alias not in read:
                out.append(f"{module}:{alias}")
    return sorted(out)


def test_every_definition_is_reached():
    assert sorted(unreached_definitions()) == []


def test_every_import_is_read():
    assert unread_imports() == []
