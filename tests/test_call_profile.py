"""Every function in ``src/ellwall`` is entered when the package runs.

Run as a script, this file drives the package the way its users do and
prints, as JSON, which ``src/ellwall`` functions ran under
``sys.setprofile`` and the exit code of each command:

* each ``ellwall ...`` line of the README's "Command line" block, with
  its comment stripped and ``--out`` sent to a scratch directory; the
  ``verify-all`` line runs every criterion at the small sizes of
  ``SMALL``, patched into ``verify``'s module globals, which
  ``verify_all``'s plan reads at call time;
* the three scripts in ``scripts/``, at small sizes.

The test runs it in a fresh interpreter, so that no cache filled by
another test hides a call.  It fails on a function or method defined in
``src/ellwall`` (nested ones included) that nothing entered and
``ALLOWED`` does not name, and on an ``ALLOWED`` entry that is entered
or no longer defined.  A definition is matched to its code object by
file and first line, so a method that shares its name with an entered
one is still seen; ``test_src_reachability`` keeps the checks on
imports and module-level names.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# criterion -> keyword arguments: every check passes in well under a second
SMALL = {
    "check_small_modes": {"truncation": 4, "n_max": 2},
    "check_vertex_commutator": {"truncation": 3},
    "check_bracket_table": {"truncation": 4},
    "check_monodromy": {"weight_max": 3, "truncation": 4},
    "check_wall_sets": {"n_max": 4},
    "check_wall_sign_flip": {"n_max": 3, "samples": 5},
    "check_jet_splitting": {"samples": 24},
    "check_tensor_table": {"samples": 5},
    "check_weyl_relations": {"word_max": 2},
}

SCRIPTS = {
    "bracket_survey.py": ["--truncation", "4", "--json", "{tmp}/survey.json"],
    "local_split_census.py": ["--samples", "3", "--n-max", "1"],
    "render_wall_gallery.py": ["--n-max", "3", "--outdir", "{tmp}/gallery"],
}

# defined in src/ellwall but entered by none of the runs above
ALLOWED = {
    "ellwall.cyclotomic:Cyclotomic.__eq__": "records and tests compare values through it",
    "ellwall.cyclotomic:Cyclotomic.__hash__": "records and tests hash values through it",
    "ellwall.walls:TriPoly.__eq__": "records and tests compare loci through it",
    "ellwall.walls:TriPoly.__hash__": "records and tests hash loci through it",
    "ellwall.walls:TriPoly.__repr__": "tests and pytest's failure output read it",
    "ellwall.fock.states:FockState.__repr__": "tests and pytest's failure output read it",
    "ellwall.roots:Record.__repr__": "tests and pytest's failure output read it",
    "ellwall.roots:Record.__eq__": "value semantics of the records",
    "ellwall.roots:Record.__hash__": "value semantics of the records",
    "ellwall.roots:Record.__setattr__": "keeps the records immutable",
    "ellwall.roots:Record.__delattr__": "keeps the records immutable",
    "ellwall.fock.operators:OperatorExpr.terms": (
        "perfbench's traced w_general counter reads it"
    ),
    "ellwall.fock.verify:_vertex_witness": "c03's failure witness, entered by c03's bites",
}


def readme_commands() -> list[list[str]]:
    """The argv of each ``ellwall`` line in the README's "Command line"
    block, without the program name or the trailing comment."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("ellwall ")
    ]


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> ``module:qualname`` for
    every function and method in ``src/ellwall``."""
    found: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: str, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first] = f"{module}:{prefix}{child.name}"
                walk(child, path, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, f"{prefix}{child.name}.")
            else:
                walk(child, path, module, prefix)

    for path in sorted((SRC / "ellwall").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text(), str(path)), str(path), module, "")
    return found


def profile_run(tmp: Path) -> dict:
    """Run the README's commands and the scripts under ``sys.setprofile``;
    the ``module:qualname`` of every ``src/ellwall`` function entered,
    and each command's exit code."""
    from ellwall import cli, verify

    for name, kwargs in SMALL.items():
        setattr(verify, name, partial(getattr(verify, name), **kwargs))
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = {}
    sink = io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in readme_commands():
                if "--out" in argv:
                    i = argv.index("--out") + 1
                    argv[i] = str(tmp / argv[i])
                exits[shlex.join(argv)] = cli.main(argv)
            for script, args in SCRIPTS.items():
                sys.argv = [script, *(a.format(tmp=tmp) for a in args)]
                try:
                    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
                    exits[script] = 0
                except SystemExit as exc:
                    exits[script] = exc.code
    finally:
        sys.setprofile(None)
    defined = defined_functions()
    entered = {defined.get((c.co_filename, c.co_firstlineno)) for c in codes}
    return {"entered": sorted(entered - {None}), "exits": exits}


def test_every_function_is_entered(tmp_path):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert {cmd: code for cmd, code in run["exits"].items() if code} == {}
    defined = set(defined_functions().values())
    entered = set(run["entered"])
    assert sorted(defined - entered - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - (defined - entered)) == []
    assert elapsed <= 2, f"the profiled run took {elapsed:.2f}s"


if __name__ == "__main__":
    print(json.dumps(profile_run(Path(sys.argv[1]))))
