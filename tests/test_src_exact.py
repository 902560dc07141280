"""No float path in ``src/ellwall``, and no check that ``python -O`` strips.

Every file is parsed and fails on a float or complex literal, on a call
to ``float``, on a ``math`` name outside the integer functions (read as
``math.x`` or imported by ``from math import x``), and on an ``assert``
statement.  Type annotations such as ``dict[str, float]`` and
``verify_all``'s ``perf_counter`` timing table call no ``float`` and read
no ``math`` name, so they pass.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ellwall"
INTEGER_MATH = {"gcd", "lcm", "factorial", "prod", "comb", "isqrt"}


def breaches(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "call to float"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"from math import {alias.name}")
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix()
)
def test_no_float_or_assert(path):
    assert breaches(path.read_text()) == []


def test_each_rule_fires():
    source = "\n".join(
        [
            "import math",
            "from math import gcd, sin",
            "x = 0.5",
            "y = float(3)",
            "z = math.atan(1)",
            "w = math.gcd(4, 6) + math.pi",
            "assert x",
            "t: dict[str, float] = {}",
            "t['c01'] = time.perf_counter() - start",
        ]
    )
    assert breaches(source) == [
        (2, "from math import sin"),
        (3, "literal 0.5"),
        (4, "call to float"),
        (5, "math.atan"),
        (6, "math.pi"),
        (7, "assert"),
    ]
