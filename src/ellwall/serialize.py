"""JSON/CSV-friendly encoding of exact values.

Rationals travel as strings ("3/4", "-2", "0") so round-trips are exact;
cyclotomic values are rendered the same way when rational and as a
reduced polynomial in the root of unity otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cyclotomic import Cyclotomic

TOOL_VERSION = "0.1.0"


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def cyclo_str(x: Cyclotomic) -> str:
    """Render a cyclotomic value: plain rational when rational, else the
    reduced polynomial in the root of unity."""
    if x.is_rational():
        return frac_str(x.rational_value())
    return repr(x)


def to_json(obj: Any) -> str:
    """Deterministic JSON: fixed indentation, keys kept in insertion order."""
    return json.dumps(obj, indent=2, sort_keys=False)


def metadata(conventions: dict[str, str]) -> dict[str, Any]:
    """Common metadata block attached to every emitted report."""
    return {"tool_version": TOOL_VERSION, "conventions": conventions}
