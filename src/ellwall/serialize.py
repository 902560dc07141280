"""JSON/CSV-friendly encoding of exact values, and the conventions the
metadata block of every emitted document carries.

Rationals travel as strings ("3/4", "-2", "0") so round-trips are exact;
cyclotomic values are rendered the same way when rational and as a
reduced polynomial in the root of unity otherwise.  The constants the
command line echoes are defined here, so it reads them without loading
the modules that use them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cyclotomic import Cyclotomic

DEFAULT_SEED = 20260823

#: normalization choices in force, echoed into every CLI document
CONVENTIONS = {
    "pairing": "fiber and point classes form the even dual pair; the odd pair is antisymmetric",
    "small_mode_normalization": "slope-0 generators carry 1/|n| on the fiber label and |n| on the point label",
    "degree_axis_rescale": "positive-degree fiber root spaces compare after a recorded rescale of -1",
    # the one global sign choice in the deformed preprojective relation;
    # no code checks that relation, but every CLI document echoes it
    "preproj_sign": "ccw.cw - cw.ccw = lambda_i . id at node i",
    "wall_locus": "derived phase-alignment locus in the (b, c, d) chart",
    "wall_normalization": "wall representatives in the quadrant r >= 0, s >= 1 with depth bound r + s <= n",
    "section_monodromy_order": "replacement generators applied in canonical monomial order",
}

WALL_TYPES = ("A-1", "D4", "E6", "E7", "E8")


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
