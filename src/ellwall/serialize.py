"""Deterministic JSON, and the conventions the metadata block of every
emitted document carries.

Exact values reach the documents already as strings, each ``str(value)``
of its own type.  The constants the command line echoes are defined
here, so it reads them without loading the modules that use them.
"""

from __future__ import annotations

import json
from typing import Any

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


def to_json(obj: Any) -> str:
    """Deterministic JSON: fixed indentation, keys kept in insertion order."""
    return json.dumps(obj, indent=2, sort_keys=False)
