"""Basis labels of the curve cohomology, their pairing and star product.

Basis order: E (fundamental), sigma+, sigma- (the two odd one-form
classes), pt (point).  The super-pairing is <E,pt> = <pt,E> = 1,
<s+,s-> = 1 = -<s-,s+>, all else 0.

The doubly graded generator bracket closes on the star product (unit
pt, s+ * s- = E, E * x = 0 for x != pt), which is monomial on basis
labels: ``star_label`` reads it off one table.  The Fraction label
layer (classes as exact combinations, the super-pairing, the cup and
star products) is the tests' reference model and lives in
``tests/fock_reference.py``.
"""

from __future__ import annotations

from typing import Optional, Union

COH_E, COH_SP, COH_SM, COH_PT = 0, 1, 2, 3
LABEL_NAMES = ("E", "sigma+", "sigma-", "pt")
LABEL_PARITY = (0, 1, 1, 0)

# super-pairing matrix in basis order
_PAIR = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, -1, 0, 0),
    (1, 0, 0, 0),
)


def label_index(label: Union[int, str]) -> int:
    if isinstance(label, str):
        try:
            return LABEL_NAMES.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label!r}; use {LABEL_NAMES}")
    if label not in (0, 1, 2, 3):
        raise ValueError(f"basis label index out of range: {label}")
    return label


def pairing_scalar(i: int, j: int) -> int:
    return _PAIR[i][j]


# (i, j) -> (result label, sign); graded-commutative closures of the
# generating relations
_STAR_TABLE = {
    (COH_PT, COH_PT): (COH_PT, 1),
    (COH_PT, COH_SP): (COH_SP, 1),
    (COH_PT, COH_SM): (COH_SM, 1),
    (COH_PT, COH_E): (COH_E, 1),
    (COH_SP, COH_PT): (COH_SP, 1),
    (COH_SM, COH_PT): (COH_SM, 1),
    (COH_E, COH_PT): (COH_E, 1),
    (COH_SP, COH_SM): (COH_E, 1),
    (COH_SM, COH_SP): (COH_E, -1),
}


def star_label(i: int, j: int) -> Optional[tuple[int, int]]:
    """The star product of two basis classes as (label, sign): basis
    products are monomial.  None when the product vanishes."""
    return _STAR_TABLE.get((i, j))
