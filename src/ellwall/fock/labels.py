"""Basis classes of the curve cohomology and their pairings/products.

Basis order: E (fundamental), sigma+, sigma- (the two odd one-form
classes), pt (point).  The super-pairing is <E,pt> = <pt,E> = 1,
<s+,s-> = 1 = -<s-,s+>, all else 0.

Two graded-commutative products are carried:

* ``cup_product`` — unit E, s+ * s- = pt, pt * x = 0 for x != E
  (multiplication graded by codimension);
* ``star_product`` — unit pt, s+ * s- = E, E * x = 0 for x != pt
  (the same table read through the duality swap E <-> pt; this is the
  convolution-style product graded by dimension).

The doubly graded generator bracket closes on ``star_product`` targets;
``cup_product`` is kept as the reference multiplication.  See the
bracket verifier for how this is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Scalar = Union[int, Fraction]

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


@dataclass(frozen=True)
class CohClass:
    """Exact linear combination of the four basis classes."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.coeffs) != 4:
            raise ValueError("a cohomology class has four coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @staticmethod
    def basis(label: Union[int, str]) -> "CohClass":
        i = label_index(label)
        return CohClass(tuple(Fraction(int(j == i)) for j in range(4)))

    @staticmethod
    def zero() -> "CohClass":
        return CohClass((Fraction(0),) * 4)

    def __add__(self, other: "CohClass") -> "CohClass":
        return CohClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        return CohClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, x: Scalar) -> "CohClass":
        return CohClass(tuple(Fraction(x) * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_homogeneous(self) -> bool:
        """Single parity: no mixing of odd and even basis classes."""
        odd = any(self.coeffs[i] for i in (COH_SP, COH_SM))
        even = any(self.coeffs[i] for i in (COH_E, COH_PT))
        return not (odd and even)

    def parity(self) -> int:
        if not self.is_homogeneous():
            raise ValueError("mixed-parity class has no parity")
        return 1 if any(self.coeffs[i] for i in (COH_SP, COH_SM)) else 0

    def support(self) -> list[tuple[int, Fraction]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c != 0]


def super_pairing(u: CohClass, v: CohClass) -> Fraction:
    total = Fraction(0)
    for i, ci in u.support():
        for j, cj in v.support():
            p = _PAIR[i][j]
            if p:
                total += ci * cj * p
    return total


def _product_from_table(table: dict, u: CohClass, v: CohClass) -> CohClass:
    out = [Fraction(0)] * 4
    for i, ci in u.support():
        for j, cj in v.support():
            hit = table.get((i, j))
            if hit is not None:
                k, sign = hit
                out[k] += ci * cj * sign
    return CohClass(tuple(out))


# (i, j) -> (result label, sign); graded-commutative closures of the
# generating relations
_CUP_TABLE = {
    (COH_E, COH_E): (COH_E, 1),
    (COH_E, COH_SP): (COH_SP, 1),
    (COH_E, COH_SM): (COH_SM, 1),
    (COH_E, COH_PT): (COH_PT, 1),
    (COH_SP, COH_E): (COH_SP, 1),
    (COH_SM, COH_E): (COH_SM, 1),
    (COH_PT, COH_E): (COH_PT, 1),
    (COH_SP, COH_SM): (COH_PT, 1),
    (COH_SM, COH_SP): (COH_PT, -1),
}

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


def cup_product(u: CohClass, v: CohClass) -> CohClass:
    """Reference multiplication with unit E; s+ * s- = pt."""
    return _product_from_table(_CUP_TABLE, u, v)


def star_product(u: CohClass, v: CohClass) -> CohClass:
    """Multiplication with unit pt; s+ * s- = E.  This is the product the
    generator bracket closes on."""
    return _product_from_table(_STAR_TABLE, u, v)


def sl2_label_action(g: Sequence[Sequence[int]], u: CohClass) -> CohClass:
    """Integer determinant-one action on the odd plane, fixing E and pt:
    s+ -> a s+ + c s-, s- -> b s+ + d s- for g = [[a, b], [c, d]]."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    e, sp, sm, pt = u.coeffs
    return CohClass((e, a * sp + b * sm, c * sp + d * sm, pt))
