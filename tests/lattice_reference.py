"""Fraction reference model for the lattice and wall layer.

The package computes wall loci and lattice pairings on integers:
``TriPoly`` holds integer numerators over one denominator, and
``BilinearLattice.pair`` sums integer products over the nonzero Gram
entries.  This module does the same work a second, independent way, on
``Fraction`` throughout: a polynomial keeps one rational coefficient per
monomial, and the pairing walks the full Gram matrix.  The differential
tests compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from ellwall.walls import TriPoly

Scalar = Union[int, Fraction]
Key = tuple[int, int, int]


class FracTriPoly:
    """Polynomial in three variables over Q, one Fraction per monomial."""

    __slots__ = ("terms",)
    VARS = ("b", "c", "d")

    def __init__(self, terms: Optional[dict[Key, Scalar]] = None):
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v != 0:
                    self.terms[k] = v

    @staticmethod
    def const(x: Scalar) -> "FracTriPoly":
        return FracTriPoly({(0, 0, 0): Fraction(x)})

    @staticmethod
    def var(name: str) -> "FracTriPoly":
        i = FracTriPoly.VARS.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return FracTriPoly({key: Fraction(1)})

    def __add__(self, other: Union["FracTriPoly", Scalar]) -> "FracTriPoly":
        other = _coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return FracTriPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FracTriPoly":
        return FracTriPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: Union["FracTriPoly", Scalar]) -> "FracTriPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "FracTriPoly":
        return _coerce(other) - self

    def __mul__(self, other: Union["FracTriPoly", Scalar]) -> "FracTriPoly":
        other = _coerce(other)
        out: dict[Key, Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return FracTriPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FracTriPoly.const(other)
        if not isinstance(other, FracTriPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def evaluate(self, b: Scalar, c: Scalar, d: Scalar) -> Fraction:
        """Value at a rational point, monomial by monomial."""
        b, c, d = Fraction(b), Fraction(c), Fraction(d)
        return sum(
            (v * b**i * c**j * d**k for (i, j, k), v in self.terms.items()),
            Fraction(0),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.VARS, key)
                if e
            )
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x: Union[FracTriPoly, Scalar]) -> FracTriPoly:
    return x if isinstance(x, FracTriPoly) else FracTriPoly.const(x)


def to_tripoly(terms: dict[Key, Scalar]) -> TriPoly:
    """The package polynomial with these rational coefficients: integer
    numerators over the lcm of their denominators."""
    coeffs = {k: Fraction(v) for k, v in terms.items()}
    den = math.lcm(*(v.denominator for v in coeffs.values()))
    return TriPoly({k: v.numerator * (den // v.denominator) for k, v in coeffs.items()}, den)


def rational_terms(p: TriPoly) -> dict[Key, Fraction]:
    """The coefficients of a package polynomial as fractions."""
    return {k: Fraction(v, p.den) for k, v in p.nums.items()}


def value(p: TriPoly, b: Scalar, c: Scalar, d: Scalar) -> Fraction:
    """A package polynomial's value at a rational point, read through the
    reference model."""
    return FracTriPoly(rational_terms(p)).evaluate(b, c, d)


def secant_root(p: TriPoly, b: Scalar, c: Scalar) -> Optional[Fraction]:
    """The reference secant root p0 / (p0 - p1) of d -> p(b, c, d) through
    d = 0 and d = 1, from two Fraction evaluations; None when p0 = p1."""
    p0, p1 = value(p, b, c, 0), value(p, b, c, 1)
    return None if p0 == p1 else p0 / (p0 - p1)


def frac_pair(
    gram: Sequence[Sequence[int]], u: Sequence[Scalar], v: Sequence[Scalar]
) -> Fraction:
    """u . v over the whole Gram matrix, one Fraction product per entry."""
    total = Fraction(0)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            total += Fraction(ui) * Fraction(vj) * gram[i][j]
    return total


def frac_mukai_pair(
    v: tuple[int, Sequence[Scalar], Scalar],
    w: tuple[int, Sequence[Scalar], Scalar],
    gram: Sequence[Sequence[int]],
) -> Fraction:
    """c1.c1' - r s' - r' s for (rank, c1, ch2) triples."""
    (r, c1, s), (r2, c1_2, s2) = v, w
    return frac_pair(gram, c1, c1_2) - r * Fraction(s2) - r2 * Fraction(s)
