"""Exact arithmetic in cyclotomic fields Q(zeta_k).

Elements are residues modulo the k-th cyclotomic polynomial Phi_k, stored
as integer numerators (one per power of zeta below deg Phi_k) over one
positive integer denominator, with no common factor: every value has one
representation, so equality and hashing are tuple compares.  Phi_k is
monic with integer coefficients and divides x^k - 1, so each order keeps
one integer table of x^j mod Phi_k for j < k, built on first use; powers
of zeta are rows of it and products are reduced through it.  Division
works for any nonzero element: its inverse is the product of its other
Galois conjugates (re-indexed rows of the same table) over its rational
norm, so Gaussian elimination over these fields is exact and never leaves
integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Coeffs = tuple[Fraction, ...]
Nums = tuple[int, ...]
Scalar = Union[int, Fraction]


@lru_cache(maxsize=32)
def cyclotomic_polynomial(k: int) -> Nums:
    """Integer coefficients of the k-th cyclotomic polynomial, low degree
    first.

    Computed by exact division of x^k - 1 by the (monic) cyclotomic
    polynomials of the proper divisors of k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            phi = cyclotomic_polynomial(d)
            deg = len(phi) - 1
            quo = [0] * (len(num) - deg)
            for s in reversed(range(len(quo))):
                c = quo[s] = num[s + deg]
                if c:
                    for i, p in enumerate(phi):
                        num[s + i] -= c * p
            assert not any(num)
            num = quo
    return tuple(num)


@lru_cache(maxsize=32)
def _power_table(k: int) -> tuple[Nums, ...]:
    """x^j mod Phi_k for j = 0..k-1, as integer rows of length deg Phi_k.

    Phi_k is monic, so x^deg = -(lower coefficients); each row is the
    previous one shifted up with its top coefficient folded back."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    low = phi[:deg]
    row = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(k):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, low)]
    return tuple(rows)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_k), reduced mod the k-th cyclotomic polynomial:
    ``sum(nums[j] * zeta**j) / den`` with den > 0 and gcd(den, *nums) = 1."""

    __slots__ = ("k", "nums", "den")

    def __init__(self, k: int, coeffs: Union[Scalar, Sequence[Scalar]] = 0):
        rows = _power_table(k)
        deg = len(rows[0])
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        nums = [0] * deg
        for j, c in enumerate(cs):
            n = c.numerator * (den // c.denominator)
            if not n:
                continue
            if j < deg:
                nums[j] += n
            else:
                for t, r in enumerate(rows[j % k]):
                    nums[t] += n * r
        self.k = k
        self.nums, self.den = _canonical(nums, den)

    @staticmethod
    def zeta(k: int, power: int = 1) -> "Cyclotomic":
        """zeta_k**power as a field element: one row of the power table."""
        return _element(k, _power_table(k)[power % k], 1)

    @property
    def coeffs(self) -> Coeffs:
        """The coefficients of 1, zeta, zeta^2, ... as fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Cyclotomic") -> None:
        if self.k != other.k:
            raise ValueError(f"mixed cyclotomic orders {self.k} and {other.k}")

    def _linear(self, other: Union["Cyclotomic", Scalar], sign: int) -> "Cyclotomic":
        """self + sign * other, over the product of the denominators."""
        a, da = self.nums, self.den
        if isinstance(other, Cyclotomic):
            self._check(other)
            b, db = other.nums, other.den
        elif isinstance(other, (int, Fraction)):
            b = (other.numerator,) + (0,) * (len(a) - 1)
            db = other.denominator
        else:
            return NotImplemented
        if da == db:
            nums = [x + sign * y for x, y in zip(a, b)]
        else:
            nums = [x * db + sign * y * da for x, y in zip(a, b)]
            da *= db
        return _element(self.k, nums, da)

    def __add__(self, other: Union["Cyclotomic", Scalar]) -> "Cyclotomic":
        return self._linear(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return _element(self.k, [-x for x in self.nums], self.den)

    def __sub__(self, other: Union["Cyclotomic", Scalar]) -> "Cyclotomic":
        return self._linear(other, -1)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return (-self)._linear(other, 1)

    def __mul__(self, other: Union["Cyclotomic", Scalar]) -> "Cyclotomic":
        a = self.nums
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = other.numerator
            return _element(self.k, [x * c for x in a], self.den * other.denominator)
        self._check(other)
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(other.nums, i):
                    prod[j] += x * y
        out = prod[:deg]
        if deg > 1:
            k, rows = self.k, _power_table(self.k)
            for j in range(deg, 2 * deg - 1):
                c = prod[j]
                if c:
                    for t, r in enumerate(rows[j % k]):
                        out[t] += c * r
        return _element(self.k, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, x^-1 = prod_{sigma != 1} sigma(x) / N(x).

        sigma_j (gcd(j, k) = 1) sends zeta to zeta^j, so sigma_j(x) reads
        row i*j mod k of the power table for the numerator of zeta^i."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        k, rows = self.k, _power_table(self.k)
        prod = Cyclotomic(k, 1)
        for j in range(2, k):
            if gcd(j, k) == 1:
                conj = [0] * len(self.nums)
                for i, n in enumerate(self.nums):
                    if n:
                        for t, r in enumerate(rows[i * j % k]):
                            conj[t] += n * r
                prod = prod * _element(k, conj, self.den)
        return prod / (self * prod).rational_value()

    def __truediv__(self, other: Union["Cyclotomic", Scalar]) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("inverse of zero in cyclotomic field")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _element(self.k, [x * q for x in self.nums], self.den * p)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            return self.k == other.k and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.nums[0] == other.numerator
                and self.is_rational()
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.nums, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "z" if i == 1 else f"z^{i}"
                parts.append(mon if c == 1 else f"{c}*{mon}")
        return " + ".join(parts)


def _canonical(nums: Sequence[int], den: int) -> tuple[Nums, int]:
    """nums/den (den > 0) with the common factor removed."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(n // g for n in nums), den // g
    return tuple(nums), den


def _element(k: int, nums: Sequence[int], den: int) -> Cyclotomic:
    """The element nums/den of Q(zeta_k), for nums already reduced mod
    Phi_k; skips the coercion in ``Cyclotomic.__init__``."""
    x = object.__new__(Cyclotomic)
    x.k = k
    x.nums, x.den = _canonical(nums, den)
    return x
