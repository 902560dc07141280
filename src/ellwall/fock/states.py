"""States: exact linear combinations of creation-mode monomials.

A monomial is a tuple of (k, label) pairs, k >= 1, meaning the product
of the corresponding creation modes applied to a charged vacuum.
Canonical order: k descending, then label ascending.  Odd labels
(sigma+/sigma-) square to zero per mode index and anticommute; all
reordering signs are absorbed into coefficients at insertion time.

Coefficients are exact rationals (``Fraction``).  ``FockState`` is the
input and output value of the operators, which act through the integer
rows of ``fastapply``; the Fraction reference oracle that applies them
to states directly lives in ``tests/fock_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ..serialize import frac_str
from .labels import LABEL_NAMES, LABEL_PARITY

Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def monomial_energy(mono: Monomial) -> int:
    return sum(k for k, _ in mono)


def _mode_key(mode: tuple[int, int]) -> tuple[int, int]:
    k, label = mode
    return (-k, label)


class FockState:
    """Finite combination of monomials at a single vacuum charge."""

    __slots__ = ("charge", "terms")

    def __init__(self, charge: int = 0, terms: Optional[dict[Monomial, Scalar]] = None):
        self.charge = charge
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    self.terms[mono] = coeff

    @staticmethod
    def zero(charge: int = 0) -> "FockState":
        return FockState(charge)

    @staticmethod
    def from_monomial(
        mono: Monomial, coeff: Scalar = 1, charge: int = 0
    ) -> "FockState":
        return FockState(charge, {mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def copy(self) -> "FockState":
        return FockState(self.charge, dict(self.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.charge == other.charge and self.terms == other.terms

    def __hash__(self):
        return hash((self.charge, frozenset(self.terms.items())))

    def energies(self) -> set[int]:
        return {monomial_energy(m) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.energies()) <= 1

    def weight(self) -> int:
        es = self.energies()
        if len(es) != 1:
            raise ValueError("mixed-weight state has no single weight")
        return next(iter(es))

    def __repr__(self) -> str:
        if self.is_zero():
            return "FockState(0)"
        bits = []
        for mono in sorted(self.terms):
            modes = " ".join(f"a[-{k}]({LABEL_NAMES[l]})" for k, l in mono)
            bits.append(f"({self.terms[mono]})*{modes or '1'}")
        return f"FockState(charge={self.charge}, {' + '.join(bits)})"

    def to_json_dict(self) -> dict:
        return {
            "charge": self.charge,
            "terms": [
                {
                    "modes": [[k, LABEL_NAMES[l]] for k, l in mono],
                    "coeff": frac_str(self.terms[mono]),
                }
                for mono in sorted(self.terms)
            ],
        }


def basis_monomials(max_energy: int) -> list[Monomial]:
    """All canonical monomials of energy <= max_energy, deterministically
    ordered by (energy, monomial)."""
    if max_energy < 0:
        raise ValueError("energy bound must be >= 0")
    inner: list[Monomial] = []

    def walk(prefix: list[tuple[int, int]], budget: int, k_min: tuple[int, int]):
        inner.append(tuple(prefix))
        for k2 in range(min(budget, max_energy), 0, -1):
            for l2 in range(4):
                if (-k2, l2) < k_min:
                    continue
                mode = (k2, l2)
                if LABEL_PARITY[l2] and prefix and prefix[-1] == mode:
                    continue
                prefix.append(mode)
                walk(prefix, budget - k2, (-k2, l2))
                prefix.pop()

    walk([], max_energy, (-max_energy, 0))
    inner.sort(key=lambda m: (monomial_energy(m), m))
    return inner
