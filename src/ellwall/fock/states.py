"""States: exact linear combinations of creation-mode monomials.

A monomial is a tuple of (k, label) pairs, k >= 1, meaning the product
of the corresponding creation modes applied to a charged vacuum.
Canonical order: k descending, then label ascending.  Odd labels
(sigma+/sigma-) square to zero per mode index and anticommute; all
reordering signs are absorbed into coefficients at insertion time.

Coefficients are exact rationals (``Fraction``).  ``alpha_apply`` and
``OperatorExpr.apply`` act on these states directly and serve as the
reference oracle for the integer-row engine in ``fastapply``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ..serialize import frac_str
from .labels import LABEL_NAMES, LABEL_PARITY, CohClass, pairing_scalar

Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]


class TruncationError(RuntimeError):
    """An exact result would exceed the requested energy window."""


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


def insert_creation(
    mono: Monomial, k: int, label: int
) -> Optional[tuple[int, Monomial]]:
    """Multiply a canonical monomial on the left by a creation mode;
    returns (sign, new monomial), or None if an odd mode repeats."""
    new = (k, label)
    odd = LABEL_PARITY[label]
    key = _mode_key(new)
    sign = 1
    pos = 0
    for i, mode in enumerate(mono):
        if _mode_key(mode) < key:
            if odd and LABEL_PARITY[mode[1]]:
                sign = -sign
            pos = i + 1
        else:
            break
    if odd and pos < len(mono) and mono[pos] == new:
        return None
    return sign, mono[:pos] + (new,) + mono[pos:]


def annihilate(mono: Monomial, k: int, label: int) -> list[tuple[int, Monomial]]:
    """Contract an annihilation mode (index k >= 1) through a canonical
    monomial: one term per matching creation mode, with coefficient
    k * <label, partner> and the crossing sign."""
    out: list[tuple[int, Monomial]] = []
    odd = LABEL_PARITY[label]
    sign = 1
    for i, (ki, li) in enumerate(mono):
        if ki == k:
            p = pairing_scalar(label, li)
            if p:
                out.append((sign * k * p, mono[:i] + mono[i + 1 :]))
        if odd and LABEL_PARITY[li]:
            sign = -sign
    return out


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
    def vacuum(charge: int = 0) -> "FockState":
        return FockState(charge, {(): 1})

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

    def __add__(self, other: "FockState") -> "FockState":
        if other.is_zero():
            return self.copy()
        if self.is_zero():
            return other.copy()
        if self.charge != other.charge:
            raise ValueError(
                f"cannot add states of charges {self.charge} and {other.charge}"
            )
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            total = coeff if acc is None else acc + coeff
            if not total:
                out.pop(mono, None)
            else:
                out[mono] = total
        return FockState(self.charge, out)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + other.scale(-1)

    def scale(self, x: Scalar) -> "FockState":
        x = _as_fraction(x)
        if not x:
            return FockState.zero(self.charge)
        return FockState(self.charge, {m: c * x for m, c in self.terms.items()})

    def shift_charge(self, delta: int) -> "FockState":
        return FockState(self.charge + delta, dict(self.terms))

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

    def max_energy(self) -> int:
        return max((monomial_energy(m) for m in self.terms), default=0)

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


def alpha_apply(
    n: int,
    gamma: Union[CohClass, int, str],
    state: FockState,
    max_energy: Optional[int] = None,
) -> FockState:
    """Apply the Heisenberg mode of index n (n < 0 creates, n > 0
    annihilates) for the class gamma; exact and linear.  If max_energy is
    given, creation beyond that energy raises TruncationError."""
    if n == 0:
        raise ValueError("zero modes are excluded")
    if not isinstance(gamma, CohClass):
        gamma = CohClass.basis(gamma)
    acc: dict[Monomial, Fraction] = {}
    for i, comp in gamma.support():
        for mono, coeff in state.terms.items():
            if n < 0:
                k = -n
                if max_energy is not None and monomial_energy(mono) + k > max_energy:
                    raise TruncationError(
                        f"creation to energy {monomial_energy(mono) + k} exceeds "
                        f"window {max_energy}"
                    )
                hit = insert_creation(mono, k, i)
                if hit is None:
                    continue
                sign, new = hit
                _accumulate(acc, new, coeff * (comp * sign))
            else:
                for scal, new in annihilate(mono, n, i):
                    _accumulate(acc, new, coeff * (comp * scal))
    return FockState(state.charge, acc)


def _accumulate(acc: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    prev = acc.get(mono)
    total = coeff if prev is None else prev + coeff
    if not total:
        acc.pop(mono, None)
    else:
        acc[mono] = total


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


def basis_states(max_energy: int, charge: int = 0) -> list[FockState]:
    return [
        FockState.from_monomial(m, 1, charge) for m in basis_monomials(max_energy)
    ]


def count_basis(max_energy: int) -> int:
    return len(basis_monomials(max_energy))
