"""Fraction reference oracle for the Fock-space operators.

The package applies operators one way only: integer rows keyed by basis
index (``ellwall.fock.fastapply``).  This module applies them a second,
independent way, over exact rationals on ``FockState`` values: term by
term, one Heisenberg mode at a time, with a sign per odd mode crossed.
The differential tests compare the two paths.

It also holds the Fraction label layer: ``CohClass`` (an exact
combination of the four basis classes), the super-pairing and the cup
and star products.  The package reads the pairing and the star product
on basis labels only (``pairing_scalar``, ``star_label``); the label
tests check those against this layer, and the star product against the
cup product through the duality swap E <-> pt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from ellwall.fock.labels import (
    _STAR_TABLE,
    COH_E,
    COH_PT,
    COH_SM,
    COH_SP,
    LABEL_PARITY,
    label_index,
    pairing_scalar,
)
from ellwall.fock.operators import NormalTerm, OperatorExpr, _charged_mode
from ellwall.fock.states import (
    FockState,
    Monomial,
    Scalar,
    _as_fraction,
    _mode_key,
    monomial_energy,
)


class TruncationError(RuntimeError):
    """An exact result would exceed the requested energy window."""


# ---------------------------------------------------------------------------
# label layer: exact classes, pairing and products


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
            p = pairing_scalar(i, j)
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


# (i, j) -> (result label, sign): unit E, s+ * s- = pt, pt * x = 0 for
# x != E (multiplication graded by codimension)
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


def cup_product(u: CohClass, v: CohClass) -> CohClass:
    """Reference multiplication with unit E; s+ * s- = pt."""
    return _product_from_table(_CUP_TABLE, u, v)


def star_product(u: CohClass, v: CohClass) -> CohClass:
    """Multiplication with unit pt; s+ * s- = E.  This is the product the
    generator bracket closes on."""
    return _product_from_table(_STAR_TABLE, u, v)


# ---------------------------------------------------------------------------
# state arithmetic


def add(a: FockState, b: FockState) -> FockState:
    if b.is_zero():
        return a.copy()
    if a.is_zero():
        return b.copy()
    if a.charge != b.charge:
        raise ValueError(f"cannot add states of charges {a.charge} and {b.charge}")
    out = dict(a.terms)
    for mono, coeff in b.terms.items():
        _accumulate(out, mono, coeff)
    return FockState(a.charge, out)


def sub(a: FockState, b: FockState) -> FockState:
    return add(a, scale(b, -1))


def scale(state: FockState, x: Scalar) -> FockState:
    x = _as_fraction(x)
    if not x:
        return FockState.zero(state.charge)
    return FockState(state.charge, {m: c * x for m, c in state.terms.items()})


def shift_charge(state: FockState, delta: int) -> FockState:
    return FockState(state.charge + delta, dict(state.terms))


def max_energy(state: FockState) -> int:
    return max((monomial_energy(m) for m in state.terms), default=0)


# ---------------------------------------------------------------------------
# single Heisenberg modes


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


# ---------------------------------------------------------------------------
# operators


def apply(op: OperatorExpr, state: FockState) -> FockState:
    """Exact application; raises if the state's energy exceeds the
    operator's validity window."""
    if op.truncation is not None and max_energy(state) > op.truncation:
        raise TruncationError(
            f"state energy {max_energy(state)} exceeds operator window "
            f"{op.truncation}"
        )
    out = FockState.zero(state.charge + op.charge_shift)
    for term in op.terms:
        cur = state
        for k, label in reversed(term.annihilations):
            cur = alpha_apply(k, label, cur)
            if cur.is_zero():
                break
        else:
            for k, label in reversed(term.creations):
                cur = alpha_apply(-k, label, cur)
            cur = scale(cur, Fraction(term.coeff, op.denom))
            out = add(out, shift_charge(cur, term.charge_shift))
    return out


def commutator_apply(
    A: OperatorExpr, B: OperatorExpr, state: FockState
) -> FockState:
    """[A, B} applied to a state: anticommutator when both operators are
    odd, commutator otherwise."""
    first = apply(A, apply(B, state))
    second = apply(B, apply(A, state))
    if A.parity and B.parity:
        return add(first, second)
    return sub(first, second)


def heisenberg_mode(n: int, gamma: Union[CohClass, int, str]) -> OperatorExpr:
    """Single Heisenberg mode alpha_n(gamma), exact at every energy."""
    if n == 0:
        raise ValueError("zero modes are excluded")
    if not isinstance(gamma, CohClass):
        gamma = CohClass.basis(gamma)
    if not gamma.is_homogeneous():
        raise ValueError("mode class must have a single parity")
    support = gamma.support()
    denom = lcm(*(comp.denominator for _, comp in support))
    terms = []
    for i, comp in support:
        mode = ((abs(n), i),)
        coeff = comp.numerator * (denom // comp.denominator)
        if n < 0:
            terms.append(NormalTerm(coeff, 0, mode, ()))
        else:
            terms.append(NormalTerm(coeff, 0, (), mode))
    parity = gamma.parity() if terms else 0
    return OperatorExpr(
        tuple(terms), None, 0, -n, parity, name=f"alpha[{n}]", denom=denom
    )


def vertex_mode(m: int, n: int, N: int) -> OperatorExpr:
    """z^{-n} mode of the charged exponential field at slope m: charge
    shift m, energy shift -n; exact on states of energy <= N."""
    return _charged_mode(m, n, N, 1, f"Gamma[{m};{n}]")
