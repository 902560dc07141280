"""Operators: normal-ordered mode sums acting exactly on states.

Every operator is a finite sum of normal-ordered terms
``coeff * charge-shift * (creation modes) * (annihilation modes)``.
Mode sums that are a priori infinite (vertex-operator modes and the
slope fields built from them) are stored with all terms of annihilation
depth at most the truncation ``N``; since each mode is homogeneous of a
fixed energy shift, application to any state of energy <= N is exact,
not approximate.

Slope fields: the E-label field at slope m is the charged exponential
field scaled by 1/m; the odd-label fields multiply it by the odd
current; the pt-label field (extended mode, excluded from mandatory
verification) needs an explicit configuration choosing the derivative
convention and the weight-current convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .labels import (
    COH_E,
    COH_PT,
    COH_SM,
    COH_SP,
    LABEL_PARITY,
    CohClass,
    label_index,
)
from .states import (
    FockState,
    Monomial,
    TruncationError,
    alpha_apply,
    monomial_energy,
)

Scalar = Union[int, Fraction]


class ExtendedModeError(ValueError):
    """A pt-label slope field was requested without extended configuration."""


@dataclass(frozen=True)
class FockConfig:
    """Conventions for the extended (pt-label) slope field."""

    weight_field: str = "symplectic_fermion"
    derivative: str = "z_ddz"

    def __post_init__(self):
        if self.weight_field not in ("symplectic_fermion", "zero"):
            raise ValueError(f"unknown weight_field {self.weight_field!r}")
        if self.derivative not in ("z_ddz", "ddz"):
            raise ValueError(f"unknown derivative {self.derivative!r}")


@dataclass(frozen=True)
class NormalTerm:
    coeff: Fraction
    charge_shift: int
    creations: Monomial
    annihilations: Monomial

    @property
    def energy_shift(self) -> int:
        return monomial_energy(self.creations) - monomial_energy(self.annihilations)

    @property
    def parity(self) -> int:
        odd = sum(
            LABEL_PARITY[l] for _, l in self.creations + self.annihilations
        )
        return odd % 2

    def scaled(self, x: Scalar) -> "NormalTerm":
        return NormalTerm(
            self.coeff * Fraction(x), self.charge_shift, self.creations,
            self.annihilations,
        )


class OperatorExpr:
    """Finite normal-ordered sum with uniform gradings."""

    __slots__ = ("terms", "truncation", "charge_shift", "energy_shift", "parity", "name")

    def __init__(
        self,
        terms: tuple[NormalTerm, ...],
        truncation: Optional[int],
        charge_shift: int,
        energy_shift: int,
        parity: int,
        name: str = "",
    ):
        for t in terms:
            if t.charge_shift != charge_shift:
                raise ValueError("terms must share the charge shift")
            if t.energy_shift != energy_shift:
                raise ValueError("terms must share the energy shift")
            if t.parity != parity:
                raise ValueError("terms must share parity")
        self.terms = terms
        self.truncation = truncation
        self.charge_shift = charge_shift
        self.energy_shift = energy_shift
        self.parity = parity
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "operator"
        return (
            f"OperatorExpr({label}, {len(self.terms)} terms, "
            f"shift={self.energy_shift}, charge={self.charge_shift})"
        )

    def scale(self, x: Scalar) -> "OperatorExpr":
        x = Fraction(x)
        if x == 0:
            return OperatorExpr(
                (), self.truncation, self.charge_shift, self.energy_shift,
                self.parity, name=f"0*({self.name})",
            )
        return OperatorExpr(
            tuple(t.scaled(x) for t in self.terms),
            self.truncation,
            self.charge_shift,
            self.energy_shift,
            self.parity,
            name=f"({x})*{self.name}" if self.name else "",
        )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if (
            self.charge_shift != other.charge_shift
            or self.energy_shift != other.energy_shift
            or self.parity != other.parity
        ):
            raise ValueError("can only add operators with matching gradings")
        trunc = None
        if self.truncation is not None or other.truncation is not None:
            trunc = min(
                t for t in (self.truncation, other.truncation) if t is not None
            )
        return OperatorExpr(
            self.terms + other.terms, trunc, self.charge_shift,
            self.energy_shift, self.parity,
            name=f"{self.name}+{other.name}",
        )

    def apply(self, state: FockState) -> FockState:
        """Exact application; raises if the state's energy exceeds the
        operator's validity window."""
        if self.truncation is not None and state.max_energy() > self.truncation:
            raise TruncationError(
                f"state energy {state.max_energy()} exceeds operator window "
                f"{self.truncation}"
            )
        out = FockState.zero(state.charge + self.charge_shift)
        for term in self.terms:
            cur = state
            for k, label in reversed(term.annihilations):
                cur = alpha_apply(k, label, cur)
                if cur.is_zero():
                    break
            else:
                for k, label in reversed(term.creations):
                    cur = alpha_apply(-k, label, cur)
                cur = cur.scale(term.coeff).shift_charge(term.charge_shift)
                out = out + cur
        return out


def identity_operator() -> OperatorExpr:
    return OperatorExpr(
        (NormalTerm(Fraction(1), 0, (), ()),), None, 0, 0, 0, name="id"
    )


def heisenberg_mode(n: int, gamma: Union[CohClass, int, str]) -> OperatorExpr:
    """Single Heisenberg mode alpha_n(gamma), exact at every energy."""
    if n == 0:
        raise ValueError("zero modes are excluded")
    if not isinstance(gamma, CohClass):
        gamma = CohClass.basis(gamma)
    if not gamma.is_homogeneous():
        raise ValueError("mode class must have a single parity")
    terms = []
    for i, comp in gamma.support():
        mode = ((abs(n), i),)
        if n < 0:
            terms.append(NormalTerm(comp, 0, mode, ()))
        else:
            terms.append(NormalTerm(comp, 0, (), mode))
    parity = gamma.parity() if terms else 0
    return OperatorExpr(
        tuple(terms), None, 0, -n, parity, name=f"alpha[{n}]"
    )


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def rec(rem: int, max_part: int, cur: list[int]):
        if rem == 0:
            out.append(tuple(cur))
            return
        for part in range(min(rem, max_part), 0, -1):
            cur.append(part)
            rec(rem - part, part, cur)
            cur.pop()

    rec(n, n, [])
    return tuple(out)


def _partition_coeff(parts: tuple[int, ...], slope: Fraction) -> Fraction:
    """prod over distinct parts j with multiplicity r: (slope/j)^r / r!"""
    coeff = Fraction(1)
    mult: dict[int, int] = {}
    for j in parts:
        mult[j] = mult.get(j, 0) + 1
    for j, r in mult.items():
        coeff *= (slope / j) ** r
        for i in range(2, r + 1):
            coeff /= i
    return coeff


def _gamma_terms(m: int, x: int, max_depth: int) -> list[NormalTerm]:
    """Terms of the charged exponential field's z^{-x} mode at slope m,
    with annihilation depth <= max_depth."""
    if m == 0:
        return [NormalTerm(Fraction(1), 0, (), ())] if x == 0 else []
    slope = Fraction(m)
    terms = []
    for q in range(max(0, x), max_depth + 1):
        p = q - x
        annihilating = [
            (tuple((j, COH_E) for j in mu), _partition_coeff(mu, -slope))
            for mu in _partitions(q)
        ]
        for lam in _partitions(p):
            c_coeff = _partition_coeff(lam, slope)
            creations = tuple((j, COH_E) for j in lam)
            for annihilations, a_coeff in annihilating:
                terms.append(
                    NormalTerm(c_coeff * a_coeff, m, creations, annihilations)
                )
    return terms


def vertex_mode(m: int, n: int, N: int) -> OperatorExpr:
    """z^{-n} mode of the charged exponential field at slope m: charge
    shift m, energy shift -n; exact on states of energy <= N."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    return OperatorExpr(
        tuple(_gamma_terms(m, n, N)), N, m, -n, 0, name=f"Gamma[{m};{n}]"
    )


def w_small(n: int, label: Union[int, str]) -> OperatorExpr:
    """Slope-0 generator: the Heisenberg mode twisted by the degree-|n|
    pullback: E -> alpha_n(E)/|n|, sigma -> alpha_n(sigma),
    pt -> |n| alpha_n(pt)."""
    if n == 0:
        raise ValueError("zero modes are excluded")
    i = label_index(label)
    factor = {COH_E: Fraction(1, abs(n)), COH_PT: Fraction(abs(n))}.get(
        i, Fraction(1)
    )
    op = heisenberg_mode(n, i).scale(factor)
    op.name = f"w[0,{n};{i}]"
    return op


def _merge_odd_mode(
    base: list[NormalTerm], j: int, label: int, max_depth: int
) -> list[NormalTerm]:
    """Multiply each (all-even) term by a single odd mode alpha_j(label);
    terms whose annihilation depth would exceed max_depth are dropped
    (they cannot act on states inside the window)."""
    out = []
    for t in base:
        if j < 0:
            mode = (-j, label)
            creations = tuple(
                sorted(t.creations + (mode,), key=lambda m: (-m[0], m[1]))
            )
            out.append(
                NormalTerm(t.coeff, t.charge_shift, creations, t.annihilations)
            )
        else:
            depth = monomial_energy(t.annihilations) + j
            if depth > max_depth:
                continue
            mode = (j, label)
            annihilations = tuple(
                sorted(t.annihilations + (mode,), key=lambda m: (-m[0], m[1]))
            )
            out.append(
                NormalTerm(t.coeff, t.charge_shift, t.creations, annihilations)
            )
    return out


def _sigma_field_mode(m: int, b: int, label: int, N: int) -> OperatorExpr:
    """z^{-b} mode of the odd slope field: z * (odd current) * (charged
    exponential), at slope m != 0."""
    terms: list[NormalTerm] = []
    for j in range(b - N, N + 1):
        if j == 0:
            continue
        base = _gamma_terms(m, b - j, N - max(0, j))
        terms.extend(_merge_odd_mode(base, j, label, N))
    return OperatorExpr(
        tuple(terms), N, m, -b, 1, name=f"w[{m},{b};{label}]"
    )


def _weight_current_terms(u: int, N: int, b: int) -> list[NormalTerm]:
    """z^{-u} mode of the normal-ordered odd bilinear current
    sum :alpha_j(sigma+) alpha_l(sigma-): over j + l = u."""
    out: list[NormalTerm] = []
    lo, hi = -(2 * N + abs(b) + 2), 2 * N + abs(b) + 2
    for j in range(lo, hi + 1):
        l = u - j
        if j == 0 or l == 0 or l < lo or l > hi:
            continue
        sign = Fraction(1)
        if j > 0 and l < 0:
            # normal order: move the creation mode left past one odd mode
            sign = Fraction(-1)
            creations: Monomial = ((-l, COH_SM),)
            annihilations: Monomial = ((j, COH_SP),)
        elif j < 0 and l > 0:
            creations = ((-j, COH_SP),)
            annihilations = ((l, COH_SM),)
        elif j < 0 and l < 0:
            pair = sorted(((-j, COH_SP), (-l, COH_SM)), key=lambda m: (-m[0], m[1]))
            if tuple(pair) != ((-j, COH_SP), (-l, COH_SM)):
                sign = -sign
            creations, annihilations = tuple(pair), ()
        else:
            pair = sorted(((j, COH_SP), (l, COH_SM)), key=lambda m: (-m[0], m[1]))
            if tuple(pair) != ((j, COH_SP), (l, COH_SM)):
                sign = -sign
            creations, annihilations = (), tuple(pair)
        out.append(NormalTerm(sign, 0, creations, annihilations))
    return out


def _pt_field_mode(m: int, b: int, N: int, config: FockConfig) -> OperatorExpr:
    """Extended-mode pt-label slope field: a derivative part plus an
    optional odd-bilinear weight part, scaled by 1/m.  The plain-dz
    derivative convention lowers the effective mode index by one; both
    parts are built at the same effective index so the operator stays
    homogeneous."""
    x0 = b if config.derivative == "z_ddz" else b - 1
    scale = Fraction(1, m)
    terms = [t.scaled(scale * (-x0)) for t in _gamma_terms(m, x0, N)]
    if config.weight_field == "symplectic_fermion":
        window = N + abs(x0) + 2
        for u in range(-window, window + 1):
            for t in _weight_current_terms(u, N, x0):
                depth_used = monomial_energy(t.annihilations)
                for g in _gamma_terms(m, x0 - u, N - depth_used):
                    creations = tuple(
                        sorted(
                            t.creations + g.creations,
                            key=lambda mm: (-mm[0], mm[1]),
                        )
                    )
                    annihilations = tuple(
                        sorted(
                            t.annihilations + g.annihilations,
                            key=lambda mm: (-mm[0], mm[1]),
                        )
                    )
                    terms.append(
                        NormalTerm(
                            t.coeff * g.coeff * scale, m, creations, annihilations
                        )
                    )
    return OperatorExpr(
        tuple(terms), N, m, -x0, 0, name=f"w[{m},{b};pt;{config.derivative}]"
    )


def w_general(
    a: int,
    b: int,
    label: Union[int, str],
    N: int,
    config: Optional[FockConfig] = None,
) -> OperatorExpr:
    """Doubly graded generator w^{a,b}_label as a mode-sum operator,
    exact on states of energy <= N.  Labels E and sigma+/- are always
    available; pt at nonzero slope needs the extended configuration."""
    if (a, b) == (0, 0):
        raise ValueError("the (0, 0) generator is excluded")
    i = label_index(label)
    if a == 0:
        return w_small(b, i)
    if i == COH_E:
        op = vertex_mode(a, b, N).scale(Fraction(1, a))
        op.name = f"w[{a},{b};E]"
        return op
    if i in (COH_SP, COH_SM):
        return _sigma_field_mode(a, b, i, N)
    if config is None:
        raise ExtendedModeError(
            "pt-label slope fields are an extended mode: pass a FockConfig "
            "choosing the derivative and weight-field conventions"
        )
    return _pt_field_mode(a, b, N, config)


def commutator_apply(
    A: OperatorExpr, B: OperatorExpr, state: FockState
) -> FockState:
    """[A, B} applied to a state: anticommutator when both operators are
    odd, commutator otherwise."""
    first = A.apply(B.apply(state))
    second = B.apply(A.apply(state))
    if A.parity and B.parity:
        return first + second
    return first - second
