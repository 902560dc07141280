"""Operators: normal-ordered mode sums, built once and applied through
the integer rows of ``fastapply``.

Every operator is a finite sum of normal-ordered terms
``coeff * charge-shift * (creation modes) * (annihilation modes)``, with
canonical monomials and integer coefficients over ``OperatorExpr.denom``.
Mode sums that are a priori infinite (vertex-operator modes and the
slope fields built from them) are stored with all terms of annihilation
depth at most the truncation ``N``; since each mode is homogeneous of a
fixed energy shift, application to any state of energy <= N is exact,
not approximate.

Slope fields: the E-label field at slope m is the charged exponential
field scaled by 1/m; the odd-label fields multiply it by the odd
current; the pt-label field (extended mode, excluded from mandatory
verification) needs an explicit configuration choosing the derivative
convention and the weight-current convention.  All of them read one
integer coefficient table (``FieldTable``), built once per generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import NamedTuple, Optional, Union

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, label_index
from .states import Monomial, _mode_key, monomial_energy


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


class NormalTerm(NamedTuple):
    """One normal-ordered term; ``coeff`` is an integer, to be read over
    the denominator of the operator that holds the term."""

    coeff: int
    charge_shift: int
    creations: Monomial
    annihilations: Monomial


def _grade(mono: Monomial) -> tuple[int, int]:
    return monomial_energy(mono), sum(LABEL_PARITY[l] for _, l in mono)


class OperatorExpr:
    """Finite normal-ordered sum with uniform gradings.  Construction
    divides the integer coefficients and ``denom`` by their gcd (sign
    included), so ``denom`` > 0 is their least common denominator."""

    __slots__ = (
        "terms", "truncation", "charge_shift", "energy_shift", "parity", "name", "denom"
    )

    def __init__(
        self,
        terms: tuple[NormalTerm, ...],
        truncation: Optional[int],
        charge_shift: int,
        energy_shift: int,
        parity: int,
        name: str = "",
        denom: int = 1,
    ):
        if not denom:
            raise ValueError("the denominator must be nonzero")
        # (energy, odd-mode count) of each monomial, which repeat across terms
        grades: dict[Monomial, tuple[int, int]] = {}
        for t in terms:
            if t.charge_shift != charge_shift:
                raise ValueError("terms must share the charge shift")
            cre = grades.get(t.creations) or grades.setdefault(
                t.creations, _grade(t.creations))
            ann = grades.get(t.annihilations) or grades.setdefault(
                t.annihilations, _grade(t.annihilations))
            if cre[0] - ann[0] != energy_shift:
                raise ValueError("terms must share the energy shift")
            if (cre[1] + ann[1]) % 2 != parity:
                raise ValueError("terms must share parity")
        g = gcd(denom, *(t.coeff for t in terms))
        if denom < 0:
            g = -g
        if g != 1:
            terms = tuple(
                NormalTerm(t.coeff // g, charge_shift, t.creations, t.annihilations)
                for t in terms
            )
            denom //= g
        self.terms = terms
        self.truncation = truncation
        self.charge_shift = charge_shift
        self.energy_shift = energy_shift
        self.parity = parity
        self.name = name
        self.denom = denom

    def __repr__(self) -> str:
        label = self.name or "operator"
        return (
            f"OperatorExpr({label}, {len(self.terms)} terms, "
            f"shift={self.energy_shift}, charge={self.charge_shift})"
        )


@lru_cache(maxsize=32)
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


def _centralizer(parts: tuple[int, ...]) -> int:
    """z_lambda: product over distinct parts j of multiplicity r of
    j^r r!."""
    z = 1
    for j, r in Counter(parts).items():
        z *= j**r * factorial(r)
    return z


def _coefficient_table(slope: int, depth: int) -> tuple[int, list[list]]:
    """(base, levels): levels[p] lists (E-modes lam, base slope^l(lam) /
    z_lam), the integer coefficients of exp(slope sum_j alpha_{+-j} / j)
    over the lcm ``base`` of the z_lam, for the partitions lam of p <= depth."""
    z = {lam: _centralizer(lam) for p in range(depth + 1) for lam in _partitions(p)}
    base = lcm(*z.values())
    return base, [
        [
            (tuple((j, COH_E) for j in lam), slope ** len(lam) * (base // z[lam]))
            for lam in _partitions(p)
        ]
        for p in range(depth + 1)
    ]


class FieldTable:
    """Integer coefficients of the slope-m charged exponential field
    exp(m sum_j alpha_{-j} z^j / j) exp(-m sum_j alpha_j z^{-j} / j) for
    one generator construction: the annihilation levels up to ann_depth
    and the creation levels up to cre_depth (N and N - x for a z^{-x}
    mode on the window N), over the product ``denom`` of their bases.
    ``mode_terms`` memoizes the modes for the table's lifetime."""

    __slots__ = ("m", "annihilate", "create", "denom", "_modes")

    def __init__(self, m: int, ann_depth: int, cre_depth: int):
        self.m = m
        ann_base, self.annihilate = _coefficient_table(-m, ann_depth)
        cre_base, self.create = _coefficient_table(m, cre_depth)
        self.denom = ann_base * cre_base
        self._modes: dict[tuple[int, int], list[NormalTerm]] = {}

    def mode_terms(self, x: int, max_depth: int) -> list[NormalTerm]:
        """Terms of the field's z^{-x} mode with annihilation depth
        <= max_depth, coefficients over ``denom``."""
        terms = self._modes.get((x, max_depth))
        if terms is not None:
            return terms
        m = self.m
        terms = self._modes[x, max_depth] = []
        if m == 0:
            if x == 0:
                terms.append(NormalTerm(self.denom, 0, (), ()))
            return terms
        for q in range(max(0, x), max_depth + 1):
            for creations, c_coeff in self.create[q - x]:
                for annihilations, a_coeff in self.annihilate[q]:
                    terms.append(
                        NormalTerm(c_coeff * a_coeff, m, creations, annihilations)
                    )
        return terms


def _charged_mode(m: int, n: int, N: int, over: int, name: str) -> OperatorExpr:
    """The charged field's z^{-n} mode at slope m divided by ``over``."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    table = FieldTable(m, N, N - n)
    return OperatorExpr(
        tuple(table.mode_terms(n, N)), N, m, -n, 0, name=name,
        denom=table.denom * over,
    )


def w_small(n: int, label: Union[int, str]) -> OperatorExpr:
    """Slope-0 generator: the Heisenberg mode twisted by the degree-|n|
    pullback: E -> alpha_n(E)/|n|, sigma -> alpha_n(sigma),
    pt -> |n| alpha_n(pt)."""
    if n == 0:
        raise ValueError("zero modes are excluded")
    i = label_index(label)
    k = abs(n)
    coeff, denom = {COH_E: (1, k), COH_PT: (k, 1)}.get(i, (1, 1))
    mode = ((k, i),)
    term = NormalTerm(coeff, 0, mode, ()) if n < 0 else NormalTerm(coeff, 0, (), mode)
    return OperatorExpr(
        (term,), None, 0, -n, LABEL_PARITY[i], name=f"w[0,{n};{i}]", denom=denom
    )


def _merged(few: Monomial, mono: Monomial) -> Monomial:
    """The canonical monomial holding the modes of two canonical ones, in
    one linear merge (no sign: callers merge modes that cross no odd
    mode)."""
    if not few:
        return mono
    out = []
    j = 0
    size = len(mono)
    for mode in few:
        k, label = mode
        while j < size:
            cur = mono[j]
            if cur[0] > k or (cur[0] == k and cur[1] < label):
                out.append(cur)
                j += 1
            else:
                break
        out.append(mode)
    out.extend(mono[j:])
    return tuple(out)


def _sigma_field_mode(m: int, b: int, label: int, N: int) -> OperatorExpr:
    """z^{-b} mode of the odd slope field: z * (odd current) * (charged
    exponential), at slope m != 0.  The odd mode alpha_j(label) stands
    left of the field's E-modes, so moving it into place crosses no odd
    mode."""
    table = FieldTable(m, N, N - b)
    terms: list[NormalTerm] = []
    for j in range(b - N, N + 1):
        if j == 0:
            continue
        mode = ((abs(j), label),)
        for t in table.mode_terms(b - j, N - max(0, j)):
            if j < 0:
                creations, annihilations = _merged(mode, t.creations), t.annihilations
            else:
                creations, annihilations = t.creations, _merged(mode, t.annihilations)
            terms.append(NormalTerm(t.coeff, m, creations, annihilations))
    return OperatorExpr(
        tuple(terms), N, m, -b, 1, name=f"w[{m},{b};{label}]", denom=table.denom
    )


def _weight_current_terms(u: int, N: int, b: int) -> list[NormalTerm]:
    """z^{-u} mode of the normal-ordered odd bilinear current
    sum :alpha_j(sigma+) alpha_l(sigma-): over j + l = u.  Normal order
    puts the creation modes left of the annihilation modes, each side
    canonical; the sign is -1 when that swaps the two odd modes."""
    out: list[NormalTerm] = []
    bound = 2 * N + abs(b) + 2
    for j in range(-bound, bound + 1):
        l = u - j
        if j == 0 or l == 0 or abs(l) > bound:
            continue
        modes = (((abs(j), COH_SP), j), ((abs(l), COH_SM), l))
        creations = tuple(sorted((md for md, n in modes if n < 0), key=_mode_key))
        annihilations = tuple(sorted((md for md, n in modes if n > 0), key=_mode_key))
        sign = 1 if (creations + annihilations)[0][1] == COH_SP else -1
        out.append(NormalTerm(sign, 0, creations, annihilations))
    return out


def _pt_field_mode(m: int, b: int, N: int, config: FockConfig) -> OperatorExpr:
    """Extended-mode pt-label slope field: a derivative part plus an
    optional odd-bilinear weight part, scaled by 1/m.  The plain-dz
    derivative convention lowers the effective mode index by one; both
    parts are built at the same effective index so the operator stays
    homogeneous."""
    x0 = b if config.derivative == "z_ddz" else b - 1
    table = FieldTable(m, N, N - x0)
    terms = [
        NormalTerm(-x0 * t.coeff, m, t.creations, t.annihilations)
        for t in table.mode_terms(x0, N)
    ]
    if config.weight_field == "symplectic_fermion":
        window = N + abs(x0) + 2
        for u in range(-window, window + 1):
            for t in _weight_current_terms(u, N, x0):
                depth_used = monomial_energy(t.annihilations)
                for g in table.mode_terms(x0 - u, N - depth_used):
                    terms.append(
                        NormalTerm(
                            t.coeff * g.coeff,
                            m,
                            _merged(t.creations, g.creations),
                            _merged(t.annihilations, g.annihilations),
                        )
                    )
    return OperatorExpr(
        tuple(terms), N, m, -x0, 0, name=f"w[{m},{b};pt;{config.derivative}]",
        denom=table.denom * m,
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
        return _charged_mode(a, b, N, a, f"w[{a},{b};E]")
    if i in (COH_SP, COH_SM):
        return _sigma_field_mode(a, b, i, N)
    if config is None:
        raise ExtendedModeError(
            "pt-label slope fields are an extended mode: pass a FockConfig "
            "choosing the derivative and weight-field conventions"
        )
    return _pt_field_mode(a, b, N, config)
