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

Constructors hand ``OperatorExpr`` plain ``(coeff, creations,
annihilations)`` triples, all at the operator's charge shift.  It builds
each ``NormalTerm`` once, in one pass that also checks the term's grade
and records it under its annihilation part: ``terms`` keeps the
construction order, the order the Fraction oracle in
``tests/fock_reference.py`` applies, and ``groups`` is the grouping by
annihilation part that the action rows of ``fastapply`` read.

Slope fields: the E-label field at slope m is the charged exponential
field scaled by 1/m; the odd-label fields multiply it by the odd
current; the pt-label field adds the symplectic-fermion weight current
to the z d/dz derivative of the charged field.  That is its one
convention; no criterion checks it, and only the section-type action
reaches it.  All of them read one integer coefficient table
(``FieldTable``), built once per generator.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, label_index
from .states import Monomial, _mode_key, creation_chain, monomial_energy


class NormalTerm(NamedTuple):
    """One normal-ordered term at the charge shift of the operator that
    holds it; ``coeff`` is an integer, read over that operator's denom."""

    coeff: int
    creations: Monomial
    annihilations: Monomial


# a term as constructors hand it to OperatorExpr: (coeff, creations,
# annihilations), the charge shift being the operator's
Term = tuple[int, Monomial, Monomial]


def _grade(mono: Monomial) -> tuple[int, int]:
    """(energy, parity of the odd-mode count) of a monomial."""
    energy = odd = 0
    for k, label in mono:
        energy += k
        odd ^= LABEL_PARITY[label]
    return energy, odd


class OperatorExpr:
    """Finite normal-ordered sum with uniform gradings, built from
    ``(coeff, creations, annihilations)`` triples with integer
    coefficients over ``denom``; every term carries the operator's charge
    shift.  Construction divides the coefficients and ``denom`` by their
    gcd (sign included), so ``denom`` > 0 is their least common
    denominator, and checks each term's (energy, odd-mode count) grade
    against the operator's in the same pass that builds its
    ``NormalTerm``.  ``terms`` keeps the construction order, the order the
    Fraction oracle applies them in; ``groups`` holds the same terms by
    annihilation part, parts in order of first appearance, as the action
    rows of ``fastapply`` read them."""

    __slots__ = (
        "terms", "groups", "truncation", "charge_shift", "energy_shift", "parity",
        "denom",
    )

    def __init__(
        self,
        terms: Sequence[Term],
        truncation: Optional[int],
        charge_shift: int,
        energy_shift: int,
        parity: int,
        denom: int = 1,
    ):
        if not denom:
            raise ValueError("the denominator must be nonzero")
        g = gcd(denom, *(t[0] for t in terms))
        if denom < 0:
            g = -g
        # creation monomial -> its grade; annihilation part -> the grade
        # its creations need, and its terms
        grades: dict[Monomial, tuple[int, int]] = {}
        needs: dict[Monomial, tuple[int, int]] = {}
        groups: dict[Monomial, list[NormalTerm]] = {}
        out = []
        for coeff, cre, ann in terms:
            need = needs.get(ann)
            if need is None:
                energy, odd = _grade(ann)
                need = needs[ann] = (energy + energy_shift, odd ^ parity)
                groups[ann] = []
            grade = grades.get(cre)
            if grade is None:
                grade = grades[cre] = _grade(cre)
            if grade != need:
                if grade[0] != need[0]:
                    raise ValueError("terms must share the energy shift")
                raise ValueError("terms must share parity")
            term = NormalTerm(coeff // g, cre, ann)
            out.append(term)
            groups[ann].append(term)
        self.terms = tuple(out)
        self.groups = groups
        self.truncation = truncation
        self.charge_shift = charge_shift
        self.energy_shift = energy_shift
        self.parity = parity
        self.denom = denom // g


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


@lru_cache(maxsize=32)
def _centralizers(n: int) -> tuple[int, ...]:
    """z_lambda for the partitions lambda of n, in ``_partitions`` order:
    the product over distinct parts j of multiplicity r of j^r r!."""
    out = []
    for lam in _partitions(n):
        z = 1
        for j, r in Counter(lam).items():
            z *= j**r * factorial(r)
        out.append(z)
    return tuple(out)


def _coefficient_table(slope: int, depth: int) -> tuple[int, list[list]]:
    """(base, levels): levels[p] lists (E-modes lam, base slope^l(lam) /
    z_lam), the integer coefficients of exp(slope sum_j alpha_{+-j} / j)
    over the lcm ``base`` of the z_lam, for the partitions lam of p <= depth."""
    base = lcm(*(z for p in range(depth + 1) for z in _centralizers(p)))
    return base, [
        [
            (tuple((j, COH_E) for j in lam), slope ** len(lam) * (base // z))
            for lam, z in zip(_partitions(p), _centralizers(p))
        ]
        for p in range(depth + 1)
    ]


class FieldTable:
    """Integer coefficients of the slope-m (m != 0) charged exponential
    field exp(m sum_j alpha_{-j} z^j / j) exp(-m sum_j alpha_j z^{-j} / j)
    for one generator construction: the annihilation levels up to ann_depth
    and the creation levels up to cre_depth (N and N - x for a z^{-x}
    mode on the window N), over the product ``denom`` of their bases."""

    __slots__ = ("annihilate", "create", "denom")

    def __init__(self, m: int, ann_depth: int, cre_depth: int):
        ann_base, self.annihilate = _coefficient_table(-m, ann_depth)
        cre_base, self.create = _coefficient_table(m, cre_depth)
        self.denom = ann_base * cre_base

    def mode_terms(self, x: int, max_depth: int) -> list[Term]:
        """(coeff, creations, annihilations) of the field's z^{-x} mode
        with annihilation depth <= max_depth, coefficients over
        ``denom``."""
        terms: list[Term] = []
        for q in range(max(0, x), max_depth + 1):
            for creations, c_coeff in self.create[q - x]:
                for annihilations, a_coeff in self.annihilate[q]:
                    terms.append((c_coeff * a_coeff, creations, annihilations))
        return terms


def _charged_mode(m: int, n: int, N: int, over: int) -> OperatorExpr:
    """The charged field's z^{-n} mode at slope m divided by ``over``."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    table = FieldTable(m, N, N - n)
    return OperatorExpr(table.mode_terms(n, N), N, m, -n, 0, table.denom * over)


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
    term = (coeff, mode, ()) if n < 0 else (coeff, (), mode)
    return OperatorExpr((term,), None, 0, -n, LABEL_PARITY[i], denom)


def _joiner() -> Callable[[Monomial, Monomial], Monomial]:
    """The merge (``creation_chain``) of odd modes into an E-mode part,
    once per distinct (part, odd modes) pair, for one field build.  A
    field joins at most one odd mode of each label to an E-only part, so
    no odd mode is passed or repeated and the sign is 1."""
    return lru_cache(maxsize=None)(lambda part, odd: creation_chain(part, odd)[1])


def _sigma_field_mode(m: int, b: int, label: int, N: int) -> OperatorExpr:
    """z^{-b} mode of the odd slope field: z * (odd current) * (charged
    exponential), at slope m != 0.  The odd mode alpha_j(label) stands
    left of the field's E-modes, so moving it into place crosses no odd
    mode; it joins each part through ``_joiner``."""
    table = FieldTable(m, N, N - b)
    terms: list[Term] = []
    join = _joiner()
    for j in range(b - N, N + 1):
        if j == 0:
            continue
        mode = ((abs(j), label),)
        for coeff, creations, annihilations in table.mode_terms(b - j, N - max(0, j)):
            if j < 0:
                terms.append((coeff, join(creations, mode), annihilations))
            else:
                terms.append((coeff, creations, join(annihilations, mode)))
    return OperatorExpr(terms, N, m, -b, 1, table.denom)


def _weight_current_terms(u: int, N: int, b: int) -> list[Term]:
    """(sign, creations, annihilations) of the z^{-u} mode of the
    normal-ordered odd bilinear current sum :alpha_j(sigma+)
    alpha_l(sigma-): over j + l = u, without the terms that annihilate
    more than energy N (they vanish on the window).  Normal order puts the
    creation modes left of the annihilation modes, each side canonical;
    the sign is -1 when that swaps the two odd modes."""
    out: list[Term] = []
    bound = 2 * N + abs(b) + 2
    for j in range(-bound, bound + 1):
        l = u - j
        if j == 0 or l == 0 or abs(l) > bound or max(j, 0) + max(l, 0) > N:
            continue
        modes = (((abs(j), COH_SP), j), ((abs(l), COH_SM), l))
        creations = tuple(sorted((md for md, n in modes if n < 0), key=_mode_key))
        annihilations = tuple(sorted((md for md, n in modes if n > 0), key=_mode_key))
        sign = 1 if (creations + annihilations)[0][1] == COH_SP else -1
        out.append((sign, creations, annihilations))
    return out


def _pt_field_mode(m: int, b: int, N: int) -> OperatorExpr:
    """z^{-b} mode of the pt-label slope field at slope m != 0: the
    z d/dz derivative of the charged field plus the symplectic-fermion
    weight current times it, scaled by 1/m.  The weight part's odd modes
    join the field's parts through ``_joiner``."""
    table = FieldTable(m, N, N - b)
    terms = [(-b * coeff, cre, ann) for coeff, cre, ann in table.mode_terms(b, N)]
    join = _joiner()
    window = N + abs(b) + 2
    for u in range(-window, window + 1):
        for sign, w_cre, w_ann in _weight_current_terms(u, N, b):
            depth_used = monomial_energy(w_ann)
            for coeff, cre, ann in table.mode_terms(b - u, N - depth_used):
                terms.append((sign * coeff, join(cre, w_cre), join(ann, w_ann)))
    return OperatorExpr(terms, N, m, -b, 0, table.denom * m)


def w_general(a: int, b: int, label: Union[int, str], N: int) -> OperatorExpr:
    """Doubly graded generator w^{a,b}_label as a mode-sum operator,
    exact on states of energy <= N, for every label and slope."""
    if (a, b) == (0, 0):
        raise ValueError("the (0, 0) generator is excluded")
    i = label_index(label)
    if a == 0:
        return w_small(b, i)
    if i == COH_E:
        return _charged_mode(a, b, N, a)
    if i in (COH_SP, COH_SM):
        return _sigma_field_mode(a, b, i, N)
    return _pt_field_mode(a, b, N)
