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

The terms are stored factored, never one by one.  A slope-field mode is
a product of a creation level and an annihilation level of the charged
field, times at most one odd or weight-current factor, so constructors
hand ``OperatorExpr`` chunks ``(a, creation list, annihilations)``: a
creation list holds ``(c, creations)`` entries, is built once per
(creation level, joined odd modes) and is shared by every annihilation
part that meets it.  ``OperatorExpr.groups`` keeps the chunks by
annihilation part, the form the action rows of ``fastapply`` read, and
construction costs one step per chunk and per distinct list, not per
term.  ``OperatorExpr.terms`` expands them for term-level readers.

Slope fields: the E-label field at slope m is the charged exponential
field scaled by 1/m; the odd-label fields multiply it by the odd
current; the pt-label field adds the symplectic-fermion weight current
to the z d/dz derivative of the charged field.  That is its one
convention; no criterion checks it, and only the section-type action
reaches it.  All of them read one integer coefficient table
(``FieldTable``), whose levels are cached per (slope, depth).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Optional, Union

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, label_index
from .states import Monomial, _mode_key, creation_chain, monomial_energy


def _grade(mono: Monomial) -> tuple[int, int]:
    """(energy, parity of the odd-mode count) of a monomial."""
    energy = odd = 0
    for k, label in mono:
        energy += k
        odd ^= LABEL_PARITY[label]
    return energy, odd


class OperatorExpr:
    """Finite normal-ordered sum with uniform gradings, built from chunks
    ``(a, creation list, annihilations)``, the list holding ``(c,
    creations)``, with integer coefficients over ``denom``.  ``groups``
    maps each part, in order of first appearance, to its chunks ``(a,
    creation list)``.  A list is read once however many chunks share
    it: its entries' grades, checked against each part's need, and their
    gcd h, which divides it and goes into the chunk's a.  The a and
    ``denom`` are then divided by their gcd (sign included), so the
    positive ``denom`` is the terms' least common denominator."""

    __slots__ = (
        "groups", "truncation", "charge_shift", "energy_shift", "parity", "denom",
    )

    def __init__(
        self,
        chunks: Iterable[tuple],
        truncation: Optional[int],
        charge_shift: int,
        energy_shift: int,
        parity: int,
        denom: int = 1,
    ):
        if not denom:
            raise ValueError("the denominator must be nonzero")
        # annihilation part -> the grade its creations need
        needs: dict[Monomial, tuple[int, int]] = {}
        # id -> (the list, held so the id stays its own, grades, h, list / h)
        lists: dict[int, tuple] = {}
        staged = []
        for a, clist, ann in chunks:
            need = needs.get(ann)
            if need is None:
                energy, odd = _grade(ann)
                need = needs[ann] = (energy + energy_shift, odd ^ parity)
            info = lists.get(id(clist))
            if info is None:
                h = gcd(*(c for c, _ in clist))
                info = lists[id(clist)] = (
                    clist,
                    tuple(dict.fromkeys(_grade(cre) for _, cre in clist)),
                    h,
                    tuple((c // h, cre) for c, cre in clist) if h > 1 else clist,
                )
            for grade in info[1]:
                if grade != need:
                    if grade[0] != need[0]:
                        raise ValueError("terms must share the energy shift")
                    raise ValueError("terms must share parity")
            staged.append((a * info[2], info[3], ann))
        g = gcd(denom, *(ah for ah, _, _ in staged))
        if denom < 0:
            g = -g
        groups: dict[Monomial, list[tuple]] = {ann: [] for ann in needs}
        for ah, clist, ann in staged:
            groups[ann].append((ah // g, clist))
        self.groups = groups
        self.truncation = truncation
        self.charge_shift = charge_shift
        self.energy_shift = energy_shift
        self.parity = parity
        self.denom = denom // g

    @property
    def terms(self) -> list[tuple[int, Monomial, Monomial]]:
        """(coeff, creations, annihilations) per term, over ``denom``: the
        expansion for readers outside the package; no row reads it."""
        return [(a * c, cre, ann) for ann, chunks in self.groups.items()
                for a, clist in chunks for c, cre in clist]


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


@lru_cache(maxsize=64)
def _coefficient_table(slope: int, depth: int) -> tuple[int, tuple]:
    """(base, levels): levels[p] lists (base slope^l(lam) / z_lam, E-modes
    lam), the integer coefficients of exp(slope sum_j alpha_{+-j} / j) over
    the lcm ``base`` of the z_lam, for the partitions lam of p <= depth.
    The levels are shared by every operator built at (slope, depth): a
    level is one creation list of the charged field."""
    base = lcm(*(z for p in range(depth + 1) for z in _centralizers(p)))
    return base, tuple(
        tuple(
            (slope ** len(lam) * (base // z), tuple((j, COH_E) for j in lam))
            for lam, z in zip(_partitions(p), _centralizers(p))
        )
        for p in range(depth + 1)
    )


class FieldTable:
    """Integer coefficients of the slope-m (m != 0) charged exponential
    field exp(m sum_j alpha_{-j} z^j / j) exp(-m sum_j alpha_j z^{-j} / j)
    for one generator construction: the annihilation levels up to ann_depth
    and the creation levels up to cre_depth (N and N - x for a z^{-x}
    mode on the window N), over the product ``denom`` of their bases."""

    __slots__ = ("annihilate", "create", "denom", "_lists")

    def __init__(self, m: int, ann_depth: int, cre_depth: int):
        ann_base, self.annihilate = _coefficient_table(-m, ann_depth)
        cre_base, self.create = _coefficient_table(m, cre_depth)
        self.denom = ann_base * cre_base
        # (creation level, odd modes) -> the level's joined creation list
        self._lists: dict[tuple[int, Monomial], tuple] = {}

    def chunks(
        self, x: int, max_depth: int, cre_odd: Monomial = (), ann_odd: Monomial = ()
    ) -> Iterator[tuple]:
        """The chunks of the field's z^{-x} mode of E-annihilation depth
        <= max_depth, over ``denom``, times the odd modes ``cre_odd`` and
        ``ann_odd`` (``creation_chain``; at most one odd mode of each label
        joins E-modes, so the sign is 1): one chunk per part, and each
        joined creation list built once per build."""
        for q in range(max(0, x), max_depth + 1):
            clist = self.create[q - x]
            if cre_odd:
                key = (q - x, cre_odd)
                if key not in self._lists:
                    self._lists[key] = tuple(
                        (c, creation_chain(cre, cre_odd)[1]) for c, cre in clist
                    )
                clist = self._lists[key]
            for a, part in self.annihilate[q]:
                yield a, clist, creation_chain(part, ann_odd)[1] if ann_odd else part


def _charged_mode(m: int, n: int, N: int, over: int) -> OperatorExpr:
    """The charged field's z^{-n} mode at slope m divided by ``over``."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    table = FieldTable(m, N, N - n)
    return OperatorExpr(table.chunks(n, N), N, m, -n, 0, table.denom * over)


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
    chunk = (coeff, ((1, mode),), ()) if n < 0 else (coeff, ((1, ()),), mode)
    return OperatorExpr((chunk,), None, 0, -n, LABEL_PARITY[i], denom)


def _sigma_field_mode(m: int, b: int, label: int, N: int) -> OperatorExpr:
    """z^{-b} mode of the odd slope field: z * (odd current) * (charged
    exponential), at slope m != 0.  The odd mode alpha_j(label) stands
    left of the field's E-modes, so moving it into place crosses no odd
    mode; it joins each creation list or part (``FieldTable.chunks``)."""
    table = FieldTable(m, N, N - b)
    chunks: list[tuple] = []
    for j in range(b - N, N + 1):
        if j == 0:
            continue
        mode = ((abs(j), label),)
        if j < 0:
            chunks.extend(table.chunks(b - j, N, mode))
        else:
            chunks.extend(table.chunks(b - j, N - j, (), mode))
    return OperatorExpr(chunks, N, m, -b, 1, table.denom)


def _weight_current_terms(u: int, N: int, b: int) -> list:
    """(sign, creations, annihilations) of the z^{-u} mode of the
    normal-ordered odd bilinear current sum :alpha_j(sigma+)
    alpha_l(sigma-): over j + l = u, without the terms that annihilate
    more than energy N (they vanish on the window).  Normal order puts the
    creation modes left of the annihilation modes, each side canonical;
    the sign is -1 when that swaps the two odd modes."""
    out = []
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
    weight current times it, scaled by 1/m.  Each weight-current term
    joins its odd modes into the field's creation lists and parts
    (``FieldTable.chunks``): one chunk per (weight term, field part)."""
    table = FieldTable(m, N, N - b)
    chunks = [(-b * a, clist, ann) for a, clist, ann in table.chunks(b, N)]
    window = N + abs(b) + 2
    for u in range(-window, window + 1):
        for sign, w_cre, w_ann in _weight_current_terms(u, N, b):
            depth = N - monomial_energy(w_ann)
            chunks += [(sign * a, cl, ann)
                       for a, cl, ann in table.chunks(b - u, depth, w_cre, w_ann)]
    return OperatorExpr(chunks, N, m, -b, 0, table.denom * m)


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
