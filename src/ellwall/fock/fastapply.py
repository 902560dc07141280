"""Sparse-row application of normal-ordered operators to monomials.

The one production representation of linear maps on the truncated Fock
space.  Semantically identical to OperatorExpr.apply restricted to a
single monomial (that path stays as the reference oracle), but organized
for bulk work: terms are grouped by their annihilation part, so the
(expensive) annihilation chain runs once per group instead of once per
term, and results are plain dict rows keyed by the canonical
creation-monomial tuples.  Only operators whose modes carry basis labels
are supported (every mode then pairs against exactly one partner label),
which covers every operator the verifiers build.

Every row is integer: operator rows (op_action_rows) are over the
operator's one denominator (op_denominator), Heisenberg-mode rows need
none, and the charged field (ChargedField) keeps one common denominator
per field, so bulk work never touches Fraction arithmetic.
``add_scaled`` is the one row-accumulate primitive the engines share,
and ``compose_rows`` the one row-composition primitive; a composition
is over the product of its factors' denominators.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, lcm
from typing import Optional

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, pairing_scalar
from .operators import OperatorExpr, _partitions
from .states import Monomial, insert_creation, monomial_energy

# label paired nontrivially against each basis label
_DUAL = (COH_PT, COH_SM, COH_SP, COH_E)

IntRow = dict[Monomial, int]


def annihilation_chain(
    mono: Monomial, part: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Apply the annihilation modes of ``part`` (stored canonically, k
    descending; applied in reversed order, exactly as OperatorExpr.apply
    does) to a single monomial.  Returns (integer factor, reduced
    monomial) or None when the contraction vanishes."""
    factor = 1
    cur = mono
    for k, label in reversed(part):
        partner = _DUAL[label]
        odd = LABEL_PARITY[label]
        sign = 1
        total = 0
        reduced: Optional[Monomial] = None
        for i, (ki, li) in enumerate(cur):
            if ki == k and li == partner:
                total += sign * k * pairing_scalar(label, li)
                if reduced is None:
                    reduced = cur[:i] + cur[i + 1 :]
            if odd and LABEL_PARITY[li]:
                sign = -sign
        if not total or reduced is None:
            return None
        factor *= total
        cur = reduced
    return factor, cur


def creation_chain(
    mono: Monomial, part: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Apply the creation modes of ``part`` (reversed order, matching
    OperatorExpr.apply); returns (sign, monomial) or None when an odd
    mode repeats."""
    sign = 1
    cur = mono
    for k, label in reversed(part):
        hit = insert_creation(cur, k, label)
        if hit is None:
            return None
        s, cur = hit
        sign *= s
    return sign, cur


def add_scaled(acc: IntRow, row: IntRow, c: int) -> None:
    """acc += c * row in place, dropping entries that cancel to zero."""
    get = acc.get
    for u, v in row.items():
        total = get(u, 0) + c * v
        if total:
            acc[u] = total
        elif u in acc:
            del acc[u]


def compose_rows(outer: dict[Monomial, IntRow], row: IntRow) -> IntRow:
    """The row sum of c * outer[t] over the entries t: c of ``row``: an
    operator with action rows ``outer`` applied after the one that gave
    ``row``.  ``outer`` must hold a row for every monomial of ``row``."""
    acc: IntRow = {}
    for t, c in row.items():
        add_scaled(acc, outer[t], c)
    return acc


def op_denominator(op: OperatorExpr) -> int:
    """The lcm of the denominators of the operator's term coefficients:
    every coefficient times it is an integer."""
    return lcm(*(t.coeff.denominator for t in op.terms))


def _grouped_terms(op: OperatorExpr, denom: int):
    """[(annih part, needed partner-mode counts, [(creations, coeff)])],
    each coeff an integer: the term's coefficient times ``denom``."""
    groups: dict[Monomial, list[tuple[Monomial, int]]] = {}
    for t in op.terms:
        coeff = t.coeff.numerator * (denom // t.coeff.denominator)
        groups.setdefault(t.annihilations, []).append((t.creations, coeff))
    out = []
    for part, entries in groups.items():
        need: dict[tuple[int, int], int] = {}
        for k, label in part:
            key = (k, _DUAL[label])
            need[key] = need.get(key, 0) + 1
        out.append((part, tuple(need.items()), entries))
    return out


def apply_to_monomial(groups, mono: Monomial, counts=None) -> IntRow:
    """Integer row of a grouped operator on one monomial, over the
    denominator the groups were built with."""
    if counts is None:
        counts = {}
        for mode in mono:
            counts[mode] = counts.get(mode, 0) + 1
    row: IntRow = {}
    for part, need, entries in groups:
        ok = True
        for key, c in need:
            if counts.get(key, 0) < c:
                ok = False
                break
        if not ok:
            continue
        ann = annihilation_chain(mono, part)
        if ann is None:
            continue
        factor, reduced = ann
        for creations, coeff in entries:
            cr = creation_chain(reduced, creations)
            if cr is None:
                continue
            sign, final = cr
            val = coeff * (factor * sign)
            acc = row.get(final)
            total = val if acc is None else acc + val
            if total:
                row[final] = total
            elif acc is not None:
                del row[final]
    return row


def op_action_rows(op: OperatorExpr, monos) -> dict[Monomial, IntRow]:
    """Integer rows of ``op`` on every given monomial, over
    ``op_denominator(op)``: ``rows[m][u] / op_denominator(op)`` is the
    exact coefficient of u in op(m).  Exactness: the operator must
    include every term of annihilation depth up to the largest monomial
    energy supplied (OperatorExpr stores that bound as its truncation)."""
    if op.truncation is not None:
        top = max((monomial_energy(m) for m in monos), default=0)
        if top > op.truncation:
            raise ValueError(
                f"operator window {op.truncation} below basis energy {top}"
            )
    groups = _grouped_terms(op, op_denominator(op))
    return {m: apply_to_monomial(groups, m) for m in monos}


def single_mode_row(mono: Monomial, n: int, label: int) -> IntRow:
    """Row of the Heisenberg mode alpha_n(label) on one monomial; its
    coefficients are integers."""
    if n > 0:
        hit = annihilation_chain(mono, ((n, label),))
        if hit is None:
            return {}
        factor, reduced = hit
        return {reduced: factor}
    hit = insert_creation(mono, -n, label)
    if hit is None:
        return {}
    sign, created = hit
    return {created: sign}


def apply_single_mode(
    row: IntRow, n: int, label: int, cache: dict[Monomial, IntRow]
) -> IntRow:
    """alpha_n(label) applied to an integer row.  ``cache`` memoizes this
    one mode's single-monomial rows, for callers that apply it
    repeatedly.  A single mode sends distinct monomials to distinct
    monomials (it removes or inserts one fixed mode), so the images
    never collide and need no accumulation."""
    out: IntRow = {}
    for mono, coeff in row.items():
        hit = cache.get(mono)
        if hit is None:
            hit = cache[mono] = single_mode_row(mono, n, label)
        for target, c in hit.items():
            out[target] = coeff * c
    return out


def _sub_partitions(mult: dict[int, int]) -> list[tuple[int, ...]]:
    """All sub-multisets of a partition given as {part: multiplicity},
    each returned with parts descending."""
    items = sorted(mult.items(), reverse=True)
    out: list[tuple[int, ...]] = []

    def rec(i: int, cur: list[int]):
        if i == len(items):
            out.append(tuple(cur))
            return
        j, r = items[i]
        for take in range(r + 1):
            rec(i + 1, cur + [j] * take)

    rec(0, [])
    return out


def merge_even_creations(
    mono: Monomial, lam: tuple[int, ...], label: int = COH_E
) -> Monomial:
    """Insert creation modes of an even label (parts descending) into a
    canonical monomial in one merge pass; even modes cross without
    signs, so the result needs no coefficient."""
    out: list[tuple[int, int]] = []
    i = 0
    size = len(mono)
    for j in lam:
        key = (-j, label)
        while i < size and (-mono[i][0], mono[i][1]) < key:
            out.append(mono[i])
            i += 1
        out.append((j, label))
    out.extend(mono[i:])
    return tuple(out)


def _centralizer(parts: tuple[int, ...]) -> int:
    """z_lambda: product over distinct parts j of multiplicity r of
    j^r r!."""
    z = 1
    for j, r in Counter(parts).items():
        z *= j**r * factorial(r)
    return z


class ChargedField:
    """The z^{-n} modes, n_lo <= n <= n_hi, of the slope-m charged
    exponential field on the energy window ``depth``, as integer rows
    over one common denominator.

    ``slices(mono)`` holds the row of every mode n in that range that
    maps the monomial (energy e <= depth) into the window, i.e. with
    e - n <= depth.  A term annihilating the E-modes mu and creating the
    E-modes lam has coefficient m^l(lam) (-m)^l(mu) / (z_lam z_mu) times
    an integer contraction factor, with |mu|, |lam| <= depth.  ``denom``
    is the square of the lcm of all z_lam with |lam| <= depth, so every
    coefficient times ``denom`` is an integer:
    ``slices(mono)[n][u] / denom`` is the exact coefficient of u.
    Slices are cached per monomial."""

    def __init__(self, m: int, n_lo: int, n_hi: int, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.m = m
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.depth = depth
        z = {lam: _centralizer(lam) for p in range(depth + 1) for lam in _partitions(p)}
        base = lcm(*z.values())
        # base * (+-m)^l(lam) / z_lam, an integer for each listed lam
        self._create = {lam: m ** len(lam) * (base // zl) for lam, zl in z.items()}
        self._annihilate = {
            lam: (-m) ** len(lam) * (base // zl) for lam, zl in z.items()
        }
        self.denom = base * base
        self._slices: dict[Monomial, dict[int, IntRow]] = {}

    def slices(self, mono: Monomial) -> dict[int, IntRow]:
        """Integer rows of the modes on one monomial (see the class
        docstring for which).  Exact: the annihilation parts that act are
        exactly the sub-partitions of the monomial's pt content, all of
        which are enumerated."""
        cached = self._slices.get(mono)
        if cached is not None:
            return cached
        e = monomial_energy(mono)
        if e > self.depth:
            raise ValueError(f"monomial energy {e} above field depth {self.depth}")
        pt_mult: dict[int, int] = {}
        for k, label in mono:
            if label == COH_PT:
                pt_mult[k] = pt_mult.get(k, 0) + 1
        create = self._create
        n_lo = max(self.n_lo, e - self.depth)
        slices: dict[int, IntRow] = {n: {} for n in range(n_lo, self.n_hi + 1)}
        for mu in _sub_partitions(pt_mult):
            ann = annihilation_chain(mono, tuple((j, COH_E) for j in mu))
            if ann is None:
                continue
            factor, reduced = ann
            a_coeff = self._annihilate[mu] * factor
            q = sum(mu)
            for n in range(n_lo, min(self.n_hi, q) + 1):
                row = slices[n]
                for lam in _partitions(q - n):
                    final = merge_even_creations(reduced, lam)
                    val = create[lam] * a_coeff
                    acc = row.get(final)
                    total = val if acc is None else acc + val
                    if total:
                        row[final] = total
                    elif acc is not None:
                        del row[final]
        self._slices[mono] = slices
        return slices
