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
denominator the operator's construction fixed (``OperatorExpr.denom``),
Heisenberg-mode rows need none, and the charged field (ChargedField)
reads the integer table of operators.FieldTable, so bulk work never
touches Fraction arithmetic.
``add_scaled`` is the one row-accumulate primitive the engines share,
and ``compose_rows`` the one row-composition primitive; a composition
is over the product of its factors' denominators.
"""

from __future__ import annotations

from typing import Optional

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, pairing_scalar
from .operators import FieldTable, OperatorExpr
from .states import Monomial, _mode_key, insert_creation, monomial_energy

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
    """Apply the creation modes of a canonical ``part`` (rightmost first,
    as OperatorExpr.apply does) to a canonical monomial in one merge
    pass: each odd mode of the part passes the odd modes of ``mono``
    before it, a sign each.  Returns (sign, monomial), or None when an
    odd mode repeats, within the part or against the monomial."""
    out: list[tuple[int, int]] = []
    sign = 1
    odd_passed = 0
    i = 0
    size = len(mono)
    for mode in part:
        k, label = mode
        while i < size:
            cur = mono[i]
            if cur[0] > k or (cur[0] == k and cur[1] < label):
                out.append(cur)
                odd_passed += LABEL_PARITY[cur[1]]
                i += 1
            else:
                break
        if LABEL_PARITY[label]:
            # a repeat sits just before (within the part) or just after
            if (out and out[-1] == mode) or (i < size and mono[i] == mode):
                return None
            if odd_passed & 1:
                sign = -sign
        out.append(mode)
    out.extend(mono[i:])
    return sign, tuple(out)


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
    """The least common denominator of the operator's coefficients."""
    return op.denom


def _grouped_terms(op: OperatorExpr):
    """(groups, contracted modes): the terms grouped by annihilation part,
    keyed by the monomial modes the part contracts (one partner label
    per label), as (index of first appearance, part, [(creations, integer
    coeff)])."""
    by_part: dict[Monomial, list[tuple[Monomial, int]]] = {}
    for t in op.terms:
        by_part.setdefault(t.annihilations, []).append((t.creations, t.coeff))
    groups = {}
    for index, (part, entries) in enumerate(by_part.items()):
        need = tuple(
            sorted(((k, _DUAL[label]) for k, label in part), key=_mode_key)
        )
        groups[need] = (index, part, entries)
    return groups, {mode for need in groups for mode in need}


def _sub_monomials(mono: Monomial) -> list[Monomial]:
    """Every sub-multiset of a canonical monomial, each canonical."""
    subs: list[Monomial] = [()]
    for mode in dict.fromkeys(mono):
        r = mono.count(mode)
        subs = [sub + (mode,) * t for sub in subs for t in range(r + 1)]
    return subs


def apply_to_monomial(grouped, mono: Monomial) -> IntRow:
    """Integer row of a grouped operator on one monomial, over its
    denominator: the groups whose contracted modes the monomial holds
    act, in term order."""
    groups, contracted = grouped
    hits = [
        groups[sub]
        for sub in _sub_monomials(tuple(m for m in mono if m in contracted))
        if sub in groups
    ]
    hits.sort()
    row: IntRow = {}
    for _, part, entries in hits:
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
    grouped = _grouped_terms(op)
    return {m: apply_to_monomial(grouped, m) for m in monos}


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


class ChargedField:
    """The z^{-n} modes, n_lo <= n <= n_hi, of the slope-m charged
    exponential field on the energy window ``depth``, as integer rows
    over one common denominator.

    ``slices(mono)`` holds the row of every mode n in that range that
    maps the monomial (energy e <= depth) into the window, i.e. with
    e - n <= depth.  A term annihilating the E-modes mu and creating the
    E-modes lam has coefficient m^l(lam) (-m)^l(mu) / (z_lam z_mu) times
    an integer contraction factor, with |mu|, |lam| <= depth; the
    coefficients come from a FieldTable of both depths, and ``denom`` is
    its denominator: ``slices(mono)[n][u] / denom`` is the exact
    coefficient of u.  Slices are cached per monomial."""

    def __init__(self, m: int, n_lo: int, n_hi: int, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.m = m
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.depth = depth
        table = FieldTable(m, depth, depth)
        self._create = table.create
        self._annihilate = dict(pair for level in table.annihilate for pair in level)
        self.denom = table.denom
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
        create = self._create
        n_lo = max(self.n_lo, e - self.depth)
        slices: dict[int, IntRow] = {n: {} for n in range(n_lo, self.n_hi + 1)}
        for sub in _sub_monomials(tuple(md for md in mono if md[1] == COH_PT)):
            part = tuple((k, COH_E) for k, _ in sub)
            ann = annihilation_chain(mono, part)
            if ann is None:
                continue
            factor, reduced = ann
            a_coeff = self._annihilate[part] * factor
            q = monomial_energy(part)
            for n in range(n_lo, min(self.n_hi, q) + 1):
                row = slices[n]
                for lam, c_coeff in create[q - n]:
                    # even modes: no sign, and no repeat can vanish
                    final = creation_chain(reduced, lam)[1]
                    val = c_coeff * a_coeff
                    acc = row.get(final)
                    total = val if acc is None else acc + val
                    if total:
                        row[final] = total
                    elif acc is not None:
                        del row[final]
        self._slices[mono] = slices
        return slices
