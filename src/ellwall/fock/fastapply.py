"""Sparse-row application of normal-ordered operators to monomials.

The one representation of linear maps on the truncated Fock space.  A
row holds an operator's image of one monomial, organized for bulk work;
the Fraction reference oracle in ``tests/fock_reference.py`` computes
the same images term by term, one Heisenberg mode at a time.  Every row
is keyed by the position of a monomial in a ``BasisIndex`` (IndexRow),
and turns back into monomials only for a witness or an output state:

* operator rows (``RowTable``): each row is built the first time it is
  read, so an engine pays only for the monomials its compositions and
  comparisons reach.  Terms are grouped by their annihilation part, so
  the (expensive) annihilation chain runs once per group instead of once
  per term, and only the rows of active parts (below) are built from the
  terms.  Only operators whose modes carry basis labels are supported
  (every mode then pairs against exactly one partner label), which
  covers every operator the verifiers build;
* Heisenberg modes (``mode_tables``): a pair of lookup lists each;
* the charged field's slices (``ChargedField``), built once per pt part.

Spectators: a mode that no annihilation group of an operator contracts
super-commutes with the operator, so the operator's row on a monomial is
its row on the monomial's contracted modes (its active part) with the
other modes merged into every image, one reordering sign each
(``BasisIndex.spread``).  Rows are built once per active part and
spread, and the bracket engine checks a relation only on the monomials
whose every mode one of its operators contracts (``BasisIndex.within``).

Every row is integer: operator rows are over the denominator the
operator's construction fixed (``OperatorExpr.denom``), Heisenberg-mode
rows need none, and the charged field reads the integer table of
operators.FieldTable, so bulk work never touches Fraction arithmetic.
``add_scaled`` is the row-accumulate primitive the engines share.  Two
kernels compose rows: ``commutator_rows`` gives the rows of A B + eps B A
on a window in one pass, for the bracket engine, and ``compose_rows`` one
row of a product, for ``monodromy_s``.  A composition is over the product
of its factors' denominators.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Optional, Sequence

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY, pairing_scalar
from .operators import FieldTable, OperatorExpr
from .states import Monomial, _mode_key, basis_monomials, monomial_energy

# label paired nontrivially against each basis label
_DUAL = (COH_PT, COH_SM, COH_SP, COH_E)

IndexRow = dict[int, int]


def annihilation_chain(
    mono: Monomial, part: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Apply the annihilation modes of ``part`` (stored canonically, k
    descending; applied in reversed order, exactly as the reference
    ``apply`` in ``tests/fock_reference.py`` does) to a single monomial.  Returns (integer factor, reduced
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
    as the reference ``apply`` in ``tests/fock_reference.py`` does) to a
    canonical monomial in one merge pass: each odd mode of the part passes the odd modes of ``mono``
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


def add_scaled(acc: IndexRow, row: IndexRow, c: int) -> None:
    """acc += c * row in place, dropping entries that cancel to zero."""
    get = acc.get
    for u, v in row.items():
        total = get(u, 0) + c * v
        if total:
            acc[u] = total
        elif u in acc:
            del acc[u]


def compose_rows(outer: dict[int, IndexRow], row: IndexRow) -> IndexRow:
    """The row sum of c * outer[t] over the entries t: c of ``row``: an
    operator with action rows ``outer`` applied after the one that gave
    ``row``.  ``outer`` must give a row for every monomial of ``row``; a
    RowTable builds it on that read."""
    acc: IndexRow = {}
    for t, c in row.items():
        add_scaled(acc, outer[t], c)
    return acc


def commutator_rows(
    rows_a: dict[int, IndexRow],
    rows_b: dict[int, IndexRow],
    indices: Sequence[int],
    eps: int,
) -> list[IndexRow]:
    """The rows of A B + eps B A on the monomials of ``indices``, in that
    order, for operators A and B with action rows ``rows_a`` and
    ``rows_b``: the row of i sums c * rows_a[t] over the entries t: c of
    rows_b[i], and eps * c * rows_b[t] over those of rows_a[i], over the
    product of the two denominators.  Both tables must give a row for
    every monomial read; a RowTable builds it on that read.

    One dict per row takes every product, and its zeros are dropped once
    at the end, so no Python function is called per entry or per inner
    row: in a bracket sweep most inner rows are empty and most commutator
    rows cancel to zero, so a call per row or entry would cost more than
    the arithmetic."""
    out: list[IndexRow] = []
    for i in indices:
        acc: IndexRow = {}
        get = acc.get
        for t, c in rows_b[i].items():
            inner = rows_a[t]
            if inner:
                for u, v in inner.items():
                    acc[u] = get(u, 0) + c * v
        for t, c in rows_a[i].items():
            inner = rows_b[t]
            if inner:
                c *= eps
                for u, v in inner.items():
                    acc[u] = get(u, 0) + c * v
        if 0 in acc.values():
            acc = {u: v for u, v in acc.items() if v}
        out.append(acc)
    return out


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


def apply_to_monomial(grouped, basis: BasisIndex, i: int) -> IndexRow:
    """Integer row of a grouped operator on basis monomial i, over its
    denominator: the groups whose contracted modes the monomial holds
    act, in term order."""
    groups, contracted = grouped
    mono = basis.monos[i]
    hits = [
        groups[sub]
        for sub in _sub_monomials(tuple(m for m in mono if m in contracted))
        if sub in groups
    ]
    hits.sort()
    number = basis.number
    row: IndexRow = {}
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
            u = number(final)
            val = coeff * (factor * sign)
            acc = row.get(u)
            total = val if acc is None else acc + val
            if total:
                row[u] = total
            elif acc is not None:
                del row[u]
    return row


class RowTable(dict):
    """Integer rows of ``op`` on the monomials of ``basis``, each built
    the first time it is read and kept: ``table[i][u] / op.denom`` is the
    exact coefficient of monomial u in op(monomial i).  Images above the
    basis depth are numbered on first sight.  Exactness: the operator
    must include every term of annihilation depth up to the energy of
    each monomial read (OperatorExpr stores that bound as its
    truncation), so reading a row above it is a ValueError, never a
    truncated row.

    Spectators: a mode that no annihilation group of ``op`` contracts
    (not in ``contracted``) super-commutes with ``op``.  A monomial m is
    sigma * S act, with act its contracted modes (its active part), S
    the rest and sigma the sign of merging S into act, so
    op(m) = sigma (-1)^(parity(op) #odd(S)) S op(act).  So only an
    active part's row is built from the terms, once, and kept in a side
    table; the row of every monomial with that part is it spread with S
    (``BasisIndex.spread``).  The table's keys stay the rows read."""

    def __init__(self, op: OperatorExpr, basis: BasisIndex):
        super().__init__()
        self.op = op
        self.basis = basis
        self._grouped = _grouped_terms(op)
        self.contracted: set[tuple[int, int]] = self._grouped[1]
        # active part index -> its row, built from the terms
        self._active: dict[int, IndexRow] = {}

    def __missing__(self, i: int) -> IndexRow:
        basis = self.basis
        energy = basis.energy[i]
        window = self.op.truncation
        if window is not None and energy > window:
            raise ValueError(f"operator window {window} below basis energy {energy}")
        mono = basis.monos[i]
        contracted = self.contracted
        act = tuple(md for md in mono if md in contracted)
        if len(act) == len(mono):
            row = self._active_row(i)
        else:
            spectators = tuple(md for md in mono if md not in contracted)
            a = basis.number(act)
            sign = 1 if basis.merge(a, spectators) >= 0 else -1
            if self.op.parity and sum(LABEL_PARITY[l] for _, l in spectators) & 1:
                sign = -sign
            row = basis.spread(self._active_row(a), spectators, sign)
        self[i] = row
        return row

    def _active_row(self, a: int) -> IndexRow:
        """The row of the all-contracted monomial a, built on first use."""
        row = self._active.get(a)
        if row is None:
            row = self._active[a] = apply_to_monomial(self._grouped, self.basis, a)
        return row


class BasisIndex:
    """The canonical monomials of energy <= ``depth``, numbered once in
    basis_monomials order (energy, then monomial), so the monomials of
    energy <= w are the indices ``range(count(w))``.  Index rows are
    keyed by these numbers: an int key hashes at once, where a monomial
    key rehashes its nested tuples on every lookup.  ``number`` numbers
    a monomial above the depth after all of them, on first sight.

    Both caches live as long as the basis: the merges of each spectator
    monomial (``merge``) and the index lists of ``within``."""

    def __init__(self, depth: int):
        self.depth = depth
        self.monos = basis_monomials(depth)
        self.size = len(self.monos)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.energy = [monomial_energy(m) for m in self.monos]
        # spectator monomial -> {index u: merged index, see merge}
        self._merges: dict[Monomial, dict[int, Optional[int]]] = defaultdict(dict)
        # bit of each mode of the enumerated monomials, and each one's mask
        self._bits: dict[tuple[int, int], int] = {}
        self._masks: list[int] = []
        self._within: dict[tuple[int, int], list[int]] = {}

    def count(self, w: int) -> int:
        """The number of enumerated monomials of energy <= w."""
        return bisect_right(self.energy, w, 0, self.size)

    def number(self, mono: Monomial) -> int:
        """The index of a canonical monomial, numbering it after the
        last one when it is above the depth and not yet seen."""
        i = self.index.get(mono)
        if i is None:
            i = self.index[mono] = len(self.monos)
            self.monos.append(mono)
            self.energy.append(monomial_energy(mono))
        return i

    def monomials(self, row: IndexRow) -> dict[Monomial, int]:
        """The row keyed by monomials."""
        monos = self.monos
        return {monos[i]: c for i, c in row.items()}

    def merge(self, u: int, spectators: Monomial) -> Optional[int]:
        """The creation modes of the canonical ``spectators`` applied to
        monomial u (creation_chain), cached: j when they give monomial j,
        ~j when they give minus monomial j, None when an odd mode
        repeats.  A positive merge holds the basis's own int for j, so a
        cache of even merges costs no int of its own."""
        merges = self._merges[spectators]
        if u in merges:
            return merges[u]
        cr = creation_chain(self.monos[u], spectators)
        if cr is None:
            j = None
        else:
            j = self.number(cr[1])
            if cr[0] < 0:
                j = ~j
        merges[u] = j
        return j

    def spread(self, row: IndexRow, spectators: Monomial, sign: int = 1) -> IndexRow:
        """``sign`` times the row with the creation modes of
        ``spectators`` applied to every image, each with its merge sign
        (``merge``).  Modes S that an operator does not contract
        super-commute with it, so its row on S act is the spread of its
        row on act, with the sign RowTable works out.  Distinct images
        stay distinct, and an image that already holds an odd mode of S
        drops out."""
        if not spectators and sign == 1:
            return row
        merges = self._merges[spectators]
        out: IndexRow = {}
        for u, c in row.items():
            j = merges.get(u)
            if j is None:
                j = self.merge(u, spectators)
                if j is None:
                    continue
            if j < 0:
                j = ~j
                c = -c
            out[j] = c if sign == 1 else -c
        return out

    def within(self, w: int, modes: set[tuple[int, int]]) -> list[int]:
        """The indices, ascending, of the monomials of energy <= w whose
        modes all lie in ``modes``: a distinct-mode bitmask per monomial,
        kept with the result per (w, allowed bits)."""
        bits = self._bits
        if not self._masks:
            for mono in self.monos[: self.size]:
                mask = 0
                for mode in mono:
                    bit = bits.get(mode)
                    if bit is None:
                        bit = bits[mode] = 1 << len(bits)
                    mask |= bit
                self._masks.append(mask)
        allowed = 0
        for mode in modes:
            allowed |= bits.get(mode, 0)
        key = (w, allowed)
        hit = self._within.get(key)
        if hit is None:
            outside = ~allowed
            masks = self._masks
            hit = self._within[key] = [
                i for i in range(self.count(w)) if not masks[i] & outside
            ]
        return hit


ModeTable = tuple[list[int], list[int]]


def mode_tables(basis: BasisIndex, k_max: int) -> dict[tuple[int, int], ModeTable]:
    """The Heisenberg modes alpha_n(label), 1 <= |n| <= k_max, on the
    basis: alpha_n(label) sends monomial i to ``factor[i]`` times
    monomial ``target[i]`` for the table (target, factor) of (n, label),
    and to zero where ``factor[i]`` is 0.

    A single mode is a weighted partial injection, so one pass fills
    every table: for each distinct mode (k, l), k <= k_max, of monomial
    j, with i the monomial j less one copy of (k, l), the creation
    alpha_{-k}(l) sends i to j with the sign of the odd modes it crosses,
    and the annihilation alpha_k(dual l) sends j to i times
    k <dual l, l>, the multiplicity of (k, l) in j and the same sign.
    A creation whose image lies above the basis depth reads as zero."""
    size = basis.size
    index = basis.index
    tables = {
        (n, label): ([0] * size, [0] * size)
        for k in range(1, k_max + 1)
        for n in (-k, k)
        for label in range(4)
    }
    for j, mono in enumerate(basis.monos[:size]):
        odd_before = 0
        prev = None
        for pos, mode in enumerate(mono):
            k, label = mode
            if k <= k_max and mode != prev:
                i = index[mono[:pos] + mono[pos + 1 :]]
                sign = -1 if LABEL_PARITY[label] and odd_before & 1 else 1
                target, factor = tables[-k, label]
                target[i], factor[i] = j, sign
                dual = _DUAL[label]
                target, factor = tables[k, dual]
                target[j] = i
                factor[j] = k * pairing_scalar(dual, label) * mono.count(mode) * sign
            odd_before += LABEL_PARITY[label]
            prev = mode
    return tables


class ChargedField:
    """The z^{-n} modes, n_lo <= n <= n_hi, of the slope-m charged
    exponential field on a basis index, as index rows over one common
    denominator.

    ``slices[i]``, for every monomial i of energy e <= ``top``, holds the
    row of each mode n in that range that maps the monomial into the
    basis, i.e. with e - n <= basis.depth.  A term annihilating the
    E-modes mu and creating the E-modes lam has coefficient
    m^l(lam) (-m)^l(mu) / (z_lam z_mu) times an integer contraction
    factor; the coefficients come from a FieldTable of the basis depth,
    and ``denom`` is its denominator: ``slices[i][n][u] / denom`` is the
    exact coefficient of monomial u in mode n applied to monomial i.

    The slices of a monomial depend on it only through its pt modes: the
    E-annihilators contract pt modes alone, so the other modes are
    spectators, and the images hold no odd mode, so every merge sign is
    1.  So the slices are built once per pt part and spread
    (``BasisIndex.spread``) to the monomials sharing it."""

    def __init__(self, m: int, n_lo: int, n_hi: int, basis: BasisIndex, top: int):
        depth = basis.depth
        if not 0 <= top <= depth:
            raise ValueError(f"top energy {top} outside the basis depth {depth}")
        self.m = m
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.basis = basis
        self.top = top
        table = FieldTable(m, depth, depth)
        self.denom = table.denom
        annihilate = dict(pair for level in table.annihilate for pair in level)
        by_part: dict[Monomial, dict[int, IndexRow]] = {}
        self.slices: list[dict[int, IndexRow]] = []
        for i in range(basis.count(top)):
            mono = basis.monos[i]
            pt = tuple(md for md in mono if md[1] == COH_PT)
            part = by_part.get(pt)
            if part is None:
                part = by_part[pt] = self._part_slices(pt, table.create, annihilate)
            spectators = tuple(md for md in mono if md[1] != COH_PT)
            lo = basis.energy[i] - depth
            self.slices.append(
                {n: basis.spread(row, spectators) for n, row in part.items() if n >= lo}
            )

    def _part_slices(self, pt: Monomial, create, annihilate) -> dict[int, IndexRow]:
        """The slices of a monomial of pt modes alone.  Exact: the
        annihilation parts that act are the sub-partitions of ``pt``, all
        of which are enumerated."""
        index = self.basis.index
        n_lo = max(self.n_lo, monomial_energy(pt) - self.basis.depth)
        slices: dict[int, IndexRow] = {n: {} for n in range(n_lo, self.n_hi + 1)}
        for sub in _sub_monomials(pt):
            part = tuple((k, COH_E) for k, _ in sub)
            factor, reduced = annihilation_chain(pt, part)
            a_coeff = annihilate[part] * factor
            q = monomial_energy(part)
            for n in range(n_lo, min(self.n_hi, q) + 1):
                row = slices[n]
                for lam, c_coeff in create[q - n]:
                    val = c_coeff * a_coeff
                    if val:
                        # (sub, lam) is read off the image: no terms meet;
                        # even modes: no sign, and no repeat can vanish
                        row[index[creation_chain(reduced, lam)[1]]] = val
        return slices
