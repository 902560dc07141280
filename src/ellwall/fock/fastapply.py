"""Sparse-row application of normal-ordered operators to monomials.

The one representation of linear maps on the truncated Fock space.  A
row holds an operator's image of one monomial, organized for bulk work;
the Fraction reference oracle in ``tests/fock_reference.py`` computes
the same images term by term, one Heisenberg mode at a time.  Every row
is keyed by the position of a monomial in a ``BasisIndex`` (IndexRow),
and turns back into exact rationals keyed by monomials only for a
witness or an output state (``BasisIndex.monomials``):

* operator rows (``RowTable``): each row is built the first time it is
  read, so an engine pays only for the monomials its compositions and
  comparisons reach.  A table reads the operator's chunks by
  annihilation part (``OperatorExpr.groups``), never a term list, and
  only the rows of active parts (below) are built from them.  Only
  operators whose modes carry basis labels are supported (every mode
  then pairs against exactly one partner label), which covers every
  operator the verifiers build;
* Heisenberg modes (``ModeTable``): one lookup each, (target, factor)
  or None, filled per monomial on first read, numbering images above
  the basis depth.  The slope-zero generators, a factor times one mode,
  are operators like any other and go through ``RowTable``;
* the charged field's slices (``ChargedField``): a monomial's slices are
  built the first time they are read, from the table for a pt-only
  monomial and as its pt part's slices spread with its other modes
  otherwise.

The basis owns the contraction work: it caches each annihilation chain
per (monomial, part) (``BasisIndex.contract``), each creation merge per
(monomial, creation part) (``merge``) and each split into active part
and spectators per contracted mode set (``split``), for every table,
field and sweep on it, so an engine runs each chain and split once.
The chains themselves are the monomial rules of ``states``.

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
from fractions import Fraction
from typing import Optional, Sequence

from .labels import COH_E, LABEL_PARITY
from .operators import FieldTable, OperatorExpr
from .states import (
    _DUAL, Monomial, _mode_key, annihilation_chain, basis_monomials, creation_chain,
    monomial_energy,
)

IndexRow = dict[int, int]


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
    """(groups, contracted modes, created modes): the operator's groups
    (``OperatorExpr.groups``, its chunks by annihilation part) keyed by
    the monomial modes the part contracts (one partner label per label),
    as (index of first appearance, part, chunks), and the modes its terms
    create, read once per distinct creation list."""
    groups = {}
    for index, (part, chunks) in enumerate(op.groups.items()):
        need = tuple(
            sorted(((k, _DUAL[label]) for k, label in part), key=_mode_key)
        )
        groups[need] = (index, part, chunks)
    contracted = frozenset(mode for need in groups for mode in need)
    lists = {id(cl): cl for chunks in op.groups.values() for _, cl in chunks}
    created = frozenset(md for cl in lists.values() for _, cre in cl for md in cre)
    return groups, contracted, created


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
    act, chunk by chunk, through the basis's cached chains: a term is
    worth its chunk's a times its entry's c times the contraction."""
    groups, contracted, _ = grouped
    mono = basis.monos[i]
    hits = [
        groups[sub]
        for sub in _sub_monomials(tuple(m for m in mono if m in contracted))
        if sub in groups
    ]
    hits.sort()
    contract = basis.contract
    merges = basis._merges
    row: IndexRow = {}
    for _, part, chunks in hits:
        ann = contract(i, part)
        if ann is None:
            continue
        factor, r = ann
        for a, clist in chunks:
            af = a * factor
            for c, creations in clist:
                cached = merges[creations]
                u = cached[r] if r in cached else basis.merge(r, creations)
                if u is None:
                    continue
                val = af * c
                if u < 0:
                    u = ~u
                    val = -val
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

    The chunks are read as the operator's construction grouped them
    (``op.groups``), keyed by the modes each annihilation part contracts
    (``_grouped_terms``); ``created`` holds the modes the terms create.

    Spectators: a mode that no annihilation group of ``op`` contracts
    (not in ``contracted``) super-commutes with ``op``.  A monomial m is
    sigma * S act, with act its contracted modes (its active part), S
    the rest and sigma the sign of merging S into act, so
    op(m) = sigma (-1)^(parity(op) #odd(S)) S op(act).  So only an
    active part's row is built from the terms, once, and kept in a side
    table; the row of every monomial with that part is it spread with S
    (``BasisIndex.spread``).  The table's keys stay the rows read; the
    splits and chains are the basis's, shared by its tables."""

    def __init__(self, op: OperatorExpr, basis: BasisIndex):
        super().__init__()
        self.op = op
        self.basis = basis
        self._grouped = _grouped_terms(op)
        _, self.contracted, self.created = self._grouped
        # the basis's splits on ``contracted``, read without a call per row
        self._splits = basis._splits[self.contracted]
        # active part index -> its row, built from the terms
        self._active: dict[int, IndexRow] = {}

    def __missing__(self, i: int) -> IndexRow:
        basis = self.basis
        energy = basis.energy[i]
        window = self.op.truncation
        if window is not None and energy > window:
            raise ValueError(f"operator window {window} below basis energy {energy}")
        split = self._splits.get(i) or basis.split(i, self.contracted)
        a, spectators, sign, odd = split
        row = self._active_row(a)
        if spectators:
            if odd and self.op.parity:
                sign = -sign
            row = basis.spread(row, spectators, sign)
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

    Its caches live as long as the basis, one entry per monomial and key
    read: ``contract``, ``merge``, ``split`` and ``within``."""

    def __init__(self, depth: int):
        self.depth = depth
        self.monos = basis_monomials(depth)
        self.size = len(self.monos)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.energy = [monomial_energy(m) for m in self.monos]
        # creation part -> {index u: merged index, see merge}
        self._merges: dict[Monomial, dict[int, Optional[int]]] = defaultdict(dict)
        # annihilation part -> {index i: see contract}
        self._contractions: dict[Monomial, dict] = defaultdict(dict)
        # contracted mode set -> {index i: see split}
        self._splits: dict[frozenset, dict] = defaultdict(dict)
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

    def monomials(self, row: IndexRow, denom: int = 1) -> dict[Monomial, Fraction]:
        """The exact rational row, keyed by monomials, that an integer
        index row over ``denom`` stands for."""
        monos = self.monos
        return {monos[i]: Fraction(c, denom) for i, c in row.items()}

    def contract(self, i: int, part: Monomial) -> Optional[tuple[int, int]]:
        """annihilation_chain of monomial i and ``part``, cached, with the
        reduced monomial's index."""
        hits = self._contractions[part]
        if i in hits:
            return hits[i]
        ann = annihilation_chain(self.monos[i], part)
        if ann is not None:
            ann = (ann[0], self.number(ann[1]))
        hits[i] = ann
        return ann

    def split(self, i: int, contracted: frozenset) -> tuple[int, Monomial, int, int]:
        """Monomial i as sigma S act (see RowTable): (index of act, S,
        sigma, parity of S's odd-mode count), kept in the cache of the
        contracted set, where its readers look first."""
        act = []
        spectators = []
        odd = act_odd = 0
        for md in self.monos[i]:
            if md in contracted:
                act.append(md)
                act_odd |= LABEL_PARITY[md[1]]
            else:
                spectators.append(md)
                odd ^= LABEL_PARITY[md[1]]
        if not spectators:
            split = (i, (), 1, 0)
        else:
            spectators = tuple(spectators)
            a = self.number(tuple(act))
            # S passes an odd mode only if act holds one (creation_chain)
            sign = -1 if act_odd and self.merge(a, spectators) < 0 else 1
            split = (a, spectators, sign, odd)
        self._splits[contracted][i] = split
        return split

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


class ModeTable(dict):
    """The Heisenberg mode alpha_n(label), n != 0, on a basis: the entry
    of monomial i is (target, factor) when the mode sends it to factor
    times monomial target, and None when it sends it to zero.  Each
    entry is filled the first time it is read: the creation or
    annihilation chain of the one mode, as a ``RowTable`` applies it.
    Any monomial the basis numbers may be read, and a creation image
    above the basis depth is numbered."""

    def __init__(self, basis: BasisIndex, n: int, label: int):
        super().__init__()
        self.basis = basis
        self.part = ((abs(n), label),)
        self.chain = creation_chain if n < 0 else annihilation_chain
        # the one mode's role, as RowTable.contracted and created
        self.contracted = frozenset() if n < 0 else frozenset({(n, _DUAL[label])})
        self.created = frozenset(self.part) if n < 0 else frozenset()

    def __missing__(self, i: int) -> Optional[tuple[int, int]]:
        basis = self.basis
        hit = self.chain(basis.monos[i], self.part)
        if hit is not None:
            hit = (basis.number(hit[1]), hit[0])
        self[i] = hit
        return hit


class ChargedField(dict):
    """The z^{-n} modes, n_lo <= n <= n_hi, of the slope-m charged
    exponential field on a basis index, as index rows over one common
    denominator.

    ``field[i]``, for a monomial i of energy e <= ``top``, holds the row
    of each mode n in that range whose images lie within the image bound
    ``bound``, i.e. with e - n <= bound; it is built the first time it is
    read and kept, and reading a monomial above ``top`` is a ValueError.
    Images above the basis depth are numbered on first sight.  A term
    annihilating the E-modes mu and creating the E-modes lam has
    coefficient m^l(lam) (-m)^l(mu) / (z_lam z_mu) times an integer
    contraction factor; the coefficients come from a FieldTable of depth
    ``bound``, and ``denom`` is its denominator: ``field[i][n][u] /
    denom`` is the exact coefficient of monomial u in mode n applied to
    monomial i.

    The slices of a monomial depend on it only through its pt modes: the
    E-annihilators contract pt modes alone (``contracted``), so the other
    modes are spectators, and the images hold no odd mode, so every
    merge sign is 1.  So only a pt-only monomial's slices are built from
    the table, each image as the cached merge (``BasisIndex.merge``) of
    its created E-modes into the contracted pt part, which the fields of
    one basis share; any other monomial's are those of its pt part (its
    ``BasisIndex.split`` on ``contracted``), read from the field (so
    built once), spread (``BasisIndex.spread``) with its other modes.
    ``created`` holds the modes of the table's creation monomials
    (``FieldTable.create``), the modes the field's terms create.
    The field refers to nothing that refers back to it, so dropping the
    last reference frees its slices at once."""

    def __init__(
        self, m: int, n_lo: int, n_hi: int, basis: BasisIndex, top: int, bound: int
    ):
        super().__init__()
        if not 0 <= top <= bound:
            raise ValueError(f"top energy {top} outside the image bound {bound}")
        self.m = m
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.basis = basis
        self.top = top
        self.bound = bound
        table = FieldTable(m, bound, bound)
        self.denom = table.denom
        self._create = table.create
        self._annihilate = {p: c for level in table.annihilate for c, p in level}
        self.contracted = frozenset(
            (k, _DUAL[label]) for part in self._annihilate for k, label in part
        )
        self.created = frozenset(
            mode for level in self._create for _, lam in level for mode in lam
        )
        self._splits = basis._splits[self.contracted]

    def __missing__(self, i: int) -> dict[int, IndexRow]:
        basis = self.basis
        energy = basis.energy[i]
        if energy > self.top:
            raise ValueError(f"field top {self.top} below basis energy {energy}")
        split = self._splits.get(i) or basis.split(i, self.contracted)
        a, spectators, sign, _ = split
        if not spectators:
            slices = self._pt_slices(i)
        else:
            lo = energy - self.bound
            slices = {
                n: basis.spread(row, spectators, sign)
                for n, row in self[a].items()
                if n >= lo
            }
        self[i] = slices
        return slices

    def _pt_slices(self, i: int) -> dict[int, IndexRow]:
        """The slices of monomial i, of pt modes alone.  Exact: the
        annihilation parts that act are the sub-partitions of its modes,
        all of which are enumerated."""
        basis = self.basis
        create = self._create
        pt = basis.monos[i]
        n_lo = max(self.n_lo, basis.energy[i] - self.bound)
        slices: dict[int, IndexRow] = {n: {} for n in range(n_lo, self.n_hi + 1)}
        for sub in _sub_monomials(pt):
            part = tuple((k, COH_E) for k, _ in sub)
            factor, u = basis.contract(i, part)
            a_coeff = self._annihilate[part] * factor
            q = monomial_energy(part)
            for n in range(n_lo, min(self.n_hi, q) + 1):
                row = slices[n]
                for c_coeff, lam in create[q - n]:
                    val = c_coeff * a_coeff
                    if val:
                        # (sub, lam) is read off the image: no terms meet;
                        # even modes: merge sign 1, and no repeat vanishes
                        row[basis.merge(u, lam)] = val
        return slices
