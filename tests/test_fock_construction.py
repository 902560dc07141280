"""Integer operator construction against a Fraction reference.

The reference below builds every generator term by term with Fraction
coefficients (the partition coefficients prod (slope/j)^r / r!, the
charged-field modes, and the sigma and pt field assembly), and its
action rows term by term with the Heisenberg contractions of
``fock_reference``.  ``w_general`` must give the same terms, the least common
denominator of the reference coefficients as ``denom``, and the same
integer rows from a ``RowTable``.  The one-pass creation merge is
checked against the chain of single-mode insertions it replaces, and
the linear merge of two canonical monomials against a sort.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellwall.fock.fastapply import BasisIndex, RowTable, creation_chain
from ellwall.fock.labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY
from ellwall.fock.operators import FockConfig, _merged, w_general
from ellwall.fock.states import monomial_energy

from fock_reference import annihilate, insert_creation


def canonical(modes):
    return tuple(sorted(modes, key=lambda m: (-m[0], m[1])))


# ---------------------------------------------------------------------------
# Fraction reference: terms are (coeff, charge shift, creations, annihilations)


def ref_partitions(n, max_part=None):
    if n == 0:
        return [()]
    max_part = n if max_part is None else max_part
    return [
        (part,) + rest
        for part in range(min(n, max_part), 0, -1)
        for rest in ref_partitions(n - part, part)
    ]


def ref_partition_coeff(parts, slope):
    """prod over distinct parts j with multiplicity r: (slope/j)^r / r!"""
    coeff = Fraction(1)
    for j in set(parts):
        r = parts.count(j)
        coeff *= (slope / j) ** r
        for i in range(2, r + 1):
            coeff /= i
    return coeff


def ref_gamma_terms(m, x, max_depth):
    """The charged field's z^{-x} mode at slope m, annihilation depth
    <= max_depth."""
    if m == 0:
        return [(Fraction(1), 0, (), ())] if x == 0 else []
    slope = Fraction(m)
    terms = []
    for q in range(max(0, x), max_depth + 1):
        annihilating = [
            (tuple((j, COH_E) for j in mu), ref_partition_coeff(mu, -slope))
            for mu in ref_partitions(q)
        ]
        for lam in ref_partitions(q - x):
            c_coeff = ref_partition_coeff(lam, slope)
            creations = tuple((j, COH_E) for j in lam)
            for annihilations, a_coeff in annihilating:
                terms.append((c_coeff * a_coeff, m, creations, annihilations))
    return terms


def ref_sigma_terms(m, b, label, N):
    terms = []
    for j in range(b - N, N + 1):
        if j == 0:
            continue
        for coeff, charge, cre, ann in ref_gamma_terms(m, b - j, N - max(0, j)):
            if j < 0:
                cre = canonical(cre + ((-j, label),))
            else:
                if monomial_energy(ann) + j > N:
                    continue
                ann = canonical(ann + ((j, label),))
            terms.append((coeff, charge, cre, ann))
    return terms


def ref_weight_current_terms(u, N, b):
    out = []
    lo, hi = -(2 * N + abs(b) + 2), 2 * N + abs(b) + 2
    for j in range(lo, hi + 1):
        l = u - j
        if j == 0 or l == 0 or l < lo or l > hi:
            continue
        sign = Fraction(1)
        if j > 0 and l < 0:
            sign = Fraction(-1)
            cre, ann = ((-l, COH_SM),), ((j, COH_SP),)
        elif j < 0 and l > 0:
            cre, ann = ((-j, COH_SP),), ((l, COH_SM),)
        elif j < 0 and l < 0:
            pair = canonical(((-j, COH_SP), (-l, COH_SM)))
            if pair != ((-j, COH_SP), (-l, COH_SM)):
                sign = -sign
            cre, ann = pair, ()
        else:
            pair = canonical(((j, COH_SP), (l, COH_SM)))
            if pair != ((j, COH_SP), (l, COH_SM)):
                sign = -sign
            cre, ann = (), pair
        out.append((sign, 0, cre, ann))
    return out


def ref_pt_terms(m, b, N, config):
    x0 = b if config.derivative == "z_ddz" else b - 1
    scale = Fraction(1, m)
    terms = [
        (c * scale * (-x0), charge, cre, ann)
        for c, charge, cre, ann in ref_gamma_terms(m, x0, N)
    ]
    if config.weight_field == "symplectic_fermion":
        window = N + abs(x0) + 2
        for u in range(-window, window + 1):
            for sign, _, w_cre, w_ann in ref_weight_current_terms(u, N, x0):
                depth_used = monomial_energy(w_ann)
                for c, _, g_cre, g_ann in ref_gamma_terms(m, x0 - u, N - depth_used):
                    terms.append(
                        (
                            sign * c * scale,
                            m,
                            canonical(w_cre + g_cre),
                            canonical(w_ann + g_ann),
                        )
                    )
    return terms


def ref_terms(a, b, label, N, config=None):
    """Reference terms of w^{a,b}_label at truncation N."""
    if a == 0:
        factor = {COH_E: Fraction(1, abs(b)), COH_PT: Fraction(abs(b))}.get(
            label, Fraction(1)
        )
        mode = ((abs(b), label),)
        return [(factor, 0, mode, ()) if b < 0 else (factor, 0, (), mode)]
    if label == COH_E:
        return [(c / a, ch, cre, ann) for c, ch, cre, ann in ref_gamma_terms(a, b, N)]
    if label in (COH_SP, COH_SM):
        return ref_sigma_terms(a, b, label, N)
    return ref_pt_terms(a, b, N, config)


def ref_rows(terms, monos):
    """Integer rows over the lcm of the reduced reference denominators,
    term by term with fock_reference.annihilate and insert_creation (the
    contraction of an annihilation part is shared by its terms)."""
    denom = lcm(*(c.denominator for c, *_ in terms))
    by_part = {}
    for coeff, _, cre, ann in terms:
        scaled = coeff.numerator * (denom // coeff.denominator)
        by_part.setdefault(ann, []).append((cre, scaled))
    out = {}
    for mono in monos:
        row = {}
        for ann, entries in by_part.items():
            contracted = [(1, mono)]
            for k, label in reversed(ann):
                contracted = [
                    (c * f, m2) for c, m in contracted for f, m2 in annihilate(m, k, label)
                ]
            for cre, scaled in entries if contracted else ():
                cur = contracted
                for k, label in reversed(cre):
                    hits = [(c, insert_creation(m, k, label)) for c, m in cur]
                    cur = [(c * hit[0], hit[1]) for c, hit in hits if hit is not None]
                for c, m in cur:
                    row[m] = row.get(m, 0) + scaled * c
        out[mono] = {m: v for m, v in row.items() if v}
    return out


# ---------------------------------------------------------------------------

CONFIGS = [
    FockConfig(weight_field=w, derivative=d)
    for w in ("symplectic_fermion", "zero")
    for d in ("z_ddz", "ddz")
]
KINDS = [("E", COH_E, None), ("sigma+", COH_SP, None), ("sigma-", COH_SM, None)] + [
    (f"pt-{c.weight_field}-{c.derivative}", COH_PT, c) for c in CONFIGS
]
GRID = [(a, b) for a in range(-2, 3) for b in range(-3, 4) if (a, b) != (0, 0)]
# full action rows up to this truncation; above it, every eleventh monomial
ROWS_FULL_UP_TO = 3


@pytest.mark.parametrize("N", range(6))
@pytest.mark.parametrize("kind", KINDS, ids=[k[0] for k in KINDS])
def test_w_general_matches_fraction_reference(kind, N):
    _, label, config = kind
    basis = BasisIndex(N)
    indices = range(0, basis.size, 1 if N <= ROWS_FULL_UP_TO else 11)
    monos = [basis.monos[i] for i in indices]
    for a, b in GRID:
        if label == COH_PT and a == 0 and config != CONFIGS[0]:
            continue  # slope zero does not read the configuration
        op = w_general(a, b, label, N, config)
        want = ref_terms(a, b, label, N, config)
        where = f"w[{a},{b};{kind[0]}] at N={N}"
        got = [
            (Fraction(t.coeff, op.denom), t.charge_shift, t.creations, t.annihilations)
            for t in op.terms
        ]
        assert got == want, where
        assert all(type(t.coeff) is int for t in op.terms), where
        assert op.denom == lcm(*(c.denominator for c, *_ in want)), where
        table = RowTable(op, basis)
        got_rows = {basis.monos[i]: basis.monomials(table[i]) for i in indices}
        assert got_rows == ref_rows(want, monos), where


# ---------------------------------------------------------------------------
# the one-pass creation merge against the chain of single insertions


def insertion_chain(mono, part):
    """The creation modes of ``part`` applied one at a time, rightmost
    first, as fock_reference.apply does."""
    sign = 1
    for k, label in reversed(part):
        hit = insert_creation(mono, k, label)
        if hit is None:
            return None
        s, mono = hit
        sign *= s
    return sign, mono


MODES = st.tuples(st.integers(1, 3), st.sampled_from(range(4)))


def _no_repeated_odd(modes):
    out = []
    for mode in canonical(modes):
        if LABEL_PARITY[mode[1]] and mode in out:
            continue
        out.append(mode)
    return tuple(out)


MONOMIALS = st.lists(MODES, max_size=7).map(_no_repeated_odd)
PARTS = st.lists(MODES, max_size=5).map(canonical)


@given(MONOMIALS, PARTS)
@example(((2, COH_SP), (1, COH_SM)), ((1, COH_SP),))  # odd sign through one odd mode
@example(((2, COH_SP), (1, COH_SM)), ((1, COH_SM),))  # collides with the monomial
@example((), ((1, COH_SP), (1, COH_SP)))  # repeats within the part
@example(((1, COH_E),), ((1, COH_E), (1, COH_E)))  # even modes repeat freely
@example(((3, COH_SM), (2, COH_SP), (1, COH_SP)), ((3, COH_SP), (2, COH_SM), (1, COH_PT)))
@settings(max_examples=400, deadline=None)
def test_creation_merge_matches_insertion_chain(mono, part):
    assert creation_chain(mono, part) == insertion_chain(mono, part)


@given(PARTS, PARTS)
@example((), ((2, COH_E), (1, COH_PT)))
@example(((2, COH_SP),), ())
@example(((1, COH_E), (1, COH_E)), ((3, COH_PT), (1, COH_E), (1, COH_SM)))  # ties
@example(((3, COH_SM), (1, COH_PT)), ((3, COH_E), (3, COH_SP), (1, COH_SM)))
@settings(max_examples=400, deadline=None)
def test_linear_merge_matches_sort(few, mono):
    assert _merged(few, mono) == canonical(few + mono)
