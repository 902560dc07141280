"""Wall enumeration, loci, nef-class evaluation, chamber structure."""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall import verify
from ellwall import walls as walls_module
from ellwall.lattices import (
    MukaiVector,
    hilbert_vector,
    mukai_pair,
    root_to_kclass,
    surface_lattice,
)
from ellwall.roots import EllipticRoot, build_elliptic
from ellwall.walls import (
    SVG_MARGIN,
    SVG_WALL_COLOR,
    SVG_WIDTH,
    ChamberDecomposition,
    TriPoly,
    UnsupportedTypeError,
    WallChart,
    central_charge_sym,
    emit_chamber_svg,
    phase_equal_locus,
)

from lattice_reference import FracTriPoly, rational_terms, secant_root, to_tripoly, value

NS = surface_lattice("A-1")


def ratio(x) -> tuple[int, int]:
    """A scalar as the (numerator, denominator) pair secant_root reads."""
    x = Fraction(x)
    return x.numerator, x.denominator
ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def phase_equal_locus_printed(r, s, n):
    """The closed-form wall equation as usually quoted for the rank-0 type:
    s*d + b*c*s - r*b*c^2 - 2*c*d*r + b*r + n*r.  Agrees with the derived
    locus exactly when r = 0; the general-r discrepancy is
    2*r*(c*d - n - b), twice the real part of the charge of v."""
    b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
    return s * d + b * c * s - r * (b * (c * c)) - 2 * (c * d) * r + b * r + TriPoly.const(n * r)


def bayer_macri_class(H, B, v, ns):
    """The numerical divisor class of the stability condition at (H, B)
    for v = (1, 0, -n): (B.H, -n B.H, -(B.H) B + (-n + (B^2 - H^2)/2) H)."""
    n = -v.ch2
    bh = ns.pair(B, H)
    coef = -n + (ns.pair(B, B) - ns.pair(H, H)) / 2
    c_part = tuple(-bh * Fraction(x) + coef * Fraction(y) for x, y in zip(B, H))
    return (bh, -n * bh, c_part)

# wall counts for n = 1..12, frozen from the primitive-pair count
# 1 + sum_{q=2}^{n} phi(q)
EXPECTED_WALL_COUNTS = [1, 2, 4, 6, 10, 12, 18, 22, 28, 32, 42, 46]

RATIONALS = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=15)
)


def brute_force_wall_pairs(n):
    """Independent oracle: scan a root box, normalize sign pairs, apply the
    section-twisted depth bound via the lattice pairing, dedup."""
    v = hilbert_vector(n, NS)
    found = set()
    bound = n + 2
    for m in range(-bound, bound + 1):
        for nf in range(-bound, bound + 1):
            if (m, nf) == (0, 0):
                continue
            # normalized representative of the sign pair
            if m < 0 or (m == 0 and nf < 0):
                m2, nf2 = -m, -nf
            else:
                m2, nf2 = m, nf
            if m2 < 1 or nf2 < 0 or math.gcd(m2, nf2) != 1:
                continue
            kc = root_to_kclass(EllipticRoot((), m2, nf2), "A-1")
            # twist by the section: ch2 gains c1 . P
            p_vec = NS.basis_vector("P")
            twisted = MukaiVector(kc.rank, kc.c1, kc.ch2 + NS.pair(kc.c1, p_vec))
            depth = abs(mukai_pair(twisted, v, NS))
            if depth <= n:
                found.add((nf2, m2))  # (r, s) = (fiber, point)
    return found


class TestWallEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_brute_force_oracle(self, n):
        walls = WallChart("A-1").walls(n)
        got = {(w.root.n, w.root.m) for w in walls}
        assert got == brute_force_wall_pairs(n)

    def test_criterion_oracle_equals_the_per_n_box_scan(self):
        # c06's oracle scans the largest box once and filters it per n
        sets = verify._brute_force_wall_sets(14, NS)
        assert sets == [brute_force_wall_pairs(n) for n in range(1, 15)]
        assert verify._brute_force_wall_sets(5, NS) == sets[:5]
        assert verify._brute_force_wall_sets(0, NS) == []

    def test_frozen_counts(self):
        for n, expected in zip(range(1, 13), EXPECTED_WALL_COUNTS):
            walls = WallChart("A-1").walls(n)
            assert len(walls) == expected, f"n={n}"

    def test_monotone_in_n(self):
        prev = set()
        for n in range(1, 13):
            cur = {
                (w.root.n, w.root.m)
                for w in WallChart("A-1").walls(n)
            }
            assert prev <= cur
            prev = cur

    def test_point_contraction_wall_always_present(self):
        for n in (1, 2, 5):
            walls = WallChart("A-1").walls(n)
            assert walls[0].root == EllipticRoot((), 1, 0)
            assert walls[0].level1_pos == 0

    def test_positions_strictly_increasing(self):
        walls = WallChart("A-1").walls(8)
        pos = [w.level1_pos for w in walls]
        assert all(a < b for a, b in zip(pos, pos[1:]))

    def test_rays_primitive_and_nonzero(self):
        for w in WallChart("A-1").walls(6):
            y, x = w.n1_ray
            assert (y, x) != (0, 0)
            assert math.gcd(y, x) == 1

    def test_wild_types_rejected(self):
        for t in ("A0", "A1", "A2"):
            with pytest.raises(UnsupportedTypeError):
                WallChart(t)
        for t in ("G2", "F4"):
            with pytest.raises(UnsupportedTypeError):
                WallChart(t)


class TestGeneralTypeWalls:
    def test_d4_count_n2(self):
        walls = WallChart("D4").walls(2)
        # layers (point, fiber): (0,0) positive roots 12; (0,1), (0,2)
        # all 24 finite roots each; (1,0), (1,1), (2,0) add the pure
        # imaginary class: 25 each
        assert len(walls) == 12 + 24 * 2 + 25 * 3

    def test_d4_contains_simple_roots_at_low_layers(self):
        system = build_elliptic("D4")
        walls = WallChart("D4").walls(2)
        roots = {w.root for w in walls}
        for i in range(system.rank):
            for m in (0, 1, 2):
                assert system.simple_root(i, m=m) in roots

    def test_depth_bound_respected(self):
        for w in WallChart("E6").walls(3):
            assert 0 <= w.root.m + w.root.n <= 3

    def test_layer_zero_walls_have_no_ray(self):
        for w in WallChart("D4").walls(2):
            if w.root.m == 0 and w.root.n == 0:
                assert w.n1_ray is None and w.level1_pos is None
            else:
                assert w.n1_ray is not None


class TestComposedLoci:
    """Each wall's locus is composed from the loci between the coordinate
    Mukai vectors; it must equal the direct expansion of both charges."""

    CASES = [("A-1", n) for n in range(1, 13)] + [
        (t, n) for t in ("D4", "E6", "E8") for n in (1, 2)
    ]

    @pytest.mark.parametrize("type_name,n", CASES)
    def test_locus_equals_direct_expansion(self, type_name, n):
        ns = surface_lattice(type_name)
        v = hilbert_vector(n, ns)
        charge_v = central_charge_sym(v, ns)
        walls = WallChart(type_name).walls(n)
        assert walls
        for spec in walls:
            assert spec.locus == phase_equal_locus(
                charge_v, central_charge_sym(spec.kclass, ns)
            )

    @pytest.mark.parametrize("type_name,n", [("A-1", 12), ("D4", 2), ("E8", 3)])
    def test_charge_expanded_per_coordinate_not_per_wall(
        self, monkeypatch, type_name, n
    ):
        ns = surface_lattice(type_name)
        calls = []
        expand = walls_module.central_charge_sym

        def counted(x, lattice):
            calls.append(x)
            return expand(x, lattice)

        monkeypatch.setattr(walls_module, "central_charge_sym", counted)
        walls = WallChart(type_name).walls(n)
        # (1, 0, 0), (0, e_i, 0) per basis label and (0, 0, 1/2); not v itself
        assert len(calls) == ns.rank + 2
        assert len(calls) < len(walls)

    def test_criterion_expands_each_unit_charge_once_per_run(self, monkeypatch):
        # c06 reads one chart for n = 1..12: the rank + 2 unit charges, and
        # neither v's charge nor a unit charge per point count
        calls = []
        expand = walls_module.central_charge_sym

        def counted(x, lattice):
            calls.append(x)
            return expand(x, lattice)

        monkeypatch.setattr(walls_module, "central_charge_sym", counted)
        assert verify.check_wall_sets(12)["pass"] is True
        assert len(calls) == NS.rank + 2
        assert {(x.rank, x.c1, x.twice_ch2) for x in calls} == {
            (1, (0, 0), 0), (0, (1, 0), 0), (0, (0, 1), 0), (0, (0, 0), 1)
        }


class TestLoci:
    def test_point_contraction_locus(self):
        # (r, s) = (0, 1): locus d + b*c for every n
        for n in (1, 2, 7):
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), 1, 0), "A-1")
            locus = phase_equal_locus(central_charge_sym(v, NS), central_charge_sym(kc, NS))
            b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
            assert locus == d + b * c

    def test_generic_locus_closed_form(self):
        # s*d + s*b*c - r*(n + b + b*c^2) for the (r, s) wall
        b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
        for n, r, s in [(3, 0, 2), (2, 1, 1), (5, 2, 3), (4, 3, 1)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, r), "A-1")
            locus = phase_equal_locus(central_charge_sym(v, NS), central_charge_sym(kc, NS))
            expected = s * d + s * b * c - r * (TriPoly.const(n) + b + b * c * c)
            assert locus == expected

    def test_printed_equation_agrees_iff_section_free(self):
        b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
        for n, s in [(2, 1), (4, 3)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, 0), "A-1")
            derived = phase_equal_locus(central_charge_sym(v, NS), central_charge_sym(kc, NS))
            assert derived == phase_equal_locus_printed(0, s, n)
        # for r != 0 the two differ by twice r times the real part of Z(v)
        for n, r, s in [(2, 1, 1), (5, 2, 3)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, r), "A-1")
            derived = phase_equal_locus(central_charge_sym(v, NS), central_charge_sym(kc, NS))
            printed = phase_equal_locus_printed(r, s, n)
            re_v = c * d - TriPoly.const(n) - b
            assert printed == derived - 2 * r * re_v
            assert printed != derived

    def test_central_charge_values(self):
        v = hilbert_vector(3, NS)
        re, im = central_charge_sym(v, NS)
        assert value(re, 1, 2, 5) == 2 * 5 - 3 - 1
        assert value(im, 1, 2, 5) == -(5 + 1 * 2)

    def test_sign_flip_across_locus(self):
        rng = random.Random(5)
        v = hilbert_vector(4, NS)
        walls = WallChart("A-1").walls(4)
        re_v, im_v = central_charge_sym(v, NS)
        for spec in walls:
            re_w, im_w = central_charge_sym(spec.kclass, NS)
            cross = im_w * re_v - re_w * im_v
            for _ in range(5):
                b = Fraction(rng.randint(1, 40), rng.randint(1, 9))
                c = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                # locus is linear in d with nonzero coefficient: solve for d0
                lin = spec.locus
                coef = value(lin, b, c, 1) - value(lin, b, c, 0)
                assert coef != 0
                d0 = -value(lin, b, c, 0) / coef
                eps = Fraction(1, 97)
                left = value(cross, b, c, d0 - eps)
                right = value(cross, b, c, d0 + eps)
                assert left != 0 and right != 0
                assert (left > 0) != (right > 0)

    @pytest.mark.parametrize("type_name,n_max", [("A-1", 6), ("D4", 2)])
    def test_pointwise_cross_is_the_scaled_symbolic_cross(self, type_name, n_max):
        """c07's integer charges (``verify._phase_cross``) give the scale
        2 qb^3 (qc qd)^3 times Im Z(w) Re Z(v) - Re Z(w) Im Z(v) of the
        symbolic charges, value for value, on every wall; b, c and d go in
        as unreduced numerators and denominators, as c07 passes them."""
        ns = surface_lattice(type_name)
        svec = ns.basis_vector("P" if "P" in ns.labels else "Theta")
        evec = ns.basis_vector("E")
        form = (ns.pair(svec, svec), ns.pair(svec, evec), ns.pair(evec, evec))

        def coords(x):
            return x.rank, x.twice_ch2, ns.pair(svec, x.c1), ns.pair(evec, x.c1)

        rng = random.Random(11)
        for n in range(1, n_max + 1):
            v = hilbert_vector(n, ns)
            re_v, im_v = central_charge_sym(v, ns)
            for spec in WallChart(type_name).walls(n):
                re_w, im_w = central_charge_sym(spec.kclass, ns)
                cross = im_w * re_v - re_w * im_v
                for _ in range(5):
                    b = rng.randint(-40, 40), rng.randint(1, 9)
                    c = rng.randint(-30, 30), rng.randint(1, 9)
                    k = rng.randint(1, 4)
                    pd, qd = k * rng.randint(-60, 60), k * rng.randint(1, 97)
                    scale = 2 * b[1] ** 3 * (c[1] * qd) ** 3
                    got = verify._phase_cross(
                        form, coords(v), coords(spec.kclass), b, c, pd, qd
                    )
                    point = (Fraction(*b), Fraction(*c), Fraction(pd, qd))
                    assert got == scale * value(cross, *point)

    def test_integer_root_is_the_reference_secant_root(self):
        """c07's root for every wall with n <= 6, at seeded points drawn
        as c07 draws them (unreduced pairs) and at integer points, is the
        secant root of two Fraction evaluations."""
        rng = random.Random(29)
        for n in range(1, 7):
            for spec in WallChart("A-1").walls(n):
                for _ in range(10):
                    b = rng.randint(1, 40), rng.randint(1, 9)
                    c = rng.randint(-30, 30), rng.randint(1, 9)
                    got = spec.locus.secant_root(b, c)
                    assert got is not None
                    assert got == secant_root(spec.locus, Fraction(*b), Fraction(*c))
                assert spec.locus.secant_root((3, 1), (-2, 1)) == secant_root(
                    spec.locus, 3, -2
                )


class TestTriPoly:
    def test_arith_and_eval(self):
        b, c, d = (TriPoly.var(v) for v in "bcd")
        p = (b + 2 * c) * (d - 3)
        assert value(p, 1, 2, 5) == (1 + 4) * (5 - 3)
        assert p - p == 0

    def test_str_golden(self):
        b, c, d = (TriPoly.var(v) for v in "bcd")
        p = d + b * c - b * c * c - b + TriPoly.const(-2)
        assert str(p) == "-2 + d - b + b*c - b*c^2"

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), RATIONALS, max_size=8
        ),
        RATIONALS,
        RATIONALS,
    )
    def test_secant_root_matches_the_reference_secant(self, terms, b, c):
        p = to_tripoly(terms)
        root = p.secant_root(ratio(b), ratio(c))
        assert root is None or type(root) is Fraction
        assert root == secant_root(p, b, c)
        # a positive common factor of a pair leaves the root as it is
        (pb, qb), (pc, qc) = ratio(b), ratio(c)
        assert p.secant_root((6 * pb, 6 * qb), (5 * pc, 5 * qc)) == root
        assert p.secant_root((b.numerator, 1), (c.numerator, 1)) == secant_root(
            p, b.numerator, c.numerator
        )

    def test_secant_root_of_a_polynomial_flat_in_d(self):
        b, c, d = (TriPoly.var(v) for v in "bcd")
        assert TriPoly().secant_root((-3, 4), (2, 1)) is None
        assert (b * c + 7).secant_root((1, 1), (2, 1)) is None
        # d terms that cancel at (b, c) = (1, 1): the secant is flat there
        assert (d * (b - c) + 1).secant_root((1, 1), (1, 1)) is None
        assert (d * (b - c) + 1).secant_root((2, 1), (1, 1)) == -1
        assert (d * d + d - 6).secant_root((1, 2), (5, 1)) == 3


POLY_TERMS = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3), RATIONALS, max_size=6
)
SCALARS = st.one_of(st.integers(min_value=-20, max_value=20), RATIONALS)


def assert_matches(got, want):
    """The integer polynomial has the reference's coefficients and text,
    in lowest terms over a positive denominator."""
    assert isinstance(got, TriPoly)
    assert rational_terms(got) == want.terms
    assert str(got) == str(want)
    assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
    assert all(got.nums.values())


class TestTriPolyReference:
    """Integer TriPoly against the Fraction reference model."""

    @settings(max_examples=150, deadline=None)
    @given(POLY_TERMS, POLY_TERMS)
    def test_binary_ops(self, p_terms, q_terms):
        p, q = to_tripoly(p_terms), to_tripoly(q_terms)
        fp, fq = FracTriPoly(p_terms), FracTriPoly(q_terms)
        assert_matches(p + q, fp + fq)
        assert_matches(p - q, fp - fq)
        assert_matches(p * q, fp * fq)
        assert_matches(-p, -fp)

    @settings(max_examples=150, deadline=None)
    @given(POLY_TERMS, SCALARS)
    def test_scalar_ops(self, p_terms, x):
        p, fp = to_tripoly(p_terms), FracTriPoly(p_terms)
        assert_matches(p + x, fp + x)
        assert_matches(x + p, x + fp)
        assert_matches(p - x, fp - x)
        # no __rsub__: a scalar on the left is lifted to a polynomial first
        assert_matches(TriPoly.const(x) - p, x - fp)
        assert_matches(p * x, fp * x)
        assert_matches(x * p, x * fp)
        assert_matches(TriPoly.const(x), FracTriPoly.const(x))

    @settings(max_examples=150, deadline=None)
    @given(POLY_TERMS, POLY_TERMS, SCALARS)
    def test_equality(self, p_terms, q_terms, x):
        p, q = to_tripoly(p_terms), to_tripoly(q_terms)
        fp, fq = FracTriPoly(p_terms), FracTriPoly(q_terms)
        assert (p == q) == (fp == fq)
        assert (p == x) == (fp == x)
        # the same polynomial reached two ways is one representation
        same = (p + q) - q
        assert same == p and hash(same) == hash(p)
        assert (p * 6) / 6 == p
        assert p * x == x * p and hash(p * x) == hash(x * p)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            TriPoly.var("b") / 0

    def test_charge_and_loci_match_reference(self):
        # the wall loci built on integers equal the same products built on
        # the Fraction model from the same charge data
        fb, fc, fd = (FracTriPoly.var(v) for v in "bcd")
        for n in range(1, 7):
            v = hilbert_vector(n, NS)
            re_v, im_v = central_charge_sym(v, NS)
            assert_matches(re_v, fc * fd - n - fb)
            assert_matches(im_v, -(fd + fb * fc))
            for spec in WallChart("A-1").walls(n):
                r, s = spec.root.n, spec.root.m
                want = s * fd + s * fb * fc - r * (FracTriPoly.const(n) + fb + fb * fc * fc)
                assert_matches(spec.locus, want)


POINTS = st.tuples(*[st.one_of(st.integers(min_value=-9, max_value=9), RATIONALS)] * 3)
# zero, and Fractions with negative numerators, on every draw
FIXED_POINTS = [(0, 0, 0), (Fraction(-7, 3), -2, Fraction(-1, 5))]


class TestEvaluationTableIsInvisible:
    """``secant_root`` keeps a term table on its polynomial; reusing it
    must give the reference root every time, and nothing else may see it."""

    @settings(max_examples=100, deadline=None)
    @given(POLY_TERMS, st.lists(POINTS, min_size=1, max_size=12), SCALARS)
    def test_repeated_evaluation_and_arithmetic(self, terms, points, x):
        p, fresh, ref = to_tripoly(terms), to_tripoly(terms), FracTriPoly(terms)
        for b, c, _ in [*FIXED_POINTS, *points, *FIXED_POINTS, *points]:
            root = p.secant_root(ratio(b), ratio(c))
            assert root is None or type(root) is Fraction
            p0, p1 = ref.evaluate(b, c, 0), ref.evaluate(b, c, 1)
            assert root == (None if p0 == p1 else p0 / (p0 - p1))
        assert p == fresh and hash(p) == hash(fresh)
        assert str(p) == str(fresh) and repr(p) == repr(fresh)
        q = to_tripoly({(1, 0, 2): Fraction(-3, 4), (0, 1, 0): 2})
        for got, want in [
            (p + q, fresh + q),
            (q - p, q - fresh),
            (p * q, fresh * q),
            (-p, -fresh),
            (p * x, fresh * x),
            (p / 3, fresh / 3),
        ]:
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
            for b, c, _ in points:
                assert got.secant_root(ratio(b), ratio(c)) == want.secant_root(
                    ratio(b), ratio(c)
                )


class TestNefClassEvaluation:
    def test_zero_twist_golden(self):
        v = hilbert_vector(3, NS)
        h = (Fraction(2), Fraction(1))  # section + 2 fiber in (E, P) order
        b0 = (Fraction(0), Fraction(0))
        r, s, cpart = bayer_macri_class(h, b0, v, NS)
        assert (r, s) == (0, 0)
        assert cpart == (Fraction(-10), Fraction(-5))

    @staticmethod
    def _pair_with_curve(curve, rank, c1, ch2):
        # Mukai-type pairing against rational (rank, c1, ch2); the nef class
        # need not be integral so it cannot be wrapped as a MukaiVector
        return NS.pair(curve.c1, c1) - curve.rank * ch2 - rank * curve.ch2

    def test_contracted_curve_pairings(self):
        # against the two extremal curve classes, the class built from the
        # chart parameters pairs to (n^2 - 1)(bc + d) and -(n + b + bc^2)
        rng = random.Random(12)
        n = 4
        v = hilbert_vector(n, NS)
        c1_curve = MukaiVector(n, (Fraction(0), Fraction(0)), Fraction(1))
        c2_curve = MukaiVector(0, (Fraction(1), Fraction(0)), Fraction(0))
        for _ in range(30):
            b = Fraction(rng.randint(1, 30), rng.randint(1, 7))
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            d = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            h = (b, Fraction(1))
            tw = (d, c)
            r_s, s_s, c_s = bayer_macri_class(h, tw, v, NS)
            assert self._pair_with_curve(c1_curve, r_s, c_s, s_s) == (n * n - 1) * (
                b * c + d
            )
            assert self._pair_with_curve(c2_curve, r_s, c_s, s_s) == -(
                n + b + b * c * c
            )

    def test_wall_position_from_curve_ratio(self):
        # on the (r, s) wall locus, the curve-pairing ratio is (1 - n^2) r/s
        n = 3
        v = hilbert_vector(n, NS)
        c1_curve = MukaiVector(n, (Fraction(0), Fraction(0)), Fraction(1))
        c2_curve = MukaiVector(0, (Fraction(1), Fraction(0)), Fraction(0))
        for spec in WallChart("A-1").walls(n):
            b, c = Fraction(3), Fraction(1, 2)
            coef = value(spec.locus, b, c, 1) - value(spec.locus, b, c, 0)
            d0 = -value(spec.locus, b, c, 0) / coef
            r_s, s_s, c_s = bayer_macri_class((b, Fraction(1)), (d0, c), v, NS)
            num = self._pair_with_curve(c1_curve, r_s, c_s, s_s)
            den = self._pair_with_curve(c2_curve, r_s, c_s, s_s)
            assert den != 0
            assert num / den == (1 - n * n) * spec.level1_pos


class TestChamberDecomposition:
    def test_chamber_count(self):
        for n in range(1, 9):
            dec = WallChart("A-1").decomposition(n)
            assert dec.chamber_count == len(dec.walls) + 1

    def test_interval_structure(self):
        dec = WallChart("A-1").decomposition(4)
        chambers = dec.chambers()
        assert chambers[0][0] is None and chambers[-1][1] is None
        inner = chambers[1:-1]
        for lo, hi in inner:
            assert lo < hi

    def test_degenerate_flag(self):
        assert WallChart("A-1").decomposition(1).degenerate
        assert not WallChart("A-1").decomposition(2).degenerate

    def test_other_types_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            WallChart("D4").decomposition(2)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            WallChart("A-1").decomposition(0)

    def test_json_shape(self):
        data = WallChart("A-1").decomposition(3).to_json_dict()
        assert set(data) == {"type", "n", "walls", "chambers", "degenerate", "assumptions"}
        assert data["chambers"] == len(data["walls"]) + 1
        first = data["walls"][0]
        assert set(first) == {"root", "kclass", "locus", "n1_ray", "level1_pos"}
        assert first["level1_pos"] == "0"


class TestSvg:
    def test_deterministic(self):
        dec = WallChart("A-1").decomposition(5)
        assert emit_chamber_svg(dec) == emit_chamber_svg(dec)

    def test_structure(self):
        dec = WallChart("A-1").decomposition(4)
        svg = emit_chamber_svg(dec)
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == len(dec.walls) + 1  # walls + axis
        assert svg.count("<path ") == len(dec.walls) + 1  # shaded chambers
        assert "n = 4" in svg

    @pytest.mark.parametrize("n", [*range(1, 13), 18])
    def test_walls_in_position_order(self, n):
        """A chart of the level-1 line: the walls stand left to right in
        position order, and each wall's x is the shared edge of the bands
        of its two chambers, the outer ones reaching the margins."""
        dec = WallChart("A-1").decomposition(n)
        svg = emit_chamber_svg(dec)
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == len(dec.walls) + 1  # walls + axis
        assert svg.count("<path ") == len(dec.walls) + 1  # shaded chambers
        assert f"n = {n}" in svg
        drawn = [
            int(x) for x in re.findall(rf'<line x1="(\d+)"[^>]*stroke="{SVG_WALL_COLOR}"', svg)
        ]
        xs = [x for _, x in sorted(zip((w.level1_pos for w in dec.walls), drawn))]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        bands = [
            (int(a), int(b)) for a, b in re.findall(r'<path d="M (\d+) \d+ H (\d+) ', svg)
        ]
        assert [a for a, _ in bands] == [SVG_MARGIN, *xs]
        assert [b for _, b in bands] == [*xs, SVG_WIDTH - SVG_MARGIN]

    def test_refuses_walls_that_share_an_x(self):
        # from n = 19 on, rounding puts walls 8/9 and 9/10 on one x
        with pytest.raises(ValueError, match=r"8/9 and 9/10 .* n = 19"):
            emit_chamber_svg(WallChart("A-1").decomposition(19))

    def test_golden_file(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "chambers_a-1_n4.svg"
        svg = emit_chamber_svg(WallChart("A-1").decomposition(4))
        assert svg == golden.read_text()


class TestWallGalleryScript:
    """``scripts/render_wall_gallery.py`` writes one SVG per point count
    and a CSV index of the wall and chamber counts, and refuses a point
    count or output directory it cannot use with a usage error."""

    @staticmethod
    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "render_wall_gallery.py"), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_gallery_up_to_four_points(self, tmp_path):
        done = self.run("--n-max", "4", "--outdir", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "chambers_n01.svg",
            "chambers_n02.svg",
            "chambers_n03.svg",
            "chambers_n04.svg",
            "index.csv",
        ]
        svg = (tmp_path / "chambers_n04.svg").read_text()
        assert svg == (DATA / "chambers_a-1_n4.svg").read_text()
        rows = [
            f"{n},{w},{w + 1},{n == 1}"
            for n, w in zip(range(1, 5), EXPECTED_WALL_COUNTS)
        ]
        assert (tmp_path / "index.csv").read_text().splitlines() == [
            "n,walls,chambers,degenerate",
            *rows,
        ]

    @staticmethod
    def assert_usage_error(done):
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, done.stderr
        assert not done.stdout

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_no_point_count_exits_two(self, tmp_path, n_max):
        self.assert_usage_error(self.run("--n-max", n_max, "--outdir", str(tmp_path / "g")))
        assert not (tmp_path / "g").exists()

    def test_outdir_that_is_a_file_exits_two(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        done = self.run("--n-max", "2", "--outdir", str(taken))
        self.assert_usage_error(done)
        assert f"cannot write {taken}" in done.stderr

    def test_point_count_past_the_chart_is_a_usage_error(self, tmp_path):
        outdir = tmp_path / "gallery"
        done = self.run("--n-max", "19", "--outdir", str(outdir))
        self.assert_usage_error(done)
        assert "n = 19" in done.stderr
        assert not outdir.exists()
