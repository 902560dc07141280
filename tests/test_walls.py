"""Wall enumeration, loci, nef-class evaluation, chamber structure."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall.lattices import (
    MukaiVector,
    hilbert_vector,
    mukai_pair,
    root_to_kclass,
    surface_lattice,
)
from ellwall.roots import EllipticRoot, build_elliptic
from ellwall.walls import (
    ChamberDecomposition,
    TriPoly,
    UnsupportedTypeError,
    central_charge_sym,
    chamber_decomposition,
    emit_chamber_svg,
    enumerate_v_walls,
    phase_equal_locus,
)

from lattice_reference import FracTriPoly, rational_terms, to_tripoly

NS = surface_lattice("A-1")


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
        walls = enumerate_v_walls(hilbert_vector(n, NS), "A-1")
        got = {(w.root.n, w.root.m) for w in walls}
        assert got == brute_force_wall_pairs(n)

    def test_frozen_counts(self):
        for n, expected in zip(range(1, 13), EXPECTED_WALL_COUNTS):
            walls = enumerate_v_walls(hilbert_vector(n, NS), "A-1")
            assert len(walls) == expected, f"n={n}"

    def test_monotone_in_n(self):
        prev = set()
        for n in range(1, 13):
            cur = {
                (w.root.n, w.root.m)
                for w in enumerate_v_walls(hilbert_vector(n, NS), "A-1")
            }
            assert prev <= cur
            prev = cur

    def test_point_contraction_wall_always_present(self):
        for n in (1, 2, 5):
            walls = enumerate_v_walls(hilbert_vector(n, NS), "A-1")
            assert walls[0].root == EllipticRoot((), 1, 0)
            assert walls[0].level1_pos == 0

    def test_positions_strictly_increasing(self):
        walls = enumerate_v_walls(hilbert_vector(8, NS), "A-1")
        pos = [w.level1_pos for w in walls]
        assert all(a < b for a, b in zip(pos, pos[1:]))

    def test_rays_primitive_and_nonzero(self):
        for w in enumerate_v_walls(hilbert_vector(6, NS), "A-1"):
            y, x = w.n1_ray
            assert (y, x) != (0, 0)
            assert math.gcd(y, x) == 1

    def test_wild_types_rejected(self):
        ns = surface_lattice("A-1")
        v = hilbert_vector(2, ns)
        for t in ("A0", "A1", "A2"):
            with pytest.raises(UnsupportedTypeError):
                enumerate_v_walls(v, t)
        for t in ("G2", "F4"):
            with pytest.raises(UnsupportedTypeError):
                enumerate_v_walls(v, t)

    def test_rejects_bad_vector_shape(self):
        bad = MukaiVector(2, (Fraction(0), Fraction(0)), Fraction(-3))
        with pytest.raises(ValueError):
            enumerate_v_walls(bad, "A-1")


class TestGeneralTypeWalls:
    def test_d4_count_n2(self):
        ns = surface_lattice("D4")
        walls = enumerate_v_walls(hilbert_vector(2, ns), "D4")
        # layers (point, fiber): (0,0) positive roots 12; (0,1), (0,2)
        # all 24 finite roots each; (1,0), (1,1), (2,0) add the pure
        # imaginary class: 25 each
        assert len(walls) == 12 + 24 * 2 + 25 * 3

    def test_d4_contains_simple_roots_at_low_layers(self):
        ns = surface_lattice("D4")
        system = build_elliptic("D4")
        walls = enumerate_v_walls(hilbert_vector(2, ns), "D4")
        roots = {w.root for w in walls}
        for i in range(system.rank):
            for m in (0, 1, 2):
                assert system.simple_root(i, m=m) in roots

    def test_depth_bound_respected(self):
        ns = surface_lattice("E6")
        for w in enumerate_v_walls(hilbert_vector(3, ns), "E6"):
            assert 0 <= w.root.m + w.root.n <= 3

    def test_layer_zero_walls_have_no_ray(self):
        ns = surface_lattice("D4")
        for w in enumerate_v_walls(hilbert_vector(2, ns), "D4"):
            if w.root.m == 0 and w.root.n == 0:
                assert w.n1_ray is None and w.level1_pos is None
            else:
                assert w.n1_ray is not None


class TestLoci:
    def test_point_contraction_locus(self):
        # (r, s) = (0, 1): locus d + b*c for every n
        for n in (1, 2, 7):
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), 1, 0), "A-1")
            locus = phase_equal_locus(central_charge_sym(v, NS), kc, NS)
            b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
            assert locus == d + b * c

    def test_generic_locus_closed_form(self):
        # s*d + s*b*c - r*(n + b + b*c^2) for the (r, s) wall
        b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
        for n, r, s in [(3, 0, 2), (2, 1, 1), (5, 2, 3), (4, 3, 1)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, r), "A-1")
            locus = phase_equal_locus(central_charge_sym(v, NS), kc, NS)
            expected = s * d + s * b * c - r * (TriPoly.const(n) + b + b * c * c)
            assert locus == expected

    def test_printed_equation_agrees_iff_section_free(self):
        b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
        for n, s in [(2, 1), (4, 3)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, 0), "A-1")
            assert phase_equal_locus(central_charge_sym(v, NS), kc, NS) == phase_equal_locus_printed(0, s, n)
        # for r != 0 the two differ by twice r times the real part of Z(v)
        for n, r, s in [(2, 1, 1), (5, 2, 3)]:
            v = hilbert_vector(n, NS)
            kc = root_to_kclass(EllipticRoot((), s, r), "A-1")
            derived = phase_equal_locus(central_charge_sym(v, NS), kc, NS)
            printed = phase_equal_locus_printed(r, s, n)
            re_v = c * d - TriPoly.const(n) - b
            assert printed == derived - 2 * r * re_v
            assert printed != derived

    def test_central_charge_values(self):
        v = hilbert_vector(3, NS)
        re, im = central_charge_sym(v, NS)
        assert re.evaluate(1, 2, 5) == 2 * 5 - 3 - 1
        assert im.evaluate(1, 2, 5) == -(5 + 1 * 2)

    def test_sign_flip_across_locus(self):
        rng = random.Random(5)
        v = hilbert_vector(4, NS)
        walls = enumerate_v_walls(v, "A-1")
        re_v, im_v = central_charge_sym(v, NS)
        for spec in walls:
            re_w, im_w = central_charge_sym(spec.kclass, NS)
            cross = im_w * re_v - re_w * im_v
            for _ in range(5):
                b = Fraction(rng.randint(1, 40), rng.randint(1, 9))
                c = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                # locus is linear in d with nonzero coefficient: solve for d0
                lin = spec.locus
                coef = lin.evaluate(b, c, 1) - lin.evaluate(b, c, 0)
                assert coef != 0
                d0 = -lin.evaluate(b, c, 0) / coef
                eps = Fraction(1, 97)
                left = cross.evaluate(b, c, d0 - eps)
                right = cross.evaluate(b, c, d0 + eps)
                assert left != 0 and right != 0
                assert (left > 0) != (right > 0)


class TestTriPoly:
    def test_arith_and_eval(self):
        b, c, d = (TriPoly.var(v) for v in "bcd")
        p = (b + 2 * c) * (d - 3)
        assert p.evaluate(1, 2, 5) == (1 + 4) * (5 - 3)
        assert (p - p).is_zero()

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
        RATIONALS,
    )
    def test_evaluate_matches_naive_sum(self, terms, b, c, d):
        p, naive = to_tripoly(terms), FracTriPoly(terms)
        value = p.evaluate(b, c, d)
        assert type(value) is Fraction
        assert value == naive.evaluate(b, c, d)
        ints = (b.numerator, c.numerator, d.numerator)
        assert p.evaluate(*ints) == naive.evaluate(*ints)

    def test_evaluate_empty_polynomial(self):
        assert TriPoly().evaluate(Fraction(-3, 4), 2, Fraction(5, 7)) == 0
        assert type(TriPoly().evaluate(1, 2, 3)) is Fraction


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
        assert_matches(x - p, x - fp)
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
            for spec in enumerate_v_walls(v, "A-1"):
                r, s = spec.root.n, spec.root.m
                want = s * fd + s * fb * fc - r * (FracTriPoly.const(n) + fb + fb * fc * fc)
                assert_matches(spec.locus, want)


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
        for spec in enumerate_v_walls(v, "A-1"):
            b, c = Fraction(3), Fraction(1, 2)
            coef = spec.locus.evaluate(b, c, 1) - spec.locus.evaluate(b, c, 0)
            d0 = -spec.locus.evaluate(b, c, 0) / coef
            r_s, s_s, c_s = bayer_macri_class((b, Fraction(1)), (d0, c), v, NS)
            num = self._pair_with_curve(c1_curve, r_s, c_s, s_s)
            den = self._pair_with_curve(c2_curve, r_s, c_s, s_s)
            assert den != 0
            assert num / den == (1 - n * n) * spec.level1_pos


class TestChamberDecomposition:
    def test_chamber_count(self):
        for n in range(1, 9):
            dec = chamber_decomposition(n)
            assert dec.chamber_count == len(dec.walls) + 1

    def test_interval_structure(self):
        dec = chamber_decomposition(4)
        chambers = dec.chambers()
        assert chambers[0][0] is None and chambers[-1][1] is None
        inner = chambers[1:-1]
        for lo, hi in inner:
            assert lo < hi

    def test_degenerate_flag(self):
        assert chamber_decomposition(1).degenerate
        assert not chamber_decomposition(2).degenerate

    def test_other_types_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            chamber_decomposition(2, "D4")

    def test_bad_n(self):
        with pytest.raises(ValueError):
            chamber_decomposition(0)

    def test_json_shape(self):
        data = chamber_decomposition(3).to_json_dict()
        assert set(data) == {"type", "n", "walls", "chambers", "degenerate", "assumptions"}
        assert data["chambers"] == len(data["walls"]) + 1
        first = data["walls"][0]
        assert set(first) == {"root", "kclass", "locus", "n1_ray", "level1_pos"}
        assert first["level1_pos"] == "0"


class TestSvg:
    def test_deterministic(self):
        dec = chamber_decomposition(5)
        assert emit_chamber_svg(dec) == emit_chamber_svg(dec)

    def test_structure(self):
        dec = chamber_decomposition(4)
        svg = emit_chamber_svg(dec)
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == len(dec.walls) + 1  # walls + axis
        assert svg.count("<path ") == len(dec.walls) + 1  # shaded chambers
        assert "n = 4" in svg

    def test_golden_file(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "chambers_a-1_n4.svg"
        svg = emit_chamber_svg(chamber_decomposition(4))
        assert svg == golden.read_text()
