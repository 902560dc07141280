import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall.lattices import (
    BilinearLattice,
    MukaiVector,
    hilbert_vector,
    mukai_pair,
    root_to_kclass,
    surface_lattice,
)
from ellwall.roots import EllipticRoot, build_elliptic
from ellwall.serialize import WALL_TYPES

from lattice_reference import frac_mukai_pair, frac_pair


def vec(ns, **parts):
    c1 = [Fraction(0)] * ns.rank
    for label, value in parts.items():
        c1[ns.labels.index(label)] = Fraction(value)
    return tuple(c1)


class TestHyperbolicPlane:
    ns = surface_lattice("A-1")

    def test_basis_pairings(self):
        E = MukaiVector(0, vec(self.ns, E=1), 0)
        P = MukaiVector(0, vec(self.ns, P=1), 0)
        assert mukai_pair(E, P, self.ns) == 1
        assert mukai_pair(E, E, self.ns) == 0
        assert mukai_pair(P, P, self.ns) == 0

    def test_hilbert_self_pairing(self):
        for n in range(1, 8):
            v = hilbert_vector(n, self.ns)
            assert mukai_pair(v, v, self.ns) == 2 * n

    def test_dimension_mismatch(self):
        other = surface_lattice("D4")
        v10 = MukaiVector(0, (Fraction(0),) * 10, 0)
        with pytest.raises(ValueError):
            mukai_pair(v10, hilbert_vector(1, self.ns), self.ns)


@pytest.mark.parametrize("tname,rank", [("A-1", 2), ("D4", 10), ("E6", 10), ("E7", 10), ("E8", 10)])
def test_surface_lattice_ranks(tname, rank):
    assert surface_lattice(tname).rank == rank


@pytest.mark.parametrize("tname", ["A0", "A1", "A2", "G2", "F4"])
def test_no_surface_model(tname):
    with pytest.raises(ValueError):
        surface_lattice(tname)


def test_i19_gram_corner():
    ns = surface_lattice("E7")
    th, e = ns.basis_vector("Theta"), ns.basis_vector("E")
    assert ns.pair(th, th) == -1
    assert ns.pair(th, e) == 1
    assert ns.pair(e, e) == 0
    c1 = ns.basis_vector("C1")
    assert ns.pair(c1, c1) == -2
    assert ns.pair(c1, e) == 0
    assert ns.pair(c1, th) == 0


def test_half_integer_point_part():
    with pytest.raises(ValueError):
        MukaiVector(1, (Fraction(0), Fraction(0)), Fraction(1, 3))
    assert MukaiVector(1, (0, 0), Fraction(3, 2)).ch2 == Fraction(3, 2)


def test_integral_divisor_class():
    with pytest.raises(ValueError):
        MukaiVector(0, (Fraction(1, 2), Fraction(0)), 0)
    v = MukaiVector(0, (Fraction(3), -2), Fraction(-4, 2))
    assert v.c1 == (3, -2) and all(type(c) is int for c in v.c1)
    assert v.twice_ch2 == -4 and v.ch2 == -2


INTS = st.integers(min_value=-6, max_value=6)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(WALL_TYPES), st.data())
def test_pair_matches_reference(tname, data):
    ns = surface_lattice(tname)
    vecs = st.lists(INTS, min_size=ns.rank, max_size=ns.rank)
    u, v = data.draw(vecs), data.draw(vecs)
    got = ns.pair(u, v)
    assert type(got) is int
    assert got == frac_pair(ns.gram, u, v)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(WALL_TYPES), st.data())
def test_mukai_pair_matches_reference(tname, data):
    ns = surface_lattice(tname)
    triple = st.tuples(
        INTS,
        st.lists(INTS, min_size=ns.rank, max_size=ns.rank),
        st.builds(Fraction, st.integers(min_value=-13, max_value=13), st.sampled_from([1, 2])),
    )
    v, w = data.draw(triple), data.draw(triple)
    got = mukai_pair(MukaiVector(*v), MukaiVector(*w), ns)
    assert got == frac_mukai_pair(v, w, ns.gram)


def test_mukai_pair_symmetric_bilinear_random():
    ns = surface_lattice("D4")
    rng = random.Random(7)

    def rand_vec():
        return MukaiVector(
            rng.randint(-5, 5),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(ns.rank)),
            Fraction(rng.randint(-10, 10), 2),
        )

    for _ in range(10_000):
        v, w = rand_vec(), rand_vec()
        assert mukai_pair(v, w, ns) == mukai_pair(w, v, ns)
    # bilinearity spot-checked on a smaller sweep (addition of MukaiVectors
    # done componentwise by hand)
    for _ in range(500):
        v, w, u = rand_vec(), rand_vec(), rand_vec()
        vw = MukaiVector(
            v.rank + w.rank,
            tuple(a + b for a, b in zip(v.c1, w.c1)),
            v.ch2 + w.ch2,
        )
        assert mukai_pair(vw, u, ns) == mukai_pair(v, u, ns) + mukai_pair(w, u, ns)


class TestRootToKClass:
    def test_delta_images(self):
        ns = surface_lattice("A-1")
        d_pt = root_to_kclass(EllipticRoot((), 1, 0), "A-1")
        d_e = root_to_kclass(EllipticRoot((), 0, 1), "A-1")
        assert d_pt == MukaiVector(0, vec(ns, E=0), 1)
        assert d_e == MukaiVector(0, vec(ns, E=1), 0)

    def test_d4_simple_plus_deltas(self):
        ns = surface_lattice("D4")
        beta = EllipticRoot((1, 0, 0, 0), 1, 1)
        kc = root_to_kclass(beta, "D4")
        assert kc.rank == 0
        assert kc.ch2 == 1
        assert kc.c1 == vec(ns, C1=1, E=1)

    def test_rejects_non_roots(self):
        with pytest.raises(ValueError):
            root_to_kclass(EllipticRoot((2, 0, 0, 0), 0, 0), "D4")
        with pytest.raises(ValueError):
            root_to_kclass(EllipticRoot((), 0, 0), "A-1")

    @pytest.mark.parametrize("tname", ["A-1", "D4", "E6"])
    def test_injective_on_box(self, tname):
        system = build_elliptic(tname)
        images = set()
        count = 0
        for beta in system.roots_in_box(10, 10, finite_height_max=2):
            kc = root_to_kclass(beta, tname)
            images.add((kc.rank, kc.c1, kc.ch2))
            count += 1
        assert len(images) == count

    def test_pairing_with_hilbert_vector_r_free(self):
        # <kclass(r*dE + s*dpt), (1,0,-n)> must be linear in (r,s) with
        # zero coefficient on r, since E pairs to zero with everything
        # in the c1-slot of (1,0,-n)
        ns = surface_lattice("A-1")
        for n in (1, 3, 7):
            v = hilbert_vector(n, ns)
            for r in range(-6, 7):
                for s in range(-6, 7):
                    if (r, s) == (0, 0):
                        continue
                    beta = EllipticRoot((), s, r)  # m=s point-coeff, n=r fiber
                    val = mukai_pair(root_to_kclass(beta, "A-1"), v, ns)
                    assert val == -s


def test_lattice_validation():
    with pytest.raises(ValueError):
        BilinearLattice(("a", "a"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        BilinearLattice(("a", "b"), ((0, 1), (2, 0)))


def test_json_shapes():
    ns = surface_lattice("A-1")
    v = hilbert_vector(2, ns).to_json_dict()
    assert v == {"rank": 1, "c1": ["0", "0"], "ch2": "-2"}
