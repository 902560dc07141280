import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from ellwall.roots import DELIGNE_TYPES, EllipticRoot, EllipticRootSystem, build_elliptic
from ellwall.weyl import (
    ExtendedElement,
    WeylElement,
    full_gram,
    identity_element,
    marking_stabilizer_generators,
    reflect,
    root_vector,
)


def apply_root(w, system, beta):
    """The image of a root under w: the matrix times its coordinates."""
    r = system.rank
    img = tuple(sum(map(mul, row, root_vector(beta))) for row in w.matrix)
    return EllipticRoot(img[:r], img[r], img[r + 1])


def delta1(system):
    return EllipticRoot((0,) * system.rank, 1, 0)


def delta2(system):
    return EllipticRoot((0,) * system.rank, 0, 1)


# ---------------------------------------------------------------------------
# translation parts: a reference reading of the structure of ``reflect``


def _solve_gram(system, rhs):
    """Solve G t = rhs on the finite part (G nondegenerate there)."""
    r = system.rank
    aug = [
        [Fraction(system.gram[i][j]) for j in range(r)] + [Fraction(rhs[i])]
        for i in range(r)
    ]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(aug[i][r] for i in range(r))


def is_translation(w, system):
    """True when the action on h and on the delta-plane is the identity,
    so only the two delta-valued functionals are nonzero."""
    r = system.rank
    ident = identity_element(system).matrix
    return all(w.matrix[i] == ident[i] for i in range(r)) and all(
        w.matrix[i][j] == ident[i][j] for i in (r, r + 1) for j in (r, r + 1)
    )


def translation_part(w, system):
    """The two translation vectors of a reflection-group element.

    Writing w(x) = u(x) + t_aff-functional(x) delta1 + t_ell-functional(x) delta2
    for x in h, the functionals are the delta-rows of the matrix; they are
    converted to vectors of h through the Gram form.  For pure translations
    (finite block the identity) these are the translation vectors of the two
    quotient descriptions; they add under composition of translations.
    """
    if not w.preserves_form(full_gram(system)):
        raise ValueError("element does not preserve the bilinear form")
    r = system.rank
    if r == 0:
        return ((), ())
    row_aff = [w.matrix[r][j] for j in range(r)]
    row_ell = [w.matrix[r + 1][j] for j in range(r)]
    return (_solve_gram(system, row_aff), _solve_gram(system, row_ell))


@pytest.fixture(scope="module")
def a1():
    return build_elliptic("A1")


@pytest.fixture(scope="module")
def d4():
    return build_elliptic("D4")


def test_reflection_is_involution(d4):
    for f in sorted(d4.finite_roots)[:8]:
        w = reflect(d4, EllipticRoot(f, 1, -1))
        assert w.compose(w).is_identity()


def negated(root: EllipticRoot) -> EllipticRoot:
    return EllipticRoot(tuple(-c for c in root.finite), -root.m, -root.n)


def test_reflection_negates_root(a1):
    alpha = a1.simple_root(0)
    w = reflect(a1, alpha)
    assert apply_root(w, a1, alpha) == negated(alpha)


def test_reflection_fixes_radical(a1, d4):
    for system in (a1, d4):
        w = reflect(system, system.simple_root(0, 1, 2))
        assert apply_root(w, system, delta1(system)) == delta1(system)
        assert apply_root(w, system, delta2(system)) == delta2(system)


def test_reflection_formula_golden(a1):
    # long-root reflection at a delta1-offset; the delta-coefficient sign is
    # forced by involutivity: w(w(alpha)) = alpha only for -alpha - 2 delta1
    alpha = a1.simple_root(0)
    w = reflect(a1, a1.simple_root(0, 1, 0))
    assert apply_root(w, a1, alpha) == EllipticRoot((-1,), -2, 0)
    assert apply_root(w, a1, EllipticRoot((-1,), -2, 0)) == alpha


def test_imaginary_root_rejected(a1):
    with pytest.raises(ValueError):
        reflect(a1, delta1(a1))


def test_gram_preserved_by_random_words(d4):
    gram = full_gram(d4)
    rng = random.Random(11)
    gens = [reflect(d4, d4.simple_root(i, dm, dn))
            for i in range(4) for (dm, dn) in ((0, 0), (1, 0), (0, 1))]
    for _ in range(40):
        w = identity_element(d4)
        for _ in range(rng.randint(1, 6)):
            w = w.compose(rng.choice(gens))
        assert w.preserves_form(gram)


def test_coxeter_relations():
    # (s_i s_j)^m_ij = 1 with m from the Cartan pairing
    for tname in ("A1", "A2", "D4"):
        system = build_elliptic(tname)
        gens = [reflect(system, system.simple_root(i)) for i in range(system.rank)]
        order_table = {0: 2, -1: 3, -2: 4, -3: 6}
        for i, j in itertools.combinations(range(system.rank), 2):
            m = order_table[system.cartan[i][j] * system.cartan[j][i] * -1
                            if system.cartan[i][j] else 0]
            prod = gens[i].compose(gens[j])
            acc = identity_element(system)
            for _ in range(m):
                acc = acc.compose(prod)
            assert acc.is_identity(), (tname, i, j, m)
        for g in gens:
            assert g.compose(g).is_identity()


def test_translation_part_of_composed_reflections(a1):
    # w_{alpha+delta1} o w_alpha is the basic affine translation by alpha
    alpha = a1.simple_root(0)
    w = reflect(a1, a1.simple_root(0, 1, 0)).compose(reflect(a1, alpha))
    assert is_translation(w, a1)
    t_aff, t_ell = translation_part(w, a1)
    assert t_aff == (Fraction(1),)  # = alpha in root coordinates
    assert t_ell == (Fraction(0),)
    # and the delta2-analogue translates in the other radical direction
    w2 = reflect(a1, a1.simple_root(0, 0, 1)).compose(reflect(a1, alpha))
    t_aff2, t_ell2 = translation_part(w2, a1)
    assert (t_aff2, t_ell2) == ((Fraction(0),), (Fraction(1),))


def test_translation_parts_add(a1):
    alpha = a1.simple_root(0)
    w = reflect(a1, a1.simple_root(0, 1, 0)).compose(reflect(a1, alpha))
    ww = w.compose(w)
    t_aff, _ = translation_part(ww, a1)
    assert t_aff == (Fraction(2),)


def test_translation_part_identity(d4):
    t_aff, t_ell = translation_part(identity_element(d4), d4)
    assert all(x == 0 for x in t_aff) and all(x == 0 for x in t_ell)


def test_reflection_image_in_affine_quotient_is_torsion(a1):
    # reflections map to order-2 elements in the quotient that forgets delta2
    w = reflect(a1, a1.simple_root(0, 3, 5))
    sq = w.compose(w)
    assert sq.is_identity()
    assert not is_translation(w, a1)


class TestMarkingStabilizer:
    def test_rank0_generators(self):
        system = build_elliptic("A-1")
        gens = marking_stabilizer_generators(system)
        assert len(gens) == 2
        shear, flip = gens
        assert shear.gl2_part == ((1, 1), (0, 1))
        assert flip.gl2_part == ((1, 0), (0, -1))
        for g in gens:
            assert g.stabilizes_marking()
            assert g.weyl_part.preserves_form(full_gram(system))

    def test_flip_squares_to_identity(self):
        system = build_elliptic("A-1")
        _, flip = marking_stabilizer_generators(system)
        assert flip.weyl_part.compose(flip.weyl_part).is_identity()

    def test_shear_has_infinite_order_unipotent_certificate(self):
        # eigenvalues of a triangular integer matrix are the diagonal, so a
        # root-of-unity test cannot distinguish anything here; instead use
        # that a nontrivial unipotent has T^m = I + m(T - I) != I for m != 0
        system = build_elliptic("A-1")
        shear, _ = marking_stabilizer_generators(system)
        t = shear.gl2_part
        nilp = ((t[0][0] - 1, t[0][1]), (t[1][0], t[1][1] - 1))
        assert nilp != ((0, 0), (0, 0))
        sq = (
            (
                nilp[0][0] * nilp[0][0] + nilp[0][1] * nilp[1][0],
                nilp[0][0] * nilp[0][1] + nilp[0][1] * nilp[1][1],
            ),
            (
                nilp[1][0] * nilp[0][0] + nilp[1][1] * nilp[1][0],
                nilp[1][0] * nilp[0][1] + nilp[1][1] * nilp[1][1],
            ),
        )
        assert sq == ((0, 0), (0, 0))

    def test_dihedral_relation(self):
        system = build_elliptic("A-1")
        shear, flip = marking_stabilizer_generators(system)
        # F T F^-1 = T^-1, i.e. (FT)^2 = id since F^2 = id
        ft = flip.weyl_part.compose(shear.weyl_part)
        assert ft.compose(ft).is_identity()

    def test_d4_generators(self):
        system = build_elliptic("D4")
        gens = marking_stabilizer_generators(system)
        assert len(gens) == 2
        gram = full_gram(system)
        for g in gens:
            assert g.weyl_part.preserves_form(gram)
            assert g.stabilizes_marking()

    def test_marking_line_invariance_on_roots(self):
        system = build_elliptic("D4")
        for g in marking_stabilizer_generators(system):
            img = apply_root(g.weyl_part, system, delta2(system))
            assert img.is_delta_only() and img.m == 0  # stays on the marking line

    def test_gl2_validation(self):
        with pytest.raises(ValueError):
            ExtendedElement(WeylElement(((Fraction(1),),)), ((2, 0), (0, 1)))


def test_root_set_preserved_on_box(d4):
    box = set(d4.roots_in_box(1, 1))
    w = reflect(d4, d4.simple_root(2, 1, 0)).compose(reflect(d4, d4.simple_root(1)))
    for beta in d4.roots_in_box(0, 0):
        img = apply_root(w, d4, beta)
        if abs(img.m) <= 1 and abs(img.n) <= 1:
            assert img in box


def test_serialization(a1):
    assert reflect(a1, a1.simple_root(0)).matrix[0][0] == -1
    assert root_vector(a1.simple_root(0, 1, 2)) == (1, 1, 2)


# Checks below raise through pytest.fail rather than assert, so that they
# still run under ``python -O``.


@pytest.mark.parametrize(
    "tname", [t for t in DELIGNE_TYPES if build_elliptic(t).rank > 0]
)
def test_reflections_are_integral_involutive_isometries(tname):
    system = build_elliptic(tname)
    gram = full_gram(system)
    ident = identity_element(system)
    for beta in system.roots_in_box(1, 1):
        if not system.is_real(beta):
            continue
        w = reflect(system, beta)
        if any(type(x) is not int for row in w.matrix for x in row):
            pytest.fail(f"{tname}: reflection through {beta} has non-int entries")
        if w.compose(w).matrix != ident.matrix:
            pytest.fail(f"{tname}: reflection through {beta} does not square to 1")
        if not w.preserves_form(gram):
            pytest.fail(f"{tname}: reflection through {beta} breaks the form")
        if apply_root(w, system, beta) != negated(beta):
            pytest.fail(f"{tname}: reflection through {beta} does not negate it")


def test_non_integral_reflection_coefficient_rejected():
    # an A2 system carrying a form with <a0,a0> = 4 and <a1,a0> = -1: the
    # coefficient 2<e_1,a0>/<a0,a0> = -1/2 is not a Cartan integer
    system = EllipticRootSystem("A2")
    system.gram = ((4, -1), (-1, 4))
    with pytest.raises(ValueError, match="not an integer"):
        reflect(system, system.simple_root(0))
