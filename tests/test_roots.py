import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall.roots import (
    DELIGNE_TYPES,
    EllipticRoot,
    build_elliptic,
    cartan_matrix,
    finite_gram,
)


def pairing(system, x, y):
    """Radical-degenerate pairing: the deltas pair to zero with everything."""
    return sum(
        xi * yj * system.gram[i][j]
        for i, xi in enumerate(x.finite)
        for j, yj in enumerate(y.finite)
    )


# reflection-closure counts, frozen independently (classical values)
FINITE_ROOT_COUNTS = {
    "A-1": 0,
    "A0": 0,
    "A1": 2,
    "A2": 6,
    "G2": 12,
    "D4": 24,
    "F4": 48,
    "E6": 72,
    "E7": 126,
    "E8": 240,
}


@pytest.mark.parametrize("tname", DELIGNE_TYPES)
def test_finite_root_counts(tname):
    assert len(build_elliptic(tname).finite_roots) == FINITE_ROOT_COUNTS[tname]


@pytest.mark.parametrize("tname", DELIGNE_TYPES)
def test_gram_symmetric_and_cartan_integral(tname):
    g = finite_gram(tname)
    c = cartan_matrix(tname)
    for i in range(len(g)):
        assert c[i][i] == 2
        for j in range(len(g)):
            assert g[i][j] == g[j][i]
            assert c[i][j] * g[j][j] == 2 * g[i][j]


def test_rank0_all_imaginary():
    sys_a = build_elliptic("A-1")
    assert sys_a.rank == 0
    beta = EllipticRoot((), 2, 3)
    assert sys_a.contains(beta)
    assert not sys_a.is_real(beta)
    assert not sys_a.contains(EllipticRoot((), 0, 0))


def test_box_count_rank0():
    # lattice points of the 3x3 box minus the origin
    roots = build_elliptic("A-1").roots_in_box(1, 1)
    assert len(roots) == 8
    assert all(b.is_delta_only() for b in roots)


def test_box_count_a1_finite_layer():
    roots = build_elliptic("A1").roots_in_box(0, 0, finite_height_max=1)
    assert {b.finite for b in roots} == {(1,), (-1,)}


def test_box_count_d4():
    # one delta-layer each side plus the central layer: 3*24 real, 2 imaginary
    roots = build_elliptic("D4").roots_in_box(1, 0)
    assert len(roots) == 3 * 24 + 2
    real = [b for b in roots if not b.is_delta_only()]
    assert len(real) == 72


def test_box_ordering_deterministic():
    sys_d = build_elliptic("D4")
    roots = sys_d.roots_in_box(1, 1, finite_height_max=1)
    assert roots == sorted(roots, key=lambda b: (b.m, b.n, b.finite))
    assert roots == sys_d.roots_in_box(1, 1, finite_height_max=1)


@pytest.mark.parametrize("tname", ["A1", "A2", "G2", "D4", "F4", "E6"])
def test_real_root_lengths_positive(tname):
    sys_t = build_elliptic(tname)
    lengths = set()
    for f in sys_t.finite_roots:
        beta = EllipticRoot(f, 0, 0)
        q = pairing(sys_t, beta, beta)
        assert q > 0
        lengths.add(q)
    if tname in ("A1", "A2", "D4", "E6"):
        assert lengths == {2}
    else:
        assert len(lengths) == 2  # two lengths for the non-simply-laced pair


@pytest.mark.parametrize("tname", ["A-1", "A2", "D4"])
def test_imaginary_roots_in_radical(tname):
    sys_t = build_elliptic(tname)
    for b in sys_t.roots_in_box(2, 2, finite_height_max=2):
        if not sys_t.is_real(b):
            assert pairing(sys_t, b, b) == 0
            for other in sys_t.roots_in_box(1, 1, finite_height_max=1):
                assert pairing(sys_t, b, other) == 0


@pytest.mark.parametrize("tname", ["A1", "D4", "E6"])
def test_negation_symmetry(tname):
    sys_t = build_elliptic(tname)
    box = sys_t.roots_in_box(1, 1, finite_height_max=3)
    as_set = set(box)
    assert {(-b) for b in as_set} == as_set


def test_affine_projection_layer_counts():
    # collapsing the marking direction: every affine image should appear
    # once per n-value in the box
    sys_d = build_elliptic("D4")
    box = sys_d.roots_in_box(1, 2)
    from collections import Counter

    per_affine = Counter((b.finite, b.m) for b in box)
    n_layers = 5  # n in [-2..2]
    for image, count in per_affine.items():
        finite, m = image
        if any(finite) or m != 0:
            assert count == n_layers
        else:
            assert count == n_layers - 1  # (m,n)=(0,0) excluded


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        build_elliptic("B2")


@settings(max_examples=50)
@given(
    st.sampled_from(["A1", "A2", "D4"]),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_delta_shifts_preserve_membership(tname, m, n):
    sys_t = build_elliptic(tname)
    for f in list(sys_t.finite_roots)[:6]:
        beta, base = EllipticRoot(f, m, n), EllipticRoot(f, 0, 0)
        assert sys_t.contains(beta)
        assert pairing(sys_t, beta, beta) == pairing(sys_t, base, base)
