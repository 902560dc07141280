import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall.cyclotomic import Cyclotomic, cyclotomic_polynomial

# ---------------------------------------------------------------------------
# reference model: dense polynomials over Q as Fraction lists (low degree
# first, trailing zeros stripped), reduced mod Phi_k by long division
# ---------------------------------------------------------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return _trim(
        [
            Fraction(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)
        ]
    )


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    a = [Fraction(c) for c in a]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / Fraction(b[-1])
    while len(a) >= len(b) and _trim(list(a)):
        a = _trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = _trim(a)
    return _trim(q), _trim(list(a))


@lru_cache(maxsize=None)
def ref_cyclotomic(k):
    """Phi_k by long division of x^k - 1 by Phi_d for each proper divisor d."""
    num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod(num, ref_cyclotomic(d))
            assert not rem
    return tuple(num)


def test_cyclotomic_polynomials_small():
    # low-degree first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 12])
def test_zeta_has_order_k(k):
    z = Cyclotomic.zeta(k)
    acc = Cyclotomic(k, 1)
    for i in range(1, k):
        acc = acc * z
        if k > 1:
            assert acc != Cyclotomic(k, 1), f"zeta_{k}^{i} == 1"
    assert acc * z == Cyclotomic(k, 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_geometric_sum_vanishes(k):
    total = Cyclotomic(k, 0)
    for i in range(k):
        total = total + Cyclotomic.zeta(k, i)
    assert total.is_zero()


def test_rational_detection():
    z = Cyclotomic.zeta(4)
    assert (z * z).is_rational()
    assert z * z == -1
    assert not z.is_rational()


def test_inverse_golden():
    z = Cyclotomic.zeta(5)
    x = Cyclotomic(5, 1) + z  # nontrivial unit in Z[zeta_5]
    assert x * (-z - z * z * z) == Cyclotomic(5, 1)
    with pytest.raises(ZeroDivisionError):
        x / 0
    # no field division: only a rational divides a field element
    with pytest.raises(TypeError):
        x / x


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    # coefficients are exact: a float is refused, even 0.5, whose value is exact
    with pytest.raises(TypeError):
        Cyclotomic(3, [0.5, 0.1])
    with pytest.raises(TypeError):
        Cyclotomic(3, 0.5)


elements = st.builds(
    Cyclotomic,
    st.just(5),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
)


@settings(max_examples=60)
@given(elements, elements)
def test_field_axioms_q_zeta5(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_embedding_of_q_is_ring_hom(p, q):
    k = 6
    assert Cyclotomic(k, p) + Cyclotomic(k, q) == Cyclotomic(k, p + q)
    assert Cyclotomic(k, p) * Cyclotomic(k, q) == Cyclotomic(k, p * q)
    assert Cyclotomic(k, Fraction(p, 7)).is_rational()


# ---------------------------------------------------------------------------
# differential tests against the reference model
# ---------------------------------------------------------------------------


def ref_reduce(k, cs):
    phi = ref_cyclotomic(k)
    deg = len(phi) - 1
    _, rem = _poly_divmod(cs, phi)
    return tuple(rem) + (Fraction(0),) * (deg - len(rem))


def ref_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def ref_mul(k, a, b):
    return ref_reduce(k, _poly_mul(a, b))


def ref_str(cs):
    """The rendering of a coefficient tuple: a plain rational when only the
    constant term is nonzero, else the polynomial in z."""
    if all(c == 0 for c in cs[1:]):
        c = cs[0]
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mon = "z" if i == 1 else f"z^{i}"
            parts.append(mon if c == 1 else f"{c}*{mon}")
    return " + ".join(parts)


rationals = st.builds(
    Fraction, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12)
)
orders = st.integers(min_value=1, max_value=12)


@st.composite
def order_and_coeffs(draw, count=2):
    k = draw(orders)
    deg = len(cyclotomic_polynomial(k)) - 1
    # longer lists than deg Phi_k exercise the reduction in the constructor
    lists = [
        draw(st.lists(rationals, min_size=0, max_size=2 * deg + 2)) for _ in range(count)
    ]
    return k, lists


def check_matches(x, k, ref):
    assert x.k == k
    assert x.coeffs == ref
    assert str(x) == ref_str(ref)
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert x == Cyclotomic(k, list(ref))
    assert hash(x) == hash(Cyclotomic(k, list(ref)))


@settings(max_examples=150, deadline=None)
@given(order_and_coeffs())
def test_arithmetic_matches_reference(case):
    k, (ca, cb) = case
    a, b = Cyclotomic(k, ca), Cyclotomic(k, cb)
    ra, rb = ref_reduce(k, ca), ref_reduce(k, cb)
    check_matches(a, k, ra)
    check_matches(b, k, rb)
    check_matches(a + b, k, ref_add(ra, rb))
    check_matches(a - b, k, ref_add(ra, rb, -1))
    check_matches(-a, k, tuple(-x for x in ra))
    check_matches(a * b, k, ref_mul(k, ra, rb))


@settings(max_examples=150, deadline=None)
@given(order_and_coeffs(count=1), rationals, st.integers(min_value=-30, max_value=30))
def test_scalar_arithmetic_matches_reference(case, f, n):
    k, (ca,) = case
    a, ra = Cyclotomic(k, ca), ref_reduce(k, ca)
    for s in (f, n):
        rs = ref_reduce(k, [s])
        lifted = Cyclotomic(k, s)
        check_matches(a + lifted, k, ref_add(ra, rs))
        check_matches(lifted + a, k, ref_add(ra, rs))
        check_matches(a - lifted, k, ref_add(ra, rs, -1))
        check_matches(lifted - a, k, ref_add(rs, ra, -1))
        check_matches(a * lifted, k, ref_mul(k, ra, rs))
        check_matches(lifted * a, k, ref_mul(k, ra, rs))
        # a rational enters +, - and * only lifted to the field
        for op in (operator.add, operator.sub, operator.mul):
            for x, y in ((a, s), (s, a)):
                with pytest.raises(TypeError):
                    op(x, y)
        if s:
            check_matches(a / s, k, tuple(x / s for x in ra))
        else:
            with pytest.raises(ZeroDivisionError):
                a / s
        assert (Cyclotomic(k, s) == s) and hash(Cyclotomic(k, s)) == hash(Cyclotomic(k, [s, 0]))
        assert (a == s) == (ra == rs)


@settings(max_examples=100, deadline=None)
@given(orders, st.integers(min_value=-50, max_value=50))
def test_zeta_matches_reference(k, p):
    ref = ref_reduce(k, [0] * (p % k) + [1])
    check_matches(Cyclotomic.zeta(k, p), k, ref)
    assert Cyclotomic.zeta(k, p) == Cyclotomic.zeta(k, p + k)


@settings(max_examples=100, deadline=None)
@given(order_and_coeffs())
def test_equal_values_hash_equal(case):
    # the same residue written two ways: plus a multiple of Phi_k, and scaled
    k, (ca, extra) = case
    shifted = _poly_sub(ca, _poly_mul(extra, ref_cyclotomic(k)))
    a, b = Cyclotomic(k, ca), Cyclotomic(k, shifted)
    assert a == b and hash(a) == hash(b)
    six = Cyclotomic(k, 6)
    assert (a * six) / 6 == a and hash((a * six) / 6) == hash(a)


def test_cyclotomic_polynomials_match_reference():
    for k in range(1, 61):
        phi = cyclotomic_polynomial(k)
        assert phi == ref_cyclotomic(k), k
        assert all(type(c) is int for c in phi), k
        prod = [Fraction(1)]
        for d in range(1, k + 1):
            if k % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (k - 1) + [1], k


def ref_inverse(k, cs):
    """The inverse of a nonzero reduced residue in the reference model: the
    solution y of x * y = 1, a linear system over Q whose column j is
    x * zeta^j."""
    deg = len(cs)
    cols = [ref_mul(k, cs, [0] * j + [1]) for j in range(deg)]
    m = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
    for c in range(deg):
        p = next(i for i in range(c, deg) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(deg):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(row[-1] for row in m)


@pytest.mark.parametrize("k", range(1, 31))
def test_inverse_matches_reference(k):
    """The product of a value and its reference inverse is one, for every
    order up to 30 (the differential tests above draw k <= 12)."""
    rng = random.Random(k)
    deg = len(ref_cyclotomic(k)) - 1
    one = ref_reduce(k, [1])
    for _ in range(6):
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(deg)]
        cs[rng.randrange(deg)] = Fraction(rng.randint(1, 5), rng.randint(1, 6))
        x = Cyclotomic(k, cs)
        inv = Cyclotomic(k, list(ref_inverse(k, ref_reduce(k, cs))))
        check_matches(x * inv, k, one)
        check_matches(inv * x, k, one)


@pytest.mark.parametrize("k", range(1, 31))
def test_zeta_inverse_is_zeta_to_minus_power(k):
    for j in range(k):
        assert Cyclotomic.zeta(k, j) * Cyclotomic.zeta(k, -j) == Cyclotomic(k, 1)
