import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall import localmodel
from ellwall.cyclotomic import Cyclotomic, cyclotomic_polynomial
from ellwall.localmodel import (
    _mat_mul,
    HH0_TABLE,
    BimoduleParam,
    hh0_audit,
    hh0_dim,
    jet_trace,
    matrix_rank,
    nilpotent_jordan_type,
    splits,
    tensor_table_rows,
    y_matrix,
)
from test_cyclotomic import ref_add, ref_mul, ref_reduce


def cyc_degree(k: int) -> int:
    return len(cyclotomic_polynomial(k)) - 1


def random_param(rng: random.Random, k: int) -> BimoduleParam:
    deg = cyc_degree(k)
    return BimoduleParam(
        k,
        tuple(
            Cyclotomic(k, [rng.randint(-3, 3) for _ in range(deg)])
            for _ in range(k)
        ),
    )


def forced_split_param(rng: random.Random, k: int, n: int) -> BimoduleParam:
    """Random parameter with the identity coefficient solved so the
    order-n jet trace vanishes."""
    tail = random_param(rng, k).a[1:]
    acc = Cyclotomic(k, 0)
    for g, coeff in enumerate(tail, start=1):
        for r in range(n + 1):
            acc = acc + coeff * Cyclotomic.zeta(k, (r * g) % k)
    a0 = -acc / (n + 1)
    return BimoduleParam(k, (a0,) + tail)


class TestHH0:
    def test_table(self):
        assert hh0_dim(1) == 2
        assert hh0_dim(2) == 6
        assert hh0_dim(3) == 8
        assert hh0_dim(4) == 9
        assert hh0_dim(6) == 10

    def test_unsupported_order(self):
        for bad in (0, 5, 7, -2):
            with pytest.raises(ValueError, match=f"no elliptic symmetry of order {bad};"):
                hh0_dim(bad)
        with pytest.raises(ValueError, match="no elliptic symmetry of order 5;"):
            hh0_audit(5)

    def test_summand_breakdown(self):
        assert hh0_audit(1)["naive_summands"] == [2]
        assert hh0_audit(2)["naive_summands"] == [2, 4]
        assert hh0_audit(3)["naive_summands"] == [2, 3, 3]
        assert hh0_audit(4)["naive_summands"] == [2, 2, 4, 2]
        assert hh0_audit(6)["naive_summands"] == [2, 1, 3, 4, 3, 1]

    def test_audit_orbit_total_matches_table(self):
        for k, expected in HH0_TABLE.items():
            aud = hh0_audit(k)
            assert aud["orbit_total"] == expected == aud["table_value"]

    def test_naive_total_overcounts_orders_4_and_6(self):
        assert hh0_audit(2)["naive_total"] == 6
        assert hh0_audit(3)["naive_total"] == 8
        assert hh0_audit(4)["naive_total"] == 10  # table says 9
        assert hh0_audit(6)["naive_total"] == 14  # table says 10

    def test_orbit_summands(self):
        assert hh0_audit(4)["orbit_summands"] == [2, 2, 3, 2]
        assert hh0_audit(6)["orbit_summands"] == [2, 1, 2, 2, 2, 1]

    def test_lookup_is_fast(self):
        start = time.perf_counter()
        for _ in range(1000):
            hh0_dim(4)
        assert time.perf_counter() - start < 0.1


class TestCharValues:
    def test_identity_indicator(self):
        p = BimoduleParam.make(4, [1, 0, 0, 0])
        assert p.chars == (Cyclotomic(4, 1),) * 4

    def test_order_two_generator(self):
        p = BimoduleParam.make(2, [0, 1])
        assert p.chars == (Cyclotomic(2, 1), Cyclotomic(2, -1))

    def test_order_three_generator_against_cyclotomic_oracle(self):
        p = BimoduleParam.make(3, [0, 1, 0])
        for r in range(3):
            assert p.chars[r] == Cyclotomic.zeta(3, r)

    def test_periodicity(self):
        # the jet readers take A_(r mod k) for a weight r >= k
        rng = random.Random(7)
        for k in (2, 3, 4, 6):
            p = random_param(rng, k)
            m = y_matrix(2 * k - 1, p)
            for r in range(k):
                assert m[r][2 * k + r] == m[r + k][3 * k + r] == p.chars[r]

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-4, 4),
    )
    def test_rational_linearity(self, x0, x1, x2, c):
        k = 3
        p = BimoduleParam.make(k, [x0, x1, x2])
        q = BimoduleParam.make(k, [x2, x0, x1])
        combined = BimoduleParam(
            k, tuple(a * Cyclotomic(k, c) + b for a, b in zip(p.a, q.a))
        )
        for r in range(k):
            assert combined.chars[r] == (
                p.chars[r] * Cyclotomic(k, c) + q.chars[r]
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BimoduleParam.make(3, [1, 2])

    def test_rejects_wrong_field_order(self):
        with pytest.raises(ValueError):
            BimoduleParam(2, (Cyclotomic(3, 1), Cyclotomic(3, 0)))


def regular_rep_image(p: BimoduleParam, r: int):
    """Oracle for A_r by linear algebra over Q(zeta_k); it reads neither
    ``p.chars`` nor ``_char_table``.  The circulant C = sum_g a_g T^g
    acts on the regular representation (T e_h = e_(h+1), so C[h][j] is
    a_(h-j)), and v_r = sum_h zeta^(-r h) e_h spans the weight-r line:
    T v_r = zeta^r v_r, so C v_r = A_r v_r.  Returns (C v_r, v_r)."""
    k = p.k
    zero = Cyclotomic(k, 0)
    v = [Cyclotomic.zeta(k, -r * h) for h in range(k)]
    circulant = [[p.a[(h - j) % k] for j in range(k)] for h in range(k)]
    image = [sum((c * x for c, x in zip(row, v)), zero) for row in circulant]
    return image, v


def table_matches_oracle(p: BimoduleParam) -> bool:
    for r in range(p.k):
        image, v = regular_rep_image(p, r)
        if image != [p.chars[r] * x for x in v]:
            return False
    return True


def random_rational_param(rng: random.Random, k: int) -> BimoduleParam:
    """Coefficients with mixed denominators, a fifth of them zero."""
    deg = cyc_degree(k)

    def coeff():
        if rng.random() < 0.2:
            return Cyclotomic(k, 0)
        return Cyclotomic(
            k, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(deg)]
        )

    return BimoduleParam(k, tuple(coeff() for _ in range(k)))


def param_with_characters(k: int, chars) -> BimoduleParam:
    """The parameter whose A_r are the given values, by the inverse
    transform a_g = (1/k) sum_r A_r zeta^(-r g)."""
    zero = Cyclotomic(k, 0)
    return BimoduleParam(
        k,
        tuple(
            sum((c * Cyclotomic.zeta(k, -r * g) for r, c in enumerate(chars)), zero) / k
            for g in range(k)
        ),
    )


# each mutation rewrites the table as a wrong table rule would build it
_TRUE_TABLE = localmodel._char_table
TABLE_MUTATIONS = {
    # the g = 0 term dropped from the sum
    "identity-term-dropped": lambda k, a: tuple(x - a[0] for x in _TRUE_TABLE(k, a)),
    # zeta^((r+1) g) in place of zeta^(r g): A_r reads A_(r+1)
    "exponent-shifted": lambda k, a: _TRUE_TABLE(k, a)[1:] + _TRUE_TABLE(k, a)[:1],
    # every A_r times the unit zeta, which keeps the vanishing set
    "unit-multiple": lambda k, a: tuple(x * Cyclotomic.zeta(k) for x in _TRUE_TABLE(k, a)),
}


class TestCharTableOracle:
    """``p.chars`` against the regular-representation oracle."""

    def test_oracle_on_the_generator_indicator(self):
        for k in (1, 2, 3, 4, 5, 6):
            p = BimoduleParam.make(k, [int(g == 1 % k) for g in range(k)])
            for r in range(k):
                image, v = regular_rep_image(p, r)
                assert image == [Cyclotomic.zeta(k, r) * x for x in v]

    def test_random_parameters_against_oracle(self):
        rng = random.Random(2207)
        for k in range(1, 13):
            for _ in range(50 if k <= 6 else 8):
                p = random_rational_param(rng, k)
                assert table_matches_oracle(p), (k, p)

    def test_vanishing_characters_against_oracle(self):
        # parameters built from prescribed characters, about a third zero,
        # so the split cases of the tensor table are sampled too
        rng = random.Random(2208)
        for k in range(1, 7):
            for _ in range(20):
                chars = tuple(
                    Cyclotomic(k, 0) if rng.random() < 0.35 else x
                    for x in random_rational_param(rng, k).a
                )
                p = param_with_characters(k, chars)
                assert p.chars == chars
                assert table_matches_oracle(p)
                cases = [case for _, _, case in tensor_table_rows(p)]
                assert cases == ["split" if x.is_zero() else "ext" for x in chars]

    @pytest.mark.parametrize("mutation", sorted(TABLE_MUTATIONS))
    def test_oracle_catches_table_mutation(self, monkeypatch, mutation):
        monkeypatch.setattr(localmodel, "_char_table", TABLE_MUTATIONS[mutation])
        rng = random.Random(2209)
        for k in range(2, 7):
            params = [random_rational_param(rng, k) for _ in range(10)]
            assert not all(table_matches_oracle(p) for p in params), (mutation, k)

    def test_readers_multiply_no_field_elements(self, monkeypatch):
        rng = random.Random(2210)
        params = [random_rational_param(rng, k) for k in (1, 2, 3, 4, 5, 6)]

        def refuse(*args):
            raise AssertionError("the table readers must not multiply")

        monkeypatch.setattr(Cyclotomic, "zeta", staticmethod(refuse))
        monkeypatch.setattr(Cyclotomic, "__mul__", refuse)
        for p in params + [BimoduleParam.make(6, [1, 1, 0, 0, 0, 0])]:
            for n in (0, 1, 2, 7):
                y_matrix(n, p)
                splits(n, p)
            tensor_table_rows(p)


class TestCharTableIsInvisible:
    """The table takes no part in equality, hashing or repr."""

    def test_equality_hash_and_repr_ignore_the_table(self):
        rng = random.Random(2211)
        for k in (1, 2, 3, 5, 6):
            p = random_rational_param(rng, k)
            q = BimoduleParam(k, p.a)
            object.__setattr__(q, "chars", (Cyclotomic(k, 99),) * k)
            assert q.chars != p.chars
            assert p == q
            assert hash(p) == hash(q)
            assert repr(p) == repr(q) == f"BimoduleParam(k={k}, a={p.a!r})"
            assert len({p, q}) == 1


class TestTensorSimple:
    def test_vanishing_character_splits(self):
        p = BimoduleParam.make(2, [1, 1])  # A_0 = 2, A_1 = 0
        i, value, case = tensor_table_rows(p)[1]
        assert i == 1 and value.is_zero() and case == "split"

    def test_identity_indicator_never_splits(self):
        p = BimoduleParam.make(4, [1, 0, 0, 0])
        rows = tensor_table_rows(p)
        assert [(i, case) for i, _, case in rows] == [(i, "ext") for i in range(4)]

    def test_split_set_equals_character_kernel(self):
        rng = random.Random(21)
        for k in (2, 3, 4, 6):
            for _ in range(10):
                p = random_param(rng, k)
                split_set = {i for i, _, case in tensor_table_rows(p) if case == "split"}
                kernel = {r for r in range(k) if p.chars[r].is_zero()}
                assert split_set == kernel

    def test_index_reduced_mod_order(self):
        # the coupling entry of jet row 3 is A_(3 mod 2) = A_1
        p = BimoduleParam.make(2, [1, 1])
        assert y_matrix(3, p)[3][7] == p.chars[1] == Cyclotomic(2, 0)

    def test_csv_rows(self):
        p = BimoduleParam.make(2, [1, 1])
        rows = tensor_table_rows(p)
        assert [(i, str(x), case) for i, x, case in rows] == [
            (0, "2", "ext"),
            (1, "0", "split"),
        ]

    def test_json_dict(self):
        # the rows keep A_i exact; the document prints it through str
        p = BimoduleParam.make(2, [1, 1])
        assert tensor_table_rows(p) == [
            (0, Cyclotomic(2, 2), "ext"),
            (1, Cyclotomic(2, 0), "split"),
        ]


def int_matrix(mat):
    """Render a cyclotomic matrix with rational entries as ints for goldens."""
    assert not any(any(x.nums[1:]) for row in mat for x in row)
    return [[int(x.coeffs[0]) for x in row] for row in mat]


class TestJetMatrix:
    def test_order_zero_vanishing_coupling(self):
        p = BimoduleParam.make(1, [0])
        assert int_matrix(y_matrix(0, p)) == [[0, 0], [0, 0]]

    def test_order_one_identity_coupling(self):
        p = BimoduleParam.make(1, [1])
        assert int_matrix(y_matrix(1, p)) == [
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]

    def test_block_structure(self):
        rng = random.Random(3)
        p = random_param(rng, 3)
        n = 2
        m = y_matrix(n, p)
        size = n + 1
        for i in range(2 * size):
            for j in range(2 * size):
                entry = m[i][j]
                if i >= size and j < size:
                    assert entry.is_zero()  # lower-left block is zero
                elif j == i + 1 and (i % size) != size - 1:
                    assert entry == Cyclotomic(3, 1)
                elif i < size and j == size + i:
                    assert entry == p.chars[i]
                else:
                    assert entry.is_zero()

    def test_jordan_block_grows_without_splitting(self):
        p = BimoduleParam.make(1, [1])
        jt = nilpotent_jordan_type(y_matrix(2, p))
        assert max(jt) >= 4
        assert jt == (4, 2)


class TestJordanOracle:
    def mat(self, k, rows):
        return tuple(tuple(Cyclotomic(k, x) for x in row) for row in rows)

    def test_zero_matrix(self):
        assert nilpotent_jordan_type(self.mat(1, [[0, 0], [0, 0]])) == (1, 1)

    def test_single_block(self):
        m = self.mat(1, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_jordan_type(m) == (3,)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            nilpotent_jordan_type(self.mat(1, [[1, 0], [0, 0]]))

    def test_nonconvex_rank_sequence_raises(self, monkeypatch):
        """Ranks 4, 3, 0 drop by 1 and then by 3, which no nilpotent 4x4
        matrix does: the block sizes cannot sum to 4, and the check raises
        an ``ArithmeticError`` that ``python -O`` keeps."""
        ranks = iter([3, 0])
        monkeypatch.setattr(localmodel, "matrix_rank", lambda mat: next(ranks))
        shift = self.mat(1, [[int(j == i + 1) for j in range(4)] for i in range(4)])
        with pytest.raises(ArithmeticError, match="no Jordan type of size 4"):
            nilpotent_jordan_type(shift)

    def test_rank(self):
        m = self.mat(4, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert matrix_rank(m) == 2
        assert matrix_rank(self.mat(4, [[0, 0], [0, 0]])) == 0

    def test_rank_with_irrational_pivot(self):
        z = Cyclotomic.zeta(4)
        one = Cyclotomic(4, 1)
        m = ((z, one), (one, z * Cyclotomic(4, -1)))
        # det = -z^2 - 1 = 1 - 1 ... zeta_4^2 = -1 so det = -z*z - 1 = 0
        assert matrix_rank(m) == 1

    def test_jordan_type_survives_conjugation(self):
        """The parameters of ``test_jordan_cross_check``, with each jet
        matrix conjugated by the lower unitriangular all-ones matrix L:
        the conjugate fills in, so the rank's elimination updates rows on
        every power, and its Jordan type is the jet matrix's."""
        rng = random.Random(2026)
        for _ in range(40):
            k = rng.choice((1, 2, 3, 4, 6))
            n = rng.randint(0, 3)
            p = (
                forced_split_param(rng, k, n)
                if rng.random() < 0.5
                else random_param(rng, k)
            )
            y = y_matrix(n, p)
            span = range(len(y))
            low = self.mat(k, [[int(j <= i) for j in span] for i in span])
            # L^-1 = I minus the subdiagonal shift
            inv = self.mat(k, [[int(j == i) - int(j == i - 1) for j in span] for i in span])
            ident = self.mat(k, [[int(j == i) for j in span] for i in span])
            assert _mat_mul(low, inv) == ident
            conj = _mat_mul(_mat_mul(low, y), inv)
            assert nilpotent_jordan_type(conj) == nilpotent_jordan_type(y)


def fraction_rank(rows):
    """Reference rank over Q: full Gauss-Jordan elimination on Fractions,
    every entry of every row, zeros included."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestRankAgainstFractions:
    """``matrix_rank`` eliminates over the pivot row's nonzero entries
    only; for k in {1, 2} the field Q(zeta_k) is Q, so its rank must be
    the Fraction rank."""

    @staticmethod
    def random_rows(rng, rows, cols, density):
        return [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density
                else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]

    @staticmethod
    def low_rank_rows(rng, rows, cols, inner, density):
        """A (rows x inner) times (inner x cols) product: rank <= inner."""
        x = TestRankAgainstFractions.random_rows(rng, rows, inner, density)
        y = TestRankAgainstFractions.random_rows(rng, inner, cols, density)
        return [
            [sum(x[i][t] * y[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
    def test_matches_fraction_rank(self, k, density):
        rng = random.Random(f"rank/{k}/{density}")
        deficient = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            if rng.random() < 0.5:
                entries = self.random_rows(rng, rows, cols, density)
            else:
                inner = rng.randint(1, min(rows, cols))
                entries = self.low_rank_rows(rng, rows, cols, inner, density)
            mat = tuple(tuple(Cyclotomic(k, x) for x in row) for row in entries)
            want = fraction_rank(entries)
            assert matrix_rank(mat) == want, entries
            deficient += want < min(rows, cols)
        assert deficient >= 10


def regular_blowup(k, rows):
    """The rational matrix of M over Q(zeta_k): each entry x becomes the
    deg x deg block of multiplication by x on the basis 1, zeta, ...,
    built from the Fraction reference model.  Its rank over Q is deg
    times the rank of M over the field."""
    deg = cyc_degree(k)
    basis = [ref_reduce(k, [0] * j + [1]) for j in range(deg)]
    out = []
    for row in rows:
        # columns[c][j]: the coefficients of x_c * zeta^j
        columns = [[ref_mul(k, x, e) for e in basis] for x in row]
        for i in range(deg):
            out.append([col[j][i] for col in columns for j in range(deg)])
    return out


class TestRankOverIrrationalFields:
    """Random and low-rank matrices over Q(zeta_k), k in {3, 4, 5, 6}:
    the fraction-free elimination meets irrational pivots, and its rank
    times deg Phi_k must equal the Fraction rank of the blow-up."""

    @staticmethod
    def random_rows(rng, k, rows, cols, density):
        """Reduced coefficient tuples, each nonzero with the given density."""
        deg = cyc_degree(k)

        def entry():
            if rng.random() >= density:
                return ref_reduce(k, [])
            cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(deg)]
            return ref_reduce(k, cs)

        return [[entry() for _ in range(cols)] for _ in range(rows)]

    @classmethod
    def low_rank_rows(cls, rng, k, rows, cols, inner, density):
        """A (rows x inner) times (inner x cols) product over the field,
        in the reference model: rank <= inner."""
        x = cls.random_rows(rng, k, rows, inner, density)
        y = cls.random_rows(rng, k, inner, cols, density)
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = ref_reduce(k, [])
                for t in range(inner):
                    acc = ref_add(acc, ref_mul(k, x[i][t], y[t][j]))
                row.append(acc)
            out.append(row)
        return out

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("density", [0.4, 1.0])
    def test_rank_times_degree_is_blowup_rank(self, k, density):
        rng = random.Random(f"rank-cyclo/{k}/{density}")
        deg = cyc_degree(k)
        deficient = irrational = 0
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            if rng.random() < 0.5:
                entries = self.random_rows(rng, k, rows, cols, density)
            else:
                inner = rng.randint(1, min(rows, cols))
                entries = self.low_rank_rows(rng, k, rows, cols, inner, density)
            mat = tuple(tuple(Cyclotomic(k, list(x)) for x in row) for row in entries)
            rank = matrix_rank(mat)
            assert rank * deg == fraction_rank(regular_blowup(k, entries)), entries
            deficient += rank < min(rows, cols)
            irrational += any(any(x.nums[1:]) for row in mat for x in row)
        assert deficient >= 5 and irrational >= 25


def dense_mat_mul(x, y):
    """Reference product: every entry of both factors, zeros included."""
    inner = len(y)
    return tuple(
        tuple(
            sum((x[i][t] * y[t][j] for t in range(1, inner)), x[i][0] * y[0][j])
            for j in range(len(y[0]))
        )
        for i in range(len(x))
    )


@st.composite
def sparse_product(draw):
    """Two cyclotomic matrices with mostly zero entries (all-zero rows
    included), shapes (r, t) and (t, c)."""
    k = draw(st.integers(1, 12))
    r, t, c = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.lists(st.integers(-3, 3), min_size=1, max_size=cyc_degree(k)),
    )

    def matrix(rows, cols):
        zero_rows = draw(st.sets(st.integers(0, rows - 1)))
        return tuple(
            tuple(
                Cyclotomic(k, 0 if i in zero_rows else draw(entry))
                for _ in range(cols)
            )
            for i in range(rows)
        )

    return matrix(r, t), matrix(t, c)


class TestSparseProduct:
    @given(sparse_product())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_product(self, pair):
        x, y = pair
        got = _mat_mul(x, y)
        want = dense_mat_mul(x, y)
        assert got == want
        assert all(v.k == y[0][0].k for row in got for v in row)

    def test_all_zero_factor(self):
        zero = Cyclotomic(3, 0)
        x = ((zero, zero), (zero, zero))
        y = ((Cyclotomic.zeta(3), zero), (zero, Cyclotomic(3, 2)))
        assert _mat_mul(x, y) == x
        assert _mat_mul(y, x) == x


class TestSplitting:
    def test_zero_parameter_always_splits(self):
        p = BimoduleParam.make(3, [0, 0, 0])
        for n in range(4):
            assert splits(n, p)

    def test_identity_indicator_never_splits(self):
        p = BimoduleParam.make(2, [1, 0])
        for n in range(4):
            assert not splits(n, p)
            assert jet_trace(n, p) == Cyclotomic(2, n + 1)

    def test_order_two_generator_splits_odd_jets(self):
        p = BimoduleParam.make(2, [0, 1])
        assert not splits(0, p)
        assert splits(1, p)  # A_0 + A_1 = 1 - 1
        assert not splits(2, p)
        assert splits(3, p)

    def test_trace_matches_character_sum(self):
        rng = random.Random(11)
        for k in (2, 3, 4):
            p = random_param(rng, k)
            for n in range(5):
                acc = Cyclotomic(k, 0)
                for r in range(n + 1):
                    acc = acc + p.chars[r % k]
                assert jet_trace(n, p) == acc

    def test_jordan_cross_check(self):
        # the acceptance sweep runs 500 samples; keep a fast version here
        rng = random.Random(2026)
        for _ in range(40):
            k = rng.choice((1, 2, 3, 4, 6))
            n = rng.randint(0, 3)
            p = (
                forced_split_param(rng, k, n)
                if rng.random() < 0.5
                else random_param(rng, k)
            )
            expected_split = splits(n, p)
            jt = nilpotent_jordan_type(y_matrix(n, p))
            assert (jt == (n + 1, n + 1)) == expected_split


class TestRootHyperplane:
    def test_simple_functionals_independent(self):
        """The simple-root functionals A_0, ..., A_{k-1} are independent."""
        k = 4
        mat = tuple(
            tuple(
                BimoduleParam.make(k, [int(j == g) for j in range(k)]).chars[i]
                for g in range(k)
            )
            for i in range(k)
        )
        assert matrix_rank(mat) == k


class TestSplitCensusScript:
    """``scripts/local_split_census.py`` prints one row per (k, n) and
    refuses a sample count or degree bound it cannot tabulate with a
    usage error."""

    @staticmethod
    def run(*args):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "local_split_census.py"), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_table(self):
        done = self.run("--samples", "3", "--n-max", "1", "--seed", "5")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "seed: 5"
        rows = lines[2:]
        assert [tuple(map(int, row.split()[:2])) for row in rows] == [
            (k, n) for k in (1, 2, 3, 4, 6) for n in (0, 1)
        ]
        assert all(row.endswith("3/3") for row in rows)

    @pytest.mark.parametrize(
        "args",
        [("--samples", "0"), ("--samples", "-1"), ("--n-max", "-1")],
    )
    def test_bad_flags_exit_two(self, args):
        done = self.run(*args)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, done.stderr
        assert not done.stdout
