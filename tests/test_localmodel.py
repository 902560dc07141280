import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwall.cyclotomic import Cyclotomic, cyclotomic_polynomial
from ellwall.localmodel import (
    _mat_mul,
    HH0_TABLE,
    PREPROJ_SIGN_CONVENTION,
    BimoduleParam,
    PreprojRep,
    char_value,
    hh0_audit,
    hh0_dim,
    jet_module_rep,
    jet_trace,
    matrix_rank,
    nilpotent_jordan_type,
    preproj_check,
    splits,
    tensor_simple,
    tensor_table,
    tensor_table_rows,
    y_matrix,
)
from ellwall.walls import UnsupportedTypeError


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
            with pytest.raises(UnsupportedTypeError):
                hh0_dim(bad)
        with pytest.raises(UnsupportedTypeError):
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
        assert all(char_value(p, r) == Cyclotomic(4, 1) for r in range(4))

    def test_order_two_generator(self):
        p = BimoduleParam.make(2, [0, 1])
        assert char_value(p, 0) == Cyclotomic(2, 1)
        assert char_value(p, 1) == Cyclotomic(2, -1)

    def test_order_three_generator_against_cyclotomic_oracle(self):
        p = BimoduleParam.make(3, [0, 1, 0])
        for r in range(3):
            assert char_value(p, r) == Cyclotomic.zeta(3, r)

    def test_periodicity(self):
        rng = random.Random(7)
        for k in (2, 3, 4, 6):
            p = random_param(rng, k)
            for r in range(k):
                assert char_value(p, r) == char_value(p, r + k)
                assert char_value(p, r) == char_value(p, r - k)

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-4, 4),
    )
    def test_rational_linearity(self, x0, x1, x2, c):
        k = 3
        p = BimoduleParam.make(k, [x0, x1, x2])
        q = BimoduleParam.make(k, [x2, x0, x1])
        combined = BimoduleParam(
            k, tuple(a * c + b for a, b in zip(p.a, q.a))
        )
        for r in range(k):
            assert char_value(combined, r) == (
                char_value(p, r) * c + char_value(q, r)
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BimoduleParam.make(3, [1, 2])

    def test_rejects_wrong_field_order(self):
        with pytest.raises(ValueError):
            BimoduleParam(2, (Cyclotomic(3, 1), Cyclotomic(3, 0)))


class TestTensorSimple:
    def test_vanishing_character_splits(self):
        p = BimoduleParam.make(2, [1, 1])  # A_0 = 2, A_1 = 0
        dec = tensor_simple(1, p)
        assert dec.split and dec.tag == "split"
        assert dec.summands == ("s1", "s0")
        assert dec.extension is None

    def test_identity_indicator_never_splits(self):
        p = BimoduleParam.make(4, [1, 0, 0, 0])
        for i in range(4):
            dec = tensor_simple(i, p)
            assert not dec.split and dec.tag == "ext"
            assert dec.extension == f"e[{i},{(i - 1) % 4}]"
            assert dec.summands is None

    def test_split_set_equals_character_kernel(self):
        rng = random.Random(21)
        for k in (2, 3, 4, 6):
            for _ in range(10):
                p = random_param(rng, k)
                split_set = {t.i for t in tensor_table(p) if t.split}
                kernel = {r for r in range(k) if char_value(p, r).is_zero()}
                assert split_set == kernel

    def test_index_reduced_mod_order(self):
        p = BimoduleParam.make(2, [1, 1])
        assert tensor_simple(3, p).i == 1

    def test_csv_rows(self):
        p = BimoduleParam.make(2, [1, 1])
        assert tensor_table_rows(p) == [(0, "2", "ext"), (1, "0", "split")]

    def test_json_dict(self):
        p = BimoduleParam.make(2, [1, 1])
        assert tensor_simple(0, p).to_json_dict() == {
            "i": 0, "value": "2", "kind": "ext", "extension": "e[0,1]",
        }
        assert tensor_simple(1, p).to_json_dict() == {
            "i": 1, "value": "0", "kind": "split", "summands": ["s1", "s0"],
        }


def int_matrix(mat):
    """Render a cyclotomic matrix with rational entries as ints for goldens."""
    return [[int(x.rational_value()) for x in row] for row in mat]


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
                    assert entry == char_value(p, i)
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

    def test_rank(self):
        m = self.mat(4, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert matrix_rank(m) == 2
        assert matrix_rank(self.mat(4, [[0, 0], [0, 0]])) == 0

    def test_rank_with_irrational_pivot(self):
        z = Cyclotomic.zeta(4)
        one = Cyclotomic(4, 1)
        m = ((z, one), (one, z * -1))
        # det = -z^2 - 1 = 1 - 1 ... zeta_4^2 = -1 so det = -z*z - 1 = 0
        assert matrix_rank(m) == 1


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
                    acc = acc + char_value(p, r)
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
                char_value(BimoduleParam.make(k, [int(j == g) for j in range(k)]), i)
                for g in range(k)
            )
            for i in range(k)
        )
        assert matrix_rank(mat) == k


class TestPreproj:
    def test_zero_representation_passes(self):
        k = 3
        p = BimoduleParam.make(k, [0, 0, 0])
        rep = PreprojRep.make(
            k,
            (1, 1, 1),
            [[[0]]] * k,
            [[[0]]] * k,
            [0, 0, 0],
        )
        report = preproj_check(rep, p)
        assert report.passes and report.relation_holds
        assert report.seminilpotent
        assert all(report.lambda_matches)
        assert report.sign_convention == PREPROJ_SIGN_CONVENTION

    def test_one_node_nonzero_scalar_fails_with_trace_residual(self):
        p = BimoduleParam.make(1, [1])  # A_0 = 1
        rep = PreprojRep.make(1, (1,), [[[0]]], [[[0]]], [1])
        report = preproj_check(rep, p)
        assert not report.passes and not report.relation_holds
        assert all(report.lambda_matches)
        assert report.residuals[0][0][0] == Cyclotomic(1, -1)

    def test_two_node_point_module_passes(self):
        # p with A = (1, -1): the one-dimensional node pair carries the
        # relation with cw = (1, 0), ccw = (0, 1)
        p = BimoduleParam.make(2, [0, 1])
        rep = PreprojRep.make(
            2,
            (1, 1),
            [[[1]], [[0]]],
            [[[0]], [[1]]],
            [1, -1],
        )
        report = preproj_check(rep, p)
        assert report.passes and report.relation_holds
        assert report.seminilpotent
        assert all(report.lambda_matches)

    def test_zero_dimensional_neighbour(self):
        # node 0 has dimension 1 and its only neighbour dimension 0: both
        # round trips pass through the empty node and are zero
        p = BimoduleParam(2, (Cyclotomic(2, 0), Cyclotomic(2, 0)))
        rep = PreprojRep.make(2, (1, 0), cw=[(), ((),)], ccw=[(), ((),)], lam=[0, 0])
        report = preproj_check(rep, p)
        assert report.passes and report.relation_holds
        assert report.seminilpotent
        assert report.residuals == (((Cyclotomic(2, 0),),), ())

    def test_jet_module_split_case_passes(self):
        p = BimoduleParam.make(1, [0])
        for n in range(3):
            report = preproj_check(jet_module_rep(n, p), p)
            assert report.passes and report.seminilpotent

    def test_jet_module_nonsplit_case_fails(self):
        p = BimoduleParam.make(1, [1])
        report = preproj_check(jet_module_rep(1, p), p)
        assert not report.passes
        minus_one = Cyclotomic(1, -1)
        res = report.residuals[0]
        assert res[0][0] == minus_one and res[1][1] == minus_one

    def test_lambda_mismatch_flagged(self):
        p = BimoduleParam.make(1, [1])  # A_0 = 1
        rep = PreprojRep.make(1, (1,), [[[0]]], [[[0]]], [0])
        report = preproj_check(rep, p)
        assert report.relation_holds
        assert report.lambda_matches == (False,)
        assert not report.passes

    def test_non_nilpotent_clockwise_flagged(self):
        p = BimoduleParam.make(1, [0])
        rep = PreprojRep.make(1, (1,), [[[1]]], [[[0]]], [0])
        report = preproj_check(rep, p)
        assert report.relation_holds  # loops commute in dimension one
        assert not report.seminilpotent

    def test_dimension_mismatch_rejected(self):
        p = BimoduleParam.make(2, [0, 0])
        rep = PreprojRep.make(
            2,
            (1, 2),
            [[[0], [0]], [[0, 0]]],
            [[[0], [0]], [[0, 0]]],
            [0, 0],
        )
        # sanity: that one is consistent; now break one arrow shape
        preproj_check(rep, p)
        bad = PreprojRep.make(
            2,
            (1, 2),
            [[[0]], [[0, 0]]],
            [[[0], [0]], [[0, 0]]],
            [0, 0],
        )
        with pytest.raises(ValueError):
            preproj_check(bad, p)

    def test_order_mismatch_rejected(self):
        rep = PreprojRep.make(1, (1,), [[[0]]], [[[0]]], [0])
        with pytest.raises(ValueError):
            preproj_check(rep, BimoduleParam.make(2, [0, 0]))

    def test_report_json(self):
        p = BimoduleParam.make(1, [1])
        report = preproj_check(jet_module_rep(0, p), p)
        d = report.to_json_dict()
        assert d["passes"] is False
        assert d["residuals"] == [[["-1"]]]
        assert d["sign_convention"] == PREPROJ_SIGN_CONVENTION
