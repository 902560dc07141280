from fractions import Fraction

import pytest

from ellwall.fock.labels import COH_E, label_index
from ellwall.fock.operators import ExtendedModeError, w_general
from ellwall.fock.states import FockState, basis_monomials, monomial_energy
from ellwall.fock.verify import (
    BracketReport,
    _eval_window,
    _solve_central,
    bracket_sweep,
    bracket_verify,
)

from fock_reference import CohClass, add, apply, commutator_apply, scale, star_product


class TestSingleInstances:
    def test_odd_pair_exact(self):
        rep = bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 5)
        assert rep.match and rep.kind == "exact"
        assert rep.rescale == Fraction(1)
        assert rep.truncation == 5

    def test_odd_pair_reversed_order_exact(self):
        rep = bracket_verify(0, 1, "sigma-", 1, 0, "sigma+", 5)
        assert rep.match and rep.kind == "exact"

    def test_rescaled_root_space(self):
        rep = bracket_verify(1, 1, "sigma+", -1, 0, "sigma-", 5)
        assert rep.match and rep.kind == "rescaled"
        assert rep.rescale == Fraction(-1)

    def test_central_odd_pair(self):
        rep = bracket_verify(1, 2, "sigma+", -1, -2, "sigma-", 5)
        assert rep.match and rep.kind == "central"
        assert rep.central_value == Fraction(2)

    def test_central_even_pairs_vanish(self):
        rep = bracket_verify(1, 2, "E", -1, -2, "E", 5)
        assert rep.match and rep.kind == "central"
        assert rep.central_value == Fraction(0)
        rep = bracket_verify(1, 2, "E", -1, -2, "sigma+", 5)
        assert rep.match and rep.kind == "central"
        assert rep.central_value == Fraction(0)

    def test_nilpotent_label_product_gives_zero_target(self):
        rep = bracket_verify(1, 0, "E", 0, 1, "E", 5)
        assert rep.match and rep.kind == "exact"

    def test_small_generator_central_pairing(self):
        rep = bracket_verify(0, 1, "E", 0, -1, "pt", 5)
        assert rep.match and rep.kind == "central"
        assert rep.central_value == Fraction(1)

    def test_small_generator_zero_slope_product(self):
        rep = bracket_verify(0, 1, "sigma+", 0, 1, "sigma+", 5)
        assert rep.match and rep.kind == "exact"

    def test_extended_mode_requires_config(self):
        with pytest.raises(ExtendedModeError):
            bracket_verify(1, 1, "pt", 0, 1, "E", 4)

    def test_window_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            bracket_verify(0, -3, "E", 0, -3, "E", 5)


class TestAgainstDirectApplication:
    """Recompute representative instances with the plain operator
    applicator (no sparse rows) and compare state-by-state."""

    def check(self, a, b, g, c, d, h, N):
        A = w_general(a, b, g, N)
        B = w_general(c, d, h, N)
        w = _eval_window(N, b, d)
        coef = Fraction(-(a * d - b * c))
        product = star_product(CohClass.basis(g), CohClass.basis(h))
        rep = bracket_verify(a, b, g, c, d, h, N)
        assert rep.match
        for mono in basis_monomials(N):
            if monomial_energy(mono) > w:
                continue
            s = FockState.from_monomial(mono)
            lhs = commutator_apply(A, B, s)
            if (a + c, b + d) == (0, 0):
                rhs = scale(s, rep.central_value)
            else:
                rhs = FockState.zero(a + c)
                for lbl, comp in product.support():
                    img = apply(w_general(a + c, b + d, lbl, N), s)
                    scl = coef * comp
                    if rep.kind == "rescaled":
                        scl *= rep.rescale
                    rhs = add(rhs, scale(img, scl))
            assert lhs == rhs, (mono, a, b, g, c, d, h)

    def test_exact_instance(self):
        self.check(1, 0, "sigma+", 0, 1, "sigma-", 3)

    def test_rescaled_instance(self):
        self.check(1, 1, "sigma+", -1, 0, "sigma-", 3)

    def test_central_instance(self):
        self.check(1, 1, "sigma+", -1, -1, "sigma-", 3)

    def test_even_zero_instance(self):
        self.check(1, 0, "E", 0, 1, "E", 3)


class TestReportSerialization:
    def test_rescaled_schema(self):
        rep = bracket_verify(1, 1, "sigma+", -1, 0, "sigma-", 5)
        d = rep.to_json_dict()
        assert d["lhs_params"] == {"a": 1, "b": 1, "label": "sigma+"}
        assert d["rhs_params"] == {"a": -1, "b": 0, "label": "sigma-"}
        assert d["match"] is True
        assert d["kind"] == "rescaled"
        assert d["rescale_factors"] == {"factor": "-1"}
        assert d["central"] == {}
        assert d["truncation"] == 5
        assert "witness" not in d

    def test_central_schema(self):
        rep = bracket_verify(1, 2, "sigma+", -1, -2, "sigma-", 5)
        d = rep.to_json_dict()
        assert d["kind"] == "central"
        assert d["central"] == {"value": "2"}
        assert d["rescale_factors"] == {}

    def test_report_is_frozen(self):
        rep = bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 5)
        assert isinstance(rep, BracketReport)
        with pytest.raises(AttributeError):
            rep.match = False


class TestCentralSolver:
    def test_consistent_fit(self):
        got = _solve_central(
            [(0, 1, Fraction(2)), (1, 0, Fraction(3)), (1, 1, Fraction(5))]
        )
        assert got == {
            "consistent": True,
            "c_s": "3",
            "c_t": "2",
            "instances": 3,
        }

    def test_inconsistent_slope_scalar(self):
        got = _solve_central([(0, 1, Fraction(2)), (0, 2, Fraction(6))])
        assert got == {"consistent": False, "instances": 2}

    def test_all_zero(self):
        got = _solve_central([(0, 1, Fraction(0)), (1, 0, Fraction(0))])
        assert got["consistent"] and got["c_s"] == "0" and got["c_t"] == "0"


@pytest.fixture(scope="module")
def summary():
    return bracket_sweep(4, a_range=1, b_range=1)


class TestSmallSweep:
    def test_counts(self, summary):
        # 8 slopes x 3 labels = 24 operands, all ordered pairs
        assert summary.instances == 24 * 24
        assert summary.matches == summary.instances
        assert summary.mismatches == []
        assert summary.rescale_conflicts == []

    def test_rescales_confined_to_positive_fiber_spaces(self, summary):
        assert summary.rescales == {
            (0, 1, "E"): Fraction(-1),
            (0, 2, "E"): Fraction(-1),
        }

    def test_central_scalars(self, summary):
        expected_ct = {
            ("sigma+", "sigma-"): "1",
            ("sigma-", "sigma+"): "-1",
        }
        assert set(summary.central) == {
            (g, h)
            for g in ("E", "sigma+", "sigma-")
            for h in ("E", "sigma+", "sigma-")
        }
        for key, info in summary.central.items():
            assert info["consistent"], key
            assert info["c_s"] == "0", key
            assert info["c_t"] == expected_ct.get(key, "0"), key

    def test_json_round_trip_keys(self, summary):
        d = summary.to_json_dict()
        assert d["truncation"] == 4
        assert d["rescale_factors"] == {"(0,1);E": "-1", "(0,2);E": "-1"}
        assert d["rescale_conflicts"] == []
        assert "sigma+,sigma-" in d["central"]
        assert d["central"]["sigma+,sigma-"]["c_t"] == "1"


class TestMismatchWitness:
    def test_witness_is_exact(self, monkeypatch):
        """With the star product sending the pair to the wrong target
        label the instance fails; the witness must carry the exact
        rational images of the reference path (fock_reference.apply), not
        the integer rows over the tables' denominators."""
        import ellwall.fock.verify as verify

        # pt * sigma+ = sigma+; send it to E instead
        monkeypatch.setattr(verify, "star_label", lambda i, j: (COH_E, 1))
        # a fresh engine, so no table built before the patch is reused
        monkeypatch.setattr(verify, "_last_engine", None)
        N = 3
        a, b, g, c, d, h = 1, -1, "sigma+", 0, -1, "pt"
        rep = verify.bracket_verify(a, b, g, c, d, h, N)
        assert not rep.match and rep.kind == "mismatch"
        (term,) = rep.witness["state"]["terms"]
        mono = tuple((j, label_index(name)) for j, name in term["modes"])
        s = FockState.from_monomial(mono)
        A, B = w_general(a, b, g, N), w_general(c, d, h, N)
        got = commutator_apply(A, B, s)
        target = apply(w_general(a + c, b + d, "E", N), s)
        expected = scale(target, Fraction(-(a * d - b * c)))
        assert rep.witness["got"] == got.to_json_dict()
        assert rep.witness["expected"] == expected.to_json_dict()
        # the division back is exercised: both tables have denominators
        engine = verify._last_engine
        assert engine.rows(a, b, label_index(g))[0] > 1
        assert engine.rows(a + c, b + d, label_index("E"))[0] > 1

    def test_reverse_witness_is_exact(self, monkeypatch):
        """The reverse order [B, A} of a mixed-parity pair (eps = -1)
        reads the forward rows over the negated denominator; its witness
        must still carry the exact images of [B, A} itself."""
        import ellwall.fock.verify as verify

        monkeypatch.setattr(verify, "star_label", lambda i, j: (COH_E, 1))
        N = 3
        a, b, g, c, d, h = 1, -1, "sigma+", 0, -1, "pt"
        engine = verify._BracketEngine(N)
        fwd, rev = engine.pair_reports(a, b, label_index(g), c, d, label_index(h))
        assert not fwd.match and not rev.match and rev.kind == "mismatch"
        assert rev.lhs_params == (c, d, h) and rev.rhs_params == (a, b, g)
        (term,) = rev.witness["state"]["terms"]
        mono = tuple((j, label_index(name)) for j, name in term["modes"])
        s = FockState.from_monomial(mono)
        A, B = w_general(a, b, g, N), w_general(c, d, h, N)
        got = commutator_apply(B, A, s)
        assert got.terms
        target = apply(w_general(a + c, b + d, "E", N), s)
        expected = scale(target, Fraction(-(c * b - d * a)))
        assert rev.witness["got"] == got.to_json_dict()
        assert rev.witness["expected"] == expected.to_json_dict()


class TestEngineScope:
    def test_rows_are_built_on_first_read_only(self, monkeypatch):
        """One instance builds only the rows its compositions and target
        comparison read, each of them once."""
        import ellwall.fock.fastapply as fastapply
        import ellwall.fock.verify as verify

        built: dict[tuple[int, int], int] = {}
        orig = fastapply.apply_to_monomial

        def counting(grouped, basis, i):
            key = (id(grouped), i)
            built[key] = built.get(key, 0) + 1
            return orig(grouped, basis, i)

        monkeypatch.setattr(fastapply, "apply_to_monomial", counting)
        monkeypatch.setattr(verify, "_last_engine", None)
        # b = d = -1: the evaluation window is 4, below the truncation
        rep = bracket_verify(1, -1, "sigma+", -1, -1, "sigma-", 6)
        assert rep.match and rep.kind == "exact"
        engine = verify._last_engine
        tables = len(engine._rows)
        assert tables == 3  # two operands and the target
        assert 0 < sum(built.values()) < tables * engine.basis.size
        assert set(built.values()) == {1}

    def test_point_queries_share_one_engine_per_truncation(self, monkeypatch):
        import ellwall.fock.verify as verify

        monkeypatch.setattr(verify, "_last_engine", None)
        bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 4)
        first = verify._last_engine
        bracket_verify(0, 1, "sigma-", 1, 0, "sigma+", 4)
        assert verify._last_engine is first
        bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 3)
        assert verify._last_engine is not first
        assert verify._last_engine.N == 3
