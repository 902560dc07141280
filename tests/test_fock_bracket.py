import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellwall.fock.labels import COH_E, label_index
from ellwall.fock.operators import w_general
from ellwall.fock.states import FockState, basis_monomials, monomial_energy
from ellwall.fock.verify import (
    BracketReport,
    _eval_window,
    _solve_central,
    bracket_sweep,
    bracket_verify,
)

from fock_reference import CohClass, add, apply, commutator_apply, scale, star_product
from test_fock_spectators import pair_reports

ROOT = Path(__file__).resolve().parents[1]


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
        with pytest.raises(ValueError, match="extended mode"):
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
                rhs = FockState(a + c)
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

    def test_mixed_instance_skipped_without_c_t(self):
        # no a = 0 instance fits c_t, so (1, 1) is skipped, not fitted
        # against c_t = 0 (which would make c_s both 5 and 3)
        got = _solve_central([(1, 1, Fraction(5)), (1, 0, Fraction(3))])
        assert got == {
            "consistent": True,
            "c_s": "3",
            "c_t": "0",
            "instances": 2,
        }

    def test_inconsistent_c_s(self):
        got = _solve_central(
            [(0, 1, Fraction(2)), (1, 0, Fraction(3)), (2, 1, Fraction(7))]
        )
        assert got == {"consistent": False, "instances": 3}

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


def test_bracket_table_report_matches_golden():
    """The c04 report at truncation 4, byte for byte: every instance
    count, rescale and central scalar of the full sweep."""
    from ellwall.serialize import to_json
    from ellwall.verify import check_bracket_table

    golden = Path(__file__).parent / "data" / "c04_bracket_table_n4.json"
    assert to_json(check_bracket_table(4)) + "\n" == golden.read_text()


class TestBracketSurveyScript:
    """``scripts/bracket_survey.py`` dumps the sweep's summary document,
    and refuses a window it cannot sweep with a usage error."""

    @staticmethod
    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bracket_survey.py"), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_json_is_the_sweep_document(self, tmp_path):
        from ellwall.serialize import to_json

        out = tmp_path / "survey.json"
        done = self.run("--truncation", "4", "--json", str(out))
        assert done.returncode == 0, done.stderr
        assert out.read_text() == to_json(bracket_sweep(4).to_json_dict()) + "\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("--truncation", "0"),
            ("--truncation", "-1"),
            ("--truncation", "3"),  # below 2 * the default b-range 2
            ("--truncation", "1", "--b-range", "1"),
            ("--a-range", "-1"),
            ("--b-range", "-1"),
        ],
    )
    def test_bad_flags_exit_two(self, args):
        done = self.run(*args)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, done.stderr
        assert not done.stdout


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
        verify._engine.cache_clear()
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
        engine = verify._engine(N)
        assert engine.rows(a, b, label_index(g)).op.denom > 1
        assert engine.rows(a + c, b + d, label_index("E")).op.denom > 1

    def test_reverse_witness_is_exact(self, monkeypatch):
        """The reverse order [B, A} of a mixed-parity pair (eps = -1)
        reads the forward rows over the negated denominator; its witness
        must still carry the exact images of [B, A} itself."""
        import ellwall.fock.verify as verify

        monkeypatch.setattr(verify, "star_label", lambda i, j: (COH_E, 1))
        N = 3
        a, b, g, c, d, h = 1, -1, "sigma+", 0, -1, "pt"
        x, y = (a, b, label_index(g)), (c, d, label_index(h))
        fwd, rev = pair_reports(verify._BracketEngine(N), x, y)
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
        verify._engine.cache_clear()
        # b = d = -1: the evaluation window is 4, below the truncation
        rep = bracket_verify(1, -1, "sigma+", -1, -1, "sigma-", 6)
        assert rep.match and rep.kind == "exact"
        engine = verify._engine(6)
        tables = len(engine._rows)
        assert tables == 3  # two operands and the target
        assert 0 < sum(built.values()) < tables * engine.basis.size
        assert set(built.values()) == {1}

    def test_point_queries_share_one_engine_per_truncation(self):
        import ellwall.fock.verify as verify

        verify._engine.cache_clear()
        bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 4)
        first = verify._engine(4)
        bracket_verify(0, 1, "sigma-", 1, 0, "sigma+", 4)
        assert verify._engine(4) is first
        bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 3)
        assert verify._engine.cache_info().currsize == 1
        assert verify._engine(3) is not first
        assert verify._engine(3).N == 3
        assert verify._engine.cache_info().misses == 2


class TestSuperCommutingPairs:
    """Pairs whose terms super-commute skip the commutator pass."""

    @staticmethod
    def count_kernel_calls(monkeypatch):
        import ellwall.fock.verify as verify

        calls = []
        real = verify.commutator_rows

        def counting(rows_a, rows_b, indices, eps):
            calls.append((rows_a.op, rows_b.op))
            return real(rows_a, rows_b, indices, eps)

        monkeypatch.setattr(verify, "commutator_rows", counting)
        verify._engine.cache_clear()
        return calls

    def test_sweep_census(self, monkeypatch):
        """Of the 903 unordered pairs at truncation 4, only the 184 whose
        terms contract each other's modes reach the kernel."""
        calls = self.count_kernel_calls(monkeypatch)
        summary = bracket_sweep(4)
        assert summary.instances == 42 * 42
        assert len(calls) == 184

    def test_even_pair_query_prints_its_report_without_the_kernel(
        self, monkeypatch, capsys
    ):
        import json

        from ellwall.cli import main

        calls = self.count_kernel_calls(monkeypatch)
        assert main(["bracket", "--lhs=1,1,E", "--rhs=1,-1,E", "--truncation", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not calls
        assert report["match"] is True and report["kind"] == "exact"
        assert report["lhs_params"] == {"a": 1, "b": 1, "label": "E"}


def test_super_commuting_pairs_without_a_generator_term_read_no_row():
    """Of the 903 unordered pairs of the truncation-4 bracket table, 670
    super-commute with no generator term and no central part, and 49 more
    with a central part: each gives two matching reports, exact or
    central 0, without a window or a row being built for it."""
    import ellwall.fock.verify as verify
    from ellwall.fock.labels import COH_SM, COH_SP

    engine = verify._BracketEngine(4)
    real_within = engine.basis.within
    windows = []
    engine.basis.within = lambda w, modes: windows.append(w) or real_within(w, modes)
    operands = [
        (a, b, g)
        for a in (-1, 0, 1)
        for b in range(-2, 3)
        if (a, b) != (0, 0)
        for g in (COH_E, COH_SP, COH_SM)
    ]
    skipped = {"exact": 0, "central": 0}
    pairs = 0
    for i, x in enumerate(operands):
        for y in operands[i:]:
            pairs += 1
            before = (len(windows), sum(map(len, engine._rows.values())))
            fwd, rev = pair_reports(engine, x, y)
            if len(windows) > before[0]:
                continue
            assert sum(map(len, engine._rows.values())) == before[1]
            assert fwd.kind == rev.kind and fwd.match and rev.match
            if fwd.kind == "central":
                assert fwd.central_value == rev.central_value == 0
            else:
                assert fwd.kind == "exact" and fwd.rescale == rev.rescale == 1
            skipped[fwd.kind] += 1
    assert pairs == 903
    assert skipped == {"exact": 670, "central": 49}
