"""Command-line surface: exit codes, document shapes, metadata echo,
golden documents, and byte-stable output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellwall
from ellwall.cli import build_parser, main
from ellwall.roots import build_elliptic

DATA = Path(__file__).parent / "data"

# stdout of ``ellwall verify-all --seed 42``: the byte contract of the report
VERIFY_ALL_SEED_42_SHA256 = (
    "f81aaf808b70f247bcf3b0d940564634a0429bdc56cfc862f1f710672605ea16"
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


WALL_GOLDENS = [
    ("cli_walls_a-1_n4.json", ["--type", "A-1", "--n", "4"]),
    ("cli_walls_d4_n2.csv", ["--type", "D4", "--n", "2", "--format", "csv"]),
    # the chamber path of CSV
    ("cli_walls_a-1_n3.csv", ["--type", "A-1", "--n", "3", "--format", "csv"]),
]


class TestWalls:
    @pytest.mark.parametrize("golden,argv", WALL_GOLDENS, ids=[g for g, _ in WALL_GOLDENS])
    def test_document_matches_golden(self, capsys, golden, argv):
        # pins the kclass and locus strings as well as the layout
        rc, out, _ = run(capsys, "walls", *argv)
        assert rc == 0
        assert out == (DATA / golden).read_text()

    def test_json_document(self, capsys):
        doc = run_json(capsys, "walls", "--type", "A-1", "--n", "4")
        assert set(doc["metadata"]) == {"tool_version", "conventions"}
        assert doc["metadata"]["tool_version"]
        assert doc["n"] == 4
        assert len(doc["walls"]) == 6
        assert doc["chambers"] == 7
        assert doc["degenerate"] is False

    def test_tool_version_is_the_project_version(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["version"] == ellwall.__version__
        doc = run_json(capsys, "walls", "--n", "1")
        assert doc["metadata"]["tool_version"] == ellwall.__version__

    def test_svg_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "walls.svg"
        rc, out, _ = run(
            capsys, "walls", "--type", "A-1", "--n", "4",
            "--format", "svg", "--out", str(target),
        )
        assert rc == 0
        assert out == ""
        golden = (DATA / "cli_walls_a-1_n4.svg").read_text()
        assert target.read_text() == golden

    def test_svg_embeds_metadata(self, capsys):
        rc, out, _ = run(capsys, "walls", "--type", "A-1", "--n", "2", "--format", "svg")
        assert rc == 0
        assert "<metadata>" in out and '"tool_version"' in out

    def test_csv_has_metadata_comments(self, capsys):
        rc, out, _ = run(capsys, "walls", "--type", "A-1", "--n", "3", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool_version:")
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "root_finite,root_m,root_n,level1_pos,locus"

    def test_n_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["walls", "--type", "A-1", "--n", "0"])
        assert exc.value.code == 2

    def test_wild_type_exits_2(self, capsys):
        rc, out, err = run(capsys, "walls", "--type", "A1", "--n", "3")
        assert rc == 2
        assert "wild" in err
        assert out == ""

    def test_unknown_type_exits_2(self, capsys):
        rc, _, err = run(capsys, "walls", "--type", "Z9", "--n", "3")
        assert rc == 2
        assert "error:" in err

    def test_non_rank0_type_json(self, capsys):
        doc = run_json(capsys, "walls", "--type", "D4", "--n", "1")
        assert doc["type"] == "D4"
        assert doc["walls"]

    def test_non_rank0_svg_rejected(self, capsys):
        rc, _, err = run(capsys, "walls", "--type", "D4", "--n", "1", "--format", "svg")
        assert rc == 2
        assert "A-1" in err

    def test_svg_refuses_walls_on_one_x(self, capsys):
        rc, out, err = run(capsys, "walls", "--n", "19", "--format", "svg")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n = 19" in err


# a rescaled sigma pair, a central pair and a slope-zero pt pair
BRACKET_GOLDENS = [
    ("cli_bracket_sigma_rescaled.json",
     ["--lhs=1,1,sigma+", "--rhs=-1,0,sigma-", "--truncation", "6"]),
    ("cli_bracket_central.json",
     ["--lhs=0,1,E", "--rhs=0,-1,pt", "--truncation", "6"]),
    ("cli_bracket_pt_zero_slope.json",
     ["--lhs=0,2,pt", "--rhs=0,-1,pt", "--truncation", "6"]),
]
MONODROMY_GOLDENS = [
    ("cli_monodromy_s_sigma.json",
     ["--modes", "3:E,2:sigma+,1:sigma-", "--truncation", "6"]),
    ("cli_monodromy_s_pt.json",
     ["--modes", "2:pt,1:E", "--truncation", "5"]),
    # the last generator's images have energy 7, above the truncation
    ("cli_monodromy_s_past_window.json",
     ["--modes", "3:E,3:E,1:E", "--truncation", "5"]),
]


class TestBracket:
    def test_central_pair(self, capsys):
        doc = run_json(capsys, "bracket", "--lhs", "0,1,E", "--rhs", "0,-1,pt")
        assert doc["match"] is True
        assert doc["kind"] == "central"
        assert doc["central"] == {"value": "1"}

    def test_fermionic_square_is_zero(self, capsys):
        doc = run_json(capsys, "bracket", "--lhs", "0,1,sigma+", "--rhs", "0,1,sigma+")
        assert doc["match"] is True
        assert doc["kind"] == "exact"

    def test_slope_mixing_records_factor(self, capsys):
        doc = run_json(capsys, "bracket", "--lhs", "1,0,E", "--rhs", "0,1,E")
        assert doc["match"] is True
        assert doc["rescale_factors"] == {"factor": "1"}

    def test_rescaled_pair(self, capsys):
        doc = run_json(capsys, "bracket", "--lhs", "1,1,sigma+", "--rhs=-1,0,sigma-")
        assert doc["match"] is True
        assert doc["kind"] == "rescaled"
        assert doc["rescale_factors"] == {"factor": "-1"}

    def test_truncation_echoed(self, capsys):
        doc = run_json(
            capsys, "bracket", "--lhs", "0,1,E", "--rhs", "0,-1,E",
            "--truncation", "4",
        )
        assert doc["truncation"] == 4

    def test_bad_label_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bracket", "--lhs", "0,1,Q", "--rhs", "0,1,E"])
        assert exc.value.code == 2

    def test_malformed_operand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bracket", "--lhs", "0,1", "--rhs", "0,1,E"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("golden,argv", BRACKET_GOLDENS)
    def test_bracket_matches_golden(self, capsys, golden, argv):
        rc, out, err = run(capsys, "bracket", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()

    def test_empty_window_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "bracket", "--lhs", "0,-3,E", "--rhs", "0,-3,E",
            "--truncation", "5",
        )
        assert rc == 2
        assert "error:" in err


class TestMonodromy:
    def test_fiber_generator_twice_is_identity(self, capsys):
        doc = run_json(
            capsys, "monodromy", "--generator", "ff",
            "--modes", "2:E,1:sigma+", "--charge", "1",
        )
        assert doc["output"] == doc["input"]

    def test_fiber_sign_and_charge(self, capsys):
        doc = run_json(capsys, "monodromy", "--generator", "f", "--modes", "2:E")
        assert doc["output"] == {
            "charge": -2,
            "terms": [{"modes": [[2, "E"]], "coeff": "-1"}],
        }

    def test_section_fixes_vacuum(self, capsys):
        doc = run_json(capsys, "monodromy", "--generator", "s")
        assert doc["output"] == {"charge": 0, "terms": [{"modes": [], "coeff": "1"}]}

    def test_section_needs_neutral_charge(self, capsys):
        rc, _, err = run(
            capsys, "monodromy", "--generator", "s", "--modes", "1:E",
            "--charge", "2",
        )
        assert rc == 2
        assert "charge" in err

    def test_extended_mode_with_default_config(self, capsys):
        doc = run_json(
            capsys, "monodromy", "--generator", "s", "--modes", "1:pt",
            "--truncation", "4",
        )
        conv = doc["metadata"]["conventions"]
        assert conv["extended_weight_field"] == "symplectic_fermion"
        assert conv["extended_derivative"] == "z_ddz"
        assert doc["output"]["terms"]

    @pytest.mark.parametrize(
        "flag", (["--weight-field", "zero"], ["--derivative", "ddz"]),
        ids=("weight-field", "derivative"),
    )
    def test_removed_convention_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", "--generator", "s", "--modes", "2:pt", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_odd_mode_square_collapses_to_zero(self, capsys):
        doc = run_json(
            capsys, "monodromy", "--generator", "f",
            "--modes", "1:sigma+,1:sigma+",
        )
        assert doc["input"]["terms"] == []
        assert doc["output"]["terms"] == []

    @pytest.mark.parametrize(
        "modes,canonical,sign",
        [
            ("1:sigma-,1:sigma+", [[1, "sigma+"], [1, "sigma-"]], "-1"),
            ("1:sigma+,1:sigma-", [[1, "sigma+"], [1, "sigma-"]], "1"),
            ("2:sigma-,1:E,2:sigma+", [[2, "sigma+"], [2, "sigma-"], [1, "E"]], "-1"),
        ],
    )
    def test_input_carries_the_odd_reordering_sign(self, capsys, modes, canonical, sign):
        doc = run_json(capsys, "monodromy", "--generator", "f", "--modes", modes)
        assert doc["input"]["terms"] == [{"modes": canonical, "coeff": sign}]

    def test_bad_mode_index_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", "--generator", "f", "--modes", "0:E"])
        assert exc.value.code == 2

    def test_window_overflow_is_usage_error(self, capsys):
        # the third generator would act on a state of energy 6 > 5
        rc, out, err = run(
            capsys, "monodromy", "--generator", "s",
            "--modes", "3:E,3:E,3:E", "--truncation", "5",
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "window 5" in err

    @pytest.mark.parametrize("golden,argv", MONODROMY_GOLDENS)
    def test_section_matches_golden(self, capsys, golden, argv):
        rc, out, err = run(capsys, "monodromy", "--generator", "s", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()


class TestQueryStream:
    def test_calls_in_one_process_match_single_runs(self, capsys):
        """A stream of ``main`` calls shares one parser: a usage error
        between two valid queries still exits 2, and each valid query
        prints the bytes of its golden, a run of that query alone."""
        bracket_golden, bracket_argv = BRACKET_GOLDENS[0]
        rc, out, err = run(capsys, "bracket", *bracket_argv)
        assert rc == 0, err
        assert out == (DATA / bracket_golden).read_text()
        with pytest.raises(SystemExit) as exc:
            main(["bracket", "--lhs=0,1,E", "--rhs=0,-1,E", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        monodromy_golden, monodromy_argv = MONODROMY_GOLDENS[1]
        rc, out, err = run(capsys, "monodromy", "--generator", "s", *monodromy_argv)
        assert rc == 0, err
        assert out == (DATA / monodromy_golden).read_text()
        assert build_parser() is build_parser()


# a period-12 parameter: A_r vanishes unless 5 | r, and the other values
# are non-rational elements of Q(zeta_60)
PERIOD_12 = ["2", "-1", "0", "1/2", "0", "0", "-3", "0", "1", "0", "0", "1/3"]
LOCAL_GOLDENS = [
    ("cli_local_k60.json",
     ["--k", "60", "--a=" + ",".join(PERIOD_12[g % 12] for g in range(60)), "--n", "5"]),
    # CSV carries the character table alone, without the jet block
    ("cli_local_k6_n2.csv",
     ["--k", "6", "--a", "1,1,0,0,0,0", "--n", "2", "--format", "csv"]),
]
HH0_GOLDENS = [
    ("cli_hh0.json", []),
    ("cli_hh0.csv", ["--format", "csv"]),
]
ROOTS_GOLDENS = [
    ("cli_roots_a2_m1_n1.json", ["--type", "A2", "--m-max", "1", "--n-max", "1"]),
    ("cli_roots_a2_m1_n1.csv",
     ["--type", "A2", "--m-max", "1", "--n-max", "1", "--format", "csv"]),
]


class TestLocal:
    def test_jet_split_case(self, capsys):
        doc = run_json(capsys, "local", "--k", "2", "--a", "0,1", "--n", "1")
        assert doc["jet"] == {"n": 1, "trace": "0", "splits": True}
        assert [row["case"] for row in doc["character_table"]] == ["ext", "ext"]

    @pytest.mark.parametrize(
        "a,trace,split", [("1,1", "4", False), ("0,1", "0", True)]
    )
    def test_jet_past_the_order_reads_characters_mod_k(self, capsys, a, trace, split):
        # n = 3 >= k = 2: the trace is A_0 + A_1 + A_0 + A_1
        doc = run_json(capsys, "local", "--k", "2", "--a", a, "--n", "3")
        assert doc["jet"] == {"n": 3, "trace": trace, "splits": split}

    def test_zero_parameter_all_split(self, capsys):
        doc = run_json(capsys, "local", "--k", "3")
        assert all(row["case"] == "split" for row in doc["character_table"])
        assert "jet" not in doc

    def test_order_six_csv_table(self, capsys):
        rc, out, _ = run(
            capsys, "local", "--k", "6", "--a", "1,1,0,0,0,0", "--format", "csv",
        )
        assert rc == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows == [
            "i,A_i,case",
            "0,2,ext",
            "1,1 + z,ext",
            "2,z,ext",
            "3,0,split",
            "4,1 + -1*z,ext",
            "5,2 + -1*z,ext",
        ]

    def test_wrong_coefficient_count_exits_2(self, capsys):
        rc, _, err = run(capsys, "local", "--k", "3", "--a", "1,2")
        assert rc == 2
        assert "3 coefficients" in err

    @pytest.mark.parametrize(
        "a,why",
        [
            ("1/0,1,1", "zero denominator in '1/0'"),
            ("1,-2/0,1", "zero denominator in '-2/0'"),
            ("x,1,1", "Invalid literal for Fraction: 'x'"),
        ],
    )
    def test_bad_rational_is_usage_error(self, capsys, a, why):
        """A bad entry is named in the usage error, a zero denominator as
        such rather than as the Fraction it could not build."""
        with pytest.raises(SystemExit) as exc:
            main(["local", "--k", "3", "--a", a])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"ellwall local: error: argument --a: bad rational list {a!r}: {why}"

    def test_rational_entries_echoed(self, capsys):
        doc = run_json(capsys, "local", "--k", "2", "--a", "1/2,-3")
        assert doc["a"] == ["1/2", "-3"]

    def test_order_sixty_matches_golden(self, capsys):
        golden, argv = LOCAL_GOLDENS[0]
        rc, out, err = run(capsys, "local", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()

    def test_csv_leaves_out_the_jet(self, capsys):
        golden, argv = LOCAL_GOLDENS[1]
        rc, out, err = run(capsys, "local", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()

    def test_order_210_character_table(self, capsys):
        # the indicator of the generator: A_r = zeta^r, all distinct
        a = ",".join("1" if g == 1 else "0" for g in range(210))
        doc = run_json(capsys, "local", "--k", "210", f"--a={a}", "--n", "2")
        values = [row["A_i"] for row in doc["character_table"]]
        assert len(values) == len(set(values)) == 210
        assert values[:3] == ["1", "z", "z^2"]
        assert values[47] == "z^47"  # deg Phi_210 = 48
        assert values[105] == "-1"
        assert all(row["case"] == "ext" for row in doc["character_table"])
        assert doc["jet"] == {"n": 2, "trace": "1 + z + z^2", "splits": False}


class TestHH0:
    def test_table_csv(self, capsys):
        rc, out, _ = run(capsys, "hh0", "--format", "csv")
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows == [
            "order,dimension",
            "1,2",
            "2,6",
            "3,8",
            "4,9",
            "6,10",
        ]

    def test_single_order_audit(self, capsys):
        doc = run_json(capsys, "hh0", "--order", "4")
        (audit,) = doc["orders"]
        assert audit["table_value"] == 9
        assert audit["orbit_total"] == 9
        assert audit["naive_total"] == 10

    def test_unsupported_order_exits_2(self, capsys):
        rc, _, err = run(capsys, "hh0", "--order", "5")
        assert rc == 2
        assert "order" in err

    @pytest.mark.parametrize("golden,argv", HH0_GOLDENS, ids=[g for g, _ in HH0_GOLDENS])
    def test_document_matches_golden(self, capsys, golden, argv):
        # pins the metadata block: every convention string and its key
        rc, out, err = run(capsys, "hh0", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()


class TestRoots:
    def test_box_document(self, capsys):
        doc = run_json(capsys, "roots", "--type", "A1", "--m-max", "1", "--n-max", "1")
        system = build_elliptic("A1")
        expected = system.roots_in_box(1, 1, None)
        assert doc["count"] == len(expected)
        reals = [r["real"] for r in doc["roots"]]
        assert True in reals and False in reals

    def test_unknown_type_exits_2(self, capsys):
        rc, _, err = run(capsys, "roots", "--type", "X9")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("golden,argv", ROOTS_GOLDENS, ids=[g for g, _ in ROOTS_GOLDENS])
    def test_document_matches_golden(self, capsys, golden, argv):
        rc, out, err = run(capsys, "roots", *argv)
        assert rc == 0, err
        assert out == (DATA / golden).read_text()


_SURFACES = "('A-1', 'D4', 'E6', 'E7', 'E8')"

# one request per refusal a command makes after parsing, with its whole
# stderr: each is one library ValueError, printed once by ``main``
REFUSALS = [
    (["walls", "--type", "A0", "--n", "2"],
     "type A0 is wild: its point-counting moduli do not admit the wall "
     f"description; choose one of {_SURFACES}"),
    (["walls", "--type", "G2", "--n", "2"],
     f"type G2 has no equivariant surface model; choose one of {_SURFACES}"),
    (["walls", "--type", "D4", "--n", "2", "--format", "svg"],
     "chamber positions on the level-1 line are modeled for type A-1 only; "
     "other types expose wall lists via WallChart.walls"),
    (["walls", "--n", "19", "--format", "svg"],
     "walls 8/9 and 9/10 both fall at x = 456: the chart cannot separate "
     "the walls of n = 19"),
    (["bracket", "--lhs", "0,0,E", "--rhs", "1,0,E"],
     "the (0, 0) generator is excluded"),
    (["bracket", "--lhs", "1,0,pt", "--rhs", "0,1,E"],
     "pt-label slope fields are an extended mode: no bracket relation is "
     "checked for them"),
    (["bracket", "--lhs", "0,-3,E", "--rhs", "0,-3,E", "--truncation", "2"],
     "truncation 2 too small for modes -3, -3"),
    (["monodromy", "--generator", "s", "--charge", "1"],
     "the section-type action is defined on charge-0 states"),
    (["local", "--k", "3", "--a", "1,2"],
     "need 3 coefficients for order 3, got 2"),
    (["hh0", "--order", "5"],
     "no elliptic symmetry of order 5; supported: 1, 2, 3, 4, 6"),
    (["roots", "--type", "bogus"],
     "unknown type 'bogus'; expected one of ('A-1', 'A0', 'A1', 'A2', 'G2', "
     "'D4', 'F4', 'E6', 'E7', 'E8')"),
]


@pytest.mark.parametrize(
    "argv,message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS]
)
def test_refusal_is_one_error_line(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


class TestVerifyAllPlumbing:
    """Exit-code and document plumbing with a stubbed runner; the real
    end-to-end run lives in the acceptance suite."""

    @staticmethod
    def _stub(all_pass):
        def fake(seed):
            report = {
                "seed": seed,
                "criteria": [{"criterion": "stub", "pass": all_pass}],
                "all_pass": all_pass,
            }
            return report, {"stub": 0.0}

        return fake

    def test_pass_exit_code_and_seed_echo(self, capsys, monkeypatch):
        import ellwall.verify as verify

        monkeypatch.setattr(verify, "verify_all", self._stub(True))
        rc, out, err = run(capsys, "verify-all", "--seed", "11")
        assert rc == 0
        assert "seed: 11" in err
        assert "[PASS] stub" in err
        doc = json.loads(out)
        assert doc["seed"] == 11
        assert doc["metadata"]["tool_version"]

    def test_fail_exit_code(self, capsys, monkeypatch):
        import ellwall.verify as verify

        monkeypatch.setattr(verify, "verify_all", self._stub(False))
        rc, _, err = run(capsys, "verify-all")
        assert rc == 1
        assert "[FAIL] stub" in err

    @pytest.mark.parametrize(
        "exc", [ValueError("bad order"), ArithmeticError("no inverse")], ids=repr
    )
    def test_raising_criterion_is_reported_failed(self, capsys, monkeypatch, exc):
        """The runner reports a check that raises as failed and runs the
        rest, and the command exits 1 with its report, not as a usage
        error (2) or with a traceback.  Every check but c01 raises here."""
        import ellwall.verify as verify

        def raising(**_):
            raise exc

        for name in [n for n in vars(verify) if n.startswith("check_")]:
            if name != "check_hh0_table":
                monkeypatch.setattr(verify, name, raising)
        rc, out, err = run(capsys, "verify-all", "--seed", "5")
        assert rc == 1
        doc = json.loads(out)
        passed, *failed = doc["criteria"]
        assert passed["criterion"] == "hh0-table" and passed["pass"] is True
        assert "error" not in passed
        assert len(failed) == 9
        for entry in failed:
            assert entry == {
                "criterion": entry["criterion"],
                "pass": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        assert doc["all_pass"] is False
        assert err.count("[FAIL] ") == 9 and "Traceback" not in err

    @pytest.mark.parametrize("all_pass", [True, False])
    def test_unopenable_out_exits_2(self, capsys, monkeypatch, tmp_path, all_pass):
        import ellwall.verify as verify

        monkeypatch.setattr(verify, "verify_all", self._stub(all_pass))
        target = tmp_path / "missing" / "report.json"
        rc, out, err = run(capsys, "verify-all", "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err.endswith(f"error: cannot write {target}: No such file or directory\n")


class TestDeterminism:
    CASES = [
        ("walls", "--type", "A-1", "--n", "5"),
        ("walls", "--type", "A-1", "--n", "4", "--format", "svg"),
        ("walls", "--type", "D4", "--n", "1", "--format", "csv"),
        ("bracket", "--lhs", "0,1,E", "--rhs", "0,-1,pt"),
        ("monodromy", "--generator", "s", "--modes", "2:E,1:E"),
        ("local", "--k", "4", "--a", "1,2,3,4", "--n", "2"),
        ("hh0",),
        ("roots", "--type", "A2", "--m-max", "1", "--n-max", "1"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: c[0])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "hh0")
        target = tmp_path / "doc.json"
        rc2, piped, _ = run(capsys, "hh0", "--out", str(target))
        assert rc == rc2 == 0
        assert piped == ""
        assert target.read_text() == out

    def test_unopenable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "doc.json"
        rc, out, err = run(capsys, "hh0", "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


HELP_COMMANDS = ["walls", "bracket", "monodromy", "local", "hh0", "roots", "verify-all"]


class TestHelp:
    """The help texts are pinned at 80 columns, since argparse wraps help
    to the terminal width that ``COLUMNS`` sets."""

    @pytest.mark.parametrize("command", [None, *HELP_COMMANDS])
    def test_help_matches_golden(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        golden = f"cli_help_{command}.txt" if command else "cli_help.txt"
        assert capsys.readouterr().out == (DATA / golden).read_text()


class TestCrossProcess:
    """The same query in fresh interpreters with different hash seeds
    gives the same bytes: no output depends on set or dict order that
    hashing could change.  A fresh interpreter also runs each command's
    own imports with nothing loaded before them."""

    QUERIES = (
        [["bracket", *argv] for _, argv in BRACKET_GOLDENS]
        + [["monodromy", "--generator", "s", *argv] for _, argv in MONODROMY_GOLDENS]
        + [["walls", *argv] for _, argv in WALL_GOLDENS]
        + [["local", *argv] for _, argv in LOCAL_GOLDENS]
        + [["hh0", *argv] for _, argv in HH0_GOLDENS]
        + [["roots", *argv] for _, argv in ROOTS_GOLDENS]
    )
    GOLDENS = [
        g for g, _ in BRACKET_GOLDENS + MONODROMY_GOLDENS + WALL_GOLDENS
        + LOCAL_GOLDENS + HH0_GOLDENS + ROOTS_GOLDENS
    ]

    # the exact-local criteria at their verify-all sizes, with fixed seeds
    EXACT_LOCAL = (
        "from ellwall import serialize, verify\n"
        "print(serialize.to_json([\n"
        "    verify.check_jet_splitting(500, 4, seed=11),\n"
        "    verify.check_tensor_table(200, seed=12),\n"
        "    verify.check_wall_sets(12),\n"
        "    verify.check_wall_sign_flip(6, 100, seed=13),\n"
        "]))\n"
    )

    @staticmethod
    def run_fresh(argv, hash_seed, entry=("-m", "ellwall")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = str(Path(ellwall.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, *entry, *argv],
            env=env, capture_output=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    @pytest.mark.parametrize(
        "argv,golden", list(zip(QUERIES, GOLDENS)), ids=GOLDENS
    )
    def test_hash_seed_does_not_change_bytes(self, argv, golden):
        first = self.run_fresh(argv, "1")
        second = self.run_fresh(argv, "2718")
        assert first == second
        assert first == (DATA / golden).read_bytes()

    def test_exact_local_checks_do_not_depend_on_hash_seed(self):
        first = self.run_fresh([], "1", entry=("-c", self.EXACT_LOCAL))
        second = self.run_fresh([], "2718", entry=("-c", self.EXACT_LOCAL))
        assert first == second
        reports = json.loads(first)
        assert [r["criterion"] for r in reports] == [
            "jet-splitting", "tensor-table", "wall-root-sets", "wall-sign-flip"
        ]
        assert all(r["pass"] for r in reports)

    def test_verify_all_does_not_depend_on_hash_seed(self):
        # the real verify-all sizes: two cold runs take about 8 s
        argv = ["verify-all", "--seed", "42"]
        first = self.run_fresh(argv, "1")
        second = self.run_fresh(argv, "2718")
        assert first == second
        assert hashlib.sha256(first).hexdigest() == VERIFY_ALL_SEED_42_SHA256
        report = json.loads(first)
        assert report["seed"] == 42 and report["all_pass"]
        assert len(report["criteria"]) == 10

    # verify-all with one criterion's report in the iteration order of a
    # set of strings, which the hash seed sets
    HASH_ORDERED = (
        "import sys\n"
        "from ellwall import cli, verify\n"
        "real = verify.check_weyl_relations\n"
        "def hash_ordered():\n"
        "    names = {'E', 'sigma+', 'sigma-', 'pt', 'A1', 'A2', 'D4', 'E8'}\n"
        "    return {**real(), 'types': list(names)}\n"
        "verify.check_weyl_relations = hash_ordered\n"
        "sys.exit(cli.main(['verify-all', '--seed', '42']))\n"
    )

    def test_a_report_in_hash_order_changes_bytes(self):
        """The comparison above bites: a report that follows hash order
        passes every criterion but differs between the two hash seeds."""
        first = self.run_fresh([], "1", entry=("-c", self.HASH_ORDERED))
        second = self.run_fresh([], "2718", entry=("-c", self.HASH_ORDERED))
        assert json.loads(first)["all_pass"] and json.loads(second)["all_pass"]
        assert first != second


class TestImportBoundary:
    """``import ellwall.cli`` and the bracket and monodromy queries load
    the Fock stack and the serializer alone: the other commands import
    their modules when they run, so a query process neither loads nor
    compiles them."""

    QUERY_PATH = {"ellwall", "ellwall.cli", "ellwall.serialize", "ellwall.fock"} | {
        f"ellwall.fock.{m}"
        for m in ("labels", "states", "operators", "fastapply", "monodromy", "verify")
    }

    PROBE = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return {\n"
        "        'ellwall': sorted(m for m in sys.modules if m.split('.')[0] == 'ellwall'),\n"
        "        'unused': [m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules],\n"
        "    }\n"
        "import ellwall.cli as cli\n"
        "after_import = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        cli.main(['bracket', '--lhs=1,1,sigma+', '--rhs=-1,0,sigma-', '--truncation', '4']),\n"
        "        cli.main(['monodromy', '--generator', 's', '--modes', '2:pt,1:E', '--truncation', '4']),\n"
        "    ]\n"
        "print(json.dumps({'after_import': after_import, 'codes': codes, 'after_queries': loaded()}))\n"
    )

    def test_query_process_loads_only_the_fock_stack(self):
        out = json.loads(TestCrossProcess.run_fresh([], "1", entry=("-c", self.PROBE)))
        assert out["codes"] == [0, 0]
        for stage in ("after_import", "after_queries"):
            assert set(out[stage]["ellwall"]) == self.QUERY_PATH, stage
            assert out[stage]["unused"] == [], stage

    LOCAL_PROBE = (
        "import contextlib, io, json, sys\n"
        "import ellwall.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        cli.main(['local', '--k', '4', '--a', '1,0,1,0', '--n', '2']),\n"
        "        cli.main(['hh0']),\n"
        "        cli.main(['hh0', '--order', '5']),\n"
        "    ]\n"
        "wall_layer = [m for m in ('ellwall.walls', 'ellwall.lattices') if m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'wall_layer': wall_layer}))\n"
    )

    def test_local_and_hh0_load_no_wall_layer(self):
        """The local calculus and its unsupported-order error live below
        the wall layer, so ``local`` and ``hh0`` runs never load it."""
        out = json.loads(TestCrossProcess.run_fresh([], "1", entry=("-c", self.LOCAL_PROBE)))
        assert out == {"codes": [0, 0, 2], "wall_layer": []}

    # the exact criteria at small sizes, in a process that loads the
    # value records of every exact module
    EXACT_PROBE = (
        "import json, sys\n"
        "from ellwall import verify\n"
        "reports = [\n"
        "    verify.check_hh0_table(), verify.check_wall_sets(3),\n"
        "    verify.check_weyl_relations(2), verify.check_tensor_table(5, seed=1),\n"
        "]\n"
        "unused = [m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules]\n"
        "print(json.dumps({'passes': [r['pass'] for r in reports], 'unused': unused}))\n"
    )

    def test_exact_checks_load_no_dataclasses(self):
        """The value records are plain classes, so a cold ``ellwall.verify``
        process never pays for ``dataclasses`` and the ``inspect``, ``ast``
        and ``dis`` modules it imports."""
        out = json.loads(TestCrossProcess.run_fresh([], "1", entry=("-c", self.EXACT_PROBE)))
        assert out == {"passes": [True] * 4, "unused": []}

    @pytest.mark.parametrize(
        "module,loads",
        [
            ("ellwall.fock.labels", set()),
            ("ellwall.fock.states", {"ellwall.fock.labels"}),
            (
                "ellwall.fock.verify",
                {f"ellwall.fock.{m}" for m in ("labels", "states", "operators", "fastapply")},
            ),
            ("ellwall.localmodel", {"ellwall.cyclotomic", "ellwall.roots", "ellwall.weyl"}),
        ],
    )
    def test_fock_module_loads_only_its_own_imports(self, module, loads):
        """``ellwall.fock`` is a bare package: importing one Fock module
        loads that module and what it imports, not the rest of the stack.
        Exact values print through ``str``, so neither a Fock module nor
        the local calculus loads the serializer."""
        probe = (
            f"import json, sys, {module}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ellwall')))\n"
        )
        out = json.loads(TestCrossProcess.run_fresh([], "1", entry=("-c", probe)))
        package = module.rpartition(".")[0]  # ellwall.fock, or ellwall itself
        assert set(out) == {"ellwall", package, module} | loads
