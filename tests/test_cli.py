"""Command-line surface: exit codes, document shapes, metadata echo,
golden documents, and byte-stable output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellwall
from ellwall.cli import RunConfig, build_parser, main
from ellwall.roots import build_elliptic

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


class TestRunConfig:
    def test_overrides_merge_into_conventions(self):
        cfg = RunConfig(command="x", overrides={"extended_derivative": "ddz"})
        conv = cfg.conventions()
        assert conv["extended_derivative"] == "ddz"
        assert "pairing" in conv

    def test_metadata_block(self):
        meta = RunConfig(command="x").metadata()
        assert set(meta) == {"tool_version", "conventions"}


WALL_GOLDENS = [
    ("cli_walls_a-1_n4.json", ["--type", "A-1", "--n", "4"]),
    ("cli_walls_d4_n2.csv", ["--type", "D4", "--n", "2", "--format", "csv"]),
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
        assert doc["metadata"]["tool_version"]
        assert doc["n"] == 4
        assert len(doc["walls"]) == 6
        assert doc["chambers"] == 7
        assert doc["degenerate"] is False

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
    ("cli_monodromy_s_pt_zero.json",
     ["--modes", "2:pt,1:E", "--truncation", "5", "--weight-field", "zero"]),
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

    def test_override_changes_output_and_is_echoed(self, capsys):
        base = run_json(
            capsys, "monodromy", "--generator", "s", "--modes", "2:pt",
            "--truncation", "4",
        )
        alt = run_json(
            capsys, "monodromy", "--generator", "s", "--modes", "2:pt",
            "--truncation", "4", "--weight-field", "zero",
        )
        assert alt["metadata"]["conventions"]["extended_weight_field"] == "zero"
        assert alt["output"] != base["output"]

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


class TestLocal:
    def test_jet_split_case(self, capsys):
        doc = run_json(capsys, "local", "--k", "2", "--a", "0,1", "--n", "1")
        assert doc["jet"] == {"n": 1, "trace": "0", "splits": True}
        assert [row["case"] for row in doc["character_table"]] == ["ext", "ext"]

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

    def test_rational_entries_echoed(self, capsys):
        doc = run_json(capsys, "local", "--k", "2", "--a", "1/2,-3")
        assert doc["a"] == ["1/2", "-3"]

    def test_order_sixty_matches_golden(self, capsys):
        # a period-12 parameter: A_r vanishes unless 5 | r, and the other
        # values are non-rational elements of Q(zeta_60)
        period = ["2", "-1", "0", "1/2", "0", "0", "-3", "0", "1", "0", "0", "1/3"]
        a = ",".join(period[g % 12] for g in range(60))
        rc, out, err = run(capsys, "local", "--k", "60", f"--a={a}", "--n", "5")
        assert rc == 0, err
        assert out == (DATA / "cli_local_k60.json").read_text()

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
        import ellwall.cli as cli

        monkeypatch.setattr(cli, "verify_all", self._stub(True))
        rc, out, err = run(capsys, "verify-all", "--seed", "11")
        assert rc == 0
        assert "seed: 11" in err
        assert "[PASS] stub" in err
        doc = json.loads(out)
        assert doc["seed"] == 11
        assert doc["metadata"]["tool_version"]

    def test_fail_exit_code(self, capsys, monkeypatch):
        import ellwall.cli as cli

        monkeypatch.setattr(cli, "verify_all", self._stub(False))
        rc, _, err = run(capsys, "verify-all")
        assert rc == 1
        assert "[FAIL] stub" in err


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


class TestCrossProcess:
    """The same query in fresh interpreters with different hash seeds
    gives the same bytes: no output depends on set or dict order that
    hashing could change."""

    QUERIES = [["bracket", *argv] for _, argv in BRACKET_GOLDENS] + [
        ["monodromy", "--generator", "s", *argv] for _, argv in MONODROMY_GOLDENS
    ]
    GOLDENS = [g for g, _ in BRACKET_GOLDENS + MONODROMY_GOLDENS]

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
        report = json.loads(first)
        assert report["seed"] == 42 and report["all_pass"]
        assert len(report["criteria"]) == 10
