"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from importlib.resources import files

import pytest

import gamow
from gamow.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFICATION_FAILURE, main


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                "t": float(cells[0]),
                "entry_l": int(cells[1]),
                "entry_m": int(cells[2]),
                "re": float(cells[3]),
                "im": float(cells[4]),
                "modulus": float(cells[5]),
            }
        )
    return header, rows


class TestEvolve:
    def test_csv_contract_for_binomial_operator(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "evolve", "--gamma", "1.0", "--energy", "2.0", "--r", "2", "--n", "1",
                "--t-end", "5.0", "--steps", "11", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv_rows(out)
        assert header == ["t", "entry_l", "entry_m", "re", "im", "modulus"]
        assert len(rows) == 11 * 4  # full 2x2 table on each of 11 grid points
        base = {
            (row["entry_l"], row["entry_m"]): row["modulus"]
            for row in rows
            if row["t"] == 0.0
        }
        for row in rows:
            expected = base[(row["entry_l"], row["entry_m"])] * math.exp(-row["t"])
            assert abs(row["modulus"] - expected) <= 1e-12

    def test_deterministic_output(self, tmp_path):
        args = [
            "evolve", "--gamma", "0.5", "--r", "3", "--n", "2",
            "--t-end", "3.0", "--steps", "7",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_single_dyad_peaks_at_inverse_width(self, tmp_path):
        config = {
            "E_R": 0.0,
            "Gamma": 2.0,
            "r": 2,
            "operator": {"kind": "dyad", "ket": 1, "bra": 0},
            "grid": {"t_end": 2.0, "steps": 201},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "curve.csv"
        assert main(["evolve", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out)
        corner = [row for row in rows if (row["entry_l"], row["entry_m"]) == (0, 0)]
        peak = max(corner, key=lambda row: row["modulus"])
        # |(-i t) e^{-width t}| peaks at t = 1/width = 0.5
        assert peak["t"] == pytest.approx(0.5, abs=0.011)
        # and the modulus there is t * exp(-width t)
        assert peak["modulus"] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        code = main(
            ["evolve", "--gamma", "1.0", "--r", "1", "--format", "json", "--steps", "3",
             "--t-end", "1.0", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pole"] == {"E_R": 0.0, "Gamma": 1.0, "r": 1}
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["modulus"] == 1.0

    def test_bad_grid_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"grid": {"t_end": -1.0}}))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR
        config_path.write_text(json.dumps({"grid": {"steps": 1}}))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR

    def test_bad_operator_kind_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"operator": {"kind": "mystery"}}))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR

    def test_conflicting_operator_sources_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"operator": {"kind": "binomial", "n": 0}}))
        assert (
            main(["evolve", "--config", str(config_path), "--n", "1"])
            == EXIT_INPUT_ERROR
        )

    def test_order_out_of_range_rejected(self):
        assert main(["evolve", "--r", "1", "--n", "1"]) == EXIT_INPUT_ERROR

    def test_large_times_give_zero_not_nan(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"r": 5, "operator": {"kind": "dyad", "ket": 4, "bra": 4}})
        )
        assert main(["evolve", "--config", str(config_path), "--t-end", "1e100"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 101 * 25
        for line in lines[25:]:
            assert line.split(",", 3)[3] == "0,0,0"


class TestExpCheck:
    def test_order_two_reproduces_theorem(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["exp-check", "--r", "2", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["j"] == 2
        assert payload["solution_dimension"] == 3
        assert payload["expected_dimension"] == 3
        assert payload["binomial_family_matches"] is True
        assert payload["restricted"]["solution_dimension"] == 2
        assert payload["restricted"]["pattern_matches"] is True
        assert payload["forward_pure_exponential"] is True
        assert payload["passed"] is True

    def test_bound_four_has_dimension_five(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["exp-check", "--j", "4", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["solution_dimension"] == 5
        assert "restricted" not in payload

    def test_order_one_is_trivially_exponential(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["exp-check", "--r", "1", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["j"] == 0
        assert payload["solution_dimension"] == 1
        assert payload["restricted"]["solution_dimension"] == 1

    def test_equations_follow_wire_schema(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["exp-check", "--j", "1", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["equations"] == [
            {
                "l": 0,
                "m": 0,
                "n": 1,
                "terms": [
                    {"n": 1, "k": 0, "coeff": [1.0, 0.0]},
                    {"n": 1, "k": 1, "coeff": [-1.0, 0.0]},
                ],
            }
        ]

    def test_missing_bounds_rejected(self):
        assert main(["exp-check"]) == EXIT_INPUT_ERROR

    def test_order_twelve_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["exp-check", "--r", "12", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["solution_dimension"] == 23
        assert payload["restricted"]["solution_dimension"] == 12
        assert payload["passed"] is True


class TestResidue:
    def model_document(self):
        return json.loads(
            files("gamow").joinpath("data/residue_example.json").read_text()
        )

    def test_bundled_example_passes(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(self.model_document()))
        out = tmp_path / "report.json"
        code = main(["residue", "--config", str(model_path), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["tolerance"] == 1e-8
        assert payload["discrepancy"] < 1e-8

    def test_impossible_tolerance_fails_cleanly(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(self.model_document()))
        out = tmp_path / "report.json"
        code = main(
            ["residue", "--config", str(model_path), "--tol", "1e-30", "--out", str(out)]
        )
        assert code == EXIT_VERIFICATION_FAILURE
        payload = json.loads(out.read_text())
        assert payload["passed"] is False

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"E_R": 1.0,\n  "Gamma": }')
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        message = capsys.readouterr().err
        assert "line 2" in message

    def test_missing_field_reports_name(self, tmp_path, capsys):
        document = self.model_document()
        del document["laurent"]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        assert "laurent" in capsys.readouterr().err

    def test_misdeclared_order_rejected(self, tmp_path):
        document = self.model_document()
        document["laurent"] = [[0.0, -0.5], [0.0, 0.0]]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR

    def test_missing_config_flag(self):
        assert main(["residue"]) == EXIT_INPUT_ERROR

    def test_missing_file(self):
        assert main(["residue", "--config", "/nonexistent/model.json"]) == EXIT_INPUT_ERROR


class TestNonFiniteAndInvalidInputs:
    """Bad numbers are input errors (exit 2), never a pass or a verification failure."""

    def test_nan_grid_end(self):
        assert main(["evolve", "--t-end", "nan"]) == EXIT_INPUT_ERROR

    def test_nan_tolerance_cannot_switch_off_the_contract_check(self, capsys):
        assert main(["evolve", "--r", "2", "--n", "1", "--tol", "nan"]) == EXIT_INPUT_ERROR
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--energy"])
    @pytest.mark.parametrize("command", [["evolve"], ["exp-check", "--r", "2"], ["basis", "--r", "2"]])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_pole(self, command, flag, value):
        assert main(command + [f"{flag}={value}"]) == EXIT_INPUT_ERROR

    def test_non_finite_config_values(self, tmp_path):
        config_path = tmp_path / "config.json"
        for document in (
            '{"Gamma": Infinity}',
            '{"grid": {"t_end": NaN}}',
            '{"operator": {"kind": "dyad", "ket": 0, "bra": 0, "coeff": [1.0, Infinity]}}',
        ):
            config_path.write_text(document)
            assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"grid": 5}, "grid"),
            ({"E_R": None}, "E_R"),
            ({"r": None}, "r"),
            ({"r": 2.7}, "r"),
            ({"operator": "binomial"}, "operator"),
            ({"r": 2, "operator": {"kind": "dyad", "ket": None, "bra": 0}}, "operator.ket"),
            (
                {"operator": {"kind": "binomial", "n": 0, "include_prefactor": "false"}},
                "operator.include_prefactor",
            ),
        ],
    )
    def test_config_field_of_the_wrong_type(self, tmp_path, capsys, document, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: {field}: expected ")

    def test_zero_order_names_the_flag(self, capsys):
        assert main(["exp-check", "--r", "0"]) == EXIT_INPUT_ERROR
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["laurent", "num", "E_R"])
    def test_non_finite_model_document(self, tmp_path, capsys, field):
        document = TestResidue().model_document()
        if field == "laurent":
            document["laurent"][-1] = [float("inf"), 0.0]
        elif field == "num":
            document["test_functions"][0]["num"][0] = float("nan")
        else:
            document["E_R"] = float("inf")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        assert "finite" in capsys.readouterr().err

    def test_nan_residue_tolerance(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(TestResidue().model_document()))
        assert main(["residue", "--config", str(model_path), "--tol", "nan"]) == EXIT_INPUT_ERROR


def test_importing_the_cli_does_not_import_scipy():
    code = "import sys, gamow.cli; print('scipy' in sys.modules)"
    search_path = [os.path.dirname(os.path.dirname(gamow.__file__))]
    if os.environ.get("PYTHONPATH"):
        search_path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search_path))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"


class TestBasis:
    def test_order_three_includes_binomial_row(self, tmp_path):
        out = tmp_path / "basis.json"
        assert main(["basis", "--r", "3", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        third = payload[2]
        assert third["n"] == 2
        assert third["entries"] == [
            {"ket": 0, "bra": 2, "coeff": [1.0, 0.0]},
            {"ket": 1, "bra": 1, "coeff": [2.0, 0.0]},
            {"ket": 2, "bra": 0, "coeff": [1.0, 0.0]},
        ]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--r", "2", "--format", "csv", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,ket,bra,re,im"
        assert lines[1] == "0,0,0,1,0"

    def test_missing_order_rejected(self):
        assert main(["basis"]) == EXIT_INPUT_ERROR


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2
