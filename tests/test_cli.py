"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamow
from gamow import cli, operators
from gamow.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFICATION_FAILURE, _build_parser, main
from gamow.exact import ComplexRational
from gamow.jordan import ComplexPole
from gamow.operators import (
    CoefficientMatrix,
    evolve_operator,
    exponential_state_operator,
    operator_from_coefficients,
)

EXAMPLE_MODEL = str(files("gamow") / "data" / "residue_example.json")


MISSING = object()  # a field the test deletes from the document


def assert_field_refused(status, capsys, field):
    """Exit 2, nothing on stdout, and stderr naming `field` as missing or of the wrong type."""
    assert status == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"input error: {re.escape(field)}: "
                        r"(missing required field|expected .+, got .+)\n", err), err


def edited(document, path, value):
    """`document` with the field at `path` (keys and indices) set to `value`, or deleted."""
    target = document
    for step in path[:-1]:
        target = target[step]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return document


def field_name(path):
    """The path of a document field as refusals name it, e.g. .test_functions[0].role."""
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


def exit_status(argv):
    """The status `main(argv)` exits with, also where argparse raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    def test_overflowing_polynomial_under_a_nonzero_decay_factor(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "Gamma": 7e-38, "r": 5, "operator": {"kind": "dyad", "ket": 4, "bra": 4},
            "grid": {"t_end": 1e40, "steps": 3},
        }))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        # entry (0,0) is t^8 exp(-Gamma t), whose t^8 alone overflows
        for row in rows:
            t = float(row[0])
            if row[1:3] == ["0", "0"] and t:
                expected = math.exp(8 * math.log(t) - 7e-38 * t)
                assert float(row[3]) == pytest.approx(expected, rel=1e-12)
                assert float(row[5]) == pytest.approx(expected, rel=1e-12)

    def test_value_beyond_the_float_range_fails_and_writes_nothing(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "Gamma": 1e-300, "r": 5, "operator": {"kind": "dyad", "ket": 4, "bra": 4},
        }))
        code = main(["evolve", "--config", str(config_path), "--t-end", "1e100"])
        assert code == EXIT_VERIFICATION_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float range" in captured.err

    def test_include_prefactor_is_not_a_flag(self, capsys):
        assert exit_status(["evolve", "--include-prefactor"]) == EXIT_INPUT_ERROR
        assert exit_status(["evolve", "--n", "0", "--include-prefactor"]) == EXIT_INPUT_ERROR
        assert "--include-prefactor" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flag_and_config_routes_write_the_same_bytes(self, tmp_path, fmt):
        """Both routes take the width^n/n! prefactor: modulus 2 at (0,1), t = 0."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"Gamma": 2, "r": 2,
                                           "operator": {"kind": "binomial", "n": 1}}))
        by_config, by_flags = tmp_path / "config.out", tmp_path / "flags.out"
        common = ["--format", fmt, "--steps", "5"]
        assert main(["evolve", "--config", str(config_path), *common,
                     "--out", str(by_config)]) == EXIT_OK
        assert main(["evolve", "--gamma", "2", "--r", "2", "--n", "1", *common,
                     "--out", str(by_flags)]) == EXIT_OK
        assert by_flags.read_bytes() == by_config.read_bytes()
        if fmt == "csv":
            _, rows = read_csv_rows(by_flags)
            assert rows[1]["t"] == 0 and (rows[1]["entry_l"], rows[1]["entry_m"]) == (0, 1)
            assert rows[1]["modulus"] == 2.0

    def test_contract_tolerance_scales_with_a_large_modulus(self, tmp_path, capsys):
        """Moduli near 3e6 differ by an ulp (4.7e-10), far above an absolute 1e-12."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"E_R": 0, "Gamma": 0.7, "r": 1, "operator": {
            "kind": "coefficients", "entries": [{"ket": 0, "bra": 0, "coeff": [1e6, 3e6]}],
        }}))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_contract_violation_fails_verification(self, tmp_path, capsys, monkeypatch):
        """A dyad's entries carry powers of t, so claiming it is pure exponential must fail."""
        monkeypatch.setattr(cli, "is_pure_exponential", lambda evolved: True)
        out = tmp_path / "curve.csv"
        argv = ["evolve", "--r", "2", "--steps", "5", "--out", str(out)]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"operator": {"kind": "dyad", "ket": 0, "bra": 1}}))
        assert main([*argv, "--config", str(config_path)]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr().err.startswith("pure-exponential contract violated at t=")
        assert out.read_text().startswith("t,entry_l,entry_m,re,im,modulus\n")


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

    @pytest.mark.parametrize("argv", [["--j", str(j)] for j in range(11)]
                             + [["--r", str(r)] for r in range(1, 9)])
    def test_text_is_the_json_dump_of_the_dict_payload(self, tmp_path, argv):
        """The equation list is written without the encoder, in the encoder's bytes."""
        out = tmp_path / "report.json"
        assert main(["exp-check", *argv, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        payload = json.loads(text)
        system = operators.exponentiality_constraints(payload["j"])
        payload["equations"] = system.to_json_dict()["equations"]
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (payload["equations"] == []) == (payload["j"] == 0)

    def test_missing_bounds_rejected(self):
        assert main(["exp-check"]) == EXIT_INPUT_ERROR

    def test_constraint_system_is_built_once(self, tmp_path, monkeypatch):
        built = []
        equation = operators.ConstraintEquation
        monkeypatch.setattr(
            operators, "ConstraintEquation", lambda *args: built.append(args) or equation(*args)
        )
        operators.exponentiality_constraints.cache_clear()
        assert main(["exp-check", "--r", "4", "--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert len(built) == 56
        assert len({args[:3] for args in built}) == 56  # distinct (l, m, n)

    def test_family_mismatch_fails_verification(self, tmp_path, capsys, monkeypatch):
        def mismatch(system, family):
            raise ArithmeticError("member 1 is not in the nullspace")

        monkeypatch.setattr(cli, "binomial_family_matches_nullspace", mismatch)
        out = tmp_path / "report.json"
        assert main(["exp-check", "--r", "3", "--out", str(out)]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr().err == (
            "closed-form verification failed: member 1 is not in the nullspace\n"
        )
        payload = json.loads(out.read_text())
        assert payload["binomial_family_matches"] is False
        assert payload["forward_pure_exponential"] is True
        assert payload["passed"] is False

    def test_forward_check_failure_fails_verification(self, tmp_path, capsys, monkeypatch):
        def not_exponential(pole):
            raise ArithmeticError("member 2 does not evolve purely exponentially")

        monkeypatch.setattr(cli, "exponential_subspace_basis", not_exponential)
        out = tmp_path / "report.json"
        assert main(["exp-check", "--r", "3", "--out", str(out)]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr().err == (
            "forward verification failed: member 2 does not evolve purely exponentially\n"
        )
        payload = json.loads(out.read_text())
        assert payload["binomial_family_matches"] is True
        assert payload["forward_pure_exponential"] is False
        assert payload["passed"] is False

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

    def failure_output(self, model_path, capsys, *flags):
        """stdout and stderr of a failing check; stdout is the bytes --out writes."""
        argv = ["residue", "--config", str(model_path), *flags]
        out = model_path.parent / "report.json"
        assert main(argv + ["--out", str(out)]) == EXIT_VERIFICATION_FAILURE
        capsys.readouterr()
        assert main(argv) == EXIT_VERIFICATION_FAILURE
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        return json.loads(captured.out), captured.err

    def test_tolerance_failure_names_the_discrepancy(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(self.model_document()))
        payload, err = self.failure_output(model_path, capsys, "--tol", "1e-300")
        assert payload["converged"] is True
        assert err == (
            f"contour decomposition check failed: discrepancy {payload['discrepancy']!r} "
            "against tolerance 1e-300\n"
        )

    def test_unconverged_piece_is_named(self, tmp_path, capsys):
        # the smatrix tests' higher-order model at order 24, Gamma = 1, its
        # Laurent coefficients rounded to floats: the direct piece's leg
        # across the peak, E_R +- Gamma/2, reports roundoff (QUADPACK status
        # 2) with the discrepancy inside the tolerance, and the background
        # piece converges
        laurent = [[(n % 5 - 2) / 4, 1 / (n + 2)] for n in range(24)]
        document = {
            "E_R": 1.5, "Gamma": 1.0, "r": 24, "laurent": laurent,
            "test_functions": [
                {"role": "ket", "num": [[1.0, -0.5]], "den": [[-2.0, 1.0], [-0.5, -2.5], [1.0, 0.0]]},
                {"role": "bra", "num": [[-0.75, 0.25]], "den": [[-0.5, -0.75], [1.0, 0.0]]},
            ],
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        payload, err = self.failure_output(model_path, capsys)
        assert payload["converged"] is False
        assert payload["discrepancy"] <= payload["tolerance"]
        assert err == (
            f"contour decomposition check failed: discrepancy {payload['discrepancy']!r} "
            "against tolerance 1e-08; quadrature of the direct piece did not converge "
            "(leg [1, 2]: ier 2, roundoff)\n"
        )

    def test_a_wide_pole_window_resolves_the_test_functions(self, tmp_path):
        # E_R 0, Gamma 1e6: legs split only at E_R +- 10*Gamma missed the
        # test functions' poles at |z| <= 5 (exit 1, discrepancy 3.56); the
        # rungs +-R*2^k resolve them, and `direct` agrees with scipy's quad
        from scipy.integrate import quad

        document = dict(self.model_document(), E_R=0.0, Gamma=1e6)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        out = tmp_path / "report.json"
        assert main(["residue", "--config", str(model_path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

        def poly(coefficients, z):
            return sum((complex(*c) if isinstance(c, list) else c) * z**k
                       for k, c in enumerate(coefficients))

        pole = complex(0.0, -0.5e6)
        ket, bra = document["test_functions"]
        background = document["background"]

        def amplitude(e):
            principal = sum(complex(*c) / (e - pole) ** (n + 1)
                            for n, c in enumerate(document["laurent"]))
            principal += poly(background["num"], e) / poly(background["den"], e)
            return (poly(ket["num"], e) / poly(ket["den"], e) * principal
                    * poly(bra["num"], e) / poly(bra["den"], e))

        def integral(part, lo, hi):
            return quad(lambda e: part(amplitude(e)), lo, hi, epsabs=1e-14, epsrel=1e-12)[0]

        expected = sum(complex(integral(lambda a: a.real, lo, hi), integral(lambda a: a.imag, lo, hi))
                       for lo, hi in ((0.0, 20.0), (20.0, math.inf)))
        assert abs(expected - (-7.42e-4j)) < 1e-6
        assert abs(complex(*payload["direct"]) - expected) <= 1e-8

    def test_a_pole_window_far_wider_never_passes_silently(self, tmp_path, capsys):
        # E_R 0, Gamma 1e90: legs split only at E_R +- 10*Gamma saw 0.0 for
        # both pieces and passed; the true direct is -7.42e-4 i
        document = dict(self.model_document(), E_R=0.0, Gamma=1e90)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        code = main(["residue", "--config", str(model_path)])
        out = capsys.readouterr().out
        assert not (code == EXIT_OK or out and json.loads(out)["passed"])

    def test_a_far_pole_exits_in_bounded_time(self, tmp_path):
        # E_R 1e300, Gamma 1: about a thousand rungs up to |E_R| + Gamma, but
        # E_R +- Gamma/2 == E_R is refused before any is built
        document = dict(self.model_document(), E_R=1e300, Gamma=1.0)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        start = time.perf_counter()
        code = main(["residue", "--config", str(model_path)])
        assert code in (EXIT_VERIFICATION_FAILURE, EXIT_INPUT_ERROR)
        assert time.perf_counter() - start < 10.0

    def test_pole_window_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        # |E_R| + Gamma = 1.1e308: the rung beyond it, 2^1024, overflows
        document = dict(self.model_document(), E_R=1e308, Gamma=1e307)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E_R 1e+308, Gamma 1e+307" in captured.err
        assert "leaves the float range" in captured.err

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
        assert exit_status(["residue"]) == EXIT_INPUT_ERROR

    def test_missing_file(self):
        assert main(["residue", "--config", "/nonexistent/model.json"]) == EXIT_INPUT_ERROR


class TestUnreadablePaths:
    """A --config that cannot be read or an --out that cannot be written is an input error.

    Each exits 2 with one message naming the path and the reason, not a traceback.
    A permission case is left out: the tests may run as root, who can open any file.
    """

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["residue", "--config", "{missing}"], "No such file or directory"),
            (["residue", "--config", "{dir}"], "Is a directory"),
            (["evolve", "--config", "{dir}"], "Is a directory"),
            (["exp-check", "--r", "2", "--out", "{dir}"], "Is a directory"),
            (["evolve", "--r", "2", "--n", "1", "--out", "{dir}"], "Is a directory"),
        ],
        ids=["missing-config", "residue-config-dir", "evolve-config-dir", "exp-check-out-dir",
             "evolve-out-dir"],
    )
    def test_exits_2_naming_the_path(self, tmp_path, capsys, argv, reason):
        paths = {"missing": str(tmp_path / "missing.json"), "dir": str(tmp_path)}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open {argv[-1]}: {reason}\n"

    @pytest.mark.parametrize(
        "out, reason",
        [
            ("{dir}", "Is a directory"),
            ("{dir}/missing/out.json", "No such file or directory"),
            ("{file}/out.json", "Not a directory"),
        ],
        ids=["out-dir", "parent-missing", "parent-a-file"],
    )
    @pytest.mark.parametrize("command", ["evolve", "exp-check", "residue", "basis"])
    def test_an_unwritable_out_is_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, out, reason
    ):
        """The same line the late open would print, with the handler never called."""
        def handler(args):
            raise AssertionError(f"{command} ran although --out {args.out} cannot be written")

        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), handler)
        existing = tmp_path / "file"
        existing.write_text("kept")
        out = out.format(dir=tmp_path, file=existing)
        assert main([command, *REQUIRED_ARGS[command], "--out", out]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"cannot open {out}: {reason}\n")
        assert sorted(os.listdir(tmp_path)) == ["file"] and existing.read_text() == "kept"

    def test_an_error_with_no_file_name_is_not_an_input_error(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["basis", "--r", "2"])


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
        assert exit_status(command + [f"{flag}={value}"]) == EXIT_INPUT_ERROR

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
            ({"E_R": "0"}, "E_R"),
            ({"Gamma": [1]}, "Gamma"),
            ({"tol": "1e-9"}, "tol"),
            ({"format": 3}, "format"),
            ({"grid": {"t_end": "5"}}, "grid.t_end"),
            ({"grid": {"steps": 10.0}}, "grid.steps"),
            ({"operator": None}, "operator"),
            ({"operator": {"n": 0}}, "operator.kind"),
            ({"operator": {"kind": 1}}, "operator.kind"),
            ({"operator": {"kind": "mystery"}}, "operator.kind"),
            ({"operator": {"kind": "binomial"}}, "operator.n"),
            ({"operator": {"kind": "binomial", "n": "1"}}, "operator.n"),
            ({"r": 2, "operator": {"kind": "dyad", "bra": 0}}, "operator.ket"),
            ({"r": 2, "operator": {"kind": "dyad", "ket": 0}}, "operator.bra"),
            ({"r": 2, "operator": {"kind": "dyad", "ket": 0, "bra": "0"}}, "operator.bra"),
            ({"r": 2, "operator": {"kind": "dyad", "ket": 0, "bra": 0, "coeff": "1"}},
             "operator.coeff"),
            ({"r": 2, "operator": {"kind": "coefficients"}}, "operator.entries"),
            ({"r": 2, "operator": {"kind": "coefficients", "entries": 3}}, "operator.entries"),
            ({"r": 2, "operator": {"kind": "coefficients", "entries": [3]}},
             "operator.entries[0]"),
            ({"r": 2, "operator": {"kind": "coefficients", "entries": [{"bra": 0}]}},
             "operator.entries[0].ket"),
        ],
    )
    def test_config_field_of_the_wrong_type(self, tmp_path, capsys, document, field):
        """Each config field, missing where it is required or of the wrong JSON type."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        assert_field_refused(main(["evolve", "--config", str(config_path)]), capsys, field)

    @pytest.mark.parametrize("path, value", [
        *((path, MISSING) for path in [
            ("E_R",), ("Gamma",), ("r",), ("laurent",), ("background", "num"),
            ("background", "den"), ("test_functions",), ("test_functions", 0, "role"),
            ("test_functions", 1, "num"), ("test_functions", 1, "den"),
        ]),
        (("E_R",), "1.0"),
        (("Gamma",), [0.5]),
        (("r",), 2.0),
        (("laurent",), {"0": 1}),
        (("laurent", 0), "x"),
        (("background",), [1.0]),
        (("background", "num"), 0.05),
        (("background", "den"), "z"),
        (("background", "den", 1), None),
        (("test_functions",), {"ket": {}}),
        (("test_functions", 0), "ket"),
        (("test_functions", 0, "role"), 1),
        (("test_functions", 1, "num"), True),
        (("test_functions", 1, "den"), 3),
        (("test_functions", 1, "num", 0), [1, 2, 3]),
    ])
    def test_model_field_missing_or_of_the_wrong_type(self, tmp_path, capsys, path, value):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(edited(TestResidue().model_document(), path, value)))
        status = main(["residue", "--config", str(model_path)])
        assert_field_refused(status, capsys, "model" + field_name(path))

    @pytest.mark.parametrize("path, value, message", [
        (("test_functions", 0, "role"), "kat", "role must be 'ket' or 'bra', got 'kat'"),
        (("background", "den"), [], "rational function with zero denominator"),
        (("background", "den"), [0.0, [0, 0]], "rational function with zero denominator"),
        (("test_functions", 1, "den"), [[0.0, 0.0]], "rational function with zero denominator"),
    ])
    def test_a_role_or_den_of_the_right_type_but_invalid_names_its_field(
        self, tmp_path, capsys, path, value, message
    ):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(edited(TestResidue().model_document(), path, value)))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"input error: model{field_name(path)}: {message}\n")

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

    @pytest.mark.parametrize(
        "document, key",
        [
            ({"gamma": 2.0}, "gamma"),
            ({"grid": {"t_end": 1.0, "stpes": 5}}, "grid.stpes"),
            ({"operator": {"kind": "binomial", "n": 0, "prefactor": False}}, "operator.prefactor"),
            ({"r": 2, "operator": {"kind": "dyad", "ket": 1, "bra": 0, "coef": 2}}, "operator.coef"),
            ({"r": 2, "operator": {"kind": "coefficients", "entries": [], "entry": []}},
             "operator.entry"),
            (
                {"r": 2, "operator": {"kind": "coefficients", "entries": [
                    {"ket": 1, "bra": 0}, {"ket": 0, "bra": 1, "cof": 2},
                ]}},
                "operator.entries[1].cof",
            ),
        ],
    )
    def test_unknown_config_key_is_named(self, tmp_path, capsys, document, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: {key}: unknown key")

    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "backgound"),
            (("background",), "dem"),
            (("test_functions", 1), "nom"),
        ],
    )
    def test_unknown_model_key_is_named(self, tmp_path, capsys, path, key):
        document = edited(TestResidue().model_document(), (*path, key), [1.0])
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        where = field_name((*path, key))
        assert capsys.readouterr().err.startswith(f"input error: model{where}: unknown key")

    @pytest.mark.parametrize("where", ["model.background", "model.test_functions[0]"])
    @pytest.mark.parametrize("broken, message", [
        ("no den", ".den: missing required field"),
        ([1.0], ": expected an object, got [1.0]"),
    ])
    def test_background_and_test_functions_share_one_reader(
        self, tmp_path, capsys, where, broken, message
    ):
        document = TestResidue().model_document()
        parent, key = ((document, "background") if where == "model.background"
                       else (document["test_functions"], 0))
        if broken == "no den":
            del parent[key]["den"]
        else:
            parent[key] = broken
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"input error: {where}{message}\n"

    @pytest.mark.parametrize("command, where", [("evolve", "config"), ("residue", "model")])
    @pytest.mark.parametrize("document", [[1], "model"])
    def test_a_document_that_is_not_an_object_is_refused_naming_its_path(
        self, tmp_path, capsys, command, where, document
    ):
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        assert main([command, "--config", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == (
            "", f"input error: {where}: expected an object, got {document!r}\n"
        )

    @pytest.mark.parametrize(
        "command, path, value, field",
        [
            ("residue", ("r",), True, "model.r"),
            ("residue", ("E_R",), True, "model.E_R"),
            ("residue", ("E_R",), [1], "model.E_R"),
            ("residue", ("Gamma",), "0.5", "model.Gamma"),
            ("residue", ("Gamma",), None, "model.Gamma"),
            ("residue", ("laurent", 0), True, "model.laurent[0]"),
            ("residue", ("laurent", 1), ["1", 0], "model.laurent[1]"),
            ("residue", ("background", "num", 0), [None, 0], "model.background.num[0]"),
            ("residue", ("test_functions", 0, "num"), [True], "model.test_functions[0].num[0]"),
            ("evolve", ("operator", "coeff"), True, "operator.coeff"),
            ("evolve", ("operator", "coeff"), ["2", 1], "operator.coeff"),
            ("evolve", ("operator", "coeff"), [None, 1], "operator.coeff"),
            # integers beyond the float range
            *(pytest.param(*case, id=f"{case[0]}-{case[3]}-beyond-float") for case in [
                ("evolve", ("E_R",), 10**400, "E_R"),
                ("evolve", ("operator", "coeff"), 10**400, "operator.coeff"),
                ("evolve", ("operator", "coeff"), [1, -10**400], "operator.coeff"),
                ("residue", ("E_R",), 10**400, "model.E_R"),
                ("residue", ("Gamma",), -10**400, "model.Gamma"),
                ("residue", ("laurent", 0), 10**400, "model.laurent[0]"),
                ("residue", ("laurent", 1), [10**400, 0], "model.laurent[1]"),
                ("residue", ("test_functions", 0, "num", 0), 10**400,
                 "model.test_functions[0].num[0]"),
            ]),
        ],
    )
    def test_json_numbers_exclude_booleans_strings_and_null(
        self, tmp_path, capsys, command, path, value, field
    ):
        """Both input documents take the same JSON numbers; anything else names its field.

        A number must convert to a finite float, so an integer beyond the float
        range exits 2 as well, without an overflow traceback.
        """
        if command == "residue":
            document = TestResidue().model_document()
        else:
            document = {"r": 2, "operator": {"kind": "dyad", "ket": 0, "bra": 0}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(edited(document, path, value)))
        assert main([command, "--config", str(config_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: {field}: expected ")

    @pytest.mark.parametrize(
        "change, expected",
        [
            # the amplitude overflows on the first leg: its sum is NaN
            ({"laurent": [[1e308, 0.0], [0.1, 0.0]]}, ["leg [0, 0.75]", "non-finite", "laurent"]),
            ({"Gamma": 1e200}, ["leg [0, 5e+199]", "non-finite", "Gamma"]),
            # E_R +- Gamma/2 == E_R: no leg would resolve the pole
            ({"E_R": 1e200}, ["cannot tell apart", "E_R 1e+200, Gamma 0.5"]),
            # 1 - 1e-299 == 1: nodes on the pole's real part, (z - pole)^2 underflows
            ({"Gamma": 1e-300}, ["cannot tell apart", "E_R 1.0, Gamma 1e-300"]),
            # the exact residue term would overflow its conversion to a float;
            # the leg across the peak meets the overflow first, at the test
            # functions' scale, which it now samples
            ({"E_R": 0.0, "Gamma": 1e156, "r": 1, "laurent": [[1.0, 1e300]], "test_functions": [
                {"role": "ket", "num": [[1e14, 0.0]], "den": [[-4.0, 0.0], [0.0, -4.0], [1.0, 0.0]]},
                {"role": "bra", "num": [[1e162, 0.0]], "den": [[0.0, -3e-300], [1e-300, 0.0]]},
            ]}, ["leg [0, 5e+155]", "non-finite", "laurent"]),
        ],
        ids=["laurent-1e308", "Gamma-1e200", "E_R-1e200", "Gamma-1e-300", "residue-term"],
    )
    def test_a_model_the_floats_cannot_resolve_is_an_input_error(
        self, tmp_path, capsys, change, expected
    ):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(dict(TestResidue().model_document(), **change)))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        for text in expected:
            assert text in captured.err

    def test_an_operator_coefficient_beyond_the_float_range_is_an_input_error(self, capsys):
        # Gamma^2/2! = 5e615 is exact, but no float holds it
        argv = ["evolve", "--r", "3", "--n", "2", "--energy", "1e308", "--gamma", "1e308",
                "--t-end", "1e10"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: operator coefficients beyond the float range")
        assert "Gamma 1e+308" in captured.err

    def test_reports_never_hold_nan_or_infinity(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump_json({"discrepancy": math.nan})

    def test_nan_residue_tolerance(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(TestResidue().model_document()))
        assert main(["residue", "--config", str(model_path), "--tol", "nan"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("tolerance", ["inf", "0", "-1e-8"])
    def test_residue_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, tolerance):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(TestResidue().model_document()))
        assert main(["residue", "--config", str(model_path), f"--tol={tolerance}"]) == EXIT_INPUT_ERROR
        assert "tolerance must be positive and finite" in capsys.readouterr().err


def run_python(code):
    """Run `code` in a fresh interpreter that imports this checkout's gamow."""
    search_path = [os.path.dirname(os.path.dirname(gamow.__file__))]
    if os.environ.get("PYTHONPATH"):
        search_path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search_path))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )


def test_importing_the_cli_does_not_import_scipy():
    """Nor numpy: no part of the package imports either."""
    code = "import sys, gamow.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    assert run_python(code).stdout.strip() == "[]"


def test_importing_the_cli_does_not_import_dataclasses_or_inspect():
    """The value classes are plain slotted classes, so every command skips both imports.

    Only what `import gamow.cli` adds counts, not what the interpreter's
    start-up loaded before it.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gamow.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert run_python(code).stdout.strip() == "[]"


PUBLIC_NAMES = {
    "exact": ["ComplexRational", "Polynomial", "RationalFunction"],
    "jordan": [
        "ComplexPole", "GamowChainVector", "JordanBlockMatrix", "build_jordan_block",
        "check_jordan_degree", "evolve_ket", "evolve_state", "survival_modulus",
    ],
    "operators": [
        "BinomialRecursionFamily", "CoefficientMatrix", "ConstraintSystem", "DyadicOperator",
        "RestrictionReport", "TimePolynomialOperator", "binomial_family_matches_nullspace",
        "binomial_pattern_matrix", "evolve_operator", "exponential_state_operator",
        "exponential_subspace_basis", "exponentiality_constraints", "is_pure_exponential",
        "operator_from_coefficients", "solve_binomial_recursion",
        "verify_restriction_equivalence",
    ],
    "smatrix": [
        "DecompositionReport", "IntegralResult", "SMatrixModel", "TestFunction",
        "background_integral", "decomposition_check", "direct_contour_integral",
        "load_model_file", "model_from_json", "residue_core", "residue_expansion",
        "unitary_first_order_model",
    ],
}


def test_the_star_import_binds_the_public_names_and_the_four_submodules():
    """`from gamow import *` in a fresh interpreter: each public name once, from its own module.

    A fresh interpreter, because a submodule imported later, such as
    `gamow.cli`, becomes a package attribute that the star import also binds.
    """
    code = "from gamow import *\nprint(*sorted(name for name in dir() if name[0] != '_'))"
    public = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(public) == 39
    assert run_python(code).stdout.split() == sorted([*public, *PUBLIC_NAMES])
    for module, names in PUBLIC_NAMES.items():
        for name in names:
            value = getattr(gamow, name)
            assert value.__module__ == f"gamow.{module}"
            assert getattr(sys.modules[value.__module__], name) is value


def test_every_command_runs_without_numpy_or_scipy(tmp_path):
    """Neither is a dependency: with both unimportable, each subcommand exits 0."""
    commands = [
        ["residue", "--config", EXAMPLE_MODEL],
        ["exp-check", "--r", "3"],
        ["basis", "--r", "3"],
        ["evolve", "--r", "2", "--n", "1"],
    ]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from gamow.cli import main\n"
        f"for argv in {commands!r}:\n"
        f"    print(argv[0], main(argv + ['--out', {str(tmp_path / 'out')!r}]))\n"
    )
    assert run_python(code).stdout.splitlines() == [f"{argv[0]} {EXIT_OK}" for argv in commands]


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
        assert exit_status(["basis"]) == EXIT_INPUT_ERROR


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2


ACCEPTED_FLAGS = {
    "evolve": {
        "--config", "--out", "--format", "--tol", "--r", "--gamma", "--energy", "--n",
        "--t-end", "--steps",
    },
    "exp-check": {"--out", "--r", "--j"},
    "residue": {"--config", "--out", "--tol"},
    "basis": {"--out", "--format", "--r"},
}
REQUIRED_ARGS = {
    "evolve": [], "exp-check": ["--r", "2"], "residue": ["--config", EXAMPLE_MODEL],
    "basis": ["--r", "2"],
}
ALL_FLAGS = sorted(set().union(*ACCEPTED_FLAGS.values()))


def test_the_parser_is_built_once_and_dispatches_to_the_current_handler(tmp_path, monkeypatch):
    _build_parser.cache_clear()
    out = str(tmp_path / "report.json")
    assert main(["exp-check", "--r", "2", "--out", out]) == EXIT_OK
    assert exit_status(["exp-check", "--r", "2", "--bogus"]) == EXIT_INPUT_ERROR
    monkeypatch.setattr(cli, "cmd_exp_check", lambda args: 7)
    assert main(["exp-check", "--r", "2", "--out", out]) == 7
    assert _build_parser.cache_info().misses == 1


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    parser = _build_parser()
    subcommands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ).choices
    taken = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.items()
    }
    assert taken == ACCEPTED_FLAGS
    assert sum(len(flags) for flags in taken.values()) == 19


def test_the_readme_lists_each_evolve_setting_as_the_table_declares_it():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([\w.]+)` +\| `(--[\w-]+)` +\| (\w+)[^|]*\| `([^`]+)`", readme,
                      re.MULTILINE)
    kinds = {float: "number", int: "integer", str: "string", dict: "object"}
    assert rows == [
        (key, "--" + flag.replace("_", "-"), kinds[kind],
         default if isinstance(default, str) else json.dumps(default))
        for key, flag, kind, default in cli._SETTINGS
    ]


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in ACCEPTED_FLAGS for flag in ALL_FLAGS
     if flag not in ACCEPTED_FLAGS[command]],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(command, flag):
    assert exit_status([command, *REQUIRED_ARGS[command], flag, "1"]) == EXIT_INPUT_ERROR


# -- CSV round trip ------------------------------------------------------------

dyadic = st.builds(lambda k, d: k / d, st.integers(-16, 16), st.sampled_from([1, 2, 4]))
positive = st.builds(lambda k, d: k / d, st.integers(1, 16), st.sampled_from([1, 2, 4]))
coefficient = st.tuples(dyadic, dyadic)


@st.composite
def evolve_configs(draw):
    r = draw(st.integers(1, 4))
    orders = st.integers(0, r - 1)
    kind = draw(st.sampled_from(["binomial", "dyad", "coefficients"]))
    if kind == "binomial":
        operator = {"kind": kind, "n": draw(orders), "include_prefactor": draw(st.booleans())}
    elif kind == "dyad":
        re, im = draw(coefficient)
        operator = {"kind": kind, "ket": draw(orders), "bra": draw(orders), "coeff": [re, im]}
    else:
        table = draw(st.dictionaries(st.tuples(orders, orders), coefficient, max_size=4))
        operator = {"kind": kind, "entries": [
            {"ket": ket, "bra": bra, "coeff": [re, im]} for (ket, bra), (re, im) in table.items()
        ]}
    return {
        "E_R": draw(dyadic), "Gamma": draw(positive), "r": r, "operator": operator,
        "grid": {"t_end": draw(positive), "steps": draw(st.integers(2, 6))},
    }


def library_operator(pole, spec):
    if spec["kind"] == "binomial":
        return exponential_state_operator(
            pole, spec["n"], include_prefactor=spec["include_prefactor"]
        )
    entries = spec["entries"] if spec["kind"] == "coefficients" else [spec]
    table = {(e["ket"], e["bra"]): ComplexRational(*e["coeff"]) for e in entries}
    return operator_from_coefficients(pole, CoefficientMatrix(pole.order, table))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(evolve_configs())
def test_every_csv_cell_parses_back_to_the_library_value(config):
    with tempfile.TemporaryDirectory() as workdir:
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["evolve", "--config", config_path]) == EXIT_OK
    pole = ComplexPole(config["E_R"], config["Gamma"], config["r"])
    evolved = evolve_operator(library_operator(pole, config["operator"]))
    t_end, steps = config["grid"]["t_end"], config["grid"]["steps"]
    expected = [
        (t_end * i / (steps - 1), ket, bra)
        for i in range(steps)
        for ket in range(pole.order)
        for bra in range(pole.order)
    ]
    lines = out.getvalue().splitlines()
    assert lines[0] == "t,entry_l,entry_m,re,im,modulus"
    assert len(lines) == 1 + len(expected)
    for line, (t, ket, bra) in zip(lines[1:], expected):
        cells = line.split(",")
        value = evolved.value(ket, bra, t)
        assert (float(cells[0]), int(cells[1]), int(cells[2])) == (t, ket, bra)
        assert [float(cell) for cell in cells[3:]] == [value.real, value.imag, abs(value)]


def _strict_json(text):
    """Parse report JSON; a NaN or Infinity token fails the test."""
    def refuse(token):
        raise AssertionError(f"non-JSON constant {token} in the report")

    return json.loads(text, parse_constant=refuse)


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


# magnitudes from 1e-300 to 1e300, either sign where a field takes both
magnitude = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))
signed = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), magnitude)


def _scaled(coefficients, factor):
    return [[factor * re, factor * im] for re, im in coefficients]


@st.composite
def scaled_residue_documents(draw):
    """The bundled example with each field scaled; scaling a whole polynomial keeps its roots."""
    document = TestResidue().model_document()
    r = draw(st.integers(1, 3))
    document.update(
        E_R=draw(st.one_of(st.just(0.0), signed)),
        Gamma=draw(magnitude),
        r=r,
        laurent=[[draw(signed), draw(signed)] for _ in range(r)],
    )
    background = document["background"]
    for part in ("num", "den"):
        background[part] = _scaled(background[part], draw(magnitude))
    for function in document["test_functions"]:
        for part in ("num", "den"):
            function[part] = _scaled(function[part], draw(magnitude))
    return document


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scaled_residue_documents())
def test_residue_reports_are_strict_json_with_an_honest_exit_code(document):
    with tempfile.TemporaryDirectory() as workdir:
        model_path = os.path.join(workdir, "model.json")
        with open(model_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        code, out, err = _run_main(["residue", "--config", model_path])
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILURE, EXIT_INPUT_ERROR), err
    if code == EXIT_INPUT_ERROR:
        assert out == "" and err.startswith("input error: ")
        return
    report = _strict_json(out)
    assert all(math.isfinite(x) for x in _numbers(report))
    if code == EXIT_VERIFICATION_FAILURE:
        assert report["discrepancy"] > report["tolerance"] or "leg [" in err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_evolve_output_is_finite_with_an_honest_exit_code(data):
    r = data.draw(st.integers(1, 4))
    output_format = data.draw(st.sampled_from(["csv", "json"]))
    argv = [
        "evolve", "--r", str(r), "--n", str(data.draw(st.integers(0, r - 1))),
        f"--energy={data.draw(st.one_of(st.just(0.0), signed))!r}",
        f"--gamma={data.draw(magnitude)!r}", f"--t-end={data.draw(magnitude)!r}",
        "--steps", str(data.draw(st.integers(2, 4))), "--format", output_format,
    ]
    code, out, err = _run_main(argv)
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILURE, EXIT_INPUT_ERROR), err
    if code == EXIT_INPUT_ERROR:
        assert out == "" and err.startswith("input error: ")
        return
    if output_format == "json":
        numbers = _numbers(_strict_json(out))
    else:
        numbers = [float(cell) for line in out.splitlines()[1:] for cell in line.split(",")]
    assert all(math.isfinite(x) for x in numbers)
