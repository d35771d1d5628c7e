"""End-to-end tests of the command-line interface."""

import argparse
import builtins
import contextlib
import dis
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
import types
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from cli_probes import REQUIRED_ARGS, child_env
from constraint_oracle import equations, stored_system
from contracts import PIPELINES
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gamow
from gamow import cli, operators
from gamow.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFICATION_FAILURE, _build_parser, main
from gamow.exact import ComplexRational, binomial
from gamow.jordan import ComplexPole
from gamow.operators import (
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

    @pytest.mark.parametrize("t_end", [1e308, sys.float_info.max])
    def test_a_grid_whose_products_overflow_stays_finite(self, capsys, t_end):
        """t_end * i passes the largest float, yet the points rise to exactly t_end."""
        assert main(["evolve", "--r", "1", f"--t-end={t_end!r}", "--steps", "5"]) == EXIT_OK
        times = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert times[0] == 0 and times[-1] == t_end and len(times) == 5
        assert all(math.isfinite(t) and t > before for before, t in zip(times, times[1:]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("t_end, steps", [(0.1, 4), (0.3, 110), (0.01, 30), (0.9, 10)])
    def test_the_grid_ends_at_t_end_where_its_product_is_inexact(self, capsys, fmt, t_end,
                                                                   steps):
        """(t_end * (steps - 1)) / (steps - 1) is not t_end here, yet the last point is."""
        last = steps - 1
        assert t_end * last / last != t_end
        assert main(["evolve", "--t-end", repr(t_end), "--steps", str(steps),
                     "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "csv":
            times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        else:
            times = [row["t"] for row in json.loads(out)["rows"]]
        assert times == [t_end * i / last for i in range(last)] + [t_end]

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_curve_the_bound_cannot_clear_is_made_whole_before_its_first_byte(
        self, tmp_path, capsys, fmt
    ):
        """t^2 at (0,0) is no float at t = 5e199: the rows at t = 0 come first, yet none is written.

        (t/Gamma)^2 at Gamma = 1e-300 is far past 2^1000, so the table is not cleared.
        """
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"Gamma": 1e-300, "r": 2, "format": fmt,
                                      "grid": {"t_end": 1e200, "steps": 3},
                                      "operator": {"kind": "dyad", "ket": 1, "bra": 1}}))
        out = tmp_path / "out"
        out.write_text("kept")
        failed = ("", "verification failed: entry (0,0) at t=5e+199 exceeds the float range\n")
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == (
            EXIT_VERIFICATION_FAILURE)
        assert capsys.readouterr() == failed
        assert out.read_text() == "kept"
        assert main(["evolve", "--config", str(config)]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr() == failed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_cleared_curve_is_written_as_it_is_made(self, monkeypatch, fmt):
        """Each grid step's rows are made after the steps before them are written, not before."""
        made, made_when_written = [], []

        def counted(self, ket, bra, t):
            made.append(t)
            return value(self, ket, bra, t)

        def recording(out, pieces):
            write(out, (made_when_written.append(len(made)) or piece for piece in pieces))

        value, write = operators.TimePolynomialOperator.value, cli._write_output
        monkeypatch.setattr(operators.TimePolynomialOperator, "value", counted)
        monkeypatch.setattr(cli, "_write_output", recording)
        _run_main(["evolve", "--r", "2", "--n", "1", "--steps", "5", "--format", fmt])
        pieces = [4, 8, 12, 16, 20]  # one per grid step, of r^2 = 4 rows
        assert made_when_written == (pieces if fmt == "csv" else [0, *pieces, 20])

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

    @pytest.mark.parametrize("energy", ["7.25", "1e300", "-3.5"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_the_curve_does_not_depend_on_the_resonance_energy(self, tmp_path, fmt, energy):
        """The phases of ket and bra cancel, so E_R shows only as pole.E_R in the JSON."""
        def curve(value):
            out = tmp_path / f"{value}.{fmt}"
            assert main(["evolve", "--r", "4", "--n", "3", "--steps", "21", "--format", fmt,
                         f"--energy={value}", "--out", str(out)]) == EXIT_OK
            return out.read_bytes()

        reference, shifted = curve("0"), curve(energy)
        if fmt == "csv":
            assert shifted == reference
        else:
            reference, shifted = json.loads(reference), json.loads(shifted)
            assert (reference["pole"].pop("E_R"), shifted["pole"].pop("E_R")) == (0, float(energy))
            assert shifted == reference

    def test_contract_tolerance_scales_with_a_large_modulus(self, tmp_path, capsys):
        """Moduli near 3e6 differ by an ulp (4.7e-10), far above an absolute 1e-12."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"E_R": 0, "Gamma": 0.7, "r": 1, "operator": {
            "kind": "coefficients", "entries": [{"ket": 0, "bra": 0, "coeff": [1e6, 3e6]}],
        }}))
        assert main(["evolve", "--config", str(config_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_contract_violation_fails_verification(self, tmp_path, capsys, monkeypatch):
        """2|0><0| + |1><1| evolves to (2 + t^2) at (0,0) and +-i t at (0,1) and (1,0).

        Claimed pure exponential, it fails first at t = 1.25 on (0,0), the first
        row of that step, against its t = 0 modulus 2: 3.5625 e^-1.25 vs 2 e^-1.25.
        """
        monkeypatch.setattr(cli, "is_pure_exponential", lambda evolved: True)
        out = tmp_path / "curve.csv"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"r": 2, "grid": {"steps": 5}, "operator": {
            "kind": "coefficients", "entries": [{"ket": 0, "bra": 0, "coeff": 2},
                                                {"ket": 1, "bra": 1}]}}))
        argv = ["evolve", "--config", str(config_path), "--out", str(out)]
        assert main(argv) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr() == ("", (
            "pure-exponential contract violated at t=1.25, entry (0,0): "
            f"modulus {3.5625 * math.exp(-1.25)!r} vs expected {2.0 * math.exp(-1.25)!r}\n"))
        lines = out.read_text().splitlines()
        assert lines[0] == "t,entry_l,entry_m,re,im,modulus" and len(lines) == 1 + 5 * 4

    def test_each_value_is_computed_once(self, tmp_path, monkeypatch):
        """One pass over a pure-exponential curve: steps * r^2 evaluations, none again at t = 0."""
        calls = []

        def counted(self, ket, bra, t):
            calls.append((t, ket, bra))
            return value(self, ket, bra, t)

        value = operators.TimePolynomialOperator.value
        monkeypatch.setattr(operators.TimePolynomialOperator, "value", counted)
        argv = ["evolve", "--r", "3", "--n", "2", "--steps", "7", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == EXIT_OK
        assert len(calls) == len(set(calls)) == 7 * 3**2


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

    @pytest.mark.parametrize("argv", [["--j", str(j)] for j in range(21)]
                             + [["--r", str(r)] for r in range(1, 9)])
    def test_text_is_the_json_dump_of_the_dict_payload(self, tmp_path, argv):
        """The equation list is written by the pass, in the encoder's bytes for the stored list."""
        out = tmp_path / "report.json"
        assert main(["exp-check", *argv, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        payload = json.loads(text)
        generated = operators.exponentiality_constraints(payload["j"])
        stored = stored_system(payload["j"], equations(generated))
        payload["equations"] = stored.to_json_dict()["equations"]
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (payload["equations"] == []) == (payload["j"] == 0)

    @pytest.mark.parametrize("flags, message", [
        ([], "exp-check needs --j or --r"),
        (["--r", "2", "--j", "3"], "a pole of order 2 restricts the system of bound 2, not 3"),
    ], ids=["no-bound", "mismatched-bound"])
    @pytest.mark.parametrize("existing", [None, "kept"], ids=["stdout", "existing-out"])
    def test_a_refused_bound_writes_one_line_and_nothing_else(
        self, tmp_path, capsys, flags, message, existing
    ):
        out = tmp_path / "out.json"
        argv = ["exp-check", *flags]
        if existing is not None:
            out.write_text(existing)
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"input error: {message}\n")
        assert (out.read_text() if existing else None) == existing

    def test_the_command_makes_one_pass_and_one_system(self, tmp_path, monkeypatch):
        """--r 4 generates its 56 equations once, for the system and its restriction alike."""
        passes, generated, built = [], [], []

        def counted(j):
            passes.append(j)
            for row in rows(j):
                generated.append(row[:3])
                yield row

        def counted_init(self, j, given):
            built.append(j)
            init(self, j, given)

        rows, init = operators._equation_rows, operators.ConstraintSystem.__init__
        monkeypatch.setattr(operators, "_equation_rows", counted)
        monkeypatch.setattr(operators.ConstraintSystem, "__init__", counted_init)
        assert main(["exp-check", "--r", "4", "--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert passes == built == [6]
        assert len(generated) == len(set(generated)) == 56 == math.comb(6 + 2, 3)

    def test_a_coefficient_past_2_to_53_is_written_exactly(self, monkeypatch):
        """Term k = 0 of equation (0, 24, 58) is C(58, 24), which no float holds.

        The pass is given that equation alone, uncertified, and the splice writes
        its row as the encoder writes the system's JSON values.
        """
        coefficient = binomial(58, 24)
        assert float(coefficient) != coefficient
        row = (0, 24, 58, (coefficient, -58))
        monkeypatch.setattr(operators, "_equation_rows", lambda j: iter([row]))
        monkeypatch.setattr(operators, "_certified", lambda j, rows: rows)
        system = operators.exponentiality_constraints(58)
        equations = (cli._equation(*row) for row in system.rows)
        text = "".join(cli._spliced_json({}, "equations", equations))
        assert text == json.dumps({"equations": system.to_json_dict()["equations"]}, indent=2,
                                  sort_keys=True) + "\n"
        terms = json.loads(text)["equations"][0]["terms"]
        assert [term["coeff"] for term in terms] == [[coefficient, 0.0], [-58.0, 0.0]]
        assert [type(term["coeff"][0]) for term in terms] == [int, float]

    @pytest.mark.parametrize("existing", [None, "kept"], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("fault, message", [
        ("altered", "C(3, k) violates constraint (l=1, m=0, n=3)"),
        ("missing", "block n=3: no equation leads ket orders [2]"),
    ])
    def test_a_fault_in_the_pass_writes_nothing(
        self, tmp_path, capsys, monkeypatch, fault, message, existing
    ):
        """Equation (1, 0, 3) altered, or (2, 0, 3), the only one leading ket order 2, left out."""
        def faulty(j):
            for l, m, n, row in rows(j):
                if (l, m, n) == (1, 0, 3) and fault == "altered":
                    row = (row[0], row[1] + 1, *row[2:])  # the coefficient at k = 2
                if (l, m, n) != (2, 0, 3) or fault != "missing":
                    yield l, m, n, row

        rows = operators._equation_rows
        monkeypatch.setattr(operators, "_equation_rows", faulty)
        out = tmp_path / "report.json"
        if existing is not None:
            out.write_text(existing)
        assert main(["exp-check", "--r", "3", "--out", str(out)]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr() == ("", f"verification failed: {message}\n")
        assert out.read_text() == (existing or "")
        assert main(["exp-check", "--r", "3"]) == EXIT_VERIFICATION_FAILURE
        assert capsys.readouterr() == ("", f"verification failed: {message}\n")

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


class TestUnreadablePaths:
    """A --config that cannot be read or an --out that cannot be written is an input error.

    Each exits 2 with one message naming the path and the reason, not a traceback.
    The --config cases are probe rows of cli_probes.py; the --out cases are
    pinned here, with the subcommand's handler never run, and cli_probes.py runs
    its --out rows only as a script.  The permission case is skipped where the
    tests run as root, who can open any file.
    """

    @pytest.mark.parametrize(
        "out, reason",
        [
            ("{dir}", "Is a directory"),
            ("{dir}/missing/out.json", "No such file or directory"),
            ("{file}/out.json", "Not a directory"),
            ("", "No such file or directory"),  # a path like any other, not "no --out"
        ],
        ids=["out-dir", "parent-missing", "parent-a-file", "empty"],
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

    def test_a_broken_pipe_is_a_failed_write(self, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["basis", "--r", "2"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root opens any file")
    @pytest.mark.parametrize("command", ["evolve", "exp-check", "residue", "basis"])
    def test_a_permission_denied_out_is_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def handler(args):
            raise AssertionError(f"{command} ran although --out {args.out} cannot be written")

        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), handler)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        try:
            out = str(locked / "out.json")
            assert main([command, *REQUIRED_ARGS[command], "--out", out]) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", f"cannot open {out}: Permission denied\n")
            assert os.listdir(locked) == []
        finally:
            locked.chmod(0o755)


def run_cli(argv, buffered=True, **streams):
    """`python -m gamow.cli ARGV` in a fresh interpreter, so that its exit flush runs too."""
    env = child_env(PYTHONUNBUFFERED="" if buffered else "1")
    return subprocess.Popen([sys.executable, "-m", "gamow.cli", *argv], env=env, text=True,
                            stderr=subprocess.PIPE, **streams)


class TestFailedWrites:
    """A write that fails after the work exits 2 with one stderr line, never a traceback.

    What a failed run leaves: a new --out stays empty, an existing one as it was.
    """

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout, reason", [
        ("/dev/full", "No space left on device"),
        (None, "Bad file descriptor"),  # stream 1 closed
        (subprocess.PIPE, "Broken pipe"),  # its reader gone before the write
    ], ids=["full-device", "closed", "broken-pipe"])
    def test_stdout_that_cannot_be_written(self, stdout, reason, buffered):
        if stdout == "/dev/full" and not os.path.exists(stdout):
            pytest.skip("no /dev/full")
        sink = open(stdout, "w") if stdout == "/dev/full" else None
        streams = {"stdout": sink or stdout} if stdout else {"preexec_fn": lambda: os.close(1)}
        with run_cli(["basis", "--r", "2"], buffered, **streams) as process:
            if stdout is subprocess.PIPE:
                process.stdout.close()
            err = process.stderr.read()
        if sink:
            sink.close()
        assert (process.returncode, err) == (EXIT_INPUT_ERROR, f"cannot write stdout: {reason}\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_a_reader_that_leaves_after_the_first_bytes(self, buffered):
        """6 MB outgrow the pipe, so the write meets the reader gone part way, also unbuffered."""
        with run_cli(["exp-check", "--r", "16"], buffered, stdout=subprocess.PIPE) as process:
            assert process.stdout.read(10) == '{\n  "binom'
            process.stdout.close()
            err = process.stderr.read()
        assert (process.returncode, err) == (EXIT_INPUT_ERROR, "cannot write stdout: Broken pipe\n")

    def test_an_unbuffered_stdout_receives_the_whole_output(self, tmp_path):
        """Every short write of the unbuffered stream is repeated for the rest of its piece."""
        expected = tmp_path / "report.json"
        assert main(["exp-check", "--r", "16", "--out", str(expected)]) == EXIT_OK
        with run_cli(["exp-check", "--r", "16"], False, stdout=subprocess.PIPE) as process:
            received = process.stdout.buffer.read()
            err = process.stderr.read()
        assert (process.returncode, err) == (EXIT_OK, "")
        assert received == expected.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_out_receives_the_whole_output(self, tmp_path):
        """The held check keeps the reader attached until the real write."""
        expected = tmp_path / "basis.json"
        assert main(["basis", "--r", "2", "--out", str(expected)]) == EXIT_OK
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with run_cli(["basis", "--r", "2", "--out", str(fifo)]) as process:
            try:
                assert process.wait(timeout=60) == EXIT_OK
            finally:
                process.kill()  # had the reader gone, the late open would wait for another
        reader.join(timeout=60)
        assert received == [expected.read_bytes()]

    @pytest.mark.parametrize("command, document", [
        ("evolve", '{"r": 0.5}'),
        ("residue", '{"E_R": 1.0}'),
        ("evolve", '{"r": '),
    ], ids=["evolve", "residue", "invalid-json"])
    def test_a_bad_config_that_is_also_the_out_is_left_unchanged(
        self, tmp_path, capsys, command, document
    ):
        config = tmp_path / "config.json"
        config.write_text(document)
        assert main([command, "--config", str(config), "--out", str(config)]) == EXIT_INPUT_ERROR
        assert config.read_text() == document
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("existing", [None, "kept"], ids=["new", "existing"])
    @pytest.mark.parametrize("argv", [
        ["evolve", "--t-end", "nan"],
        ["exp-check", "--r", "0"],
    ])
    def test_a_failed_run_leaves_the_out_as_it_was(self, tmp_path, argv, existing):
        out = tmp_path / "out"
        if existing is not None:
            out.write_text(existing)
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT_ERROR
        assert out.read_text() == (existing or "")


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

    @pytest.mark.parametrize("function, field, reason", [
        ({"den": [[0.0, 4.0], [1.0, 0.0]]}, "den",
         r"test function must be analytic in the closed lower half-plane; a denominator root "
         r"is not above the real axis by more than 1e-09 \* 2\^-?\d+"),
        ({"num": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, "num",
         "test function must be bounded at infinity: numerator degree 3, denominator degree 2"),
        # both: the numerator's degree is checked first
        ({"num": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "den": [[0.0, 4.0], [1.0, 0.0]]}, "num",
         "test function must be bounded at infinity: numerator degree 2, denominator degree 1"),
    ], ids=["root-at-minus-4i", "numerator-degree", "both"])
    def test_an_unanalytic_or_unbounded_test_function_names_den_or_num(
        self, tmp_path, capsys, function, field, reason
    ):
        document = TestResidue().model_document()
        document["test_functions"][0].update(function)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document))
        assert main(["residue", "--config", str(model_path)]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"input error: model\.test_functions\[0\]\.{field}: {reason}\n",
                            err), err

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
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=child_env(),
    )


PUBLIC_NAMES = {
    "exact": ["ComplexRational", "Polynomial", "RationalFunction"],
    "jordan": [
        "ComplexPole", "GamowChainVector", "JordanBlockMatrix", "build_jordan_block",
        "check_jordan_degree", "evolve_ket", "evolve_state", "survival_modulus",
    ],
    "operators": [
        "ConstraintSystem", "DyadicOperator",
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
    ],
}


def test_the_star_import_binds_the_public_names_and_the_four_submodules():
    """`from gamow import *` in a fresh interpreter: each public name once, from its own module.

    A fresh interpreter, because a submodule imported later, such as
    `gamow.cli`, becomes a package attribute that the star import also binds.
    """
    code = "from gamow import *\nprint(*sorted(name for name in dir() if name[0] != '_'))"
    public = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(public) == 36
    assert run_python(code).stdout.split() == sorted([*public, *PUBLIC_NAMES])
    for module, names in PUBLIC_NAMES.items():
        for name in names:
            value = getattr(gamow, name)
            assert value.__module__ == f"gamow.{module}"
            assert getattr(sys.modules[value.__module__], name) is value


def test_the_deleted_shortcuts_stay_deleted():
    """No command needed `**`, operator `+` and `*`, or the first-order model helper."""
    from gamow.exact import Polynomial
    from gamow.smatrix import SMatrixModel

    pole = ComplexPole(0, 1, 2)
    member = exponential_state_operator(pole, 0)
    for name, act in [("**", lambda: ComplexRational(0, 1) ** 2),
                      ("**", lambda: Polynomial([1, 1]) ** 2),
                      ("+", lambda: member + member),
                      ("*", lambda: member * 2),
                      ("*", lambda: 2 * member)]:
        with pytest.raises(TypeError, match=re.escape(name)):
            act()
    assert not hasattr(Polynomial, "monomial")
    assert not hasattr(gamow, "unitary_first_order_model")
    assert not hasattr(sys.modules[SMatrixModel.__module__], "unitary_first_order_model")


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_entry_is_its_binomial_exactly_past_2_to_53(self, tmp_path, fmt):
        """At r = 58, C(57, 25) and C(57, 32) have no float; they are written as integers."""
        out = tmp_path / f"basis.{fmt}"
        assert main(["basis", "--r", "58", "--format", fmt, "--out", str(out)]) == EXIT_OK
        if fmt == "json":
            entries = [(member["n"], entry["ket"], entry["bra"], *entry["coeff"])
                       for member in json.loads(out.read_text()) for entry in member["entries"]]
        else:
            rows = out.read_text().splitlines()[1:]
            entries = [(int(n), int(ket), int(bra), Fraction(re), Fraction(im))
                       for n, ket, bra, re, im in (row.split(",") for row in rows)]
        assert entries == [(n, k, n - k, binomial(n, k), 0) for n in range(58) for k in range(n + 1)]


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


# -- the argv reader against argparse ------------------------------------------

# flags and values, well-formed or not: an abbreviation, an = spelling, help, a
# negative number, a value argparse or the flag's type refuses, a wrong case
ARGV_TOKENS = [*ALL_FLAGS, "--con", "--t", "--r=3", "--help", "-h", "--", "-1", "-1e3", "",
               " 3", "3_0", "nan", "inf", "csv", "CSV", "json", "0", "3", "2.5", "x.json",
               "basis"]
ARGV_VALUES = ["0", "1", "3", "2.5", "1e3", "csv", "json", "x.json"]


def random_argv(rng):
    """A command and flag-value pairs, mostly ones it takes, at times with a stray token."""
    command = rng.choice([*ACCEPTED_FLAGS, "conjure", "-h"])
    flags = sorted(ACCEPTED_FLAGS.get(command, ALL_FLAGS))
    argv = [command]
    for _ in range(rng.randint(0, 4)):
        argv.append(rng.choice(flags if rng.random() < 0.7 else ARGV_TOKENS))
        argv.append(rng.choice(ARGV_VALUES if rng.random() < 0.7 else ARGV_TOKENS))
    if rng.random() < 0.3:
        argv.insert(rng.randint(0, len(argv)), rng.choice(ARGV_TOKENS))
    return argv


def parsed_by_argparse(argv):
    """`_build_parser().parse_args(argv)`, or None where argparse exits (help or usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _build_parser().parse_args(argv)
        except SystemExit:
            return None


def test_the_argv_reader_gives_what_argparse_gives_or_leaves_the_argv_to_it():
    """Each argv the reader takes, argparse takes too, with the same value of each type.

    50,000 argv from a fixed seed.  `repr` compares the values, since nan != nan.
    """
    rng = random.Random(33)
    taken = 0
    for _ in range(50000):
        argv = random_argv(rng)
        read = cli._read_argv(argv)
        if read is None:
            continue
        parsed = parsed_by_argparse(argv)
        assert parsed is not None, argv
        assert {key: (repr(value), type(value)) for key, value in vars(read).items()} == {
            key: (repr(value), type(value)) for key, value in vars(parsed).items()}, argv
        taken += 1
    assert taken >= 4000


@pytest.mark.parametrize("argv", [
    ["exp-check", "--r=3"], ["residue", "--conf", EXAMPLE_MODEL], ["basis", "-h"],
    ["evolve", "--energy", "-1e3"], ["evolve", "--energy", "-1000"], ["basis"],
    ["basis", "--format", "CSV", "--r", "3"], ["exp-check", "--r", "3_0", "--r"],
    ["exp-check", "--", "--r", "3"], ["evolve", "--t", "1"], [],
])
def test_the_argv_reader_leaves_any_other_spelling_to_argparse(argv):
    assert cli._read_argv(argv) is None


def test_a_name_set_on_the_cli_before_its_pipeline_loads_is_the_one_that_runs(tmp_path):
    """A patch point holds before its pipeline module loads, as tests and the bench tracer set it.

    In a fresh interpreter, `gamow.cli.load_model_file` and
    `gamow.cli.exponential_subspace_basis` are set to recording wrappers
    while neither pipeline module is loaded.  Asking `gamow.cli` for another
    name of `smatrix` loads it and keeps the wrapper.  Each wrapper then runs
    in its command, which writes the bytes an unpatched run writes.  A handler
    that imported its names itself would bypass the wrappers.
    """
    commands = {"residue": ["residue", "--config", EXAMPLE_MODEL], "basis": ["basis", "--r", "4"]}
    code = (
        "import sys\n"
        "import gamow.cli\n"
        "calls = []\n"
        "def recording(module, name):\n"
        "    def wrapper(*args):\n"
        "        calls.append(name)\n"
        "        return getattr(sys.modules[module], name)(*args)\n"
        "    return wrapper\n"
        "wrappers = {'load_model_file': recording('gamow.smatrix', 'load_model_file'),\n"
        "            'exponential_subspace_basis':\n"
        "                recording('gamow.operators', 'exponential_subspace_basis')}\n"
        "for name, wrapper in wrappers.items():\n"
        "    setattr(gamow.cli, name, wrapper)\n"
        f"print([name for name in {PIPELINES!r} if name in sys.modules])\n"
        "check = gamow.cli.decomposition_check\n"
        "print(check is sys.modules['gamow.smatrix'].decomposition_check,\n"
        "      gamow.cli.load_model_file is wrappers['load_model_file'])\n"
        f"for command, argv in {commands!r}.items():\n"
        f"    out = {str(tmp_path / 'patched-')!r} + command\n"
        "    print(command, gamow.cli.main([*argv, '--out', out]))\n"
        "print(*calls)\n"
        "print(all(getattr(gamow.cli, name) is wrapper for name, wrapper in wrappers.items()))\n"
    )
    assert run_python(code).stdout.splitlines() == [
        "[]", "True True", f"residue {EXIT_OK}", f"basis {EXIT_OK}",
        "load_model_file exponential_subspace_basis", "True"]
    for command, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / command)]) == EXIT_OK
        assert (tmp_path / f"patched-{command}").read_bytes() == (tmp_path / command).read_bytes()


def global_loads(code):
    """The names that `code`, and each code object nested in it, load as globals."""
    names = {op.argval for op in dis.get_instructions(code) if op.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= global_loads(const)
    return names


def test_every_global_name_a_cli_function_loads_is_bound_when_its_command_runs():
    """Read off the bytecode, so that a call of an unbound name fails here, not on its rare path.

    Each global name a `gamow.cli` function loads is a builtin, a name `cli`
    sets at import (read in a fresh interpreter, before any pipeline binds), or
    a public name of a pipeline module in `_COMMANDS`.  A `cmd_*` handler, with
    the `cli` functions it calls, loads pipeline names only from its own row's
    pipeline: one loading the other pipeline's would find it unbound.
    """
    at_import = set(run_python("import gamow.cli\nprint(*vars(gamow.cli))").stdout.split())
    functions = {name: getattr(value, "__wrapped__", value) for name, value in vars(cli).items()
                 if name in at_import and callable(value)
                 and getattr(value, "__module__", None) == cli.__name__}
    every_load = {name: global_loads(function.__code__) for name, function in functions.items()}
    loads = {name: names - set(dir(builtins)) - at_import for name, names in every_load.items()}
    calls = {name: names & functions.keys() for name, names in every_load.items()}
    pipelines = {pipeline for pipeline, _, _ in cli._COMMANDS.values()}
    bound = set().union(*(gamow._PUBLIC[pipeline] for pipeline in pipelines))
    assert {name: names - bound for name, names in loads.items() if names - bound} == {}
    for command, (pipeline, _, _) in cli._COMMANDS.items():
        reached, todo = set(), ["cmd_" + command.replace("-", "_")]
        while todo:  # the handler and the cli functions it calls, at any depth
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(calls[name])
        used = set().union(*(loads[name] for name in reached))
        assert used and used <= set(gamow._PUBLIC[pipeline]), (command, used)


# -- long lists spliced into the report -----------------------------------------

@pytest.mark.parametrize("elements", [[], ["\n    null", "\n    {\n      \"a\": 1\n    }"]],
                         ids=["empty", "two"])
def test_the_splice_writes_what_json_dumps_writes(elements):
    """Values before and after the list, a None and the text "null" among them, stay put."""
    payload = {"a": None, "b": "null", "z": [None, "null"]}
    text = "".join(cli._spliced_json(payload, "m", elements))
    items = [json.loads(element) for element in elements]
    assert text == json.dumps({**payload, "m": items}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, key, count, per_piece", [
    (["exp-check", "--j", "6"], "equations", 56, 1),
    (["exp-check", "--j", "0"], "equations", 0, 1),
    (["evolve", "--r", "2", "--n", "1", "--steps", "3", "--format", "json"], "rows", 12, 4),
], ids=["exp-check", "exp-check-no-equations", "evolve"])
def test_each_long_list_is_streamed_one_piece_per_item(tmp_path, monkeypatch, argv, key, count,
                                                       per_piece):
    """`_write_output` gets an iterator: the head, one piece per item of the list, then the tail.

    Each item's piece is the text of that item alone, after its "[" or ",".
    exp-check's equations are those of the system's own JSON.  An item of
    evolve's is a grid step: its r^2 rows, joined by ",".
    """
    handed = []

    def recording(out, pieces):
        assert iter(pieces) is pieces
        write(out, (handed.append(piece) or piece for piece in pieces))

    write = cli._write_output
    monkeypatch.setattr(cli, "_write_output", recording)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "".join(handed)
    items = json.loads(out.read_text())[key]
    if key == "equations":
        system = operators.exponentiality_constraints(int(argv[2]))
        assert items == system.to_json_dict()["equations"]
    head, *pieces, tail = handed
    assert len(pieces) * per_piece == len(items) == count
    assert [json.loads(f"[{piece[1:]}]") for piece in pieces] == [
        items[i:i + per_piece] for i in range(0, count, per_piece)]
    assert [piece[0] for piece in pieces] == ["[", *[","] * (count - 1)][:len(pieces)]
    assert head.endswith(f'"{key}": ') and tail.startswith("\n  ]" if count else "[]")


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
    table = {}
    for e in spec["entries"] if spec["kind"] == "coefficients" else [spec]:
        key = (e["ket"], e["bra"])
        table[key] = table.get(key, 0) + ComplexRational(*e["coeff"])  # as the CLI sums them
    return operator_from_coefficients(pole, table)


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
# on to the largest float, where a grid's t_end * i overflows
huge = st.floats(1e300, sys.float_info.max)


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
        f"--gamma={data.draw(magnitude)!r}", f"--t-end={data.draw(magnitude | huge)!r}",
        "--steps", str(data.draw(st.integers(2, 4))), "--format", output_format,
    ]
    code, out, err = _run_main(argv)
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILURE, EXIT_INPUT_ERROR), err
    if code == EXIT_INPUT_ERROR:  # every flag is valid: only Gamma^n/n! can be refused
        assert out == "" and err.startswith("input error: operator coefficients beyond the "
                                            "float range (Gamma "), err
        return
    if output_format == "json":
        report = _strict_json(out)
        assert out == json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        numbers = _numbers(report)
    else:
        numbers = [float(cell) for line in out.splitlines()[1:] for cell in line.split(",")]
    assert all(math.isfinite(x) for x in numbers)


# a coefficient part across the float range, up to the largest float, or zero
part = st.one_of(st.just(0.0), signed, huge)


@st.composite
def wide_evolve_configs(draw):
    """An evolve config of each operator kind, its widths, coefficients and t_end across the floats."""
    r = draw(st.integers(1, 4))
    orders = st.integers(0, r - 1)
    kind = draw(st.sampled_from(["binomial", "dyad", "coefficients"]))
    if kind == "binomial":
        operator = {"kind": kind, "n": draw(orders), "include_prefactor": draw(st.booleans())}
    elif kind == "dyad":
        operator = {"kind": kind, "ket": draw(orders), "bra": draw(orders),
                    "coeff": [draw(part), draw(part)]}
    else:
        entries = draw(st.lists(st.tuples(orders, orders, part, part), min_size=1, max_size=4))
        operator = {"kind": kind, "entries": [
            {"ket": ket, "bra": bra, "coeff": [re, im]} for ket, bra, re, im in entries]}
    return {"Gamma": draw(magnitude), "r": r, "operator": operator,
            "grid": {"t_end": draw(magnitude | huge), "steps": draw(st.integers(2, 5))},
            "format": draw(st.sampled_from(["csv", "json"]))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_evolve_configs())
@example({"Gamma": 1e300, "r": 40, "format": "json", "grid": {"t_end": 1.0, "steps": 2},
          "operator": {"kind": "dyad", "ket": 39, "bra": 39, "coeff": [1e290, 0.0]}})
def test_a_table_the_bound_clears_has_a_float_value_and_modulus_at_every_grid_point(config):
    """Where `_clears` holds, no `value` raises and no `abs` overflows, and the run exits 0.

    Where it does not, the curve is made whole first: a run that fails writes nothing.  In the
    example, entry (19,19) has C(39,19)^2 * 1e290 t^40, small beside exp(-Gamma t), yet no float
    holds C(39,19)^2 * 1e290, and JSON's head would be written before the first row.
    """
    pole = ComplexPole(0, config["Gamma"], config["r"])
    evolved = evolve_operator(library_operator(pole, config["operator"]))
    cleared = cli._clears(evolved)
    if cleared:
        t_end, last = config["grid"]["t_end"], config["grid"]["steps"] - 1
        for i in range(last + 1):
            t = t_end * i / last if i < last else t_end
            t = t_end * (i / last) if math.isinf(t) else t
            for ket in range(pole.order):
                for bra in range(pole.order):
                    assert math.isfinite(abs(evolved.value(ket, bra, t)))
    with tempfile.TemporaryDirectory() as workdir:
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        code, out, err = _run_main(["evolve", "--config", config_path])
    if cleared:
        assert (code, err) == (EXIT_OK, "")
    if code == EXIT_OK or err.startswith("pure-exponential contract violated"):
        assert not _nonfinite_in(out), out
    else:  # the failed run wrote nothing
        assert out == "", err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.sampled_from([0.7, 1.0, 3.25]), n=st.integers(0, 4), k=st.integers(-200, 200))
def test_evolve_under_gamma_scaling_scales_time_and_values_by_powers_of_two(gamma, n, k):
    """Gamma * 2^k over t_end * 2^-k: t scales by 2^-k, re, im and modulus by 2^(kn), exactly.

    The decay factor exp(-Gamma t) is unchanged and the prefactor Gamma^n/n!
    scales by 2^(kn).  With |kn| <= 800 every value here stays a normal
    float, so each product by a power of two is exact.
    """
    def curve(width, t_end):
        code, out, err = _run_main(["evolve", "--r", "5", "--n", str(n), f"--gamma={width!r}",
                                    f"--t-end={t_end!r}", "--steps", "41"])
        assert (code, err) == (EXIT_OK, "")
        return [[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]]

    reference, scaled = curve(gamma, 5.0), curve(math.ldexp(gamma, k), math.ldexp(5.0, -k))
    assert len(scaled) == len(reference) == 41 * 25
    for (t, ket, bra, *values), (t2, ket2, bra2, *values2) in zip(reference, scaled):
        assert (t2, ket2, bra2) == (math.ldexp(t, -k), ket, bra)
        assert values2 == [math.ldexp(x, k * n) for x in values]


# the edge values of the input fuzzer: out of range, non-finite, subnormal or of another type
EDGE_VALUES = [0, -1, 10**400, 1e308, -0.0, 1e-320, math.inf, "a string", True, None, [], {}]


def _field_paths(value, path=()):
    """The path of every field below `value`, nested ones included, as keys and indices."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for step, child in children:
        yield (*path, step)
        yield from _field_paths(child, (*path, step))


def _full_evolve_configs():
    """An evolve config that sets every key, once for each operator kind."""
    common = {"E_R": 1.5, "Gamma": 0.5, "r": 3, "grid": {"t_end": 4.0, "steps": 5},
              "format": "json", "tol": 1e-10}
    return [dict(common, operator=operator) for operator in (
        {"kind": "binomial", "n": 2, "include_prefactor": True},
        {"kind": "dyad", "ket": 1, "bra": 2, "coeff": [0.5, -1.0]},
        {"kind": "coefficients", "entries": [{"ket": 0, "bra": 1, "coeff": 2.0},
                                             {"ket": 2, "bra": 0, "coeff": [0.0, 1.0]}]},
    )]


def _nonfinite_in(out):
    """True where the output, a CSV table or a JSON document, holds a NaN or infinity."""
    if out.startswith("t,entry_l"):
        numbers = [float(cell) for line in out.splitlines()[1:] for cell in line.split(",")]
    else:
        try:
            numbers = _numbers(_strict_json(out))
        except AssertionError:  # a NaN or Infinity token
            return True
    return not all(math.isfinite(x) for x in numbers)


# the line of each check whose failure exits 1, never another ArithmeticError caught in main
CHECK_FAILED = {
    "residue": r"contour decomposition check failed: .+\n",
    "evolve": r"pure-exponential contract violated at .+\n"
              r"|verification failed: entry \(\d+,\d+\) at t=\S+ exceeds the float range\n",
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_inputs_exit_0_1_or_2_and_an_input_error_writes_nothing(data):
    """One or two fields of the bundled model or of a full evolve config set to an edge value.

    Nothing escapes `main`, the exit code is 0, 1 or 2, exit 1 comes with the
    failing check's own line, exit 2 writes nothing to stdout, and exit 0
    writes no NaN or infinity.
    """
    command = data.draw(st.sampled_from(["residue", "evolve"]))
    document = (TestResidue().model_document() if command == "residue"
                else data.draw(st.sampled_from(_full_evolve_configs())))
    paths = data.draw(st.lists(st.sampled_from(list(_field_paths(document))), min_size=1,
                               max_size=2, unique=True))
    for path in sorted(paths, key=len, reverse=True):  # a field before the object holding it
        edited(document, path, data.draw(st.sampled_from(EDGE_VALUES)))
    with tempfile.TemporaryDirectory() as workdir:
        config_path = os.path.join(workdir, "input.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)  # inf is written as the Infinity that json.load reads
        code, out, err = _run_main([command, "--config", config_path])
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILURE, EXIT_INPUT_ERROR), err
    if code == EXIT_VERIFICATION_FAILURE:
        assert re.fullmatch(CHECK_FAILED[command], err), err
    if code == EXIT_INPUT_ERROR:
        assert out == "", err
    if code == EXIT_OK:
        assert not _nonfinite_in(out), out
