"""Command-line front end: decay curves, theorem checks, residue reports.

Exit codes: 0 all checks passed, 1 verification failure, 2 input error.
Output is deterministic: fixed orderings and 17-significant-digit floats, so
identical configs produce byte-identical files.
"""

import argparse
import errno
import functools
import json
import math
import os
import sys

from .exact import ComplexRational, coefficient_from_json, reject_unknown_keys, typed_field
from .jordan import ComplexPole
from .operators import (
    CoefficientMatrix,
    binomial_family_matches_nullspace,
    evolve_operator,
    exponential_state_operator,
    exponential_subspace_basis,
    exponentiality_constraints,
    is_pure_exponential,
    operator_from_coefficients,
    solve_binomial_recursion,
    verify_restriction_equivalence,
)
from .smatrix import decomposition_check, load_model_file

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

CSV_FORMAT = "csv"
JSON_FORMAT = "json"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of writing a non-JSON token."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _equations_json(equations) -> str:
    """exp-check's "equations" list in the bytes `_dump_json` writes for a top-level value.

    Written straight from the ConstraintEquations; `ConstraintSystem.to_json_dict` is its oracle.
    """
    if not equations:
        return "[]"
    term = ('        {\n          "coeff": [\n            %r,\n            0.0\n          ],\n'
            '          "k": %d,\n          "n": %d\n        }')
    return "[\n" + ",\n".join(
        f'    {{\n      "l": {eq.l},\n      "m": {eq.m},\n      "n": {eq.n},\n      "terms": [\n'
        + ",\n".join(term % (float(c), k, n) for (n, k), c in eq.terms)
        + "\n      ]\n    }"
        for eq in equations
    ) + "\n  ]"


# One row per evolve setting: (config key, flag dest, JSON type, default).  The
# file value is type-checked, then a given flag overrides it; --n stands for
# the binomial operator of that order.
_SETTINGS = (
    ("E_R", "energy", float, 0.0),
    ("Gamma", "gamma", float, 1.0),
    ("r", "r", int, 1),
    ("grid.t_end", "t_end", float, 5.0),
    ("grid.steps", "steps", int, 101),
    ("format", "format", str, CSV_FORMAT),
    ("tol", "tol", float, 1e-12),
    ("operator", "n", dict, {"kind": "binomial", "n": 0, "include_prefactor": True}),
)


def _build_operator(pole: ComplexPole, spec: dict):
    kind = typed_field(spec, "kind", str, "operator.kind")
    if kind == "binomial":
        reject_unknown_keys(spec, ("kind", "n", "include_prefactor"), "operator")
        n = typed_field(spec, "n", int, "operator.n")
        prefactor = typed_field(spec, "include_prefactor", bool,
                                "operator.include_prefactor", True)
        return exponential_state_operator(pole, n, include_prefactor=prefactor)
    if kind == "dyad":
        entries = [("operator", {key: value for key, value in spec.items() if key != "kind"})]
    elif kind == "coefficients":
        reject_unknown_keys(spec, ("kind", "entries"), "operator")
        entries = typed_field(spec, "entries", list, "operator.entries")
        entries = [(f"operator.entries[{i}]", entry) for i, entry in enumerate(entries)]
    else:
        raise ValueError(f"operator.kind: expected binomial | dyad | coefficients, got {kind!r}")
    table = {}
    for where, entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got {entry!r}")
        reject_unknown_keys(entry, ("ket", "bra", "coeff"), where)
        key = tuple(typed_field(entry, field, int, f"{where}.{field}") for field in ("ket", "bra"))
        value = coefficient_from_json(entry.get("coeff", 1), f"{where}.coeff")
        table[key] = table.get(key, ComplexRational(0)) + value
    return operator_from_coefficients(pole, CoefficientMatrix(pole.order, table))


def _load_json_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config: expected an object, got {data!r}")
    return data


def _resolve_run_config(args) -> dict:
    """The evolve settings keyed by config key: the file's value or the default, or a given flag."""
    data = _load_json_config(args.config) if args.config else {}
    paths = [key.split(".") for key, _, _, _ in _SETTINGS]
    reject_unknown_keys(data, list(dict.fromkeys(path[0] for path in paths)))
    sections = {"": data, "grid": typed_field(data, "grid", dict, "grid", {})}
    reject_unknown_keys(sections["grid"], [path[1] for path in paths if path[0] == "grid"], "grid")
    flags = dict(vars(args))
    if args.n is not None:
        if "operator" in data:
            raise ValueError("give either --n or an operator in the config file, not both")
        flags["n"] = {"kind": "binomial", "n": args.n}
        if args.r is None and "r" not in data:
            flags["r"] = max(1, args.n + 1)
    settings = {}
    for key, flag, kind, default in _SETTINGS:
        section, _, name = key.rpartition(".")
        settings[key] = typed_field(sections[section], name, kind, key, default)
        if flags[flag] is not None:
            settings[key] = flags[flag]
    for key, name in (("grid.t_end", "grid t_end"), ("tol", "tolerance")):
        if not (math.isfinite(settings[key]) and settings[key] > 0):
            raise ValueError(f"{name} must be positive and finite, got {settings[key]!r}")
    if settings["grid.steps"] < 2:
        raise ValueError(f"grid needs at least 2 steps, got {settings['grid.steps']}")
    if settings["format"] not in (CSV_FORMAT, JSON_FORMAT):
        raise ValueError(f"unknown output format {settings['format']!r}")
    return settings


def cmd_evolve(args) -> int:
    """Write the decay curve of an evolved operator over a uniform time grid."""
    settings = _resolve_run_config(args)
    width, tolerance, spec = settings["Gamma"], settings["tol"], settings["operator"]
    pole = ComplexPole(settings["E_R"], width, settings["r"])
    operator = _build_operator(pole, spec)
    evolved = evolve_operator(operator)
    r = pole.order
    t_end, steps = settings["grid.t_end"], settings["grid.steps"]
    rows = []
    try:
        for t in [t_end * i / (steps - 1) for i in range(steps)]:
            for ket in range(r):
                for bra in range(r):
                    value = evolved.value(ket, bra, t)
                    rows.append((t, ket, bra, value.real, value.imag, abs(value)))
    except OverflowError:  # a coefficient or an entry modulus that no float holds
        raise ValueError(f"operator coefficients beyond the float range (Gamma {width!r}, "
                         f"operator {spec!r})") from None
    if settings["format"] == CSV_FORMAT:
        lines = ["t,entry_l,entry_m,re,im,modulus"]
        for t, ket, bra, re, im, modulus in rows:
            lines.append(f"{_fmt(t)},{ket},{bra},{_fmt(re)},{_fmt(im)},{_fmt(modulus)}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "pole": {"E_R": settings["E_R"], "Gamma": width, "r": r},
            "operator": spec,
            "rows": [
                {"t": t, "entry_l": ket, "entry_m": bra, "re": re, "im": im, "modulus": modulus}
                for t, ket, bra, re, im, modulus in rows
            ],
        }
        _write_output(_dump_json(payload), args.out)
    if is_pure_exponential(evolved):
        base = {
            (ket, bra): abs(evolved.value(ket, bra, 0.0))
            for ket in range(r)
            for bra in range(r)
        }
        # relative above modulus 1, so that a large entry does not fail on one ulp
        for t, ket, bra, _, _, modulus in rows:
            expected = base[(ket, bra)] * math.exp(-width * t)
            if abs(modulus - expected) > tolerance * max(1.0, base[(ket, bra)]):
                print(
                    f"pure-exponential contract violated at t={t}, entry ({ket},{bra}): "
                    f"modulus {modulus!r} vs expected {expected!r}",
                    file=sys.stderr,
                )
                return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


def cmd_exp_check(args) -> int:
    """Verify the exponential-decay characterization and emit the system."""
    if args.j is None and args.r is None:
        raise ValueError("exp-check needs --j or --r")
    r = args.r
    if r is not None and r < 1:
        raise ValueError(f"--r must be a pole order >= 1, got {r}")
    j = args.j if args.j is not None else 2 * (r - 1)
    system = exponentiality_constraints(j)
    try:
        family_matches = binomial_family_matches_nullspace(system, solve_binomial_recursion(j))
    except ArithmeticError as exc:
        print(f"closed-form verification failed: {exc}", file=sys.stderr)
        family_matches = False
    dimension = system.solution_dimension
    # the equation list, most of the bytes, is spliced in by its own writer below
    payload = {"j": j, "equations": None, "solution_dimension": dimension}
    payload["expected_dimension"] = j + 1
    payload["binomial_family_matches"] = family_matches
    passed = dimension == j + 1 and family_matches
    if r is not None:
        pole = ComplexPole(0, 1, r)  # the characterization does not depend on E_R or Gamma
        report = verify_restriction_equivalence(pole)
        forward_ok = True
        try:
            exponential_subspace_basis(pole)  # checks each member evolves purely exponentially
        except ArithmeticError as exc:
            print(f"forward verification failed: {exc}", file=sys.stderr)
            forward_ok = False
        payload["restricted"] = report.to_json_dict()
        payload["forward_pure_exponential"] = forward_ok
        passed = passed and report.passed and forward_ok
    payload["passed"] = passed
    equations = '"equations": ' + _equations_json(system.equations)
    text = _dump_json(payload).replace('"equations": null', equations, 1)
    _write_output(text, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def cmd_residue(args) -> int:
    """Run the contour-decomposition check on a model document."""
    model, ket_fn, bra_fn = load_model_file(args.config)
    tolerance = {} if args.tol is None else {"tolerance": args.tol}
    report = decomposition_check(model, ket_fn, bra_fn, **tolerance)
    _write_output(_dump_json(report.to_json_dict()), args.out)
    if report.passed:
        return EXIT_OK
    reason = f"discrepancy {report.discrepancy!r} against tolerance {report.tolerance!r}"
    for piece, legs in report._unconverged:
        reason += f"; quadrature of the {piece} piece did not converge ({', '.join(legs)})"
    print(f"contour decomposition check failed: {reason}", file=sys.stderr)
    return EXIT_VERIFICATION_FAILURE


def cmd_basis(args) -> int:
    """Emit the pure-exponential operator basis for a pole order."""
    members = exponential_subspace_basis(ComplexPole(0, 1, args.r))
    if (args.format or JSON_FORMAT) == CSV_FORMAT:
        lines = ["n,ket,bra,re,im"]
        for n, member in enumerate(members):
            for (ket, bra), value in member.items():
                value = complex(value)
                lines.append(f"{n},{ket},{bra},{_fmt(value.real)},{_fmt(value.imag)}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        payload = [
            {
                "n": n,
                "entries": member.coefficients.to_json_entries(),
            }
            for n, member in enumerate(members)
        ]
        _write_output(_dump_json(payload), args.out)
    return EXIT_OK


# Every flag once; each subcommand below names the flags it reads.
_OPTIONS = {
    "--config": {"help": "JSON input: evolve settings, or the residue model document"},
    "--out": {"help": "output path (default: stdout)"},
    "--format": {"choices": [CSV_FORMAT, JSON_FORMAT], "help": "output format"},
    "--tol": {"type": float, "help": "numeric tolerance"},
    "--r": {"type": int, "help": "pole order"},
    "--j": {"type": int, "help": "total-order bound for the constraint system"},
    "--gamma": {"type": float, "help": "resonance width (energy units)"},
    "--energy": {"type": float, "help": "resonance energy (energy units)"},
    "--n": {"type": int, "help": "order of the binomial operator to evolve, with width^n/n!"},
    "--t-end": {"type": float, "help": "end of the time grid (start is 0)"},
    "--steps": {"type": int, "help": "number of grid points (>= 2)"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` finds each handler by name."""
    parser = argparse.ArgumentParser(
        prog="gamow",
        description="Exact Jordan-block calculus for higher-order resonance states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, help, flags); a trailing "!" marks a required flag
    for name, help_text, flags in (
        ("evolve", "evolve an operator and write its decay curve",
         "--config --out --format --tol --r --gamma --energy --n --t-end --steps"),
        ("exp-check", "verify the pure-exponential characterization", "--out --r --j"),
        ("residue", "contour-decomposition check for a model file", "--config! --out --tol"),
        ("basis", "emit the pure-exponential operator basis", "--out --format --r!"),
    ):
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            command.add_argument(option, required=flag != option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so that a patched cmd_* function is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.out:  # what opening --out would refuse after the work is refused before it
            try:  # "PARENT/." fails as that open does, for a missing parent or one not a directory
                os.stat(os.path.join(os.path.dirname(args.out), os.curdir))
            except OSError as exc:
                if exc.errno in (errno.ENOENT, errno.ENOTDIR):  # EACCES is left to the open
                    raise OSError(exc.errno, exc.strerror, args.out) from None
            # isdir only where OUT exists: its OSError on a new OUT costs a fresh process 0.7 MB
            if os.access(args.out, os.F_OK) and os.path.isdir(args.out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        return handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"invalid JSON in {args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    except OSError as exc:
        if exc.filename is None:  # not the --config or --out file, e.g. a closed stdout
            raise
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
