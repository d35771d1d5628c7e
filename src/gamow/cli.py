"""Command-line front end: decay curves, theorem checks, residue reports.

Exit codes: 0 all checks passed, 1 verification failure, 2 input error.
Output is deterministic: fixed orderings and 17-significant-digit floats, so
identical configs produce byte-identical files.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .exact import ComplexRational, coefficient_from_json
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
from .smatrix import QuadratureConfig, decomposition_check, load_model_file

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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class RunConfig:
    """Resolved settings for the evolve subcommand (t_start is pinned to 0)."""

    resonance_energy: float = 0.0
    width: float = 1.0
    order: int = 1
    operator_spec: dict | None = None
    t_end: float = 5.0
    steps: int = 101
    output_format: str = CSV_FORMAT
    tolerance: float = 1e-12

    def validate(self):
        for name, value in (
            ("E_R", self.resonance_energy),
            ("Gamma", self.width),
            ("t_end", self.t_end),
            ("tolerance", self.tolerance),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.t_end <= 0:
            raise ValueError(f"grid t_end must be positive, got {self.t_end}")
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 steps, got {self.steps}")
        if self.output_format not in (CSV_FORMAT, JSON_FORMAT):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def grid(self):
        return [self.t_end * i / (self.steps - 1) for i in range(self.steps)]


_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", dict: "an object"}


def _typed(data: dict, key: str, kind, where: str, default=None):
    """data[key], or `default` when absent, checked to be a JSON value of `kind`.

    JSON booleans are neither integers nor numbers here, and an integer is
    also a number.
    """
    value = data.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _build_operator(pole: ComplexPole, spec):
    if not isinstance(spec, dict):
        raise ValueError(f"operator: expected an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "binomial":
        if "n" not in spec:
            raise ValueError('operator.n: missing required field for kind "binomial"')
        prefactor = _typed(spec, "include_prefactor", bool, "operator.include_prefactor", True)
        return exponential_state_operator(
            pole, _typed(spec, "n", int, "operator.n"), include_prefactor=prefactor
        )
    if kind == "dyad":
        for field in ("ket", "bra"):
            if field not in spec:
                raise ValueError(f'operator.{field}: missing required field for kind "dyad"')
        key = tuple(_typed(spec, field, int, f"operator.{field}") for field in ("ket", "bra"))
        coeff = coefficient_from_json(spec.get("coeff", 1), "operator.coeff")
        return operator_from_coefficients(
            pole, CoefficientMatrix.by_dyad_orders(pole.order, {key: coeff})
        )
    if kind == "coefficients":
        entries = spec.get("entries")
        if not isinstance(entries, list):
            raise ValueError('operator.entries: expected a list for kind "coefficients"')
        table = {}
        for i, entry in enumerate(entries):
            where = f"operator.entries[{i}]"
            if not isinstance(entry, dict) or "ket" not in entry or "bra" not in entry:
                raise ValueError(f"{where}: expected an object with ket, bra, coeff")
            key = tuple(_typed(entry, field, int, f"{where}.{field}") for field in ("ket", "bra"))
            value = coefficient_from_json(entry.get("coeff", 1), f"{where}.coeff")
            table[key] = table.get(key, ComplexRational(0)) + value
        return operator_from_coefficients(
            pole, CoefficientMatrix.by_dyad_orders(pole.order, table)
        )
    raise ValueError(f"operator.kind: expected binomial | dyad | coefficients, got {kind!r}")


def _load_json_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve_run_config(args) -> RunConfig:
    config = RunConfig()
    data = _load_json_config(args.config) if args.config else {}
    if data:
        grid = _typed(data, "grid", dict, "grid", {})
        config = RunConfig(
            resonance_energy=_typed(data, "E_R", float, "E_R", config.resonance_energy),
            width=_typed(data, "Gamma", float, "Gamma", config.width),
            order=_typed(data, "r", int, "r", config.order),
            operator_spec=data.get("operator"),
            t_end=_typed(grid, "t_end", float, "grid.t_end", config.t_end),
            steps=_typed(grid, "steps", int, "grid.steps", config.steps),
            output_format=data.get("format", config.output_format),
            tolerance=_typed(data, "tol", float, "tol", config.tolerance),
        )
    if args.energy is not None:
        config.resonance_energy = args.energy
    if args.gamma is not None:
        config.width = args.gamma
    if args.r is not None:
        config.order = args.r
    if args.t_end is not None:
        config.t_end = args.t_end
    if args.steps is not None:
        config.steps = args.steps
    if args.format is not None:
        config.output_format = args.format
    if args.tol is not None:
        config.tolerance = args.tol
    if args.n is not None:
        if config.operator_spec is not None:
            raise ValueError("give either --n or an operator in the config file, not both")
        config.operator_spec = {
            "kind": "binomial",
            "n": args.n,
            "include_prefactor": args.include_prefactor,
        }
        if args.r is None and "r" not in data:
            config.order = max(config.order, args.n + 1)
    if config.operator_spec is None:
        config.operator_spec = {"kind": "binomial", "n": 0, "include_prefactor": True}
    config.validate()
    return config


def cmd_evolve(args) -> int:
    """Write the decay curve of an evolved operator over a uniform time grid."""
    config = _resolve_run_config(args)
    pole = ComplexPole(config.resonance_energy, config.width, config.order)
    operator = _build_operator(pole, config.operator_spec)
    evolved = evolve_operator(operator)
    r = pole.order
    rows = []
    for t in config.grid():
        for ket in range(r):
            for bra in range(r):
                value = evolved.value(ket, bra, t)
                rows.append((t, ket, bra, value.real, value.imag, abs(value)))
    if config.output_format == CSV_FORMAT:
        lines = ["t,entry_l,entry_m,re,im,modulus"]
        for t, ket, bra, re, im, modulus in rows:
            lines.append(f"{_fmt(t)},{ket},{bra},{_fmt(re)},{_fmt(im)},{_fmt(modulus)}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "pole": {"E_R": config.resonance_energy, "Gamma": config.width, "r": r},
            "operator": config.operator_spec,
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
        for t, ket, bra, _, _, modulus in rows:
            expected = base[(ket, bra)] * math.exp(-config.width * t)
            if abs(modulus - expected) > config.tolerance:
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
    dimension = system.solution_dimension
    expected_dimension = j + 1
    try:
        family = solve_binomial_recursion(j)
        family_matches = binomial_family_matches_nullspace(system, family)
    except ArithmeticError as exc:
        print(f"closed-form verification failed: {exc}", file=sys.stderr)
        family_matches = False
    forward_ok = True
    payload = system.to_json_dict()
    payload["expected_dimension"] = expected_dimension
    payload["binomial_family_matches"] = family_matches
    passed = dimension == expected_dimension and family_matches
    if r is not None:
        gamma = args.gamma if args.gamma is not None else 1.0
        energy = args.energy if args.energy is not None else 0.0
        pole = ComplexPole(energy, gamma, r)
        report = verify_restriction_equivalence(pole)
        try:
            exponential_subspace_basis(pole)  # checks each member evolves purely exponentially
        except ArithmeticError as exc:
            print(f"forward verification failed: {exc}", file=sys.stderr)
            forward_ok = False
        payload["restricted"] = report.to_json_dict()
        payload["forward_pure_exponential"] = forward_ok
        passed = passed and report.passed and forward_ok
    payload["passed"] = passed
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def cmd_residue(args) -> int:
    """Run the contour-decomposition check on a model document."""
    model, ket_fn, bra_fn = load_model_file(args.config)
    tolerance = args.tol if args.tol is not None else 1e-8
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    report = decomposition_check(
        model, ket_fn, bra_fn, QuadratureConfig(), tolerance=tolerance
    )
    _write_output(_dump_json(report.to_json_dict()), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILURE


def cmd_basis(args) -> int:
    """Emit the pure-exponential operator basis for a pole order."""
    if args.r is None:
        raise ValueError("basis needs --r")
    gamma = args.gamma if args.gamma is not None else 1.0
    energy = args.energy if args.energy is not None else 0.0
    pole = ComplexPole(energy, gamma, args.r)
    members = exponential_subspace_basis(pole)
    if (args.format or JSON_FORMAT) == CSV_FORMAT:
        lines = ["n,ket,bra,re,im"]
        for n, member in enumerate(members):
            for (ket, bra), value in member.items():
                lines.append(
                    f"{n},{ket},{bra},{_fmt(float(value.real))},{_fmt(float(value.imag))}"
                )
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        payload = [
            {
                "n": n,
                "entries": [
                    {"ket": ket, "bra": bra, "coeff": [float(v.real), float(v.imag)]}
                    for (ket, bra), v in member.items()
                ],
            }
            for n, member in enumerate(members)
        ]
        _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamow",
        description="Exact Jordan-block calculus for higher-order resonance states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=[CSV_FORMAT, JSON_FORMAT], help="output format")
        p.add_argument("--tol", type=float, help="numeric tolerance")
        p.add_argument("--r", type=int, help="pole order")
        p.add_argument("--j", type=int, help="total-order bound for the constraint system")
        p.add_argument("--gamma", type=float, help="resonance width (energy units)")
        p.add_argument("--energy", type=float, help="resonance energy (energy units)")

    evolve = sub.add_parser("evolve", help="evolve an operator and write its decay curve")
    add_common(evolve)
    evolve.add_argument("--n", type=int, help="order of the binomial operator to evolve")
    evolve.add_argument(
        "--include-prefactor",
        action="store_true",
        help="include the width^n/n! prefactor on the binomial operator",
    )
    evolve.add_argument("--t-end", type=float, help="end of the time grid (start is 0)")
    evolve.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    evolve.set_defaults(handler=cmd_evolve)

    exp_check = sub.add_parser(
        "exp-check", help="verify the pure-exponential characterization"
    )
    add_common(exp_check)
    exp_check.set_defaults(handler=cmd_exp_check)

    residue = sub.add_parser("residue", help="contour-decomposition check for a model file")
    add_common(residue)
    residue.set_defaults(handler=cmd_residue)

    basis = sub.add_parser("basis", help="emit the pure-exponential operator basis")
    add_common(basis)
    basis.set_defaults(handler=cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "residue" and not args.config:
        print("residue needs --config pointing at a model JSON file", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"invalid JSON in {args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
