"""Command-line front end: decay curves, theorem checks, residue reports.

Exit codes: 0 all checks passed, 1 verification failure, 2 input or I/O
error.  An `--out` that cannot be opened is refused before the work, and a
write that fails exits 2 with one stderr line; a failed run leaves a new
`--out` empty and an existing one untouched.  Output is deterministic: fixed
orderings and 17-significant-digit floats, so identical configs produce
byte-identical files.  Coefficients are exact integers, written as floats
wherever a float holds them.
"""

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import types

from . import _HOME, _PUBLIC
from .exact import (
    ComplexRational, coefficient_from_json, json_number, reject_unknown_keys, typed_field,
)
from .jordan import ComplexPole


# Every command uses `exact` and `jordan`, imported above.  Its pipeline module, named in
# its `_COMMANDS` row, is imported on first use and its public names bound here then, so a
# process loads only the pipeline it runs.  A name already set, by a test or tracer, is kept.
def _bind(pipeline):
    """Import the module `pipeline` and bind here each of its public names not already set."""
    module = importlib.import_module(f"{__package__}.{pipeline}")
    namespace = globals()
    for name in _PUBLIC[pipeline]:
        namespace.setdefault(name, getattr(module, name))
    _unbound.discard(pipeline)


def __getattr__(name):
    """A pipeline name asked for before its first command, as `getattr` or a patch asks."""
    pipeline = _HOME.get(name)
    if pipeline not in _unbound:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(pipeline)
    return globals()[name]

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

CSV_FORMAT = "csv"
JSON_FORMAT = "json"


def _fmt(value) -> str:
    """A float in 17 significant digits; an int, as `json_number` leaves one, exactly."""
    return str(value) if isinstance(value, int) else format(float(value), ".17g")


def _write_output(out, pieces):
    """Write the iterable `pieces` through `out`, the --out handle `main` holds, or to stdout.

    An --out that held bytes is emptied first.  Each piece is made and
    encoded in its turn, so no full-size copy of the output is held, and a
    write that takes part of a piece, as an unbuffered stdout's may, is repeated
    for the rest: every byte is written, or OSError raises.
    """
    to_stdout = out is None
    try:
        if to_stdout:
            if sys.stdout is None:  # started with stream 1 closed
                raise OSError("Bad file descriptor")
            out = getattr(sys.stdout, "buffer", None)
            if out is None:  # a text stream, such as a redirect in a library call
                for piece in pieces:
                    sys.stdout.write(piece)
                sys.stdout.flush()
                return
            sys.stdout.flush()  # what the text layer holds goes first
        elif os.fstat(out.fileno()).st_size:
            out.truncate(0)
        for piece in pieces:
            data = memoryview(piece.encode())
            while data:
                data = data[out.write(data):]
        out.flush()  # so that a failed write fails here, inside main
    except OSError:
        if to_stdout:
            sys.stdout = None  # what it still holds is dropped, not written again at exit
        raise


def _dump_json(payload) -> str:
    """The text of a report: keys sorted, indented by 2, a NaN or infinity refused."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _spliced_json(payload, key, elements):
    """`_dump_json(payload)` with the list at `key` written from `elements`, one piece each.

    `payload` leaves that list out, and a NUL, which no report holds, marks its place.
    Each element is one item's text as `_dump_json` writes it, from the newline before it.
    """
    head, _, tail = _dump_json({**payload, key: "\0"}).partition('"\\u0000"')
    yield head
    opening = "["
    for element in elements:
        yield opening + element
        opening = ","
    yield ("[]" if opening == "[" else "\n  ]") + tail


# An equation of exp-check's list, one of its terms, and a row of evolve's, as `_dump_json`
# writes them there.  `%r` writes what json does, since every evolve value is finite: `value`
# raises on a non-finite one, and an `abs` that overflows exits 2.
_EQUATION = ('\n    {\n      "l": %d,\n      "m": %d,\n      "n": %d,\n      "terms": [\n'
             '%s\n      ]\n    }')
_TERM = ('        {\n          "coeff": [\n            %r,\n            0.0\n          ],\n'
         '          "k": %d,\n          "n": %d\n        }')
_ROW = ('\n    {\n      "entry_l": %d,\n      "entry_m": %d,\n      "im": %r,\n'
        '      "modulus": %r,\n      "re": %r,\n      "t": %r\n    }')


def _equation(l, m, n, row):
    """Equation (l, m, n), whose coefficients from term k = l on are `row`, as in `_EQUATION`."""
    terms = ",\n".join([_TERM % (json_number(c), k, n) for k, c in enumerate(row, l)])
    return _EQUATION % (l, m, n, terms)


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
    return operator_from_coefficients(pole, table)


def _load_json_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config: expected an object, got {data!r}")
    return data


def _resolve_run_config(args) -> dict:
    """The evolve settings keyed by config key: the file's value or the default, or a given flag."""
    data = _load_json_config(args.config) if args.config is not None else {}
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


def _clears(evolved) -> bool:
    """Whether no `value` of `evolved` raises, nor a modulus overflows, at any t >= 0.

    Term c_p t^p e^(-Gamma t) is below |c_p| max(1, p/(2 Gamma))^p, so an entry stays below
    2^1000 where each term, times degree + 1, does; the log2s are bit lengths, rounded up.
    """
    a, b = evolved.pole.width.as_integer_ratio()
    return all((abs(re) + abs(im)).bit_length() + 1 - den.bit_length()
               + p * max(0, (p * b).bit_length() - a.bit_length())
               + len(poly.coefficients).bit_length() < 1000
               for poly in evolved.table.values()
               for p, (re, im, den) in enumerate(c.triple for c in poly.coefficients))


def cmd_evolve(args) -> int:
    """Write the decay curve of an evolved operator over a uniform time grid, in one pass."""
    settings = _resolve_run_config(args)
    width, tolerance, spec = settings["Gamma"], settings["tol"], settings["operator"]
    pole = ComplexPole(settings["E_R"], width, settings["r"])
    evolved = evolve_operator(_build_operator(pole, spec))
    entries = [(ket, bra) for ket in range(pole.order) for bra in range(pole.order)]
    t_end, last = settings["grid.t_end"], settings["grid.steps"] - 1
    csv = settings["format"] == CSV_FORMAT
    # a pure-exponential curve is checked against each entry's t = 0 modulus as it is made,
    # and the first violation in row order is reported after the write
    base, violation = ({} if is_pure_exponential(evolved) else None), []

    def curve():  # the CSV text, or the JSON rows, in one piece per grid step
        for i in range(last + 1):
            t = t_end * i / last if i < last else t_end
            if math.isinf(t):  # t_end * i overflowed; i / last < 1 keeps t finite
                t = t_end * (i / last)
            rows = ["t,entry_l,entry_m,re,im,modulus\n"] if csv and not i else []
            for ket, bra in entries:
                value = evolved.value(ket, bra, t)
                re, im, modulus = value.real, value.imag, abs(value)
                rows.append(f"{_fmt(t)},{ket},{bra},{_fmt(re)},{_fmt(im)},{_fmt(modulus)}\n"
                            if csv else _ROW % (ket, bra, im, modulus, re, t))
                if base is None or violation:
                    continue
                start = base.setdefault((ket, bra), modulus)  # the t = 0 rows come first
                expected = start * math.exp(-width * t)
                # relative above modulus 1, so that a large entry does not fail on one ulp
                if abs(modulus - expected) > tolerance * max(1.0, start):
                    violation.append(f"pure-exponential contract violated at t={t}, entry "
                                     f"({ket},{bra}): modulus {modulus!r} vs expected {expected!r}")
            yield ("" if csv else ",").join(rows)

    payload = {"pole": {"E_R": settings["E_R"], "Gamma": width, "r": pole.order}, "operator": spec}
    try:  # a curve that may fail part way is made whole first, so that it writes nothing
        pieces = curve() if _clears(evolved) else list(curve())
        _write_output(args.out, pieces if csv else _spliced_json(payload, "rows", pieces))
    except OverflowError:  # a coefficient or an entry modulus that no float holds
        raise ValueError(f"operator coefficients beyond the float range (Gamma {width!r}, "
                         f"operator {spec!r})") from None
    if violation:
        print(violation[0], file=sys.stderr)
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
    # refused before any system is built, but a negative j keeps the system's own line
    if r is not None and 0 <= j != 2 * (r - 1):
        raise ValueError(f"a pole of order {r} restricts the system of bound {2 * r - 2}, not {j}")
    system = exponentiality_constraints(j)
    try:
        family_matches = binomial_family_matches_nullspace(system, solve_binomial_recursion(j))
    except ArithmeticError as exc:
        print(f"closed-form verification failed: {exc}", file=sys.stderr)
        family_matches = False
    dimension = system.solution_dimension
    # the equation list, most of the bytes, is streamed from the certified rows
    payload = {"j": j, "solution_dimension": dimension,
               "expected_dimension": j + 1, "binomial_family_matches": family_matches}
    passed = dimension == j + 1 and family_matches
    if r is not None:
        pole = ComplexPole(0, 1, r)  # the characterization does not depend on E_R or Gamma
        report = verify_restriction_equivalence(pole, system)
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
    _write_output(args.out, _spliced_json(
        payload, "equations", (_equation(*row) for row in system.rows)))
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def cmd_residue(args) -> int:
    """Run the contour-decomposition check on a model document."""
    model, ket_fn, bra_fn = load_model_file(args.config)
    tolerance = {} if args.tol is None else {"tolerance": args.tol}
    report = decomposition_check(model, ket_fn, bra_fn, **tolerance)
    _write_output(args.out, [_dump_json(report.to_json_dict())])
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
                re, im, den = value.triple
                lines.append(f"{n},{ket},{bra},{_fmt(json_number(re, den))},"
                             f"{_fmt(json_number(im, den))}")
        _write_output(args.out, ["\n".join(lines), "\n"])
    else:
        payload = [{"n": n, "entries": m.to_json_entries()} for n, m in enumerate(members)]
        _write_output(args.out, [_dump_json(payload)])
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

# One row per command: (pipeline module, help, flags); a trailing "!" marks a required
# flag.  The handler is `cmd_<name>`.
_COMMANDS = {
    "evolve": ("operators", "evolve an operator and write its decay curve",
               "--config --out --format --tol --r --gamma --energy --n --t-end --steps"),
    "exp-check": ("operators", "verify the pure-exponential characterization", "--out --r --j"),
    "residue": ("smatrix", "contour-decomposition check for a model file",
                "--config! --out --tol"),
    "basis": ("operators", "emit the pure-exponential operator basis", "--out --format --r!"),
}
_unbound = {pipeline for pipeline, _, _ in _COMMANDS.values()}


@functools.cache
def _build_parser():
    """The argparse parser, built once per process from `_COMMANDS` and `_OPTIONS`."""
    import argparse  # only help and usage errors need it; see _read_argv

    parser = argparse.ArgumentParser(
        prog="gamow",
        description="Exact Jordan-block calculus for higher-order resonance states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            command.add_argument(option, required=flag != option, **_OPTIONS[option])
    return parser


def _read_argv(argv):
    """The namespace `_build_parser().parse_args(argv)` gives, for an argv it surely accepts.

    That is the form COMMAND (--flag VALUE)*: each flag one the command takes,
    spelled in full, each VALUE not starting with "-", of the flag's type and
    among its choices, and every required flag given; a repeated flag keeps
    its last value, and a flag not given is None.  For any other argv this
    returns None, and argparse reads it, with its help and usage errors.
    """
    if not argv or len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    name, flags = argv[0], _COMMANDS[argv[0]][2]
    values = {flag.rstrip("!"): None for flag in flags.split()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in values or text.startswith("-"):
            return None
        option = _OPTIONS[flag]
        try:
            value = option.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value not in option.get("choices", [value]):
            return None
        values[flag] = value
    if any(values[flag[:-1]] is None for flag in flags.split() if flag.endswith("!")):
        return None
    return types.SimpleNamespace(
        command=name, **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    pipeline = _COMMANDS[args.command][0]
    if pipeline in _unbound:
        _bind(pipeline)
    # looked up per call, so that a patched cmd_* function is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    path = args.out
    try:
        # Opened for append before the work, so an --out that cannot be written is refused
        # first and one that is also the --config is read intact; the handler writes through
        # this handle, which `_write_output` empties only when the output is ready.
        with open(path, "ab") if path is not None else contextlib.nullcontext() as args.out:
            return handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"invalid JSON in {args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    except OSError as exc:  # with no file name, a failed write: a full device, a broken pipe
        failed = f"write {path or 'stdout'}" if exc.filename is None else f"open {exc.filename}"
        print(f"cannot {failed}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
