"""The package's Python contracts as one list of checks, and the runner for them.

A check is a function that returns what it found broken, [] when its
contract holds: what `import gamow`, `import gamow.cli` and each command
load, how one value of each value class pickles, copies and refuses
changes, what README's example prints, and that `residue` calls no C math
library function.  A check marked with `over`
takes one case, a command line or a value, and runs once per case.

tests/test_contracts.py runs each run of each check as one test.  As a
script, this file runs them on the Python that runs it, with the standard
library only, and prints one line per check:

    PYTHONPATH=src python tests/contracts.py

CI runs it on the oldest and the newest supported Python, with neither
numpy nor scipy installed.  It exits 1 when a check does not hold.  The
import checks run in fresh interpreters, since one process accumulates
modules; they import the gamow this file imported.
"""

import copy
import functools
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile

from cli_probes import EXAMPLE, ROWS, child_env

from gamow.exact import Polynomial, RationalFunction, Value, _rebuild
from gamow.jordan import ComplexPole, GamowChainVector, build_jordan_block
from gamow.operators import (
    ConstraintSystem,
    DyadicOperator,
    evolve_operator,
    exponentiality_constraints,
    verify_restriction_equivalence,
)
from gamow.smatrix import DecompositionReport, IntegralResult, SMatrixModel, TestFunction

PIPELINES = ("gamow.operators", "gamow.smatrix")
# an argv and whether only argparse reads it: `--r=3` loads argparse, which shows that the
# check sees it load; the others are the bench's argv shapes
COMMAND_LINES = [
    (("exp-check", "--r", "3"), False), (("exp-check", "--j", "5"), False),
    (("basis", "--r", "4"), False), (("basis", "--format", "csv", "--r", "3"), False),
    (("residue", "--config", EXAMPLE), False), (("evolve", "--r", "2", "--n", "1"), False),
    (("evolve", "--config", "config.json"), False), (("exp-check", "--r=3"), True),
]
EVOLVE_CONFIG = {"r": 2, "operator": {"kind": "dyad", "ket": 1, "bra": 0}}  # as config.json
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def over(cases, name):
    """Mark a check to run once per case, as `check(case)`; `name(case)` tells the runs apart."""
    def mark(check):
        check.cases = {name(case): case for case in cases}
        return check
    return mark


def runs(check):
    """(name, call) for each run of `check`: one per case if `over` marked it, else one."""
    cases = getattr(check, "cases", None)
    if cases is None:
        return [(check.__name__, check)]
    return [(f"{check.__name__}-{name}", functools.partial(check, case))
            for name, case in cases.items()]


def _prints(what, argv, expected, cwd=None):
    """What is wrong when a fresh interpreter run with `argv` does not print `expected`."""
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=cwd)
    if done.stdout == expected:
        return []
    return [f"{what}: printed {done.stdout!r}, expected {expected!r}; "
            f"stderr {done.stderr[-300:]!r}"]


def the_imports_load_nothing_early():
    """`import gamow` loads no submodule, and `import gamow.cli` no pipeline module.

    `dir(gamow)` already lists every name of `__all__`.  Nor does `gamow.cli`
    load what only help and usage errors (argparse, gettext) or the tests
    (numpy, scipy) need, or dataclasses and inspect, or fractions with the
    decimal and numbers it loads.  Only what the imports add counts, not what
    the interpreter's start-up loaded.
    """
    unwanted = {*PIPELINES, "argparse", "gettext", "dataclasses", "inspect", "numpy", "scipy",
                "fractions", "decimal", "numbers"}
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gamow\n"
            "print(set(gamow.__all__) <= set(dir(gamow)),\n"
            "      *sorted(name for name in sys.modules if name.startswith('gamow')))\n"
            "import gamow.cli\n"
            f"print(*sorted({unwanted!r} & (set(sys.modules) - before)))\n")
    return _prints("import gamow, then gamow.cli", ["-c", code], "True gamow\n\n")


@over(COMMAND_LINES, lambda line: " ".join(os.path.basename(arg) for arg in line[0]))
def each_command_loads_only_its_pipeline(line):
    """The argv exits 0 in its own fresh interpreter, with numpy and scipy unimportable.

    It loads its own pipeline module, and argparse (with its gettext) only
    where argparse reads the argv, and never fractions, decimal or numbers.
    """
    argv, by_argparse = line
    watched = {"argparse", "gettext", "fractions", "decimal", "numbers", *PIPELINES}
    code = ("import sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "import gamow.cli\n"
            "status = gamow.cli.main(sys.argv[1:])\n"
            f"print(status, *sorted({watched!r} & set(sys.modules)))\n")
    loaded = ["gamow.smatrix" if argv[0] == "residue" else "gamow.operators"]
    if by_argparse:
        loaded += ["argparse", "gettext"]
    with tempfile.TemporaryDirectory() as where:
        with open(os.path.join(where, "config.json"), "w", encoding="utf-8") as handle:
            json.dump(EVOLVE_CONFIG, handle)
        return _prints(" ".join(argv), ["-c", code, *argv, "--out", "out"],
                       f"0 {' '.join(sorted(loaded))}\n", cwd=where)


def residue_calls_no_libm_function():
    """`residue` on the bundled example exits 0 with the probe table's bytes, with libm refused.

    `math.tan`, `atan2`, `pow`, `exp` and `log` call the platform's C math
    library (libm), whose last bits differ between libms and versions, so they
    are replaced by functions that raise before `gamow.cli` is imported.
    """
    code = ("import math, sys\n"
            "def refuse(*args):\n"
            "    raise AssertionError('a libm function was called')\n"
            "for name in ('tan', 'atan2', 'pow', 'exp', 'log'):\n"
            "    setattr(math, name, refuse)\n"
            "import gamow.cli\n"
            "sys.exit(gamow.cli.main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", code, "residue", "--config", EXAMPLE],
                          capture_output=True, env=child_env())
    digest = hashlib.sha256(done.stdout).hexdigest()
    expected = next(row.stdout for row in ROWS if row.name == "residue-example")
    if done.returncode == 0 and digest == expected:
        return []
    return [f"residue with libm refused: exit {done.returncode}, stdout sha256 {digest}, expected "
            f"{expected}; stderr {done.stderr[-300:]!r}"]


def one_value_of_each_class():
    pole = ComplexPole(1, 2, 2)
    operator = DyadicOperator(pole, {(0, 1): 1})
    return [
        Polynomial([1, 2]),
        RationalFunction(Polynomial([1]), Polynomial([2, 1])),
        pole,
        GamowChainVector.basis(pole, 1),
        build_jordan_block(pole),
        operator,
        evolve_operator(operator),
        exponentiality_constraints(2),
        verify_restriction_equivalence(pole),
        TestFunction(RationalFunction(Polynomial([1]), Polynomial([-1j, 1])), "ket"),
        SMatrixModel(pole, [1, 1]),
        IntegralResult(1j, 1e-12, ()),
        DecompositionReport(1j, 0.5j, 0.5j, 0.0, 1e-8, 2e-12, ()),
    ]


VALUES = one_value_of_each_class()


def every_value_class_has_a_value():
    """`VALUES` holds a value of each subclass of `exact.Value`, and no other."""
    kinds = {type(value).__name__ for value in VALUES}
    subclasses = {cls.__name__ for cls in Value.__subclasses__()}
    return ([f"no value of {name}" for name in sorted(subclasses - kinds)]
            + [f"{name} is not a subclass of Value" for name in sorted(kinds - subclasses)])


def _fields(value):
    return [getattr(value, name) for name in type(value).__slots__]


@over(VALUES, lambda value: type(value).__name__)
def pickles_and_copies_are_equal(value):
    """Each clone has the same class and fields, is equal, and hashes alike."""
    faults = []
    for how, clone in (("pickle", pickle.loads(pickle.dumps(value))),
                       ("copy", copy.copy(value)), ("deepcopy", copy.deepcopy(value))):
        if type(clone) is not type(value) or _fields(clone) != _fields(value):
            faults.append(f"{type(value).__name__}: its {how} has other fields")
        elif not (clone == value and hash(clone) == hash(value)):
            faults.append(f"{type(value).__name__}: its {how} is not equal or hashes otherwise")
    return faults


@over(VALUES, lambda value: type(value).__name__)
def changes_raise_attribute_error(value):
    """Setting a field (to itself or to None), deleting one, or setting another name.

    The fields are unchanged afterwards.
    """
    names, before = type(value).__slots__, _fields(value)
    changes = [(setattr, "extra", 1), *((delattr, name) for name in names),
               *((setattr, name, new) for name, field in zip(names, before)
                 for new in (field, None))]
    faults = []
    for change, *args in changes:
        try:
            change(value, *args)
        except AttributeError:
            continue
        faults.append(f"{type(value).__name__}: {change.__name__}{tuple(args)!r} "
                      "did not raise AttributeError")
    if _fields(value) != before:
        faults.append(f"{type(value).__name__}: a refused change changed its fields")
    return faults


@over([(ConstraintSystem, (2,)), (ConstraintSystem, (2, (), None)),
       (ComplexPole, (1,)), (ComplexPole, (1, 2, 3, 4))],
      lambda case: f"{case[0].__name__}-{len(case[1])}")
def a_wrong_field_count_raises_type_error(case):
    """The pickle constructor binds fields positionally, so a wrong count names the count."""
    cls, fields = case
    expected = f"{cls.__name__} takes {len(cls.__slots__)} fields, got {len(fields)}"
    try:
        _rebuild(cls, fields)
    except TypeError as error:  # any other error stops the run, as a failure too
        if str(error) == expected:
            return []
        return [f"_rebuild({cls.__name__}, {fields!r}): {error}, expected {expected}"]
    return [f"_rebuild({cls.__name__}, {fields!r}) raised nothing"]


def the_readme_example_shows_its_values():
    """README's one `python` block runs in a fresh interpreter, and its comments show the values.

    A code line with a trailing comment runs as `print(repr((line)))`, and the
    comment must start with what it prints.
    """
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    if len(blocks) != 1:
        return [f"README has {len(blocks)} python blocks, expected 1"]
    lines, comments = [], []
    for line in blocks[0].splitlines():
        code, _, comment = line.partition("#")
        if code.strip() and comment:
            line = f"print(repr(({code.strip()})))"
            comments.append(comment.strip())
        lines.append(line)
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env=child_env())
    printed = done.stdout.splitlines()
    if done.returncode or len(printed) != len(comments):
        return [f"README's example exited {done.returncode} after {len(printed)} of "
                f"{len(comments)} values; stderr {done.stderr[-300:]!r}"]
    return [f"README's comment {comment!r} does not start with the value {value}"
            for value, comment in zip(printed, comments) if not comment.startswith(value)]


CHECKS = [
    the_imports_load_nothing_early,
    each_command_loads_only_its_pipeline,
    the_readme_example_shows_its_values,
    residue_calls_no_libm_function,
    every_value_class_has_a_value,
    pickles_and_copies_are_equal,
    changes_raise_attribute_error,
    a_wrong_field_count_raises_type_error,
]


def main():
    failed = 0
    for check in CHECKS:
        faults = [fault for _, call in runs(check) for fault in call()]
        failed += bool(faults)
        print(f"{check.__name__}: {'; '.join(faults) or 'ok'}", flush=True)
    print(f"{failed} of {len(CHECKS)} checks failed on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
