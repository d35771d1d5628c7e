"""Print the functions of `src/gamow` that no command run enters, per module.

Runs `gamow.cli.main` in-process over a fixed set of command lines: all four
commands, the three operator kinds, CSV and JSON, the log-form and underflow
grids of `evolve`, and the bundled residue model, which has a background.
Every module of the package is imported first, so that what a module runs at
import counts as entered by no command, whatever order the modules load in.
Then every Python call is recorded with `sys.setprofile`; each function or
method defined in the package (nested ones included, lambdas and
comprehensions not) whose code was never entered is printed with its line
count, module by module, and a total at the end.  Standard library only, and
print-only: it always exits 0 once the runs are done.

    PYTHONPATH=src python tests/never_entered.py
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys
import tempfile
import threading
from importlib.resources import files


def _argv_sets(workdir):
    """The command lines, with the config files they read written into `workdir`."""
    example = str(files("gamow") / "data" / "residue_example.json")
    configs = {
        "dyad": {"r": 3, "format": "json",
                 "operator": {"kind": "dyad", "ket": 1, "bra": 2, "coeff": [0.5, -1.0]}},
        "coefficients": {"r": 2, "operator": {"kind": "coefficients", "entries": [
            {"ket": 0, "bra": 1, "coeff": 2.0}, {"ket": 1, "bra": 0, "coeff": [0.0, 1.0]}]}},
        # t^8 alone overflows where exp(-Gamma t) does not: the log form
        "log-form": {"Gamma": 7e-38, "r": 5, "operator": {"kind": "dyad", "ket": 4, "bra": 4},
                     "grid": {"t_end": 1e40, "steps": 3}},
        # the decay factor underflows to 0 past the first grid point
        "underflow": {"r": 5, "operator": {"kind": "dyad", "ket": 4, "bra": 4},
                      "grid": {"t_end": 1e100, "steps": 5}},
    }
    paths = {}
    for name, config in configs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    return [
        ["evolve", "--r", "3", "--n", "2", "--steps", "5"],
        ["evolve", "--r", "2", "--n", "1", "--steps", "5", "--format", "json"],
        *(["evolve", "--config", path] for path in paths.values()),
        ["exp-check", "--r", "4"],
        ["exp-check", "--j", "3"],
        ["residue", "--config", example],
        ["basis", "--r", "4"],
        ["basis", "--r", "4", "--format", "csv"],
    ]


def _functions(path):
    """(first line, qualified name, line count) of each function defined in the file at `path`.

    The first line is the code object's: that of the first decorator, if any.
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    with open(path, encoding="utf-8") as handle:
        visit(ast.parse(handle.read()), "")
    return found


def main():
    import gamow

    for module in pkgutil.iter_modules(gamow.__path__):
        importlib.import_module(f"gamow.{module.name}")
    from gamow import cli

    package = os.path.dirname(os.path.abspath(cli.__file__))
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    with tempfile.TemporaryDirectory() as workdir:
        argv_sets = _argv_sets(workdir)
        out = os.path.join(workdir, "out")
        statuses = []
        threading.setprofile(record)
        sys.setprofile(record)
        try:
            for argv in argv_sets:
                with contextlib.redirect_stderr(io.StringIO()):
                    statuses.append(cli.main([*argv, "--out", out]))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    print(f"{len(argv_sets)} runs of gamow.cli.main, exit statuses {statuses}")
    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        missed = [(first, qualname, count) for first, qualname, count in _functions(path)
                  if (path, first, qualname.rpartition(".")[2]) not in entered]
        lines = sum(count for _, _, count in missed)
        total += lines
        print(f"gamow.{name[:-3]}: {len(missed)} functions never entered, {lines} lines")
        for first, qualname, count in missed:
            print(f"  {qualname} (line {first}, {count} lines)")
    print(f"total: {total} lines in functions never entered")


if __name__ == "__main__":
    main()
