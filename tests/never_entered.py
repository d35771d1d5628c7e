"""Print, per module of `src/gamow`, the lines that no probe row runs.

Every module of the package is imported first, so that what runs at import
counts as run by no row, whatever order the modules load in.  Each row of
tests/cli_probes.py that tier-1 runs and that can run here then goes through
`gamow.cli.main` in-process, under `sys.settrace`.  A function's executable
lines are those that `compile()` gives code, its comprehensions' and
lambdas' too, its `def` line not.  In source order the report names each
function none of whose lines ran, with its executable line count, and each
other function's lines that no row ran.  Standard library only; print-only.

    PYTHONPATH=src python tests/never_entered.py
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile

import gamow.cli
from cli_probes import ROWS, prepare, unmet


def _functions(path):
    """(first line, qualified name, executable lines) of each function defined in `path`."""
    found = []

    def visit(code, prefix, lines):
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        for child in code.co_consts:
            if type(child) is not type(code):
                continue
            if child.co_name.startswith("<"):  # a comprehension or a lambda
                visit(child, prefix, lines)
            elif child.co_flags & inspect.CO_NEWLOCALS:  # a function
                own = set()
                visit(child, f"{prefix}{child.co_name}.<locals>.", own)
                if len(own) > 1:  # the def line, which no line event of the function reports
                    own.discard(child.co_firstlineno)
                found.append((child.co_firstlineno, prefix + child.co_name, sorted(own)))
            else:  # a class body
                visit(child, f"{prefix}{child.co_name}.", set())

    with open(path, encoding="utf-8") as handle:
        visit(compile(handle.read(), path, "exec"), "", set())
    return sorted(found)


def _run(row, trace):
    """`row`'s exit code from `gamow.cli.main` under `trace`, in a fresh working directory."""
    # a text layer over bytes, as a console's stdout is, so that `_write_output` writes bytes
    cwd, stdout = os.getcwd(), io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with (tempfile.TemporaryDirectory() as where, contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(io.StringIO())):
        prepare(row, where)
        os.chdir(where)
        sys.settrace(trace)
        try:
            return gamow.cli.main(list(row.argv))
        except SystemExit as exc:  # help and usage errors
            return exc.code
        finally:
            sys.settrace(None)
            os.chdir(cwd)


def main():
    for module in pkgutil.iter_modules(gamow.__path__):
        importlib.import_module(f"gamow.{module.name}")

    modules = {module.__file__: name for name, module in sys.modules.items()
               if name.partition(".")[0] == "gamow"}
    reached = {path: set() for path in modules}

    def trace(frame, event, arg):  # each line that a frame of the package runs
        if frame.f_code.co_filename not in reached:
            return None
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace

    rows = [row for row in ROWS if row.script_only is None and unmet(row) is None]
    unexpected = [row.name for row in rows if _run(row, trace) != row.exit]
    print(f"{len(rows)} probe rows run in-process; exit code not the row's: {unexpected or 'none'}")
    totals = [0, 0]
    for path, name in sorted(modules.items(), key=lambda item: item[1]):
        missed, unrun, report = [], [], []
        for first, qualname, lines in _functions(path):
            rest = [number for number in lines if number not in reached[path]]
            if len(rest) == len(lines):
                missed.append(len(lines))
                report.append(f"  {qualname} (line {first}): never entered, {len(lines)} lines")
            elif rest:
                unrun.append(len(rest))
                report.append(f"  {qualname} (line {first}): {len(rest)} of {len(lines)} "
                              f"lines never run: {', '.join(map(str, rest))}")
        totals = [totals[0] + sum(missed), totals[1] + sum(unrun)]
        print(f"{name}: {len(missed)} functions never entered, {sum(missed)} lines; "
              f"{sum(unrun)} lines never run in {len(unrun)} entered functions", *report, sep="\n")
    print(f"total: {totals[0]} lines in functions never entered, "
          f"{totals[1]} lines never run in entered functions")


if __name__ == "__main__":
    main()
