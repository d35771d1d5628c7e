"""The probe rows of cli_probes.py, but those left to the script, run against this checkout.

The in-process tests here pin what the rows' digests leave out: the --out
file, and residue's exact value and verdict.
"""

import builtins
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc

import pytest
from cli_probes import (_RUNNER, BY_NAME, CHUNK, EMPTY, FINITE, NOT_PASSED, ROWS, Contains, Row,
                        prepare, run, scan, unmet)

from gamow.cli import main

COMMAND = [sys.executable, "-m", "gamow.cli"]
# every exp-check, basis and residue row that tier-1 runs and whose stdout rule is a digest
PINNED = [row for row in ROWS if row.argv[0] != "evolve" and row.script_only in (None, _RUNNER)
          and row.exit == 0 and re.fullmatch("[0-9a-f]{64}", row.stdout)]
# the exact residue of each report, which does not depend on the quadrature
RESIDUES = {"residue-example": [0.17178108047330082, 0.06600191646006057],
            "residue-order1-background": [-0.8783936703319226, 0.5879277591285805],
            "residue-order4": [-6.484150503124499, 0.30833368357369345],
            "residue-order6": [2.323314740462119, -6.517986104079506]}
_BUILTIN_SUM = builtins.sum


@pytest.mark.parametrize("row", [row for row in ROWS if row.script_only is None],
                         ids=lambda row: row.name)
def test_the_row_holds(row):
    """`python -m gamow.cli` in a fresh interpreter, so that its exit flush runs too."""
    reason = unmet(row)
    if reason:
        pytest.skip(reason)
    assert run(row, COMMAND)[0] == []


def test_each_row_has_its_own_name():
    """The rows are looked up by name, which would otherwise find only one of two."""
    assert len(BY_NAME) == len(ROWS)


def _out(row, where, monkeypatch):
    """What `row`'s command writes to --out, run in-process in the directory `where`."""
    prepare(row, where)
    monkeypatch.chdir(where)
    assert main([*row.argv, "--out", "out"]) == 0
    return (where / "out").read_bytes()


@pytest.mark.parametrize("row", PINNED, ids=lambda row: row.name)
def test_the_out_file_holds_the_rows_bytes(row, tmp_path, monkeypatch):
    assert hashlib.sha256(_out(row, tmp_path, monkeypatch)).hexdigest() == row.stdout


@pytest.mark.parametrize("name", RESIDUES)
def test_the_exact_residue_passes(name, tmp_path, monkeypatch):
    """The exact `residue` and `passed: true`, asserted apart from the row's digest.

    So a digest re-recorded for the quadrature's last digits cannot move them.
    """
    report = json.loads(_out(BY_NAME[name], tmp_path, monkeypatch))
    assert report["residue"] == RESIDUES[name] and report["passed"] is True


def _compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 and later run it: Neumaier-compensated over floats.

    Anything but floats from an int or float start goes to the real sum().
    """
    terms = list(iterable)
    if type(start) not in (int, float) or not all(type(term) is float for term in terms):
        return _BUILTIN_SUM(terms, start)
    total, compensation = float(start), 0.0
    for term in terms:
        new = total + term
        if abs(total) >= abs(term):
            compensation += (total - new) + term
        else:
            compensation += (term - new) + total
        total = new
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.parametrize("name", RESIDUES)
def test_residue_bytes_do_not_depend_on_how_sum_adds(name, tmp_path, monkeypatch):
    """Python 3.10's bytes also where sum() compensates float sums, as it does from 3.12 on."""
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # plain addition gives 0.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    digest = hashlib.sha256(_out(BY_NAME[name], tmp_path, monkeypatch)).hexdigest()
    assert digest == BY_NAME[name].stdout


def test_a_row_over_its_memory_limit_reports_the_measured_peak():
    row = BY_NAME["basis-r3"]._replace(peak_mb=1)
    faults, peak, _ = run(row, COMMAND)
    assert peak > 1
    assert faults == [f"peak RSS {peak:.1f} MB, above the limit of 1 MB"]


def test_a_limited_row_reads_its_own_peak_not_the_runners():
    """A child's peak starts at its parent's RSS, here above 64 MB; basis --r 3 needs 10-16 MB."""
    ballast = b"x" * (64 << 20)
    row = BY_NAME["basis-r3"]._replace(peak_mb=60)
    faults, peak, _ = run(row, COMMAND)
    assert len(ballast) == 64 << 20  # held until the row has run
    assert faults == [] and peak < 32


def test_a_row_past_its_time_limit_is_killed_and_reaped():
    """exp-check --r 30 computes for about a second; no child is left behind after the kill."""
    row = Row("exp-check-r30-hurried", ("exp-check", "--r", "30"), 0, seconds=0.05)
    assert run(row, COMMAND)[0] == ["no exit within 0.05 s"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_runner_never_holds_a_child_output():
    """The row exp-check-r16 writes 6.3 MB; the runner digests it with a few chunks' worth traced.

    The runner's own peak is carried into each later child's `ru_maxrss`, so a
    runner that read the whole output would raise the peaks of the rows after it.
    """
    tracemalloc.start()
    try:
        faults = run(BY_NAME["exp-check-r16"], COMMAND)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert faults == []
    assert peak < 6_317_062 / 10


@pytest.mark.parametrize("offset", [0, CHUNK - 3, 2 * CHUNK - 1])
@pytest.mark.parametrize("rule, text, holds", [
    (FINITE, b"1.5,nan\n", False),
    (FINITE, b'"im": Infinity', False),
    (FINITE, b"information,influx\n", True),
    (NOT_PASSED, b'{"passed": true}', False),
    (NOT_PASSED, b'{"passed": false}', True),
    (Contains("usage: gamow"), b"usage: gamow basis", True),
    (Contains("usage: gamow"), b"usage:\ngamow", False),
])
def test_a_rule_is_read_alike_wherever_a_chunk_ends(rule, text, holds, offset):
    """`text` after `offset` bytes of whole lines, so that a chunk may end inside it."""
    output = (b"x" * (offset - 1) + b"\n" if offset else b"") + text
    digest = hashlib.sha256(output).hexdigest()
    with tempfile.TemporaryFile() as handle:
        handle.write(output)
        assert scan(handle, rule) == (not holds, output[:200])
        assert scan(handle, digest) == (False, output[:200])
        assert scan(handle, digest[::-1]) == (True, output[:200])
        assert scan(handle, EMPTY) == (True, output[:200])
    with tempfile.TemporaryFile() as handle:
        assert scan(handle, EMPTY) == (False, b"")
