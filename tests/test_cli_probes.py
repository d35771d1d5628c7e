"""The probe rows of cli_probes.py, but those left to the script, run against this checkout."""

import os
import sys

import pytest
from cli_probes import ROWS, Row, run, unmet

COMMAND = [sys.executable, "-m", "gamow.cli"]


@pytest.mark.parametrize("row", [row for row in ROWS if row.script_only is None],
                         ids=lambda row: row.name)
def test_the_row_holds(row):
    """`python -m gamow.cli` in a fresh interpreter, so that its exit flush runs too."""
    reason = unmet(row)
    if reason:
        pytest.skip(reason)
    assert run(row, COMMAND)[0] == []


def test_a_row_over_its_memory_limit_reports_the_measured_peak():
    row = next(row for row in ROWS if row.name == "basis-r3")._replace(peak_mb=1)
    faults, peak = run(row, COMMAND)
    assert peak > 1
    assert faults == [f"peak RSS {peak:.1f} MB, above the limit of 1 MB"]


def test_a_row_past_its_time_limit_is_killed_and_reaped():
    """exp-check --r 30 computes for about a second; no child is left behind after the kill."""
    row = Row("exp-check-r30-hurried", ("exp-check", "--r", "30"), 0, seconds=0.05)
    assert run(row, COMMAND)[0] == ["no exit within 0.05 s"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
