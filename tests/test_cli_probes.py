"""The probe rows of cli_probes.py, but those left to the script, run against this checkout."""

import sys

import pytest
from cli_probes import ROWS, run, unmet


@pytest.mark.parametrize("row", [row for row in ROWS if row.script_only is None],
                         ids=lambda row: row.name)
def test_the_row_holds(row):
    """`python -m gamow.cli` in a fresh interpreter, so that its exit flush runs too."""
    reason = unmet(row)
    if reason:
        pytest.skip(reason)
    assert run(row, [sys.executable, "-m", "gamow.cli"]) == []
