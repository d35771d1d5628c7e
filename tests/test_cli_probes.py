"""The probe rows of cli_probes.py, but those left to the script, run against this checkout."""

import hashlib
import os
import sys
import tempfile
import tracemalloc

import pytest
from cli_probes import CHUNK, EMPTY, FINITE, NOT_PASSED, ROWS, Contains, Row, run, scan, unmet

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
    faults, peak, _ = run(row, COMMAND)
    assert peak > 1
    assert faults == [f"peak RSS {peak:.1f} MB, above the limit of 1 MB"]


def test_a_limited_row_reads_its_own_peak_not_the_runners():
    """A child's peak starts at its parent's RSS, here above 64 MB; basis --r 3 needs 10-16 MB."""
    ballast = b"x" * (64 << 20)
    row = next(row for row in ROWS if row.name == "basis-r3")._replace(peak_mb=60)
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
    """exp-check --r 16 writes 6.3 MB; the runner digests it with a few chunks' worth traced.

    The runner's own peak is carried into each later child's `ru_maxrss`, so a
    runner that read the whole output would raise the peaks of the rows after it.
    """
    row = Row("exp-check-r16", ("exp-check", "--r", "16"), 0,
              stdout="d9a5c225868254a07ab6ea28e5b72b9ab5cd461625c1b0e979e2f19e40fd3ac5")
    tracemalloc.start()
    try:
        faults = run(row, COMMAND)[0]
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
