"""never_entered.py reports the same lines whatever order the package's modules load in."""

import os
import subprocess
import sys

from cli_probes import child_env

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "never_entered.py")


def test_the_report_does_not_move_with_load_order():
    """The script as it is, and after `gamow.operators` and `gamow.smatrix` are loaded first.

    A module's import-time calls, such as the `Polynomial.zero` that
    `operators` makes at load, count as run by no probe row in either run.
    The script imports `cli_probes` from its own directory, the working one.
    """
    preloaded = ("import runpy, sys\nimport gamow.operators, gamow.smatrix\n"
                 f"sys.argv = [{SCRIPT!r}]\nrunpy.run_path({SCRIPT!r}, run_name='__main__')\n")
    reports = [subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              check=True, env=child_env(), cwd=os.path.dirname(SCRIPT)).stdout
               for argv in ([SCRIPT], ["-c", preloaded])]
    assert reports[0] == reports[1]
