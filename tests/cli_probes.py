"""The command line's exit contract as one table of probes, and the runner for them.

A probe row runs one subcommand as a subprocess, in a fresh directory, and
checks what a user sees: the exit code (0 when the claim is reproduced, 1
when a check fails, 2 for bad input), stderr and stdout.  A row may also
limit the subprocess's time (it is killed and reaped past `seconds`) and its
peak RSS (`peak_mb`, read from the rusage that `os.wait4` returns for it).
Linux starts a child's peak at its parent's RSS, so a row with a peak limit
is spawned by a helper interpreter that loads only `os` and `sys` (7-9 MB on
Python 3.10 to 3.13), which reaps it and reports its peak, and the runner's
own RSS is no floor.  A new refusal is one more row, and so is a new byte pin:
a row whose stdout rule is the sha256 of the bytes a command writes.

tests/test_cli_probes.py runs the rows under pytest against this checkout.
As a script, this file runs them against any command line and prints one
line per row, with the measured peak of each row that has a limit and the
row's wall time from spawn to reap, the helper's start included:

    PYTHONPATH=src python tests/cli_probes.py python -m gamow.cli
    python tests/cli_probes.py gamow        # the installed console script

CI runs the script both ways: against the installed console script, and
against the source tree on Python 3.10, 3.12 and 3.13, with neither numpy
nor scipy installed, so every row's bytes and limits hold on each of them.

It exits 1 when a row does not hold.  A row that needs a non-root user or
/dev/full is skipped where that does not hold; every other row runs.  The
subprocess imports the gamow this file imported, from whatever directory.
"""

import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from importlib.resources import files
from typing import NamedTuple

import gamow

EXAMPLE = str(files("gamow") / "data" / "residue_example.json")
MODEL = object()  # as a row's document: the bundled example, read when the row runs
INPUT = "input.json"  # where a row's document is written

# the stdout rules, besides Contains(text); any other rule is the sha256 of stdout
EMPTY, FINITE, NOT_PASSED = "empty", "no NaN or Infinity, nor nan or inf", 'no "passed": true'
CHUNK = 1 << 16  # how much of a child's stdout the runner reads at a time
# the helper: argv[1] is the descriptor that the command's peak, in ru_maxrss units, is
# written to, the rest is the command line; it exits with the command's exit code
MEASURE = ("import os, sys\n"
           "pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)\n"
           "_, status, usage = os.wait4(pid, 0)\n"
           "os.write(int(sys.argv[1]), b'%d' % usage.ru_maxrss)\n"
           "os._exit(os.waitstatus_to_exitcode(status) % 256)\n")


class Contains(str):
    """A stderr or stdout rule that a stream holding this text meets.

    A plain str as the stderr rule is the exact line.
    """


class Row(NamedTuple):
    name: str
    argv: tuple
    exit: int
    stderr: str = ""  # the one line, or Contains(text); "" is nothing on stderr
    stdout: str = EMPTY
    document: object = None  # written to input.json with `edits` applied, unless None
    edits: dict = {}  # a key, or a path of keys and indices, to the value set there
    needs: str = None  # "non-root" (and a read-only directory `locked`) or "/dev/full"
    seconds: float = 60.0  # the time limit
    peak_mb: float = None  # the limit on the child's peak RSS, unless None
    stdout_to: str = None  # a file that stdout is opened on instead of a pipe
    script_only: str = None  # why tier-1 leaves the row to the script, unless None


def _model(name, edits, line):
    """A bundled example with `edits` that residue refuses with `line`."""
    return Row(name, ("residue", "--config", INPUT), 2, line, document=MODEL, edits=edits)


def _evolve(name, config):
    """evolve on the document `config`, with finite output."""
    return Row(name, ("evolve", "--config", INPUT), 0, stdout=FINITE, document=config)


def _curves(name, as_csv, as_json, config):
    """evolve on the document `config` as CSV and as JSON, with the stdout sha256 of each."""
    return [Row(f"evolve-{name}-{fmt}", ("evolve", "--config", INPUT, "--format", fmt), 0,
                stdout=digest, document=config)
            for fmt, digest in (("csv", as_csv), ("json", as_json))]


_BEYOND = ("input error: leg [0, {}]: ier 3, non-finite integrand: the model's E_R, Gamma, "
           "laurent or background, or a test function, is beyond the float range there")
_APART = ("input error: pole window E_R +- Gamma/2 has points that floats cannot tell apart "
          "(E_R {}, Gamma {})")
_DENIED = "cannot open locked/out.json: Permission denied"
_EMPTY = "cannot open : No such file or directory"
_SLOW = "slow: the four large outputs take about 9 s"
_REACH = "a stated size whose wall time the script reports"
_UNWRITABLE = "TestUnreadablePaths pins the line in-process, and that the handler never runs"
_RUNNER = "test_the_runner_never_holds_a_child_output runs it"
# the stdout of exp-check --r 3 and of residue on the bundled example, each under two spellings
_R3 = "151e532e4c65b7e9cfa08ea290e48e92d3dad364c993d4e290359a1983638618"
_EXAMPLE_REPORT = "6781e9855b534d03460ff43b2e4fd33aa1a51916b63992a413fff6ebdac31896"
# the least argv each subcommand runs with
REQUIRED_ARGS = {"evolve": (), "exp-check": ("--r", "2"), "residue": ("--config", EXAMPLE),
                 "basis": ("--r", "3")}

ROWS = [
    # each claim's bytes: the pure-exponential characterization at order r and at bound j
    *(Row(f"exp-check-{flag}{n}", ("exp-check", f"--{flag}", str(n)), 0, stdout=digest)
      for flag, n, digest in (
          ("r", 1, "f5f1fe5ce183359bf294648eb39bd7fa9898542b41f87ae0c869887ab81180b3"),
          ("r", 2, "7c10d38d945c70859547747b826ccbc610ec55525226d60e5c0d5bff0342fe4f"),
          ("r", 3, _R3),
          ("r", 4, "f841865dba60f8d706301ebea211c0f089e727a1fdd2b399b6dd8da22fe3a266"),
          ("r", 5, "71f5b58430d91e74827a1c36ea06e79f3da99250426a9fda93809aa749e9e40d"),
          ("r", 12, "7bf851426e0046fcda9a5114a027c62b4d86af45771a5ebf8688d4e77b550aeb"),
          ("j", 0, "58b88f32c37c0e83e3728df6fcc9cb8067d6a37c333d2fa755adf16acdcb1c11"),
          ("j", 1, "ef6e57ce2937db26e242bd3f92625feb409b00311fa6ae5743f077207cdf7460"),
          ("j", 2, "654f72cbaed05efe265d93a4d24219abff45ff3298db0b043ea6ddfaa327a2b9"),
          ("j", 3, "666e33cdc5174a4e40883964163dee2e407401520cb26b9904251c580048ebd1"),
          ("j", 4, "41e377fba74e57a34d2354e5f1310618d9f841b848d52e1f65db5eae669578fd"),
          ("j", 5, "9f8d8bc8171401f2dc1510b3716fa4be1d5d508c9ed51588f30165151111b6af"),
          ("j", 6, "4e19c30f42841094f4635a4f9336d847ca38adcb45537c82328f00db6e250623"),
          ("j", 7, "c103b2f656b2862bf91dfb63bdab2d3553814c2fa6ed82aba8a6b0e0d411a968"),
          ("j", 8, "4c072b98ddc8ff189331140c949217b4adcd142a3eb3012f2cc23b5a16488261"),
          ("j", 20, "27c66deee7e4368ec88033acf4df01b2358b16c7277a255cb9dd35cc1395c863"),
      )),
    # 6.3 MB of output, which the runner test digests with its own memory traced
    Row("exp-check-r16", ("exp-check", "--r", "16"), 0, script_only=_RUNNER,
        stdout="d9a5c225868254a07ab6ea28e5b72b9ab5cd461625c1b0e979e2f19e40fd3ac5"),
    # the operator basis; JSON is the default format
    Row("basis-r3", ("basis", "--r", "3"), 0,
        stdout="0dbd72d3d66fb5a805a8f44640ea8057b6d822f2937c063d08cd723521c5d14c"),
    *(Row(f"basis-r{n}-{fmt}", ("basis", "--r", str(n), "--format", fmt), 0, stdout=digest)
      for n, fmt, digest in (
          (2, "json", "5020f162c045e91cd28c63237ac266fb566bb9c374ccf4c811edfe07ab3892f6"),
          (2, "csv", "4ba7f52fd6f13bbae3af400d5bf3be3b872c68067dedcbbab10bdd198351e526"),
          (3, "csv", "9f273a30ba6ad46ea70b7cd5c91fc4e17d9387a96fa6c79f62afe2ce1120c0c0"),
          (4, "json", "f07cdab8a9466cf47297480ce3421cb3328189e24d956e4a1a76b6a99a3aeeb9"),
          (4, "csv", "874fb316598639226161395e203a1d182afc841a5adc855bcf477cd268aa3c31"),
          (5, "json", "9dc2be566944b4300480e52f954fdb8539b5418dc8c52f91e7b865c2c3fe2500"),
          (5, "csv", "046b501083711bdbaee065e67598f6892cdf5239f29de593d62c839aae10f4e6"),
          (6, "json", "edc241047e0966e82bdec0d0ebf193117978c0bb90649f16025cdceb6ed4e742"),
          (6, "csv", "f205b9d853f98dfe84a6b1b3acd10db31aba305cf5586485db5ff82c110ca4ff"),
          (12, "json", "0bcddef5553cf8ca753dc8cfa13b3f151d303f95d68556a9ce0d52b57699fbbd"),
          (12, "csv", "aea54a08476c6e9f369b23994a550aa264dccdf8754222c3d771366685fdca8c"),
      )),
    # the decay curve of each operator kind; these digests rest on glibc's exp, which gives the
    # decay factor's last bits
    *_curves("binomial-r2-n1",
             "2626c1e739015081a313ae5cc2d926bcfa6233c24fb0a395171fa8421cf9f730",
             "8d93659db3f1e8414e5ed158a26f18ff0bc1bfd166205f12d541730ad498fa71",
             {"E_R": 2.0, "Gamma": 1.0, "r": 2, "operator": {"kind": "binomial", "n": 1},
              "grid": {"t_end": 5.0, "steps": 11}}),
    *_curves("binomial-r4-n3-bare",
             "b23c2f4fcb03fef6112d499b206b1437e7021d5eb24cbfde3d6e0c6acacc28e7",
             "638939f31cff2c92f6c51bab5a56ff84da076a5dc18bc670b4b58bb2a9dd9e3a",
             {"E_R": 0.5, "Gamma": 0.75, "r": 4,
              "operator": {"kind": "binomial", "n": 3, "include_prefactor": False},
              "grid": {"t_end": 3.0, "steps": 7}}),
    *_curves("dyad-r3",
             "515e0b76a7695e0e18075a806e8fafc4dc70817c040b3684e0fcc73d2d0cefe2",
             "e7254d4d486ea9a078c6aff26994a9ffe2c4c2fddc7965b7b5d055570843084d",
             {"E_R": 0.0, "Gamma": 2.0, "r": 3,
              "operator": {"kind": "dyad", "ket": 2, "bra": 1, "coeff": [0.5, -1.5]},
              "grid": {"t_end": 2.0, "steps": 11}}),
    *_curves("dyad-r4-top",
             "5d1e0a2fd2ba165955f6440ed4313f73b8055455bcd0489cbca70d1f4f2d8017",
             "e1f5974ae3ab84f61f9bc061f401c289bb7daddda3c9ad462827fd72bf04af19",
             {"E_R": 1.0, "Gamma": 0.5, "r": 4, "operator": {"kind": "dyad", "ket": 3, "bra": 3},
              "grid": {"t_end": 40.0, "steps": 9}}),
    *_curves("coefficients-r4",
             "e11a11cbaae40fb0d1990925aa6257f0bcd2315fce25efdb765606ab37de021a",
             "b75da6c36bdf9e064320df3cf01879246800e834e3b139a73f018a6bb1eadcaf",
             {"E_R": -1.0, "Gamma": 1.5, "r": 4, "operator": {"kind": "coefficients", "entries": [
                 {"ket": 0, "bra": 3, "coeff": 1}, {"ket": 1, "bra": 2, "coeff": [0, 3]},
                 {"ket": 2, "bra": 1, "coeff": -0.25}, {"ket": 3, "bra": 0, "coeff": [2, -1]},
                 {"ket": 1, "bra": 1, "coeff": 0.1}]},
              "grid": {"t_end": 4.0, "steps": 11}}),
    # the contour cross-check on the bundled example, and on bench-shaped models: a slot's pole
    # and denominator roots with dyadic coefficients, in the three shapes whose quadrature and
    # exact residue cost the most
    Row("residue-example", ("residue", "--config", EXAMPLE), 0, stdout=_EXAMPLE_REPORT),
    *(Row(f"residue-{name}", ("residue", "--config", INPUT), 0, stdout=digest, document=model)
      for name, digest, model in (
          ("order1-background", "f637130e1fbfe097232d734399ac3e8850434a889d05f81ec6f56dee6ef29d8b",
           {"E_R": 2.0, "Gamma": 1.5, "r": 1, "laurent": [[0.5, -1.0]],
            "background": {"num": [[0.75, -1.75]], "den": [[1.0, -0.75], [1.0, 0.0]]},
            "test_functions": [
                {"role": "ket", "num": [[1.0, -1.75]],
                 "den": [[-4.125, 1.875], [-0.5, -2.25], [1.0, 0.0]]},
                {"role": "bra", "num": [[-1.5, -1.25]], "den": [[2.0, -0.5], [1.0, 0.0]]}]}),
          ("order4", "9e87b00cea919c53c84fb530cf67a0f2f5be6f8f18aca1620d67223c44469ebf",
           {"E_R": 1.5, "Gamma": 1.25, "r": 4,
            "laurent": [[0.5, -1.0], [1.0, -1.75], [-1.5, -1.25], [0.75, -1.75]],
            "test_functions": [
                {"role": "ket", "num": [[2.0, -0.5]],
                 "den": [[-0.75, 1.0], [-2.0, -2.0], [1.0, 0.0]]},
                {"role": "bra", "num": [[-1.75, -1.5]], "den": [[1.0, -0.5], [1.0, 0.0]]}]}),
          ("order6", "f05dc530b7f2851fc9fdc62ce110983d83828f24408060b6589061dd08776967",
           {"E_R": 0.75, "Gamma": 0.5, "r": 6,
            "laurent": [[0.5, -1.0], [1.0, -1.75], [-1.5, -1.25], [0.75, -1.75], [2.0, -0.5],
                        [-1.75, -1.5]],
            "test_functions": [
                {"role": "ket", "num": [[1.25, 1.25]],
                 "den": [[-0.75, 1.5], [-2.0, -1.75], [1.0, 0.0]]},
                {"role": "bra", "num": [[-1.5, -0.25]], "den": [[2.5, -2.0], [1.0, 0.0]]}]}),
      )),
    # evolve's other routes and operator forms, with finite output
    Row("evolve-r2-n1", ("evolve", "--r", "2", "--n", "1"), 0, stdout=FINITE),
    Row("evolve-r2-n1-json", ("evolve", "--r", "2", "--n", "1", "--steps", "5", "--format",
                              "json"), 0, stdout=FINITE),
    # the two other operator kinds; a complex coeff is [re, im]
    _evolve("evolve-dyad-json", {"r": 3, "format": "json", "operator": {
        "kind": "dyad", "ket": 1, "bra": 2, "coeff": [0.5, -1.0]}}),
    _evolve("evolve-coefficients", {"r": 2, "operator": {"kind": "coefficients", "entries": [
        {"ket": 0, "bra": 1, "coeff": 2.0}, {"ket": 1, "bra": 0, "coeff": [0.0, 1.0]}]}}),
    # t^8 alone overflows where exp(-Gamma t) does not: the log form
    _evolve("evolve-log-form", {"Gamma": 7e-38, "r": 5, "grid": {"t_end": 1e40, "steps": 3},
                                "operator": {"kind": "dyad", "ket": 4, "bra": 4}}),
    # the decay factor underflows to 0 past the first grid point
    _evolve("evolve-underflow", {"r": 5, "grid": {"t_end": 1e100, "steps": 5},
                                 "operator": {"kind": "dyad", "ket": 4, "bra": 4}}),
    # spellings that only argparse reads: the same bytes, help, or a usage error
    Row("exp-check-r-equals-3", ("exp-check", "--r=3"), 0, stdout=_R3),
    Row("residue-conf-abbreviated", ("residue", "--conf", EXAMPLE), 0, stdout=_EXAMPLE_REPORT),
    Row("basis-help", ("basis", "-h"), 0, stdout=Contains("usage: gamow basis")),
    Row("evolve-energy-minus-1e3", ("evolve", "--r", "2", "--n", "1", "--energy", "-1e3"), 2,
        Contains("gamow evolve: error: argument --energy: expected one argument")),
    # t_end * i overflows from i = 2 on, and every grid point must still be finite
    Row("evolve-t-end-1e308", ("evolve", "--r", "1", "--t-end", "1e308", "--steps", "5"), 0,
        stdout=FINITE),
    # the decay's width is Gamma's correctly rounded float, 5e-324, though Im z = -Gamma/2 is
    # no float: half of the least subnormal rounds to 0, and -2 * 0 would leave no decay at all
    Row("evolve-gamma-5e-324", ("evolve", "--gamma", "5e-324", "--t-end", "1e308", "--steps",
                                "3", "--r", "1", "--n", "0"), 0,
        stdout="e10e35adaac4536c84287f62a21401eefedd5644e49bc4ceccdb0cc397df66a9"),
    # the large outputs: about 9 s together
    # exp-check --r 30 streams its 77 MB from the certified rows: a peak RSS of 38-44 MB on Linux
    # x86-64, Python 3.10 to 3.13; holding the whole text took 95 MB
    Row("exp-check-r30", ("exp-check", "--r", "30"), 0, script_only=_SLOW, peak_mb=60,
        stdout="35bb9443c4a3e3c2f1f16fa33ca134363fbfbc68c65b185c589c12fb684c0e99"),
    Row("basis-r58-csv", ("basis", "--r", "58", "--format", "csv"), 0, script_only=_SLOW,
        stdout="1083d0c0df315e4b721e5e5dfe627fb804e583ec4d96b5081c5447096dd23e07"),
    # evolve clears the curve's float range from the exact table, then writes each grid step's
    # rows as it makes them: 11-16 MB for its 20 MB on Python 3.10 to 3.13, in table order too,
    # since the helper starts it; holding every row text took 106-110 MB, and a list of row
    # tuples beside the text 233 MB
    Row("evolve-r8-n7-steps10001", ("evolve", "--r", "8", "--n", "7", "--steps", "10001"), 0,
        stdout=FINITE, script_only=_SLOW, peak_mb=25),
    # the same curve as JSON, each step's rows spliced into the report as they are made: the
    # same peaks for its 84 MB; holding every row text took 130-136 MB, and a dict per row 523 MB
    Row("evolve-r8-n7-steps10001-json", ("evolve", "--r", "8", "--n", "7", "--steps", "10001",
                                         "--format", "json"), 0,
        stdout=FINITE, script_only=_SLOW, peak_mb=25),
    Row("exp-check-r20", ("exp-check", "--r", "20"), 0, script_only=_REACH,
        stdout="4541e054e00a54202b8f9db49cdbc070107c42849a642eed6f1bf6720c2e9eae"),
    Row("basis-r30", ("basis", "--r", "30"), 0, script_only=_REACH,
        stdout="528a57a6c04fdeb324298ea8791ea82ddbe4e7d97d8768c8912c6f42dfdd50aa"),
    # models the floats cannot resolve
    _model("residue-laurent-1e308", {"laurent": [[1e308, 0.0], [0.1, 0.0]]},
           _BEYOND.format("0.75")),
    _model("residue-gamma-1e200", {"Gamma": 1e200}, _BEYOND.format("5e+199")),
    _model("residue-energy-1e200", {"E_R": 1e200}, _APART.format("1e+200", "0.5")),
    _model("residue-gamma-1e-300", {"Gamma": 1e-300}, _APART.format("1.0", "1e-300")),
    # the window's Gamma is the float of the exact Gamma, not -2 times Im z, which rounds to 0
    _model("residue-gamma-5e-324", {"Gamma": 5e-324}, _APART.format("1.0", "5e-324")),
    # the exact residue term would overflow its float; the leg across the peak meets that first
    _model("residue-term-beyond-float", {
        "E_R": 0.0, "Gamma": 1e156, "r": 1, "laurent": [[1.0, 1e300]], "test_functions": [
            {"role": "ket", "num": [[1e14, 0.0]], "den": [[-4.0, 0.0], [0.0, -4.0], [1.0, 0.0]]},
            {"role": "bra", "num": [[1e162, 0.0]], "den": [[0.0, -3e-300], [1e-300, 0.0]]},
        ]}, _BEYOND.format("5e+155")),
    # a ket lead of 1e-320 puts the root test's height past the float range
    _model("residue-ket-lead-1e-320", {("test_functions", 0, "den", -1): [1e-320, 0.0]},
           "input error: model.test_functions[0].den: test function must be analytic in the "
           "closed lower half-plane; a denominator root is not above the real axis by more "
           "than 1e-09 * 2^1067"),
    Row("evolve-coefficient-beyond-float", ("evolve", "--r", "3", "--n", "2", "--energy",
                                            "1e308", "--gamma", "1e308", "--t-end", "1e10"), 2,
        "input error: operator coefficients beyond the float range (Gamma 1e+308, "
        "operator {'kind': 'binomial', 'n': 2})"),
    # 0.5 t^2 exp(-Gamma t) is 1.364e308 at the last point, though t^2 and exp(2 ln t - Gamma t)
    # are not floats: ln 0.5 joins the exponent
    Row("evolve-term-near-the-float-limit", ("evolve", "--config", INPUT), 0, stdout=FINITE,
        document={"Gamma": 3.67182720458848e-155, "r": 2, "operator": {
            "kind": "dyad", "ket": 1, "bra": 1, "coeff": 0.5},
            "grid": {"t_end": 2.723439705306271e+154, "steps": 2}}),
    # t^2 at t = 5e199 is no float: a curve that the exact table cannot clear is made whole
    # before its first byte, so the failed run writes nothing
    Row("evolve-value-beyond-float", ("evolve", "--config", INPUT), 1,
        "verification failed: entry (0,0) at t=5e+199 exceeds the float range",
        document={"Gamma": 1e-300, "r": 2, "grid": {"t_end": 1e200, "steps": 3},
                  "operator": {"kind": "dyad", "ket": 1, "bra": 1}}),
    # a pole window far wider than the test functions' scale: resolved, or a failed check
    Row("residue-wide-1e6", ("residue", "--config", INPUT), 0, stdout=FINITE,
        document=MODEL, edits={"E_R": 0.0, "Gamma": 1e6}),
    Row("residue-wide-1e90", ("residue", "--config", INPUT), 1,
        Contains("contour decomposition check failed: "), NOT_PASSED,
        document=MODEL, edits={"E_R": 0.0, "Gamma": 1e90}),
    # a document field of the right type but a bad value, or of the wrong type
    _model("residue-role-kat", {("test_functions", 0, "role"): "kat"},
           "input error: model.test_functions[0].role: role must be 'ket' or 'bra', got 'kat'"),
    Row("evolve-entries-not-a-list", ("evolve", "--config", INPUT), 2,
        "input error: operator.entries: expected a list, got 3",
        document={"operator": {"kind": "coefficients", "entries": 3}}),
    # a document that is not an object
    *(Row(f"{command}-document-{kind}", (command, "--config", INPUT), 2,
          f"input error: {where}: expected an object, got {document!r}", document=document)
      for command, where in (("evolve", "config"), ("residue", "model"))
      for kind, document in (("list", [1]), ("string", "model"))),
    # a --j that the --r pole does not restrict: building the system of bound 100 takes
    # seconds, so a one-second limit shows it was refused first
    Row("exp-check-r2-j100", ("exp-check", "--r", "2", "--j", "100"), 2,
        "input error: a pole of order 2 restricts the system of bound 2, not 100", seconds=1),
    # a width that is not positive, written as its integer ratio
    Row("evolve-gamma-0", ("evolve", "--gamma", "0"), 2,
        "input error: pole width must be positive, got 0"),
    # a --config that is not JSON, named with where the parser stopped
    Row("residue-config-dev-null", ("residue", "--config", "/dev/null"), 2,
        "invalid JSON in /dev/null: line 1, column 1: Expecting value"),
    # a --config that cannot be read, or an --out that cannot be opened, named with the reason
    Row("residue-config-dir", ("residue", "--config", "."), 2, "cannot open .: Is a directory"),
    Row("residue-config-missing", ("residue", "--config", "missing.json"), 2,
        "cannot open missing.json: No such file or directory"),
    Row("evolve-config-dir", ("evolve", "--config", "."), 2, "cannot open .: Is a directory"),
    # an empty path is a path that cannot be opened, not a path left out
    Row("exp-check-out-empty", ("exp-check", "--r", "1", "--out", ""), 2, _EMPTY),
    Row("basis-out-empty", ("basis", "--r", "1", "--out", ""), 2, _EMPTY),
    Row("evolve-config-empty", ("evolve", "--config", "", "--r", "1", "--steps", "2"), 2, _EMPTY),
    Row("residue-config-empty", ("residue", "--config", ""), 2, _EMPTY),
    Row("evolve-out-dir", ("evolve", "--r", "2", "--n", "1", "--out", "."), 2,
        "cannot open .: Is a directory", script_only=_UNWRITABLE),
    # exp-check --r 30 computes for seconds, so a one-second limit shows it was refused first
    Row("exp-check-out-dir", ("exp-check", "--r", "30", "--out", "."), 2,
        "cannot open .: Is a directory", seconds=1, script_only=_UNWRITABLE),
    Row("basis-out-parent-missing", ("basis", "--r", "3", "--out", "missing/out.json"), 2,
        "cannot open missing/out.json: No such file or directory", script_only=_UNWRITABLE),
    Row("exp-check-out-permission-denied", ("exp-check", "--r", "30", "--out", "locked/out.json"),
        2, _DENIED, needs="non-root", seconds=1, script_only=_UNWRITABLE),
    *(Row(f"{command}-out-permission-denied", (command, *REQUIRED_ARGS[command], "--out",
                                               "locked/out.json"), 2, _DENIED, needs="non-root",
          script_only=_UNWRITABLE)
      for command in ("evolve", "residue", "basis")),
    # a write that fails after the work: one line, to a file or to stdout
    *(Row(f"{command}-out-full-device", (command, *args, "--out", "/dev/full"), 2,
          "cannot write /dev/full: No space left on device", needs="/dev/full")
      for command, args in REQUIRED_ARGS.items()),
    Row("basis-stdout-full-device", ("basis", "--r", "3"), 2,
        "cannot write stdout: No space left on device", needs="/dev/full", stdout_to="/dev/full",
        script_only="TestFailedWrites pins the line, as a subprocess"),
]
BY_NAME = {row.name: row for row in ROWS}


def unmet(row):
    """Why `row` cannot run here, or None where it can."""
    if row.needs == "non-root" and os.geteuid() == 0:
        return "root opens any file"
    if row.needs == "/dev/full" and not os.path.exists("/dev/full"):
        return "no /dev/full"
    return None


def child_env(**changes):
    """The environment of a fresh interpreter, in any directory, that imports this gamow."""
    search_path = [os.path.dirname(os.path.dirname(gamow.__file__))]
    if os.environ.get("PYTHONPATH"):
        search_path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(search_path), **changes)


def _document(row):
    if row.document is MODEL:
        with open(EXAMPLE, encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = json.loads(json.dumps(row.document))
    for path, value in row.edits.items():
        *parents, last = (path,) if isinstance(path, str) else path
        target = document
        for step in parents:
            target = target[step]
        target[last] = value
    return document


def prepare(row, where):
    """Write `row`'s document to input.json in the directory `where`, and its `locked` one."""
    if row.document is not None:
        with open(os.path.join(where, INPUT), "w", encoding="utf-8") as handle:
            json.dump(_document(row), handle)
    if row.needs == "non-root":
        os.mkdir(os.path.join(where, "locked"))
        os.chmod(os.path.join(where, "locked"), 0o555)


def _reap(child, seconds):
    """Wait for `child`, killing its session after `seconds`: exit code, None if killed; peak MB."""
    killed = threading.Event()

    def kill():
        killed.set()
        with contextlib.suppress(ProcessLookupError):  # the session ended meanwhile
            os.killpg(child.pid, signal.SIGKILL)

    timer = threading.Timer(seconds, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)  # so that Popen never waits again
    return (None if killed.is_set() else child.returncode), _megabytes(usage.ru_maxrss)


def _megabytes(maxrss):
    """ru_maxrss in MB: it is in KiB on Linux and in bytes on macOS."""
    return maxrss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def run(row, command):
    """Run `row` as a subprocess of the command line `command`.

    Returns what the row broke, [] if nothing, the child's peak RSS in MB, and
    the seconds from its spawn to its reap.
    """
    with (tempfile.TemporaryDirectory() as where, tempfile.TemporaryFile() as out_file,
          tempfile.TemporaryFile() as err_file, tempfile.TemporaryFile() as peak_file):
        prepare(row, where)
        with open(row.stdout_to, "wb") if row.stdout_to else (
                contextlib.nullcontext(out_file)) as stdout:
            helper = [] if row.peak_mb is None else [
                sys.executable, "-I", "-S", "-c", MEASURE, str(peak_file.fileno())]
            start = time.perf_counter()
            child = subprocess.Popen([*helper, *command, *row.argv], cwd=where, env=child_env(),
                                     stdout=stdout, stderr=err_file, start_new_session=True,
                                     pass_fds=(peak_file.fileno(),) if helper else ())
        code, peak = _reap(child, row.seconds)
        seconds = time.perf_counter() - start
        reported = _read(peak_file)  # by the helper, once the command has exited
        if reported:
            peak = _megabytes(int(reported))
        if code is None:
            return [f"no exit within {row.seconds:g} s"], peak, seconds
        broken, head = scan(out_file, row.stdout)
        err = _read(err_file).decode("utf-8", "replace")
    faults = []
    if code != row.exit:
        faults.append(f"exit {code}, expected {row.exit}")
    if isinstance(row.stderr, Contains):
        if row.stderr not in err:
            faults.append(f"stderr {err!r} does not hold {str(row.stderr)!r}")
    elif err != (row.stderr and row.stderr + "\n"):
        faults.append(f"stderr {err!r}, expected {row.stderr!r}")
    if broken:
        faults.append(f"stdout breaks the rule {row.stdout!r}: {head!r}")
    if row.peak_mb is not None and peak > row.peak_mb:
        faults.append(f"peak RSS {peak:.1f} MB, above the limit of {row.peak_mb:g} MB")
    return faults, peak, seconds


def scan(handle, rule):
    """Whether the output in the binary file `handle` breaks the stdout `rule`, and its head.

    The head is the first 200 bytes.  The file is read `CHUNK` bytes at a
    time, so that the runner never holds a child's output, and its own peak
    RSS, which Linux carries into each later child's `ru_maxrss`, stays
    small.  A rule's text holds no newline, so it is looked for in the whole
    lines that each chunk completes.
    """
    if isinstance(rule, Contains):
        pattern = re.escape(rule.encode())
    else:  # FINITE holds for JSON and CSV alike
        pattern = {FINITE: rb"NaN|Infinity|\b(nan|inf)\b", NOT_PASSED: rb'"passed": true'}.get(rule)
    digest, head, rest, found = hashlib.sha256(), b"", b"", False
    handle.seek(0)
    while chunk := handle.read(CHUNK):
        digest.update(chunk)
        head = head or chunk[:200]
        lines, _, rest = (rest + chunk).rpartition(b"\n")
        found = found or bool(pattern and re.search(pattern, lines))
    found = found or bool(pattern and re.search(pattern, rest))
    if isinstance(rule, Contains):
        return not found, head
    if rule == EMPTY:
        return head != b"", head
    return (found if pattern is not None else digest.hexdigest() != rule), head


def _read(handle):
    handle.seek(0)
    return handle.read()


def main(command):
    failed = 0
    for row in ROWS:
        reason = unmet(row)
        if reason:
            print(f"{row.name}: skipped: {reason}", flush=True)
            continue
        faults, peak, seconds = run(row, command)
        failed += bool(faults)
        verdict = "; ".join(faults) or "ok"
        if row.peak_mb is not None and not faults:  # a peak over its limit is a fault
            verdict += f" (peak RSS {peak:.1f} MB, limit {row.peak_mb:g} MB)"
        print(f"{row.name}: {verdict}, {seconds:.3f} s", flush=True)
    print(f"{failed} of {len(ROWS)} rows failed against {' '.join(command)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_probes.py COMMAND [ARG...]")
    sys.exit(main(sys.argv[1:]))
