"""Tests of the benchmark's own parts: generator, oracles, tracer, protocol.

    python3 -m pytest bench/test_bench.py -q

They run CLI jobs in-process or through server.py, so they need the
repository's `src` on the path (added below), but no benchmark run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gamow.cli import main  # noqa: E402


def _first(workload, cls, seed=7):
    return next(job for job in workloads.generate(workload, seed, 1) if job["cls"] == cls)


def _run_in(tmp_path, job):
    for name, text in job["files"].items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in job["files"] or a == job["out"] else a for a in job["argv"]]
    assert main(argv) == 0
    return (tmp_path / job["out"]).read_text()


def _alter_digit(text, start):
    """Text with the first nonzero digit at or after `start` changed."""
    match = re.compile(r"[1-9]").search(text, start)
    digit = match.group()
    replacement = "2" if digit == "1" else "1"
    return text[: match.start()] + replacement + text[match.end():]


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 3, 2)
        assert first == workloads.generate(workload, 3, 2)
        assert len(first) == 2 * workloads.block_size(workload)
    assert workloads.generate("residue", 3, 1) != workloads.generate("residue", 4, 1)


def test_every_block_has_the_same_classes():
    jobs = workloads.generate("decay_curve", 5, 3)
    size = workloads.block_size("decay_curve")
    blocks = [sorted(job["cls"] for job in jobs[b * size:(b + 1) * size]) for b in range(3)]
    assert blocks[0] == blocks[1] == blocks[2]


def test_residue_geometry_is_fixed_and_coefficients_are_seeded():
    def geometry(job):
        spec = job["spec"]
        dens = [f["den"] for f in spec["test_functions"]] + [spec.get("background", {}).get("den")]
        return json.dumps([job["cls"], spec["E_R"], spec["Gamma"], dens])

    first, second = workloads.generate("residue", 3, 2), workloads.generate("residue", 4, 2)
    assert sorted(map(geometry, first)) == sorted(map(geometry, second))
    assert [job["spec"]["laurent"] for job in first] != [job["spec"]["laurent"] for job in second]


def test_warmup_inputs_are_shared_with_no_timed_job():
    for workload in workloads.WORKLOADS:
        warm = workloads.warmup_job(workload)
        warm_key = workloads.input_key({"argv": warm["argv"], "files": warm["files"]})
        jobs = workloads.generate(workload, 1, 3)
        assert warm_key not in {workloads.input_key(job) for job in jobs}


@pytest.mark.parametrize("cls, row", [("r3-coefficients", 1500), ("r2-json-binomial", 900)])
def test_decay_oracle_accepts_output_and_catches_one_altered_digit(tmp_path, cls, row):
    job = _first("decay_curve", cls)
    text = _run_in(tmp_path, job)
    assert oracles.check("decay_curve", job, text) is None
    if job["spec"]["format"] == "csv":
        line_start = [m.end() for m in re.finditer("\n", text)][row]
        # skip t, entry_l and entry_m: alter the real part
        field_start = line_start + len(",".join(text[line_start:].split(",")[:3])) + 1
        bad = _alter_digit(text, field_start)
    else:
        bad = _alter_digit(text, text.index('"re":', text.index('"rows"') + 40 * row))
    assert bad != text
    assert oracles.check("decay_curve", job, bad) is not None


@pytest.mark.parametrize("cls", ["exp-check-r3-p50", "exp-check-j5", "basis-csv", "basis-json"])
def test_characterize_oracle_catches_one_altered_digit(tmp_path, cls):
    job = _first("characterize", cls)
    text = _run_in(tmp_path, job)
    assert oracles.check("characterize", job, text) is None
    anchor = text.index("coeff") if "coeff" in text else text.index("\n1,")
    bad = _alter_digit(text, anchor)
    assert oracles.check("characterize", job, bad) is not None
    if "solution_dimension" in text:
        bad = _alter_digit(text, text.index('"solution_dimension"'))
        assert oracles.check("characterize", job, bad) is not None


@pytest.mark.parametrize("field", ["direct", "background", "residue"])
def test_residue_oracle_catches_one_altered_digit(tmp_path, field):
    job = _first("residue", "order3")
    text = _run_in(tmp_path, job)
    sympy_residue = oracles.SympyResidue()
    assert oracles.check("residue", job, text, sympy_residue) is None
    bad = _alter_digit(text, text.index(f'"{field}"'))
    assert oracles.check("residue", job, bad, sympy_residue) is not None


def test_sympy_oracle_alone_catches_a_wrong_residue(tmp_path):
    job = _first("residue", "order4")
    text = _run_in(tmp_path, job)
    payload = json.loads(text)
    # Move the error into the background so the contour identity still holds.
    shift = 1e-6 * abs(complex(*payload["residue"]))
    payload["residue"][0] += shift
    payload["background"][0] -= shift
    assert oracles.check("residue", job, json.dumps(payload), None) is None
    assert "sympy" in oracles.check("residue", job, json.dumps(payload), oracles.SympyResidue())


def test_self_times_add_up_to_the_root():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1, 10.0],
        ["operators.basis", 1.0, 5.0, 0, 1, 4.0],
        ["exact.rref", 2.0, 3.0, 1, 1, 1.0],
        ["operators.value", 6.0, 9.0, 0, 300, 2.5],
    ]
    own = tracer.self_times(spans)
    assert own == [3.5, 3.0, 1.0, 2.5]
    assert sum(own) == spans[0][5]


def test_nearest_rank_leaves_ten_jobs_above_p90_at_one_hundred():
    values = list(range(1, 101))
    p90 = run.nearest_rank(values, 0.9)
    assert sum(v > p90 for v in values) == 10
    assert run.nearest_rank(values, 0.5) == 50


def test_server_traces_a_job_and_leaves_untraced_jobs_alone(tmp_path):
    job = _first("characterize", "exp-check-r3-p50")
    warm = workloads.warmup_job("characterize")
    with open(tmp_path / "server.log", "w") as log:
        server, _ = run.start_server(tmp_path, warm, log)
        try:
            plain = server.request({"id": 0, "argv": job["argv"], "trace": False,
                                    "err": str(tmp_path / "err0")}, 60)
            plain_out = (tmp_path / job["out"]).read_bytes()
            traced = server.request({"id": 1, "argv": job["argv"], "trace": True,
                                     "err": str(tmp_path / "err1")}, 60)
        finally:
            server.stop()
    assert plain["code"] == traced["code"] == 0
    assert plain["spans"] is None
    assert (tmp_path / job["out"]).read_bytes() == plain_out
    assert traced["missing"] == []
    names = {span[0] for span in traced["spans"]}
    assert {"cli.main", "cli.cmd_exp_check", "operators.solution_dimension",
            "operators.restriction", "exact.rref"} <= names
    assert abs(sum(tracer.self_times(traced["spans"])) - traced["seconds"]) < 1e-9
    assert traced["counters"]["constraint_equations"] == 20


def test_run_refuses_a_directory_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    result = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "residue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
