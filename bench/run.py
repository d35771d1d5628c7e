"""gamow benchmark: seeded CLI jobs, each in a fresh fork of a ready parent.

    python3 bench/run.py --workload residue --seed 1 --seconds 50 --trace 0

Run from the repository root (or any checkout of it).  The benchmark is a
closed loop with one client: it generates the workload's jobs from the seed
(workloads.py), hands them one at a time to a "ready" parent process
(server.py) that has imported gamow.cli and run one warm-up invocation,
and the parent forks a child per job that calls gamow.cli.main(argv).
Forking per job reproduces what a real `gamow ...` call sees, a process
that has only just imported the package, and keeps a cache filled by one
job from serving the next.  Every output is checked by an independent
oracle (oracles.py) after the job, outside the timed region.

Whole blocks of jobs run until --seconds have passed and at least
workloads.MIN_JOBS jobs are done.  With --trace 0 the last line of stdout
holds the end-to-end metrics:

    setup_s      median wall time, over SETUP_SPAWNS fresh interpreters, from
                 spawn until gamow.cli is imported and the warm-up has run
    job_p50_s    median job latency: main(argv) until the output is written
    job_p90_s    90th percentile job latency (nearest rank)
    jobs_per_s   jobs that passed their oracle per second of summed job time
    peak_rss_mb  largest resident set of any job process

With --trace 1 each job runs twice, untraced and then traced (tracer.py),
and the last line holds the per-layer metrics: times and counts are means
per job, ratios and maxima cover the run, and trace.overhead_share compares
the two runs of the same jobs.

The line before the last is a summary: fail ratio, input repeat share, the
sha256 digest of the first MIN_JOBS outputs, and run metadata.  The full
record (every job, and every span of a traced run) is written to
.bench_out/results/.  The benchmark's own tests: python3 -m pytest bench -q
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
READY_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
# No block starts after this many seconds, so a run ends well within 180 s.
DEADLINE = 120.0
OUT_DIR = ROOT / ".bench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Spans reported as <name>_s (busy seconds) and <name>_calls.  Operators
# functions are reported without the time of operators spans nested in them
# (to_json_dict re-reads solution_dimension), so they split the layer's time.
NAMED_SPANS = {
    "operators.value", "operators.evolve_operator", "operators.is_pure_exponential",
    "operators.constraints", "operators.solution_dimension", "operators.family_match",
    "operators.recursion", "operators.restriction", "operators.basis", "operators.to_json",
    "exact.rref", "exact.derivative",
    "smatrix.load", "smatrix.direct", "smatrix.background", "smatrix.quad",
    "smatrix.residue_core",
}

PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("operators.self_s", "s"),
    ("operators.value_calls", "count"),
    ("operators.value_s", "s"),
    ("operators.evolve_operator_s", "s"),
    ("operators.is_pure_exponential_s", "s"),
    ("operators.constraints_s", "s"),
    ("operators.solution_dimension_s", "s"),
    ("operators.family_match_s", "s"),
    ("operators.recursion_s", "s"),
    ("operators.restriction_s", "s"),
    ("operators.basis_s", "s"),
    ("operators.to_json_s", "s"),
    ("operators.constraint_equations", "count"),
    ("operators.constraint_unknowns", "count"),
    ("exact.self_s", "s"),
    ("exact.rref_calls", "count"),
    ("exact.rref_s", "s"),
    ("exact.rref_entries", "count"),
    ("exact.rref_distinct_ratio", "ratio"),
    ("exact.derivative_calls", "count"),
    ("exact.derivative_s", "s"),
    ("exact.derivative_max_den_degree", "count"),
    ("smatrix.self_s", "s"),
    ("smatrix.load_s", "s"),
    ("smatrix.direct_s", "s"),
    ("smatrix.background_s", "s"),
    ("smatrix.quad_calls", "count"),
    ("smatrix.quad_s", "s"),
    ("smatrix.integrand_evals", "count"),
    ("smatrix.residue_core_s", "s"),
    ("smatrix.unconverged_share", "ratio"),
    ("smatrix.discrepancy_max", "ratio"),
    ("trace.self_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.untraced_job_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
]


class BenchError(Exception):
    """The benchmark could not run; reported on stderr with exit code 2."""


# -- the ready parent ------------------------------------------------------------


class Server:
    """One server.py process; requests and replies are JSON lines."""

    def __init__(self, workdir, warmup, log):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), str(workdir), json.dumps(warmup)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            text=True, start_new_session=True,
        )

    def read(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("the ready parent stopped answering (see .bench_out/server.log)")
        return json.loads(line)

    def request(self, message, timeout):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def stop(self):
        """Close its input and wait; kill its process group if it does not exit."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def start_server(workdir, warmup, log):
    """Spawn a ready parent; returns (server, seconds until it was ready)."""
    start = time.perf_counter()
    server = Server(workdir, warmup["argv"], log)
    try:
        ready = server.read(READY_TIMEOUT)
    except BenchError:
        server.stop()
        raise
    seconds = time.perf_counter() - start
    if ready.get("code") != 0:
        server.stop()
        raise BenchError(f"warm-up {warmup['argv']} exited with {ready.get('code')}")
    return server, seconds


# -- metadata --------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def steal_seconds():
    """CPU time the hypervisor took from this machine so far, or None where unknown.

    Reported with each run because host contention, not the program, is the
    largest source of run-to-run spread on a shared virtual machine.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def metadata(seed):
    source = ROOT / "src" / "gamow"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(source.rglob("*.py")))
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "sympy": _version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_gamow_lines": lines,
    }


# -- statistics ------------------------------------------------------------------


def nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(setup_times, records):
    latencies = [rec["seconds"] for rec in records if rec["seconds"] is not None]
    passed = sum(rec["ok"] for rec in records)
    return {
        "setup_s": statistics.median(setup_times),
        "job_p50_s": nearest_rank(latencies, 0.5),
        "job_p90_s": nearest_rank(latencies, 0.9),
        "jobs_per_s": passed / sum(latencies),
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in records) / 1024,
    }


def per_layer(records):
    """Per-layer metrics from the traced jobs' spans and counters."""
    traced = [rec for rec in records if rec.get("spans")]
    jobs = len(traced)
    sums = {}
    counters = {}
    maxima = {"derivative_max_den_degree": 0, "discrepancy_max": 0.0}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for rec in traced:
        spans = rec["spans"]
        own = tracer.self_times(spans)
        same_layer_children = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0 and tracer.layer_of(spans[parent][0]) == tracer.layer_of(span[0]):
                same_layer_children[parent] += span[5]
        for i, (name, _, _, _, calls, busy) in enumerate(spans):
            add(tracer.layer_of(name) + ".self_s", own[i])
            if name in NAMED_SPANS:
                nested = same_layer_children[i] if name.startswith("operators.") else 0.0
                add(name + "_s", busy - nested)
                add(name + "_calls", calls)
        for key, value in rec["counters"].items():
            if key in maxima:
                maxima[key] = max(maxima[key], value)
            else:
                counters[key] = counters.get(key, 0) + value
        add("trace.job_wall_s", rec["seconds"])
        add("trace.untraced_job_wall_s", rec["untraced_seconds"])
        add("cli.bytes_out", rec["bytes"])

    metrics = {key: value / jobs for key, value in sums.items()}
    systems = counters.get("constraint_systems", 0)
    metrics["operators.constraint_equations"] = counters.get("constraint_equations", 0) / max(systems, 1)
    metrics["operators.constraint_unknowns"] = counters.get("constraint_unknowns", 0) / max(systems, 1)
    metrics["exact.rref_entries"] = counters.get("rref_entries", 0) / jobs
    rref_calls = sums.get("exact.rref_calls", 0)
    metrics["exact.rref_distinct_ratio"] = counters.get("rref_distinct", 0) / rref_calls if rref_calls else 1.0
    metrics["exact.derivative_max_den_degree"] = maxima["derivative_max_den_degree"]
    metrics["smatrix.integrand_evals"] = counters.get("integrand_evals", 0) / jobs
    checks = counters.get("decompositions", 0)
    metrics["smatrix.unconverged_share"] = counters.get("unconverged", 0) / checks if checks else 0.0
    metrics["smatrix.discrepancy_max"] = maxima["discrepancy_max"]
    metrics["trace.overhead_share"] = sums["trace.job_wall_s"] / sums["trace.untraced_job_wall_s"] - 1
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


def accounting(records):
    """Largest gap, over traced jobs, between the layers' self times and the job's wall time."""
    worst = 0.0
    for rec in records:
        if rec.get("spans"):
            worst = max(worst, abs(sum(tracer.self_times(rec["spans"])) - rec["seconds"]))
    return worst


# -- the run ---------------------------------------------------------------------


class Run:
    def __init__(self, workload, trace, workdir):
        self.workload = workload
        self.trace = trace
        self.workdir = workdir
        self.sympy_residue = oracles.SympyResidue() if workload == "residue" else None
        self.records = []
        self.missing_targets = set()

    def _execute(self, server, job, argv, traced):
        reply = server.request(
            {"id": job["id"], "argv": argv, "trace": traced,
             "err": str(self.workdir / f"err-{job['id']}.txt")},
            JOB_TIMEOUT,
        )
        # A traced name the program no longer has reads as zero; the summary lists it.
        self.missing_targets.update(reply.get("missing") or ())
        return reply

    def run_job(self, server, job):
        for name, text in job["files"].items():
            (self.workdir / name).write_text(text)
        reply = self._execute(server, job, job["argv"], False)
        out = self.workdir / job["out"]
        data = out.read_bytes() if out.exists() else b""
        code = reply["code"] if reply["status"] == reply["code"] else reply["status"]
        reason = None
        if code != 0:
            err = self.workdir / f"err-{job['id']}.txt"
            reason = f"exit code {code}: {err.read_text().strip()[-300:] if err.exists() else ''}"
        else:
            reason = oracles.check(self.workload, job, data.decode(), self.sympy_residue)
        record = {
            "id": job["id"], "cls": job["cls"], "argv": job["argv"], "code": code,
            "seconds": reply["seconds"], "cpu_seconds": reply.get("cpu_seconds"),
            "maxrss_kb": reply["maxrss_kb"], "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(), "ok": reason is None, "reason": reason,
        }
        if self.trace:
            traced_out = job["out"].replace("out-", "traced-")
            argv = [traced_out if a == job["out"] else a for a in job["argv"]]
            traced = self._execute(server, job, argv, True)
            traced_path = self.workdir / traced_out
            traced_data = traced_path.read_bytes() if traced_path.exists() else b""
            if record["ok"] and (traced["code"] != 0 or traced_data != data):
                record["ok"] = False
                record["reason"] = "traced run changed the exit code or the output"
            record.update(untraced_seconds=record["seconds"], seconds=traced["seconds"],
                          spans=traced["spans"], counters=traced["counters"])
            traced_path.unlink(missing_ok=True)
        out.unlink(missing_ok=True)
        for name in job["files"]:
            (self.workdir / name).unlink()
        self.records.append(record)

    def run_blocks(self, server, jobs, seconds, started):
        size = workloads.block_size(self.workload)
        min_blocks = math.ceil(workloads.MIN_JOBS / size)
        loop_start = time.perf_counter()
        for block in range(len(jobs) // size):
            elapsed = time.perf_counter() - loop_start
            if block >= min_blocks and elapsed >= seconds:
                break
            if time.perf_counter() - started > DEADLINE:
                break
            for job in jobs[block * size:(block + 1) * size]:
                self.run_job(server, job)
        return time.perf_counter() - loop_start


def output_digest(records):
    digest = hashlib.sha256()
    for rec in records[: workloads.MIN_JOBS]:
        digest.update(f"{rec['id']} {rec['sha256']}\n".encode())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args):
    started = time.perf_counter()
    if not (ROOT / "src" / "gamow" / "cli.py").is_file():
        raise BenchError(f"no gamow source under {ROOT / 'src'}; run from a checkout of the repository")
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(OUT_DIR / "server.log", "a") as log:
            return _bench_in(args, workdir, log, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench_in(args, workdir, log, started):
    run = Run(args.workload, bool(args.trace), workdir)
    size = workloads.block_size(args.workload)
    # More blocks than DEADLINE leaves time for; the loop stops long before.
    jobs = workloads.generate(args.workload, args.seed, blocks=40)
    warmup = workloads.warmup_job(args.workload)
    for name, text in warmup["files"].items():
        (workdir / name).write_text(text)

    setup_times = []
    server = None
    try:
        for _ in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server, seconds = start_server(workdir, warmup, log)
            setup_times.append(seconds)
        steal_before = steal_seconds()
        measured = run.run_blocks(server, jobs, args.seconds, started)
        steal_after = steal_seconds()
    finally:
        if server is not None:
            server.stop()

    records = run.records
    failed = sum(not rec["ok"] for rec in records)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(records)
        units = dict(PER_LAYER)
        gap = accounting(records)
        if gap > 1e-6:
            correct = False
    else:
        metrics = end_to_end(setup_times, records)
        units = dict(END_TO_END)
        gap = None
    attempted_jobs = jobs[: len(records)]
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "jobs": len(records),
        "blocks": len(records) // size,
        "measured_s": measured,
        "fail_ratio": {"value": failed / len(records), "unit": "ratio"},
        "input_repeat_share": workloads.repeat_share(attempted_jobs),
        "output_sha256": output_digest(records),
        "setup_runs_s": setup_times,
        "steal_s": None if steal_before is None else steal_after - steal_before,
        "self_time_gap_s": gap,
        "tracer_targets_missing": sorted(run.missing_targets),
        "failures": [(rec["id"], rec["reason"]) for rec in records if not rec["ok"]][:10],
        "metadata": metadata(args.seed),
    }
    results = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    spans = [[rec["id"], *span] for rec in records for span in rec.get("spans") or []]
    for rec in records:
        rec.pop("spans", None)
    results.write_text(json.dumps(
        {"summary": summary, "metrics": metrics, "jobs": records, "spans": spans}, indent=1) + "\n")
    summary["results"] = str(results.relative_to(ROOT))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records) * (2 if args.trace else 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop the ready parent.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return bench(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
