"""The "ready" parent: imports gamow.cli, warms up, then forks one child per job.

Started by run.py as `python3 bench/server.py <workdir> <warm-up request>`.
It talks over its standard streams, one JSON object per line:

* after the import and the warm-up invocation it writes
  {"ready": true, "code": <warm-up exit code>};
* for each request {"id", "argv", "trace", "err"} read from stdin it forks a
  child that runs `gamow.cli.main(argv)` in the work directory, waits for
  it, and writes {"id", "code", "status", "seconds", "maxrss_kb"} plus
  "cpu_seconds" for an untraced job or "spans", "counters" and "missing"
  (tracer targets the program lacks) for a traced one;
* an empty line or end of input makes it exit.

The child times `main(argv)` from the call until it returns, which is after
the output file is closed.  With "trace" set, the child installs the tracer
of tracer.py before the call; the parent never does, so untraced children
run the program exactly as shipped.
"""

import json
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(1, BENCH_DIR)

import tracer  # noqa: E402

# Exit code the child reports when main() raised instead of returning.
CRASHED = 70


def _run_child(request, result_fd):
    """Body of the forked child; never returns."""
    code = CRASHED
    try:
        err_fd = os.open(request["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(err_fd, 2)
        null_fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null_fd, 1)
        payload = {"spans": None}
        if request["trace"]:
            job_tracer = tracer.Tracer()
            job_tracer.install()
            code, seconds = job_tracer.run_root(_call_main, request["argv"])
            payload["spans"] = job_tracer.spans
            payload["counters"] = job_tracer.counters
            payload["missing"] = job_tracer.missing
        else:
            start = time.perf_counter()
            cpu_start = time.process_time()
            code = _call_main(request["argv"])
            seconds = time.perf_counter() - start
            payload["cpu_seconds"] = time.process_time() - cpu_start
        payload["code"] = code
        payload["seconds"] = seconds
        data = json.dumps(payload).encode()
        view = memoryview(data)
        while view:
            view = view[os.write(result_fd, view):]
    except BaseException:
        traceback.print_exc()
        code = CRASHED
    finally:
        os._exit(code if isinstance(code, int) and 0 <= code < 256 else CRASHED)


def _call_main(argv):
    from gamow.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return CRASHED


def _serve_one(request):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _run_child(request, write_fd)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, status, usage = os.wait4(pid, 0)
    reply = {"id": request["id"], "status": os.waitstatus_to_exitcode(status),
             "maxrss_kb": usage.ru_maxrss, "code": CRASHED, "seconds": None, "spans": None}
    if chunks:
        reply.update(json.loads(b"".join(chunks)))
    return reply


def main():
    workdir, warmup = sys.argv[1], json.loads(sys.argv[2])
    os.chdir(workdir)
    # Replies go to a private copy of stdout; fd 1 itself points at /dev/null
    # so nothing the program prints can corrupt the protocol.
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    null_fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null_fd, 1)
    code = _call_main(warmup)
    protocol.write(json.dumps({"ready": True, "code": code}) + "\n")
    for line in sys.stdin:
        if not line.strip():
            break
        protocol.write(json.dumps(_serve_one(json.loads(line))) + "\n")


if __name__ == "__main__":
    main()
