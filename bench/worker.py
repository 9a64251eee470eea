"""One benchmark pass in a fresh process.

Protocol: import ``seatgraphs.cli``, write ``ready`` on stdout, read the
pass description (``{"jobs": [...], "trace": bool}``) as JSON from
stdin, run every job through ``seatgraphs.cli.main(argv)`` with stdout
and stderr captured, and write one JSON result on stdout.

Usage (from the benchmark only): python3 bench/worker.py <src dir>
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback

sys.path.insert(0, sys.argv[1])

import seatgraphs.cli  # noqa: E402  (the import is what set-up time measures)

sys.stdout.write("ready\n")
sys.stdout.flush()


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = seatgraphs.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # reported as a failed job, never as a crash of the pass
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def peak_rss_kb():
    """This process's resident-set high-water mark since exec.  On Linux
    ``ru_maxrss`` also carries the parent's peak across fork and exec,
    so it is only the fallback."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in request["jobs"]:
        if tracer is not None:
            tracer.job = job["id"]
        code, wall, out, err = run_job(job["argv"])
        results.append({"id": job["id"], "code": code, "wall": wall, "out": out, "err": err})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    reply = {
        "jobs": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": peak_rss_kb(),
        "python": sys.version.split()[0],
        "trace": tracer.report() if tracer is not None else None,
    }
    json.dump(reply, sys.stdout, separators=(",", ":"))


main()
