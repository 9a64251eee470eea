"""The seatgraphs benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload odp --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``seatgraphs`` CLI argument lists built
from ``--seed`` (see ``workloads.py``).  A pass runs the whole list in
one fresh worker process (``worker.py``), single-threaded, through
``seatgraphs.cli.main(argv)``; passes run one after another until
``--seconds`` would be exceeded, and every reported time is the median
over passes.  Every job's exit code and output are checked against
expectations computed without the package (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes; the traced ones wrap the package's public
functions from outside (``tracer.py``) and give the per-layer metrics,
and every metric, end-to-end and per-layer, is printed by name with its
unit on stderr.  The last line of stdout is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record (the
environment, the inputs and their properties, per-pass numbers, failed
checks and the traced spans) is written to ``bench/out/``.

``python3 bench/run.py --self-test`` shows that a corrupted expectation
makes its job fail, that equal seeds give byte-identical inputs, and
that ``BENCHMARK.json`` lists exactly the metrics this file reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

# set-up is measured on every pass and on this many empty spawns before
# each pass, so that its samples spread over the whole run
SETUP_SAMPLES = 2
# a run never exceeds this, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_max_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.parse_graph_spec.s", "s", "lower"),
    ("identities.verify.calls", "count", "lower"),
    ("identities.verify.self_s", "s", "lower"),
    ("identities.sweep.s", "s", "lower"),
    ("identities.sweep.graphs", "count", "higher"),
    ("identities.self_s", "s", "lower"),
    ("dfsgraph.odp.calls", "count", "lower"),
    ("dfsgraph.odp.s", "s", "lower"),
    ("dfsgraph.odp.perms", "count", "lower"),
    ("dfsgraph.odp.perms_per_s", "1/s", "higher"),
    ("dfsgraph.slice.calls", "count", "lower"),
    ("dfsgraph.slice.s", "s", "lower"),
    ("dfsgraph.materialize.s", "s", "lower"),
    ("dfsgraph.materialize.witnesses", "count", "lower"),
    ("dfsgraph.export.s", "s", "lower"),
    ("dfsgraph.self_s", "s", "lower"),
    ("permutations.gdescent.calls", "count", "lower"),
    ("permutations.gdescent.s", "s", "lower"),
    ("permutations.self_s", "s", "lower"),
    ("polynomials.gen_eulerian.s", "s", "lower"),
    ("polynomials.eulerian.s", "s", "lower"),
    ("polynomials.expand.calls", "count", "lower"),
    ("polynomials.expand.s", "s", "lower"),
    ("polynomials.self_s", "s", "lower"),
    ("chromatic.chi.calls", "count", "lower"),
    ("chromatic.chi.s", "s", "lower"),
    ("chromatic.memo_entries", "count", "lower"),
    ("chromatic.peo_search.calls", "count", "lower"),
    ("chromatic.peo_search.s", "s", "lower"),
    ("chromatic.peo_search.labelings_tried", "count", "lower"),
    ("chromatic.peo_search.found_ratio", "ratio", "higher"),
    ("chromatic.is_peo.calls", "count", "lower"),
    ("chromatic.is_peo.s", "s", "lower"),
    ("chromatic.self_s", "s", "lower"),
    ("digraph.from_edges.calls", "count", "lower"),
    ("digraph.from_edges.s", "s", "lower"),
    ("digraph.complement.calls", "count", "lower"),
    ("digraph.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
MODULES = ("cli", "identities", "dfsgraph", "permutations", "polynomials", "chromatic", "digraph")

# ROADMAP baseline (2 cores, Python 3.11.7): (label, workload, span, job ids, seconds)
BASELINE = (
    ("odp(tour:9, cycle:9)", "odp", "dfsgraph.odp", ("tour9-cycle9",), 2.3),
    ("sweep_identity(5)", "identities", "identities.sweep", ("sweep5",), 1.8),
    ("generalized Eulerian, n=8", "enumerate", "polynomials.gen_eulerian",
     ("gen-eulerian", "gen-eulerian-cyclic", "table-cyclic"), 1.1),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- worker passes ---------------------------------------------------------

def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("SEATGRAPHS_M", None)  # the default truncation is part of the workload
    return env


def run_pass(jobs, trace, deadline):
    """Spawn a worker, run ``jobs`` in it, return (setup seconds, reply)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(SRC)], cwd=ROOT, env=worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready != b"ready\n":
            proc.kill()
            _, err = proc.communicate()
            raise BenchError(f"worker did not start: {err.decode(errors='replace').strip()[-500:]}")
        request = json.dumps({"jobs": [{"id": j["id"], "argv": j["argv"]} for j in jobs], "trace": trace})
        out, err = proc.communicate(request.encode(), timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within the {HARD_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}")
    return setup, json.loads(out)


def pass_stats(jobs, reply, failures):
    main = [r["wall"] for j, r in zip(jobs, reply["jobs"]) if not j["probe"]]
    return {
        "wall_s": reply["wall_s"],
        "cpu_s": reply["cpu_s"],
        "job_p50_s": statistics.median(main),
        "job_max_s": max(main),
        "peak_rss_mb": reply["peak_rss_kb"] / 1024,
        "job_walls": {r["id"]: r["wall"] for r in reply["jobs"]},
        "failures": failures,
    }


# -- per-layer metrics from one traced pass --------------------------------

def layer_metrics(trace):
    spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self": 0.0, "notes": []})
    for name, start, end, _parent, _job, child, note in trace["spans"]:
        d = spans[name]
        d["calls"] += 1
        d["s"] += end - start
        d["self"] += end - start - child
        if note:
            d["notes"].append(note)
    totals = defaultdict(lambda: (0, 0.0), {k: tuple(v) for k, v in trace["totals"].items()})

    def note_sum(name, key):
        return sum(n[key] for n in spans[name]["notes"])

    odp_s = spans["dfsgraph.odp"]["s"]
    peo = spans["chromatic.peo_search"]
    m = {
        "cli.main.calls": spans["cli.main"]["calls"],
        "cli.parse_graph_spec.s": spans["cli.parse_graph_spec"]["s"],
        "identities.verify.calls": spans["identities.verify"]["calls"],
        "identities.verify.self_s": spans["identities.verify"]["self"],
        "identities.sweep.s": spans["identities.sweep"]["s"],
        "identities.sweep.graphs": note_sum("identities.sweep", "graphs"),
        "dfsgraph.odp.calls": spans["dfsgraph.odp"]["calls"],
        "dfsgraph.odp.s": odp_s,
        "dfsgraph.odp.perms": note_sum("dfsgraph.odp", "perms"),
        "dfsgraph.odp.perms_per_s": note_sum("dfsgraph.odp", "perms") / odp_s if odp_s else 0.0,
        "dfsgraph.slice.calls": spans["dfsgraph.slice"]["calls"],
        "dfsgraph.slice.s": spans["dfsgraph.slice"]["s"],
        "dfsgraph.materialize.s": spans["dfsgraph.materialize"]["s"],
        "dfsgraph.materialize.witnesses": note_sum("dfsgraph.materialize", "witnesses"),
        "dfsgraph.export.s": spans["dfsgraph.export"]["s"],
        "permutations.gdescent.calls": totals["permutations.gdescent"][0],
        "permutations.gdescent.s": totals["permutations.gdescent"][1],
        "polynomials.gen_eulerian.s": spans["polynomials.gen_eulerian"]["s"],
        "polynomials.eulerian.s": spans["polynomials.eulerian"]["s"],
        "polynomials.expand.calls": spans["polynomials.expand"]["calls"],
        "polynomials.expand.s": spans["polynomials.expand"]["s"],
        "chromatic.chi.calls": spans["chromatic.chi"]["calls"],
        "chromatic.chi.s": spans["chromatic.chi"]["s"],
        "chromatic.memo_entries": trace["memo_entries"],
        "chromatic.peo_search.calls": peo["calls"],
        "chromatic.peo_search.s": peo["s"],
        "chromatic.peo_search.labelings_tried": note_sum("chromatic.peo_search", "tried"),
        "chromatic.peo_search.found_ratio": note_sum("chromatic.peo_search", "found") / peo["calls"]
        if peo["calls"] else 0.0,
        "chromatic.is_peo.calls": totals["chromatic.is_peo"][0],
        "chromatic.is_peo.s": totals["chromatic.is_peo"][1],
        "digraph.from_edges.calls": totals["digraph.from_edges"][0],
        "digraph.from_edges.s": totals["digraph.from_edges"][1],
        "digraph.complement.calls": totals["digraph.complement"][0],
    }
    # a module's self time: its spans' self time plus its aggregate calls,
    # which are leaves
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(d["self"] for name, d in spans.items() if name.startswith(module + "."))
            + sum(t for name, (_, t) in totals.items() if name.startswith(module + "."))
        )
    return m


def baseline_lines(workload, traced_replies):
    lines = []
    for label, wl, span, job_ids, ref in BASELINE:
        if wl != workload:
            continue
        for job_id in job_ids:
            # the longest such span: table-cyclic runs n = 2..8
            measured = statistics.median(
                max(s[2] - s[1] for s in r["trace"]["spans"] if s[0] == span and s[4] == job_id)
                for r in traced_replies)
            lines.append(f"  {label} [{job_id}, {span}]: {measured:.3f} s traced, "
                         f"ROADMAP {ref} s, ratio {measured / ref:.2f}")
    return lines


# -- environment -----------------------------------------------------------

def environment(args, python):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                    ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "seatgraphs").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": python,
        "git_commit": commit, "source_sha256": source.hexdigest(),
    }


def inputs_digest(jobs):
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


# -- a run -----------------------------------------------------------------

def measure(args, jobs):
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    measure_end = start + args.seconds
    kinds = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    setups = []
    longest = 0.0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        t0 = time.perf_counter()
        setups += [run_pass([], False, deadline)[0] for _ in range(SETUP_SAMPLES)]
        setup, reply = run_pass(jobs, traced, deadline)
        longest = max(longest, time.perf_counter() - t0)
        setups.append(setup)
        passes[traced].append(reply)
        i += 1
        if i >= len(kinds) and time.perf_counter() + longest > measure_end:
            break
    return setups, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "seatgraphs" / "cli.py").is_file():
        print(f"bench: no seatgraphs package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    jobs = workloads.build(args.workload, args.seed)
    try:
        setups, passes = measure(args, jobs)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    stats = {False: [], True: []}
    for traced, replies in passes.items():
        for reply in replies:
            failures = checks.check_pass(jobs, reply["jobs"])
            attempted += len(jobs)
            failed += len(failures)
            stats[traced].append(pass_stats(jobs, reply, failures))

    untraced = stats[False]
    e2e = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "cpu_s", "job_p50_s", "job_max_s", "peak_rss_mb"):
        e2e[key] = statistics.median(s[key] for s in untraced)

    layers = {}
    if args.trace:
        per_pass = [layer_metrics(r["trace"]) for r in passes[True]]
        layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        layers["trace_overhead_s"] = statistics.median(s["wall_s"] for s in stats[True]) - e2e["wall_s"]
        # a wrapper that was not installed, or a layer a workload no longer
        # reaches, must not read as a fast layer
        missing = [name for name, value in layers.items() if name != "trace_overhead_s" and not value]
        missing += [f"{name} (not rebound)" for r in passes[True] for name, n in r["trace"]["rebound"].items() if not n]
        if missing:
            print(f"bench: traced run recorded nothing for: {', '.join(sorted(set(missing)))}", file=sys.stderr)
            return 3

    env = environment(args, passes[False][0]["python"])
    summary = workloads.summarize(jobs)
    report(args, env, jobs, summary, setups, stats, e2e, layers, attempted, failed,
           baseline_lines(args.workload, passes[True]) if args.trace else [])
    record = {
        "environment": env,
        "inputs": {"sha256": inputs_digest(jobs), "summary": summary, "jobs": jobs},
        "setup_samples": setups,
        "passes": {"untraced": stats[False], "traced": stats[True]},
        "attempted": attempted, "failed": failed,
        "metrics": {**e2e, **layers},
        "traces": [r["trace"] for r in passes[True]],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in reported.items()},
    }))
    return 0


def report(args, env, jobs, summary, setups, stats, e2e, layers, attempted, failed, baseline):
    def say(line=""):
        print(line, file=sys.stderr)

    untraced = stats[False]
    main_jobs = [j for j in jobs if not j["probe"]]
    say(f"seatgraphs benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    say("environment: " + " ".join(f"{k}={v}" for k, v in env.items()
                                    if k not in ("workload", "seed", "seconds", "trace")))
    say(f"inputs: sha256={inputs_digest(jobs)[:16]} " + " ".join(f"{k}={v}" for k, v in summary.items()))
    say("jobs (median wall over untraced passes):")
    for job in jobs:
        wall = statistics.median(s["job_walls"][job["id"]] for s in untraced)
        props = " ".join(f"{k}={v}" for k, v in (job["props"] or {}).items())
        say(f"  {job['id']:<28} {wall:9.4f} s  {props}")
    say(f"passes: {len(untraced)} untraced, {len(stats[True])} traced; set-up samples {len(setups)}; "
        f"attempted {attempted} failed {failed} error_rate {failed / attempted:.4f}")
    say("pass wall_s: untraced " + " ".join(f"{s['wall_s']:.3f}" for s in untraced)
        + "; traced " + " ".join(f"{s['wall_s']:.3f}" for s in stats[True]))
    for s in untraced + stats[True]:
        for job_id, problems in s["failures"].items():
            say(f"  FAILED {job_id}: {'; '.join(problems)}")
    say(f"end-to-end (job_p50_s and job_max_s over {len(main_jobs)} jobs per pass, "
        f"median over {len(untraced)} passes):")
    for name, value in e2e.items():
        say(f"  {name:<40} {value:14.6f} {UNITS[name]}")
    if not layers:
        return
    say("per-layer (median over traced passes):")
    for name, value in layers.items():
        say(f"  {name:<40} {value:14.6f} {UNITS[name]}")
    traced_wall = statistics.median(s["wall_s"] for s in stats[True])
    say(f"self-time share of the traced wall time ({traced_wall:.3f} s):")
    for module in MODULES:
        say(f"  {module:<14} {layers[module + '.self_s'] / traced_wall:7.1%}")
    if baseline:
        say("ROADMAP baseline against the traced layer time:")
        for line in baseline:
            say(line)


# -- self-test -------------------------------------------------------------

def self_test():
    problems = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", file=sys.stderr)
        if not ok:
            problems.append(what)

    print("bench self-test:", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    expect(listed == set(END_TO_END), "BENCHMARK.json end_to_end matches the metrics reported with --trace 0")
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(listed == set(PER_LAYER), "BENCHMARK.json per_layer matches the metrics reported with --trace 1")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")

    for workload in workloads.WORKLOADS:
        same = inputs_digest(workloads.build(workload, 7)) == inputs_digest(workloads.build(workload, 7))
        expect(same, f"{workload}: equal seeds give identical inputs")
    expect(inputs_digest(workloads.build("odp", 7)) != inputs_digest(workloads.build("odp", 8)),
           "odp: different seeds give different inputs")

    jobs = workloads.probe_jobs()
    _, reply = run_pass(jobs, False, time.perf_counter() + HARD_LIMIT_S)
    expect(checks.check_pass(jobs, reply["jobs"]) == {}, "probe jobs pass their checks")
    corrupted = json.loads(json.dumps(jobs))
    target = next(j for j in corrupted if j["id"] == "probe/eulerian")
    target["check"]["rows"][-1][1] += 1
    failures = checks.check_pass(corrupted, reply["jobs"])
    expect(list(failures) == ["probe/eulerian"],
           f"a corrupted expected value fails exactly its job (error_rate {len(failures)}/{len(jobs)})")
    broken = [dict(r, out="") if r["id"] == "probe/slice" else r for r in reply["jobs"]]
    expect(list(checks.check_pass(jobs, broken)) == ["probe/slice"], "an unparseable output fails its job")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"), file=sys.stderr)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
