"""Output checks for benchmark jobs.

Every check compares a job's exit code and stdout with expectations
from ``workloads.py``; none calls the package.  A job fails on a wrong
exit code, a traceback on stderr, an output that does not parse, or a
value that disagrees with its expectation.
"""
from __future__ import annotations

import csv
import io
import json
from math import factorial

from workloads import sweep_rows

_sweep_cache: dict[int, dict] = {}


def check_odp(check, code, out):
    coeffs = json.loads(out)
    problems = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    if "coeffs" in check:
        if coeffs != check["coeffs"]:
            problems.append(f"coefficients {coeffs} != {check['coeffs']}")
    if "sum" in check and sum(coeffs) != check["sum"]:
        problems.append(f"coefficients sum to {sum(coeffs)}, expected {check['sum']}")
    return problems, coeffs


def check_verdict(check, code, out):
    verdict = json.loads(out)
    holds, certs = verdict["holds"], verdict.get("certificates") or {}
    problems = []
    if code != (0 if holds else 1):
        problems.append(f"exit {code} with holds={holds}")
    if "holds" in check and holds != check["holds"]:
        problems.append(f"holds={holds}, expected {check['holds']}")
    if certs.get("complement_peo") and not holds:
        problems.append("complement_peo certificate is true but the identity fails")
    for key in ("x_chordal", "complement_peo"):
        if key in check and certs.get(key) != check[key]:
            problems.append(f"certificate {key}={certs.get(key)}, expected {check[key]}")
    return problems, holds


def check_sweep(check, code, out):
    n = check["n"]
    if n not in _sweep_cache:
        _sweep_cache[n] = sweep_rows(n)
    expected = _sweep_cache[n]
    rows = list(csv.DictReader(io.StringIO(out)))
    problems = []
    if [int(r["graph_id"]) for r in rows] != list(expected):
        problems.append(f"{len(rows)} rows, expected ids 0..{len(expected) - 1}")
        return problems, None
    failing = 0
    for r in rows:
        edges, x_chordal, comp_peo = expected[int(r["graph_id"])]
        identity = r["identity"] == "true"
        failing += not identity
        got = (r["edges"], r["cert_X_chordal"] == "true", r["cert_comp_chordal"] == "true")
        if got != (edges, x_chordal, comp_peo):
            problems.append(f"row {r['graph_id']}: {got} != {(edges, x_chordal, comp_peo)}")
        if comp_peo and not identity:
            problems.append(f"row {r['graph_id']}: complement_peo true but identity false")
    if code != (1 if failing else 0):
        problems.append(f"exit {code} with {failing} failing rows")
    return problems[:5], failing


def check_table(check, code, out):
    rows = [[int(c) for c in row] for row in csv.reader(io.StringIO(out))]
    problems = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    if rows != check["rows"]:
        problems.append(f"rows {rows} != {check['rows']}")
    for row in rows:
        if sum(row) != factorial(len(row)):
            problems.append(f"row {row} does not sum to {len(row)}!")
    return problems, None


def check_dfs(check, code, out):
    obj = json.loads(out)
    problems = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    vertices = {tuple(v) for v in obj["vertices"]}
    if len(obj["vertices"]) != check["vertices"] or len(vertices) != check["vertices"]:
        problems.append(f"{len(obj['vertices'])} vertices ({len(vertices)} distinct), expected {check['vertices']}")
    if len(obj["edges"]) != check["edges"]:
        problems.append(f"{len(obj['edges'])} edges, expected {check['edges']}")
    return problems, None


CHECKS = {"odp": check_odp, "verdict": check_verdict, "sweep": check_sweep,
          "table": check_table, "dfs": check_dfs}


def check_pass(jobs, results):
    """Problems per job id for one pass; a job with problems has failed."""
    failures = {}
    values = {}
    for job, res in zip(jobs, results):
        check = job["check"]
        if res["id"] != job["id"]:
            raise RuntimeError(f"worker answered {res['id']} for job {job['id']}")
        if res["code"] is None or "Traceback" in res["err"]:
            failures[job["id"]] = ["raised: " + res["err"].strip().splitlines()[-1] if res["err"].strip() else "raised"]
            continue
        try:
            problems, values[job["id"]] = CHECKS[check["kind"]](check, res["code"], res["out"])
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unparseable output: {exc!r}"]
        if "same_as" in check and check["same_as"] in values and values[check["same_as"]] != values.get(job["id"]):
            problems.append(f"differs from {check['same_as']}: {values.get(job['id'])} != {values[check['same_as']]}")
        if problems:
            failures[job["id"]] = problems
    return failures
