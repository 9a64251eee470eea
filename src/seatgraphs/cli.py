"""Command-line interface.

Commands
--------
gen     construct a named-family graph and emit JSON or DOT
odp     outdegree polynomial of a graph pair, with optional slices
verify  run one theorem verifier (or the hypothesis sweep)
table   Eulerian / cyclic-Eulerian coefficient rows as CSV

Graphs are accepted as named-family specs ("tour:4", "path:5",
"cycle:3"), inline JSON ('{"n":3,"edges":[[3,1]]}'), or a path to a
JSON file.  Exit codes: 0 success/holds, 1 a verdict failed, 2 usage
error, 3 resource bound exceeded, 4 internal error.  All output is
deterministic.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from pathlib import Path

from .digraph import Digraph, cycle, path, tour
from .dfsgraph import materialize, odp, odp_assign_slice, odp_edge_slice
from .identities import (
    Verdict,
    sweep_identity,
    verify_acyclic_potential,
    verify_automorphism,
    verify_cycle_base,
    verify_cycle_identity,
    verify_edge_removal,
    verify_generalized_equals_odp,
    verify_path_identity,
    verify_point_squish,
    verify_self_equivalent_slice,
)
from .limits import (DEFAULT_TRUNCATION, DFS_COMPARISON_BOUND, GEN_EULERIAN_BOUND, IDENTITY_BOUND,
                     MATERIALIZE_BOUND, ODP_BOUND, TABLE_BOUND, BoundExceededError, check_bound)
from .polynomials import eulerian_poly, generalized_eulerian_poly

_FAMILY_RE = re.compile(r"(tour|path|cycle):(\d+)")
_FAMILIES = {"tour": tour, "path": path, "cycle": cycle}

THEOREMS = (
    "automorphism",
    "acyclic",
    "edge-removal",
    "self-slice",
    "squish",
    "path-identity",
    "cycle-base",
    "cycle-identity",
    "gen-eulerian",
    "sweep",
)

# the bound on n each theorem's verifier applies (its default), checked
# on every graph spec before the graph is built
THEOREM_BOUNDS = {
    "automorphism": DFS_COMPARISON_BOUND,
    "acyclic": MATERIALIZE_BOUND,
    "edge-removal": IDENTITY_BOUND,
    "self-slice": IDENTITY_BOUND,
    "squish": IDENTITY_BOUND,
    "path-identity": IDENTITY_BOUND,
    "cycle-identity": IDENTITY_BOUND,
    "gen-eulerian": GEN_EULERIAN_BOUND,
}


class UsageError(Exception):
    pass


def parse_graph_spec(spec: str, what: str = "graph", bound: int | None = None) -> Digraph:
    """The graph a spec names.  ``n`` (the family suffix or the JSON
    field) is checked against ``bound`` before anything of that size is
    built, so an oversized spec exits 3 instead of exhausting memory."""
    m = _FAMILY_RE.fullmatch(spec)
    if m:
        n = int(m.group(2))
        check_bound(what, n, bound)
        return _FAMILIES[m.group(1)](n)
    if spec.lstrip().startswith("{"):
        text, source = spec, ""
    elif Path(spec).is_file():
        text, source = Path(spec).read_text(), f" in {spec}"
    else:
        raise UsageError(f"unrecognized graph spec: {spec!r}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid graph JSON{source}: {exc}") from exc
    if isinstance(obj, dict) and type(obj.get("n")) is int:
        check_bound(what, obj["n"], bound)
    return Digraph.from_json_obj(obj)


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must look like 'a,b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"{what} must be two integers, got {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise UsageError(f"range must look like '1..4' or '3', got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _default_truncation() -> int:
    raw = os.environ.get("SEATGRAPHS_M")
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SEATGRAPHS_M must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seatgraphs", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="construct a graph and print it")
    p_gen.add_argument("spec", help="tour:N | path:N | cycle:N | inline JSON | file")
    p_gen.add_argument("--format", choices=("json", "dot"), default="json")
    p_gen.add_argument("--output", "-o", default=None)

    p_odp = sub.add_parser("odp", help="outdegree polynomial of a graph pair")
    p_odp.add_argument("x_spec")
    p_odp.add_argument("y_spec")
    p_odp.add_argument("--slice", dest="slice_spec", default=None,
                       help="edge:a,b or assign:i,j")
    p_odp.add_argument("--format", choices=("text", "json"), default="text")
    p_odp.add_argument("--output", "-o", default=None)
    p_odp.add_argument("--unsafe-bounds", action="store_true")

    p_ver = sub.add_parser("verify", help="verify one theorem or run the sweep")
    p_ver.add_argument("theorem", choices=THEOREMS)
    p_ver.add_argument("--x", dest="x_spec", default=None)
    p_ver.add_argument("--y", dest="y_spec", default=None)
    p_ver.add_argument("--graph", dest="graph_spec", default=None)
    p_ver.add_argument("--edge", default=None, help="a,b for edge-removal")
    p_ver.add_argument("--pair", default=None, help="a,b for self-slice / squish")
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--M", dest="truncation", type=int, default=None)
    p_ver.add_argument("--cyclic", action="store_true", help="for gen-eulerian")
    p_ver.add_argument("--identity", choices=("path", "cycle"), default="path",
                       help="which identity the sweep runs")
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ver.add_argument("--output", "-o", default=None)
    p_ver.add_argument("--unsafe-bounds", action="store_true")

    p_tab = sub.add_parser("table", help="coefficient tables as CSV")
    p_tab.add_argument("kind", choices=("eulerian", "cyclic-eulerian"))
    p_tab.add_argument("--n", required=True, help="range like 1..4 or a single n")
    p_tab.add_argument("--output", "-o", default=None)
    p_tab.add_argument("--unsafe-bounds", action="store_true")

    p_dfs = sub.add_parser("dfs", help="materialize DFS(X, Y) and print it")
    p_dfs.add_argument("x_spec")
    p_dfs.add_argument("y_spec")
    p_dfs.add_argument("--format", choices=("json", "dot"), default="json")
    p_dfs.add_argument("--output", "-o", default=None)
    p_dfs.add_argument("--unsafe-bounds", action="store_true")

    return parser


def _unsafe(args) -> dict:
    # omitting bound leaves each function's default from limits.py
    return {"bound": None} if args.unsafe_bounds else {}


def _require(args, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise UsageError(f"this theorem requires {flag}")
    return value


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


def _verdict_text(name: str, verdict: Verdict) -> str:
    lines = [f"theorem: {name}", f"holds: {_format_bool(verdict.holds)}",
             f"checked_range: {verdict.checked_range}"]
    if verdict.certificates is not None:
        certs = " ".join(f"{k}={_format_bool(v)}" for k, v in verdict.certificates.items())
        lines.append(f"certificates: {certs}")
    if verdict.lhs_prefix is not None:
        lines.append(f"prefix: {verdict.lhs_prefix}")
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        lines.append(f"counterexample: {ce.inputs}")
        lines.append(f"  lhs: {ce.lhs}")
        lines.append(f"  rhs: {ce.rhs}")
    return "\n".join(lines) + "\n"


def _sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["graph_id", "n", "edges", "cert_X_chordal",
                     "cert_comp_chordal", "identity", "first_bad_m"])
    for r in rows:
        writer.writerow([
            r.graph_id, r.n, r.edges,
            _format_bool(r.cert_x_chordal), _format_bool(r.cert_comp_chordal),
            _format_bool(r.identity),
            "" if r.first_bad_m is None else r.first_bad_m,
        ])
    return buf.getvalue()


def run_gen(args) -> tuple[str, int]:
    graph = parse_graph_spec(args.spec)
    if args.format == "dot":
        return graph.to_dot(), 0
    return graph.to_json() + "\n", 0


def run_odp(args) -> tuple[str, int]:
    kind, _, rest = (args.slice_spec or "").partition(":")
    what = {"edge": "ODP edge slice", "assign": "ODP assignment slice"}.get(kind, "outdegree polynomial")
    bound = None if args.unsafe_bounds else ODP_BOUND
    X = parse_graph_spec(args.x_spec, what, bound)
    Y = parse_graph_spec(args.y_spec, what, bound)
    unsafe = _unsafe(args)
    if args.slice_spec is None:
        poly = odp(X, Y, **unsafe)
    elif kind == "edge":
        a, b = _parse_pair(rest, "--slice edge")
        poly = odp_edge_slice(X, Y, a, b, **unsafe)
    elif kind == "assign":
        i, j = _parse_pair(rest, "--slice assign")
        poly = odp_assign_slice(X, Y, i, j, **unsafe)
    else:
        raise UsageError(f"unknown slice kind {kind!r}; use edge:a,b or assign:i,j")
    if args.format == "json":
        return json.dumps(list(poly.coeffs), separators=(",", ":")) + "\n", 0
    return poly.format() + "\n", 0


def run_dfs(args) -> tuple[str, int]:
    bound = None if args.unsafe_bounds else MATERIALIZE_BOUND
    X = parse_graph_spec(args.x_spec, "DFS materialization", bound)
    Y = parse_graph_spec(args.y_spec, "DFS materialization", bound)
    dfs = materialize(X, Y, **_unsafe(args))
    if args.format == "dot":
        return dfs.to_dot(), 0
    return dfs.to_json() + "\n", 0


def run_verify(args) -> tuple[str, int]:
    truncation = args.truncation if args.truncation is not None else _default_truncation()
    name = args.theorem
    unsafe = _unsafe(args)

    if name == "sweep":
        n = _require(args, "n", "--n")
        rows = sweep_identity(n, truncation, which=args.identity, **unsafe)
        ok = all(r.identity for r in rows)
        if args.format == "json":
            text = json.dumps([r.to_json_obj() for r in rows], separators=(",", ":")) + "\n"
        else:
            text = _sweep_csv(rows)
        return text, 0 if ok else 1

    bound = None if args.unsafe_bounds else THEOREM_BOUNDS.get(name)

    def graph(attr: str, flag: str):
        return parse_graph_spec(_require(args, attr, flag), f"{name} verification", bound)

    if name == "automorphism":
        verdict = verify_automorphism(graph("x_spec", "--x"), graph("y_spec", "--y"), **unsafe)
    elif name == "acyclic":
        verdict = verify_acyclic_potential(graph("x_spec", "--x"), graph("y_spec", "--y"), **unsafe)
    elif name == "edge-removal":
        a, b = _parse_pair(_require(args, "edge", "--edge"), "--edge")
        verdict = verify_edge_removal(graph("x_spec", "--x"), graph("y_spec", "--y"), a, b, **unsafe)
    elif name == "self-slice":
        a, b = _parse_pair(_require(args, "pair", "--pair"), "--pair")
        verdict = verify_self_equivalent_slice(graph("x_spec", "--x"), graph("y_spec", "--y"), a, b, **unsafe)
    elif name == "squish":
        a, b = _parse_pair(_require(args, "pair", "--pair"), "--pair")
        verdict = verify_point_squish(graph("x_spec", "--x"), graph("y_spec", "--y"), a, b, **unsafe)
    elif name == "path-identity":
        verdict = verify_path_identity(graph("graph_spec", "--graph"), truncation, **unsafe)
    elif name == "cycle-base":
        verdict = verify_cycle_base(_require(args, "n", "--n"), truncation, **unsafe)
    elif name == "cycle-identity":
        verdict = verify_cycle_identity(graph("graph_spec", "--graph"), truncation, **unsafe)
    elif name == "gen-eulerian":
        verdict = verify_generalized_equals_odp(graph("graph_spec", "--graph"), args.cyclic, **unsafe)
    else:  # pragma: no cover - argparse already constrains the choices
        raise UsageError(f"unknown theorem {name!r}")

    if args.format == "csv":
        raise UsageError("csv output is only available for the sweep")
    if args.format == "json":
        text = verdict.to_json() + "\n"
    else:
        text = _verdict_text(name, verdict)
    return text, 0 if verdict.holds else 1


def run_table(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.n)
    # only the cyclic table enumerates S_n; eulerian_poly is a recurrence
    bound = None if args.unsafe_bounds else TABLE_BOUND
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for n in range(lo, hi + 1):
        if args.kind == "eulerian":
            poly = eulerian_poly(n)
            width = n
        else:
            if n < 2:
                raise UsageError("cyclic-eulerian tables start at n=2")
            check_bound("generalized Eulerian polynomial", n, bound)  # before tour(n) is built
            poly = generalized_eulerian_poly(tour(n), cyclic=True, bound=bound)
            width = n
        writer.writerow([poly[m] for m in range(width)])
    return buf.getvalue(), 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "gen": run_gen,
        "odp": run_odp,
        "dfs": run_dfs,
        "verify": run_verify,
        "table": run_table,
    }
    try:
        text, code = runners[args.command](args)
    except BoundExceededError as exc:
        print(f"seatgraphs: resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"seatgraphs: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a verdict: keep it off exit 1 and out of a traceback
        print(f"seatgraphs: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"seatgraphs: error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
