"""Command-line interface.

Commands
--------
gen     construct a named-family graph and emit JSON or DOT
odp     outdegree polynomial of a graph pair, with optional slices
verify  run one theorem verifier (or the hypothesis sweep)
table   Eulerian / cyclic-Eulerian coefficient rows as CSV
dfs     the graph DFS(X, Y) as DOT or JSON

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
from contextlib import contextmanager
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator

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
from .limits import DEFAULT_TRUNCATION, INPUT_BOUND, WORK_BOUND, BoundExceededError, check_bound
from .permutations import WORD_MAX_N
from .polynomials import eulerian_poly, eulerian_step, generalized_eulerian_poly

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


class UsageError(Exception):
    pass


@contextmanager
def _exact_digits():
    """Format integers of any length.  Python's int-to-str digit limit
    (3.10.7+) guards parsing untrusted input against quadratic time, so
    it is lifted only around the formatting of exact results."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _check_input(argument: str, value: int, unsafe: bool) -> int:
    """The input bound: each size built from one argument is checked
    here before anything of that size is built, so an oversized argument
    exits 3 instead of exhausting memory.  Work is priced by the
    operation that does it; the CLI prices only `table eulerian`."""
    if value > INPUT_BOUND and not unsafe:
        raise BoundExceededError(f"{argument} is {value}, above the input bound {INPUT_BOUND}")
    return value


def parse_graph_spec(spec: str, unsafe: bool = False) -> Digraph:
    """The graph a spec names, its ``n`` (the family suffix or the JSON
    field) checked against the input bound first."""
    m = _FAMILY_RE.fullmatch(spec)
    if m:
        n = _check_input("a graph spec's n", int(m.group(2)), unsafe)
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
        _check_input("a graph spec's n", obj["n"], unsafe)
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


def _truncation(args) -> int:
    """``--M``, else ``SEATGRAPHS_M``, else the default."""
    if args.truncation is not None:
        return _check_input("--M", args.truncation, args.unsafe_bounds)
    raw = os.environ.get("SEATGRAPHS_M")
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"SEATGRAPHS_M must be an integer, got {raw!r}")
    return _check_input("SEATGRAPHS_M", value, args.unsafe_bounds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seatgraphs", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # options every command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", default=None)
    common.add_argument("--unsafe-bounds", action="store_true",
                        help="lift the input bound and the work bound")

    p_gen = sub.add_parser("gen", parents=[common], help="construct a graph and print it")
    p_gen.add_argument("spec", help="tour:N | path:N | cycle:N | inline JSON | file")
    p_gen.add_argument("--format", choices=("json", "dot"), default="json")

    p_odp = sub.add_parser("odp", parents=[common], help="outdegree polynomial of a graph pair")
    p_odp.add_argument("x_spec")
    p_odp.add_argument("y_spec")
    p_odp.add_argument("--slice", dest="slice_spec", default=None,
                       help="edge:a,b or assign:i,j")
    p_odp.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", parents=[common], help="verify one theorem or run the sweep")
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

    p_tab = sub.add_parser("table", parents=[common], help="coefficient tables as CSV")
    p_tab.add_argument("kind", choices=("eulerian", "cyclic-eulerian"))
    p_tab.add_argument("--n", required=True, help="range like 1..4 or a single n")

    p_dfs = sub.add_parser("dfs", parents=[common], help="print DFS(X, Y) as DOT or JSON, a vertex at a time")
    p_dfs.add_argument("x_spec")
    p_dfs.add_argument("y_spec")
    p_dfs.add_argument("--format", choices=("json", "dot"), default="json")

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
    """The rows' JSON objects as CSV, one at a time, the header their keys
    (a sweep has at least one row); csv writes None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].to_json_obj())
    writer.writerows([_format_bool(v) if isinstance(v, bool) else v for v in r.to_json_obj().values()] for r in rows)
    return buf.getvalue()


def run_gen(args) -> tuple[str, int]:
    graph = parse_graph_spec(args.spec, args.unsafe_bounds)
    if args.format == "dot":
        return graph.to_dot(), 0
    return graph.to_json() + "\n", 0


def run_odp(args) -> tuple[str, int]:
    kind, _, rest = (args.slice_spec or "").partition(":")
    X = parse_graph_spec(args.x_spec, args.unsafe_bounds)
    Y = parse_graph_spec(args.y_spec, args.unsafe_bounds)
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


def run_dfs(args) -> tuple[Iterator[str], int]:
    """The graph's DOT or JSON, a vertex at a time as it is written.
    DOT's one-line words bound n, checked before any vertex is built."""
    X = parse_graph_spec(args.x_spec, args.unsafe_bounds)
    Y = parse_graph_spec(args.y_spec, args.unsafe_bounds)
    if args.format == "dot" and X.n > WORD_MAX_N:
        raise UsageError(f"DOT output names vertices by one-line words, defined only for n <= {WORD_MAX_N} "
                         f"(n={X.n}); use --format json")
    dfs = materialize(X, Y, **_unsafe(args))
    if args.format == "dot":
        return dfs.to_dot(), 0
    return chain(dfs.to_json(), ["\n"]), 0


def run_verify(args) -> tuple[str, int]:
    truncation = _truncation(args)
    name = args.theorem
    if args.format == "csv" and name != "sweep":
        raise UsageError("csv output is only available for the sweep")
    unsafe = _unsafe(args)

    if name == "sweep":
        n = _check_input("--n", _require(args, "n", "--n"), args.unsafe_bounds)
        rows = sweep_identity(n, truncation, which=args.identity, **unsafe)
        ok = all(r.identity for r in rows)
        if args.format == "json":
            text = json.dumps([r.to_json_obj() for r in rows], separators=(",", ":")) + "\n"
        else:
            text = _sweep_csv(rows)
        return text, 0 if ok else 1

    def graph(attr: str, flag: str):
        return parse_graph_spec(_require(args, attr, flag), args.unsafe_bounds)

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
        n = _check_input("--n", _require(args, "n", "--n"), args.unsafe_bounds)
        verdict = verify_cycle_base(n, truncation, **unsafe)
    elif name == "cycle-identity":
        verdict = verify_cycle_identity(graph("graph_spec", "--graph"), truncation, **unsafe)
    elif name == "gen-eulerian":
        verdict = verify_generalized_equals_odp(graph("graph_spec", "--graph"), args.cyclic, **unsafe)
    else:  # pragma: no cover - argparse already constrains the choices
        raise UsageError(f"unknown theorem {name!r}")

    if args.format == "json":
        text = verdict.to_json() + "\n"
    else:
        text = _verdict_text(name, verdict)
    return text, 0 if verdict.holds else 1


def run_table(args) -> tuple[Iterator[str], int]:
    """The table's CSV lines, produced one row at a time as they are
    written.  Every bound is checked before the first row."""
    lo, hi = _parse_range(args.n)
    _check_input("the top of --n", hi, args.unsafe_bounds)
    if args.kind == "eulerian":
        if not args.unsafe_bounds:
            # k^2 steps for row k: k coefficients of about k log k bits
            check_bound(f"table eulerian --n {args.n}", sum(k * k for k in range(lo, hi + 1)), WORK_BOUND)
        rows = accumulate(range(lo + 1, hi + 1), eulerian_step, initial=eulerian_poly(lo))
    elif lo < 2:
        raise UsageError("cyclic-eulerian tables start at n=2")
    else:
        # top row first: it is the dearest, so a range past the bound computes no row
        rows = [generalized_eulerian_poly(tour(n), cyclic=True, **_unsafe(args)) for n in range(hi, lo - 1, -1)][::-1]

    def lines():
        for n, poly in zip(range(lo, hi + 1), rows):
            with _exact_digits():
                line = ",".join([str(poly[m]) for m in range(n)]) + "\n"
            yield line

    return lines(), 0


def _write(text: str | Iterable[str], output: str | None) -> None:
    """Write the output to ``output``, else to stdout, a chunk at a time."""
    chunks = [text] if isinstance(text, str) else text
    if not output:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc.strerror}") from exc


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
        _write(text, args.output)
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
    return code


if __name__ == "__main__":
    raise SystemExit(main())
