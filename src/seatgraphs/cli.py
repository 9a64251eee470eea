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
JSON file.  Every integer read from argv (a family's n, a number in
graph JSON, --n, --M, --edge, --pair, --slice's pair) is refused past
15 digits before Python converts it, and a size is checked against the
input bound before anything of that size is built; --M alone sets the
truncation.  Exit codes: 0 success/holds, 1 a verdict failed, 2 usage
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
from functools import cache
from itertools import accumulate, chain
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


# a number longer than this is named by its count of digits, not echoed
_SHOWN_DIGITS = 15


def _check_input(argument: str, value: int, unsafe: bool) -> int:
    """The input bound: each size built from one argument is checked
    here before anything of that size is built, so an oversized argument
    exits 3 instead of exhausting memory.  Work is priced by the
    operation that does it; the CLI prices only `table eulerian`."""
    if value > INPUT_BOUND and not unsafe:
        shown = f"has {len(str(value))} digits" if value >= 10 ** _SHOWN_DIGITS else f"is {value}"
        raise BoundExceededError(f"{argument} {shown}, above the input bound {INPUT_BOUND}")
    return value


def _to_int(argument: str, text: str, unsafe: bool) -> int:
    """``text``, an integer in decimal, converted only once its count of
    digits is checked: a number that long is far above the input bound,
    and past 4 300 digits Python refuses to convert it.  Text that is not
    an integer is left to ``int``, whose ValueError is a usage error."""
    digits = text.lstrip("-0")
    if len(digits) > _SHOWN_DIGITS and digits.isdigit() and not unsafe:
        raise BoundExceededError(f"{argument} has {len(digits)} digits, above the input bound {INPUT_BOUND}")
    return int(text)


def parse_graph_spec(spec: str, unsafe: bool = False) -> Digraph:
    """The graph a spec names, its ``n`` (the family suffix or the JSON
    field) checked against the input bound first."""
    m = _FAMILY_RE.fullmatch(spec)
    if m:
        n = _check_input("a graph spec's n", _to_int("a graph spec's n", m.group(2), unsafe), unsafe)
        return _FAMILIES[m.group(1)](n)
    if spec.lstrip().startswith("{"):
        text, source = spec, ""
    elif os.path.isfile(spec):
        source = f" in {spec}"
        try:
            with open(spec) as f:
                text = f.read()
        except OSError as exc:
            raise UsageError(f"cannot read graph{source}: {exc.strerror}") from exc
    else:
        raise UsageError(f"unrecognized graph spec: {spec!r}")
    try:
        obj = json.loads(text, parse_int=lambda digits: _to_int("a number in a graph spec", digits, unsafe))
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid graph JSON{source}: {exc}") from exc
    if isinstance(obj, dict) and type(obj.get("n")) is int:
        _check_input("a graph spec's n", obj["n"], unsafe)
    return Digraph.from_json_obj(obj)


def _parse_pair(text: str, what: str, unsafe: bool) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must look like 'a,b', got {text!r}")
    try:
        return _to_int(what, parts[0], unsafe), _to_int(what, parts[1], unsafe)
    except ValueError as exc:
        raise UsageError(f"{what} must be two integers, got {text!r}") from exc


def _parse_range(text: str, unsafe: bool) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise UsageError(f"range must look like '1..4' or '3', got {text!r}")
    lo = _to_int("--n", m.group(1), unsafe)
    hi = _to_int("--n", m.group(2), unsafe) if m.group(2) else lo
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process; each
    subcommand's runner is its default ``run``."""
    parser = argparse.ArgumentParser(prog="seatgraphs", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # options every command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", default=None)
    common.add_argument("--unsafe-bounds", action="store_true",
                        help="lift the input bound and the work bound")

    p_gen = sub.add_parser("gen", parents=[common], help="construct a graph and print it")
    p_gen.set_defaults(run=run_gen)
    p_gen.add_argument("spec", help="tour:N | path:N | cycle:N | inline JSON | file")
    p_gen.add_argument("--format", choices=("json", "dot"), default="json")

    p_odp = sub.add_parser("odp", parents=[common], help="outdegree polynomial of a graph pair")
    p_odp.set_defaults(run=run_odp)
    p_odp.add_argument("x_spec")
    p_odp.add_argument("y_spec")
    p_odp.add_argument("--slice", dest="slice_spec", default=None,
                       help="edge:a,b or assign:i,j")
    p_odp.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", parents=[common], help="verify one theorem or run the sweep")
    p_ver.set_defaults(run=run_verify)
    p_ver.add_argument("theorem", choices=_VERIFY)
    p_ver.add_argument("--x", dest="x_spec", default=None)
    p_ver.add_argument("--y", dest="y_spec", default=None)
    p_ver.add_argument("--graph", dest="graph_spec", default=None)
    p_ver.add_argument("--edge", default=None, help="a,b for edge-removal")
    p_ver.add_argument("--pair", default=None, help="a,b for self-slice / squish")
    p_ver.add_argument("--n", default=None)
    p_ver.add_argument("--M", dest="truncation", default=str(DEFAULT_TRUNCATION))
    p_ver.add_argument("--cyclic", action="store_true", help="for gen-eulerian")
    p_ver.add_argument("--identity", choices=("path", "cycle"), default="path",
                       help="which identity the sweep runs")
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_tab = sub.add_parser("table", parents=[common], help="coefficient tables as CSV")
    p_tab.set_defaults(run=run_table)
    p_tab.add_argument("kind", choices=("eulerian", "cyclic-eulerian"))
    p_tab.add_argument("--n", required=True, help="range like 1..4 or a single n")

    p_dfs = sub.add_parser("dfs", parents=[common], help="print DFS(X, Y) as DOT or JSON, a vertex at a time")
    p_dfs.set_defaults(run=run_dfs)
    p_dfs.add_argument("x_spec")
    p_dfs.add_argument("y_spec")
    p_dfs.add_argument("--format", choices=("json", "dot"), default="json")

    return parser


def _require(args, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise UsageError(f"this theorem requires {flag}")
    return value


def _int_flag(args, attr: str, flag: str) -> int:
    """The integer ``flag`` gives, required and within the input bound."""
    return _check_input(flag, _to_int(flag, _require(args, attr, flag), args.unsafe_bounds), args.unsafe_bounds)


def _graph(args, attr: str = "graph_spec", flag: str = "--graph") -> Digraph:
    return parse_graph_spec(_require(args, attr, flag), args.unsafe_bounds)


def _xy(args, pair: str | None = None) -> tuple:
    """X and Y from --x and --y, followed by a and b from --edge or --pair
    when ``pair`` names one; the pair is read before the graphs."""
    ab = _parse_pair(_require(args, pair, f"--{pair}"), f"--{pair}", args.unsafe_bounds) if pair else ()
    return (_graph(args, "x_spec", "--x"), _graph(args, "y_spec", "--y"), *ab)


# theorem -> the call of its verifier, given the args, the truncation M
# and the work bound.  Each names its verifier at call time, so a
# function replaced on this module is the one called.
_VERIFY = {
    "automorphism": lambda args, M, bound: verify_automorphism(*_xy(args), bound=bound),
    "acyclic": lambda args, M, bound: verify_acyclic_potential(*_xy(args), bound=bound),
    "edge-removal": lambda args, M, bound: verify_edge_removal(*_xy(args, "edge"), bound=bound),
    "self-slice": lambda args, M, bound: verify_self_equivalent_slice(*_xy(args, "pair"), bound=bound),
    "squish": lambda args, M, bound: verify_point_squish(*_xy(args, "pair"), bound=bound),
    "path-identity": lambda args, M, bound: verify_path_identity(_graph(args), M, bound=bound),
    "cycle-base": lambda args, M, bound: verify_cycle_base(_int_flag(args, "n", "--n"), M, bound=bound),
    "cycle-identity": lambda args, M, bound: verify_cycle_identity(_graph(args), M, bound=bound),
    "gen-eulerian": lambda args, M, bound: verify_generalized_equals_odp(_graph(args), args.cyclic, bound=bound),
    "sweep": lambda args, M, bound: sweep_identity(_int_flag(args, "n", "--n"), M, which=args.identity,
                                                   bound=bound),
}


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


def run_gen(args, bound: int | None) -> tuple[str, int]:
    graph = parse_graph_spec(args.spec, args.unsafe_bounds)
    if args.format == "dot":
        return graph.to_dot(), 0
    return graph.to_json() + "\n", 0


def run_odp(args, bound: int | None) -> tuple[str, int]:
    kind, _, rest = (args.slice_spec or "").partition(":")
    X = parse_graph_spec(args.x_spec, args.unsafe_bounds)
    Y = parse_graph_spec(args.y_spec, args.unsafe_bounds)
    if args.slice_spec is None:
        poly = odp(X, Y, bound=bound)
    elif kind == "edge":
        a, b = _parse_pair(rest, "--slice edge", args.unsafe_bounds)
        poly = odp_edge_slice(X, Y, a, b, bound=bound)
    elif kind == "assign":
        i, j = _parse_pair(rest, "--slice assign", args.unsafe_bounds)
        poly = odp_assign_slice(X, Y, i, j, bound=bound)
    else:
        raise UsageError(f"unknown slice kind {kind!r}; use edge:a,b or assign:i,j")
    if args.format == "json":
        return json.dumps(list(poly.coeffs), separators=(",", ":")) + "\n", 0
    return poly.format() + "\n", 0


def run_dfs(args, bound: int | None) -> tuple[Iterator[str], int]:
    """The graph's DOT or JSON, a vertex at a time as it is written.
    DOT's one-line words bound n, checked before any vertex is built."""
    X = parse_graph_spec(args.x_spec, args.unsafe_bounds)
    Y = parse_graph_spec(args.y_spec, args.unsafe_bounds)
    if args.format == "dot" and X.n > WORD_MAX_N:
        raise UsageError(f"DOT output names vertices by one-line words, defined only for n <= {WORD_MAX_N} "
                         f"(n={X.n}); use --format json")
    dfs = materialize(X, Y, bound=bound)
    if args.format == "dot":
        return dfs.to_dot(bound=bound), 0
    return chain(dfs.to_json(), ["\n"]), 0


def run_verify(args, bound: int | None) -> tuple[str, int]:
    truncation = _int_flag(args, "truncation", "--M")
    if args.format == "csv" and args.theorem != "sweep":
        raise UsageError("csv output is only available for the sweep")
    result = _VERIFY[args.theorem](args, truncation, bound)
    if isinstance(result, Verdict):
        text = result.to_json() + "\n" if args.format == "json" else _verdict_text(args.theorem, result)
        return text, 0 if result.holds else 1
    # the sweep's rows
    if args.format == "json":
        text = json.dumps([r.to_json_obj() for r in result], separators=(",", ":")) + "\n"
    else:
        text = _sweep_csv(result)
    return text, 0 if all(r.identity for r in result) else 1


def run_table(args, bound: int | None) -> tuple[Iterator[str], int]:
    """The table's CSV lines, produced one row at a time as they are
    written.  Every bound is checked before the first row."""
    lo, hi = _parse_range(args.n, args.unsafe_bounds)
    _check_input("the top of --n", hi, args.unsafe_bounds)
    if args.kind == "eulerian":
        # k^2 steps for row k: k coefficients of about k log k bits
        check_bound(f"table eulerian --n {args.n}", sum(k * k for k in range(lo, hi + 1)), bound)
        rows = accumulate(range(lo + 1, hi + 1), eulerian_step, initial=eulerian_poly(lo))
    elif lo < 2:
        raise UsageError("cyclic-eulerian tables start at n=2")
    else:
        # top row first: it is the dearest, so a range past the bound computes no row
        rows = [generalized_eulerian_poly(tour(n), cyclic=True, bound=bound) for n in range(hi, lo - 1, -1)][::-1]

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
    args = build_parser().parse_args(argv)
    try:
        # one work bound for every operation: None lifts it
        text, code = args.run(args, None if args.unsafe_bounds else WORK_BOUND)
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
