import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatgraphs import cli, dfsgraph, identities, polynomials
from seatgraphs.dfsgraph import materialize
from seatgraphs.digraph import cycle, tour
from seatgraphs.polynomials import Polynomial

import oracles


README = Path(__file__).resolve().parent.parent / "README.md"


def reference_dfs(x, y, fmt):
    """``dfs``'s stdout for the graph JSON objects x and y, formatted here
    from ``oracles.brute_dfs_witnesses``: vertices in lexicographic order,
    each vertex's witnesses in (a, b) order, a DOT edge repeated by its
    multiplicity."""
    n = x["n"]
    vertices = list(itertools.permutations(range(1, n + 1)))
    witnesses = [w for row in oracles.brute_dfs_witnesses(n, x["edges"], y["edges"]) for w in row]
    if fmt == "dot":
        name = {v: "".join(map(str, v)) for v in vertices}
        return ("digraph {\n" + "".join(f'  "{name[v]}";\n' for v in vertices)
                + "".join(f'  "{name[s]}" -> "{name[t]}";\n' * m for s, _, _, t, m in witnesses) + "}\n")
    position = {v: i for i, v in enumerate(vertices)}
    edges = [{"from": position[s], "to": position[t], "a": a, "b": b, "mult": m} for s, a, b, t, m in witnesses]
    return json.dumps({"n": n, "vertices": vertices, "edges": edges}, separators=(",", ":")) + "\n"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "seatgraphs", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestGen:
    def test_tour_json(self):
        r = run_cli("gen", "tour:3", "--format", "json")
        assert r.returncode == 0
        assert r.stdout == '{"n":3,"edges":[[2,1],[3,1],[3,2]]}\n'

    def test_cycle2_multigraph_json(self):
        r = run_cli("gen", "cycle:2", "--format", "json")
        assert json.loads(r.stdout)["edges"] == [[1, 2], [2, 1]]

    def test_path1(self):
        r = run_cli("gen", "path:1")
        assert r.stdout == '{"n":1,"edges":[]}\n'

    def test_dot(self):
        r = run_cli("gen", "path:2", "--format", "dot")
        assert r.stdout == "digraph {\n  1;\n  2;\n  1 -> 2;\n}\n"

    def test_inline_json_input(self):
        r = run_cli("gen", '{"n":3,"edges":[[3,1]]}')
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"n": 3, "edges": [[3, 1]]}

    def test_file_input(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"n":2,"edges":[[2,1]]}')
        r = run_cli("gen", str(p))
        assert json.loads(r.stdout) == {"n": 2, "edges": [[2, 1]]}

    def test_bad_spec_is_usage_error(self):
        r = run_cli("gen", "bogus:3")
        assert r.returncode == 2
        assert "unrecognized graph spec" in r.stderr

    @pytest.mark.parametrize("spec, field", [
        ('{"n":"3","edges":[]}', "n"),
        ('{"n":[1,2,3],"edges":[]}', "n"),
        ('{"n":true,"edges":[]}', "n"),
        ('{"n":3,"labels":"abc","edges":[]}', "labels"),
        ('{"n":3,"labels":[1,2,2],"edges":[]}', "labels"),
        ('{"n":3,"labels":[2,3,7],"edges":[[3,2],[7,3]]}', "labels"),
        ('{"n":3,"edges":[[3,1,5]]}', "edges"),
        ('{"n":3,"edges":[[true,1]]}', "edges"),
    ], ids=["n-string", "n-list", "n-bool", "labels-string", "labels-repeated", "labels-not-1..n", "edge-triple",
            "edge-bool"])
    def test_malformed_graph_json_is_usage_error(self, spec, field):
        r = run_cli("gen", spec)
        assert r.returncode == 2
        assert f"seatgraphs: error: graph field '{field}'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_labels_not_1_to_n_rejected_before_enumeration(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("S_n was enumerated")

        monkeypatch.setattr(polynomials, "enumerate_perms", never)
        spec = '{"n":3,"labels":[2,3,7],"edges":[[3,2],[7,3]]}'
        errors = []
        for argv in (["odp", spec, "path:3"], ["verify", "gen-eulerian", "--graph", spec]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("seatgraphs: error: graph field 'labels' must be exactly 1..3")


class TestOdp:
    def test_text(self):
        r = run_cli("odp", "tour:3", "path:3")
        assert r.stdout == "1 + 4*x + 1*x^2\n"

    def test_cycle_text(self):
        r = run_cli("odp", "tour:3", "cycle:3")
        assert r.stdout == "3*x + 3*x^2\n"

    def test_edge_slice(self):
        r = run_cli("odp", "tour:3", "path:3", "--slice", "edge:2,1")
        assert r.stdout == "1*x + 1*x^2\n"

    def test_assign_slice(self):
        r = run_cli("odp", "tour:3", "cycle:3", "--slice", "assign:1,3")
        assert r.stdout == "1*x + 1*x^2\n"

    def test_json_coefficients(self):
        r = run_cli("odp", "tour:3", "path:3", "--format", "json")
        assert r.stdout == "[1,4,1]\n"

    def test_size_mismatch_is_usage_error(self):
        r = run_cli("odp", "tour:3", "path:4")
        assert r.returncode == 2

    def test_unsafe_bounds_lifts_the_limit(self):
        r = run_cli("odp", "tour:4", "path:4", "--unsafe-bounds")
        assert r.returncode == 0


class TestBounds:
    # each bounded command at the first tour/path/cycle n its operation's
    # price refuses, plus the cheap --unsafe-bounds rows; a sweep row may
    # fail its identity (exit 1)
    @pytest.mark.parametrize("argv, codes", [
        pytest.param(("odp", "tour:11", "tour:11"), {3}, id="odp"),
        pytest.param(("odp", "tour:11", "tour:11", "--slice", "edge:2,1"), {3}, id="odp-edge-slice"),
        pytest.param(("odp", "tour:11", "tour:11", "--slice", "assign:1,1"), {3}, id="odp-assign-slice"),
        pytest.param(("dfs", "tour:9", "tour:9"), {3}, id="dfs"),
        pytest.param(("verify", "sweep", "--n", "6"), {3}, id="sweep"),
        pytest.param(("verify", "automorphism", "--x", "tour:9", "--y", "tour:9"), {3}, id="automorphism"),
        pytest.param(("verify", "acyclic", "--x", "tour:9", "--y", "tour:9"), {3}, id="acyclic"),
        pytest.param(("verify", "edge-removal", "--x", "tour:11", "--y", "tour:11", "--edge", "2,1"), {3},
                     id="edge-removal"),
        pytest.param(("verify", "self-slice", "--x", "tour:11", "--y", "tour:11", "--pair", "2,1"), {3},
                     id="self-slice"),
        pytest.param(("verify", "squish", "--x", "tour:11", "--y", "tour:11", "--pair", "2,1"), {3}, id="squish"),
        pytest.param(("verify", "path-identity", "--graph", "tour:14"), {3}, id="path-identity"),
        pytest.param(("verify", "cycle-base", "--n", "15"), {3}, id="cycle-base"),
        pytest.param(("verify", "cycle-identity", "--graph", "tour:15"), {3}, id="cycle-identity"),
        pytest.param(("verify", "gen-eulerian", "--graph", "tour:11"), {3}, id="gen-eulerian"),
        # the Eulerian table is a recurrence: 22 140 steps
        pytest.param(("table", "eulerian", "--n", "1..40"), {0}, id="table-eulerian"),
        pytest.param(("table", "cyclic-eulerian", "--n", "11"), {3}, id="table-cyclic-eulerian"),
        pytest.param(("gen", "tour:701"), {3}, id="gen"),
        pytest.param(("gen", "path:701", "--unsafe-bounds"), {0}, id="gen-unsafe"),
        pytest.param(("verify", "sweep", "--n", "5", "--unsafe-bounds"), {0, 1}, id="sweep-unsafe"),
        pytest.param(("table", "eulerian", "--n", "9", "--unsafe-bounds"), {0}, id="table-eulerian-unsafe"),
        # chi of the complement, K_17, is priced at 64 570 081 steps
        pytest.param(("verify", "path-identity", "--graph", '{"n":17,"edges":[]}', "--M", "2"), {3},
                     id="path-identity-chi"),
        pytest.param(("verify", "path-identity", "--graph", '{"n":17,"edges":[]}', "--M", "2", "--unsafe-bounds"),
                     {0, 1}, id="path-identity-unsafe"),
        pytest.param(("verify", "cycle-identity", "--graph", '{"n":17,"edges":[]}', "--M", "2", "--unsafe-bounds"),
                     {0, 1}, id="cycle-identity-unsafe"),
    ])
    def test_bound_exit_code(self, argv, codes):
        r = run_cli(*argv)
        assert r.returncode in codes
        assert ("bound" in r.stderr) == (codes == {3})


def run_cli_in_1gb(*args, env=None):
    """run_cli with the address space capped at 1 GB, so that an argument
    built before its bound check fails fast instead of exhausting memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "seatgraphs", *args],
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60)


class TestBoundBeforeBuilding:
    # each spec declares tens of millions of vertices; building the graph
    # first dies of MemoryError (exit 4) under the cap, or is OOM-killed
    # without it
    @pytest.mark.parametrize("argv", [
        ("odp", '{"n":99999999,"edges":[]}', "path:3"),
        ("odp", "tour:99999999", "path:3"),
        ("odp", "path:3", "cycle:99999999", "--slice", "edge:2,1"),
        ("dfs", '{"n":50000000,"edges":[]}', "path:3"),
        ("verify", "path-identity", "--graph", "tour:99999999"),
        ("verify", "automorphism", "--x", "path:3", "--y", '{"n":99999999,"edges":[]}'),
        ("table", "cyclic-eulerian", "--n", "99999999"),
        ("gen", "tour:20000"),
        ("gen", '{"n":99999999,"edges":[]}'),
    ], ids=["odp-json", "odp-family", "odp-slice", "dfs-json", "verify-family", "verify-json", "table",
            "gen-family", "gen-json"])
    def test_oversized_spec_exits_3(self, argv):
        r = run_cli_in_1gb(*argv)
        assert r.returncode == 3
        assert "bound" in r.stderr and "Traceback" not in r.stderr

    # arguments within the input bound whose work is priced past the work
    # bound: refused before the walk is planned or the first row is built
    @pytest.mark.parametrize("argv", [
        ("table", "eulerian", "--n", "1..700"),
        ("odp", "tour:700", "tour:700"),
    ], ids=["table-eulerian", "odp-tour700"])
    def test_priced_work_exits_3(self, argv):
        r = run_cli_in_1gb(*argv)
        assert r.returncode == 3
        assert "work bound" in r.stderr and "Traceback" not in r.stderr

    def test_oversized_file_spec_exits_3(self, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text('{"n":99999999,"edges":[]}')
        r = run_cli_in_1gb("odp", str(spec), "path:3")
        assert r.returncode == 3

    # sizes that are not graphs: the truncation runs the series out to M
    # terms, and a table builds a row per n; the message names the argument
    @pytest.mark.parametrize("argv, env, argument", [
        (("verify", "cycle-base", "--n", "3", "--M", "100000000"), {}, "--M"),
        (("verify", "cycle-base", "--n", "3"), {"SEATGRAPHS_M": "100000000"}, "SEATGRAPHS_M"),
        (("table", "eulerian", "--n", "100000"), {}, "--n"),
    ], ids=["truncation-flag", "truncation-env", "table-eulerian"])
    def test_oversized_argument_exits_3(self, argv, env, argument):
        r = run_cli_in_1gb(*argv, env=dict(os.environ, **env))
        assert r.returncode == 3
        assert argument in r.stderr and "bound" in r.stderr
        assert "n=" not in r.stderr and "Traceback" not in r.stderr


# Full reports of the series-prefix verifiers, byte for byte: a prefix
# prints as (c0, c1, ...) with no trailing comma at M = 0, and each
# coefficient goes to JSON as a [numerator, denominator] pair.
HOLDS = '{"n":4,"edges":[[3,1],[4,2]]}'
FAILS = '{"n":3,"edges":[[2,1],[3,2]]}'
CYCLE = '{"n":3,"edges":[[3,1]]}'
PINNED_PREFIX_REPORTS = {
    "path-holds-M0-text": (("path-identity", "--graph", HOLDS, "--M", "0", "--format", "text"), 0,
     "theorem: path-identity\n"
     "holds: true\n"
     "checked_range: prefix m=0..0 at n=4\n"
     "certificates: x_chordal=true complement_peo=false\n"
     "prefix: (14)\n"),
    "path-holds-M0-json": (("path-identity", "--graph", HOLDS, "--M", "0", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..0 at n=4","counterexample":null,"certificates":{"x_chordal":true,"complement_peo":false},"prefix":[[14,1]]}\n'),
    "path-holds-M12-text": (("path-identity", "--graph", HOLDS, "--M", "12", "--format", "text"), 0,
     "theorem: path-identity\n"
     "holds: true\n"
     "checked_range: prefix m=0..12 at n=4\n"
     "certificates: x_chordal=true complement_peo=false\n"
     "prefix: (14, 78, 252, 620, 1290, 2394, 4088, 6552, 9990, 14630, 20724, 28548, 38402)\n"),
    "path-holds-M12-json": (("path-identity", "--graph", HOLDS, "--M", "12", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..12 at n=4","counterexample":null,"certificates":{"x_chordal":true,"complement_peo":false},"prefix":[[14,1],[78,1],[252,1],[620,1],[1290,1],[2394,1],[4088,1],[6552,1],[9990,1],[14630,1],[20724,1],[28548,1],[38402,1]]}\n'),
    "path-fails-M0-text": (("path-identity", "--graph", FAILS, "--M", "0", "--format", "text"), 1,
     "theorem: path-identity\n"
     "holds: false\n"
     "checked_range: prefix m=0..0 at n=3\n"
     "certificates: x_chordal=true complement_peo=false\n"
     "prefix: (3)\n"
     'counterexample: X={"n":3,"edges":[[2,1],[3,2]]}, first bad m=0\n'
     "  lhs: (3)\n"
     "  rhs: (2)\n"),
    "path-fails-M0-json": (("path-identity", "--graph", FAILS, "--M", "0", "--format", "json"), 1,
     '{"holds":false,"checked_range":"prefix m=0..0 at n=3","counterexample":{"inputs":"X={\\"n\\":3,\\"edges\\":[[2,1],[3,2]]}, first bad m=0","lhs":"(3)","rhs":"(2)"},"certificates":{"x_chordal":true,"complement_peo":false},"first_bad_m":0,"prefix":[[3,1]]}\n'),
    "path-fails-M12-text": (("path-identity", "--graph", FAILS, "--M", "12", "--format", "text"), 1,
     "theorem: path-identity\n"
     "holds: false\n"
     "checked_range: prefix m=0..12 at n=3\n"
     "certificates: x_chordal=true complement_peo=false\n"
     "prefix: (3, 14, 39, 84, 155, 258, 399, 584, 819, 1110, 1463, 1884, 2379)\n"
     'counterexample: X={"n":3,"edges":[[2,1],[3,2]]}, first bad m=0\n'
     "  lhs: (3, 14, 39, 84, 155, 258, 399, 584, 819, 1110, 1463, 1884, 2379)\n"
     "  rhs: (2, 12, 36, 80, 150, 252, 392, 576, 810, 1100, 1452, 1872, 2366)\n"),
    "path-fails-M12-json": (("path-identity", "--graph", FAILS, "--M", "12", "--format", "json"), 1,
     '{"holds":false,"checked_range":"prefix m=0..12 at n=3","counterexample":{"inputs":"X={\\"n\\":3,\\"edges\\":[[2,1],[3,2]]}, first bad m=0","lhs":"(3, 14, 39, 84, 155, 258, 399, 584, 819, 1110, 1463, 1884, 2379)","rhs":"(2, 12, 36, 80, 150, 252, 392, 576, 810, 1100, 1452, 1872, 2366)"},"certificates":{"x_chordal":true,"complement_peo":false},"first_bad_m":0,"prefix":[[3,1],[14,1],[39,1],[84,1],[155,1],[258,1],[399,1],[584,1],[819,1],[1110,1],[1463,1],[1884,1],[2379,1]]}\n'),
    "cycle-identity-M0-text": (("cycle-identity", "--graph", CYCLE, "--M", "0", "--format", "text"), 0,
     "theorem: cycle-identity\n"
     "holds: true\n"
     "checked_range: prefix m=0..0 at n=3\n"
     "certificates: x_chordal=true complement_peo=true\n"
     "prefix: (3)\n"),
    "cycle-identity-M0-json": (("cycle-identity", "--graph", CYCLE, "--M", "0", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..0 at n=3","counterexample":null,"certificates":{"x_chordal":true,"complement_peo":true},"prefix":[[3,1]]}\n'),
    "cycle-identity-M12-text": (("cycle-identity", "--graph", CYCLE, "--M", "12", "--format", "text"), 0,
     "theorem: cycle-identity\n"
     "holds: true\n"
     "checked_range: prefix m=0..12 at n=3\n"
     "certificates: x_chordal=true complement_peo=true\n"
     "prefix: (3, 12, 27, 48, 75, 108, 147, 192, 243, 300, 363, 432, 507)\n"),
    "cycle-identity-M12-json": (("cycle-identity", "--graph", CYCLE, "--M", "12", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..12 at n=3","counterexample":null,"certificates":{"x_chordal":true,"complement_peo":true},"prefix":[[3,1],[12,1],[27,1],[48,1],[75,1],[108,1],[147,1],[192,1],[243,1],[300,1],[363,1],[432,1],[507,1]]}\n'),
    "cycle-base-M0-text": (("cycle-base", "--n", "5", "--M", "0", "--format", "text"), 0,
     "theorem: cycle-base\n"
     "holds: true\n"
     "checked_range: prefix m=0..0 at n=5\n"
     "prefix: (0)\n"),
    "cycle-base-M0-json": (("cycle-base", "--n", "5", "--M", "0", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..0 at n=5","counterexample":null,"prefix":[[0,1]]}\n'),
    "cycle-base-M12-text": (("cycle-base", "--n", "5", "--M", "12", "--format", "text"), 0,
     "theorem: cycle-base\n"
     "holds: true\n"
     "checked_range: prefix m=0..12 at n=5\n"
     "prefix: (0, 5, 80, 405, 1280, 3125, 6480, 12005, 20480, 32805, 50000, 73205, 103680)\n"),
    "cycle-base-M12-json": (("cycle-base", "--n", "5", "--M", "12", "--format", "json"), 0,
     '{"holds":true,"checked_range":"prefix m=0..12 at n=5","counterexample":null,"prefix":[[0,1],[5,1],[80,1],[405,1],[1280,1],[3125,1],[6480,1],[12005,1],[20480,1],[32805,1],[50000,1],[73205,1],[103680,1]]}\n'),
}



class TestVerify:
    def test_cycle_base_holds(self):
        r = run_cli("verify", "cycle-base", "--n", "3", "--M", "8")
        assert r.returncode == 0
        assert "holds: true" in r.stdout

    def test_path_identity_disambiguation_instance(self):
        r = run_cli(
            "verify", "path-identity",
            "--graph", '{"n":4,"edges":[[3,1],[4,2]]}', "--M", "12",
            "--format", "json",
        )
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["holds"] is True
        assert obj["certificates"] == {"x_chordal": True, "complement_peo": False}
        assert obj["prefix"][:3] == [[14, 1], [78, 1], [252, 1]]

    def test_prefix_in_text_report(self):
        r = run_cli(
            "verify", "path-identity",
            "--graph", '{"n":4,"edges":[[3,1],[4,2]]}', "--M", "4",
        )
        assert "prefix: (14, 78, 252, 620, 1290)" in r.stdout

    @pytest.mark.parametrize("argv, code, report", PINNED_PREFIX_REPORTS.values(), ids=PINNED_PREFIX_REPORTS)
    def test_prefix_report_is_pinned(self, argv, code, report, capsys):
        assert cli.main(["verify", *argv]) == code
        assert capsys.readouterr() == (report, "")

    def test_failing_identity_exits_1(self):
        r = run_cli(
            "verify", "path-identity",
            "--graph", '{"n":3,"edges":[[2,1],[3,2]]}', "--M", "8",
        )
        assert r.returncode == 1
        assert "holds: false" in r.stdout

    def test_self_slice(self):
        r = run_cli("verify", "self-slice", "--x", "tour:3", "--y", "path:3", "--pair", "2,1")
        assert r.returncode == 0

    def test_squish_multigraph_instance(self):
        r = run_cli("verify", "squish", "--x", "tour:2", "--y", "cycle:2", "--pair", "2,1")
        assert r.returncode == 0

    def test_edge_removal(self):
        r = run_cli("verify", "edge-removal", "--x", "tour:3", "--y", "path:3", "--edge", "3,1")
        assert r.returncode == 0

    def test_missing_argument_is_usage_error(self):
        r = run_cli("verify", "edge-removal", "--x", "tour:3", "--y", "path:3")
        assert r.returncode == 2

    def test_unknown_theorem_is_usage_error(self):
        r = run_cli("verify", "not-a-theorem", "--n", "3")
        assert r.returncode == 2

    def test_violated_precondition_is_usage_error(self):
        # {3,1} is not self-equivalent in Tour_3's sibling graph {3->1}
        r = run_cli(
            "verify", "self-slice",
            "--x", '{"n":3,"edges":[[2,1],[3,1]]}', "--y", "path:3", "--pair", "3,1",
        )
        assert r.returncode == 2
        assert "certificate" in r.stderr

    def test_env_var_sets_default_truncation(self):
        env = dict(os.environ, SEATGRAPHS_M="4")
        r = run_cli("verify", "cycle-base", "--n", "3", "--format", "json", env=env)
        assert json.loads(r.stdout)["checked_range"] == "prefix m=0..4 at n=3"


    @pytest.mark.parametrize("argv", [
        ("automorphism", "--x", "tour:3", "--y", "tour:3"),
        ("acyclic", "--x", "tour:3", "--y", "tour:3"),
        ("edge-removal", "--x", "tour:3", "--y", "path:3", "--edge", "3,1"),
        ("self-slice", "--x", "tour:3", "--y", "path:3", "--pair", "2,1"),
        ("squish", "--x", "tour:3", "--y", "path:3", "--pair", "2,1"),
        ("path-identity", "--graph", "tour:3"),
        ("cycle-base", "--n", "3"),
        ("cycle-identity", "--graph", "tour:3"),
        ("gen-eulerian", "--graph", "tour:10", "--cyclic", "--unsafe-bounds"),
    ], ids=lambda argv: argv[0])
    def test_csv_is_refused_before_the_verifier_runs(self, argv, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the verifier ran")

        for attr in vars(cli):
            if attr.startswith("verify_"):
                monkeypatch.setattr(cli, attr, never)
        assert cli.main(["verify", *argv, "--format", "csv"]) == 2
        assert capsys.readouterr().err == "seatgraphs: error: csv output is only available for the sweep\n"


class TestSweep:
    def test_n3_csv_shape(self):
        r = run_cli("verify", "sweep", "--n", "3", "--M", "10", "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "graph_id,n,edges,cert_X_chordal,cert_comp_chordal,identity,first_bad_m"
        assert len(lines) == 9  # header + 8 graphs
        # one row genuinely fails the identity, so the command exits 1
        assert r.returncode == 1
        assert sum("false," in line or line.endswith("false,0") for line in lines[1:]) >= 1

    def test_cycle_sweep_runs(self):
        r = run_cli("verify", "sweep", "--n", "2", "--M", "8", "--identity", "cycle")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 3

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_is_usage_error_before_pricing(self, n, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the sweep was priced")

        monkeypatch.setattr(identities, "check_bound", never)
        assert cli.main(["verify", "sweep", "--n", n]) == 2
        assert capsys.readouterr().err == f"seatgraphs: error: n must be a positive integer, got {n}\n"

    def test_json_format(self):
        r = run_cli("verify", "sweep", "--n", "2", "--M", "8", "--format", "json")
        rows = json.loads(r.stdout)
        assert [row["graph_id"] for row in rows] == [0, 1]


class TestTable:
    def test_eulerian_rows(self):
        r = run_cli("table", "eulerian", "--n", "1..4")
        assert r.stdout == "1\n1,1\n1,4,1\n1,11,11,1\n"

    def test_cyclic_rows(self):
        r = run_cli("table", "cyclic-eulerian", "--n", "2..3")
        assert r.stdout == "0,2\n0,3,3\n"

    def test_single_value_range(self):
        r = run_cli("table", "eulerian", "--n", "1..1")
        assert r.stdout == "1\n"

    def test_bad_range_is_usage_error(self):
        r = run_cli("table", "eulerian", "--n", "4..2")
        assert r.returncode == 2

    def test_eulerian_recurrence_runs_once_across_the_range(self, monkeypatch, capsys):
        calls = []

        def counted(n):
            calls.append(n)
            return polynomials.eulerian_poly(n)

        monkeypatch.setattr(cli, "eulerian_poly", counted)
        assert cli.main(["table", "eulerian", "--n", "5..30"]) == 0
        assert calls == [5]
        assert capsys.readouterr().out == "".join(
            ",".join(map(str, polynomials.eulerian_poly(n).coeffs)) + "\n" for n in range(5, 31))

    def test_eulerian_rows_are_written_as_they_are_produced(self, monkeypatch):
        # when row n is stepped from row n - 1, rows 5..n-1 are already out
        out, written = io.StringIO(), []

        def step(previous, n):
            written.append(out.getvalue().count("\n"))
            return polynomials.eulerian_step(previous, n)

        monkeypatch.setattr(cli, "eulerian_step", step)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["table", "eulerian", "--n", "5..30"]) == 0
        assert written == list(range(1, 26))
        assert out.getvalue() == "".join(
            ",".join(map(str, polynomials.eulerian_poly(n).coeffs)) + "\n" for n in range(5, 31))

    def test_cyclic_range_past_the_bound_computes_no_row(self, monkeypatch):
        # the top row is the dearest and is priced first, so 8..11 is
        # refused before rows 8-10 run
        calls = []

        def counted(graph, cyclic, **kwargs):
            calls.append(graph.n)
            return polynomials.generalized_eulerian_poly(graph, cyclic, **kwargs)

        monkeypatch.setattr(cli, "generalized_eulerian_poly", counted)
        assert cli.main(["table", "cyclic-eulerian", "--n", "8..11"]) == 3
        assert calls == [11]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str limit")
class TestIntToStrLimit:
    def test_table_prints_a_coefficient_past_the_limit(self, monkeypatch, capsys):
        limit = sys.get_int_max_str_digits()
        # 5 000 digits: 1, 4 998 zeros, 7; built and checked without str()
        monkeypatch.setattr(cli, "eulerian_poly", lambda n: Polynomial((10 ** 4999 + 7,)))
        assert cli.main(["table", "eulerian", "--n", "1"]) == 0
        assert capsys.readouterr().out == "1" + "0" * 4998 + "7\n"
        assert sys.get_int_max_str_digits() == limit

    def test_graph_json_input_keeps_the_limit(self, capsys):
        # without the limit this n would parse and exit 3 on the input bound
        spec = '{"n":' + "1" * 5000 + ',"edges":[]}'
        assert cli.main(["gen", spec]) == 2
        assert "limit" in capsys.readouterr().err


class TestDfsExport:
    def test_json_shape(self):
        r = run_cli("dfs", "tour:2", "path:2", "--format", "json")
        obj = json.loads(r.stdout)
        assert obj["n"] == 2
        assert obj["vertices"] == [[1, 2], [2, 1]]
        assert obj["edges"] == [{"from": 1, "to": 0, "a": 2, "b": 1, "mult": 1}]

    def test_dot_contains_permutation_words(self):
        r = run_cli("dfs", "tour:3", "path:3", "--format", "dot")
        assert '"213" -> "123";' in r.stdout

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_output_equals_a_reference_formatted_from_the_oracle(self, fmt, capsys):
        # every labeled acyclic pair at n = 3, a pair with parallel edges
        # and self-loops on both sides, and Cycle/Tour pairs at n = 2..5
        pool = [(2, 1), (3, 1), (3, 2)]
        acyclic = [json.dumps({"n": 3, "edges": [e for i, e in enumerate(pool) if mask >> i & 1]})
                   for mask in range(1 << len(pool))]
        specs = [(x, y) for x in acyclic for y in acyclic]
        specs.append(('{"n":3,"edges":[[2,1],[2,1],[1,3],[3,3]]}', '{"n":3,"edges":[[1,2],[3,2],[3,2],[2,3],[1,1]]}'))
        specs += [(f(n).to_json(), g(n).to_json()) for n in range(2, 6) for f in (cycle, tour) for g in (cycle, tour)]
        for x, y in specs:
            assert cli.main(["dfs", x, y, "--format", fmt]) == 0
            assert capsys.readouterr().out == reference_dfs(json.loads(x), json.loads(y), fmt), (x, y)

    @pytest.mark.parametrize("extra", [[], ["--unsafe-bounds"]], ids=["bounded", "unsafe"])
    def test_dot_past_n9_exits_2_before_any_vertex(self, extra, monkeypatch, capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("materialize called")

        monkeypatch.setattr(cli, "materialize", refuse)
        target = tmp_path / "out.dot"
        for output in ([], ["-o", str(target)]):
            assert cli.main(["dfs", "path:10", "path:10", "--format", "dot", *extra, *output]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "n <= 9" in err
        assert not target.exists()

    def test_export_streams_without_building_witnesses(self, monkeypatch):
        expected = (json.dumps(materialize(tour(7), tour(7)).to_json_obj(), separators=(",", ":")) + "\n").encode()

        class Sink:
            """Counts and hashes what is written, keeping none of it."""
            def __init__(self):
                self.size, self.digest = 0, hashlib.sha256()

            def write(self, text):
                self.size += len(text)
                self.digest.update(text.encode())

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        def refuse(*args):
            raise AssertionError("a witness was built")

        sink = Sink()
        monkeypatch.setattr(dfsgraph, "_witnesses", refuse)
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["dfs", "tour:7", "tour:7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (sink.size, sink.digest.digest()) == (len(expected), hashlib.sha256(expected).digest())
        # 2.4 MB of JSON; holding every witness took about 14 MB
        assert peak < len(expected)


class TestDeterminismAndOutput:
    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        r = run_cli("gen", "tour:3", "--output", str(target))
        assert r.returncode == 0
        assert r.stdout == ""
        assert target.read_text() == '{"n":3,"edges":[[2,1],[3,1],[3,2]]}\n'

    def test_unwritable_output_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        r = run_cli("gen", "tour:3", "--output", str(target))
        assert r.returncode == 2
        assert r.stderr.startswith(f"seatgraphs: error: cannot write {target}: ")
        assert "Traceback" not in r.stderr

    def test_repeat_invocations_are_byte_identical(self):
        invocations = [
            ("gen", "tour:4"),
            ("odp", "tour:4", "cycle:4"),
            ("verify", "sweep", "--n", "3", "--M", "10", "--format", "csv"),
            ("verify", "path-identity", "--graph", "tour:4", "--M", "10", "--format", "json"),
            ("table", "eulerian", "--n", "1..5"),
            ("dfs", "tour:3", "cycle:3", "--format", "dot"),
        ]
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode


class TestInternalError:
    def test_unexpected_exception_exits_4_without_traceback(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(cli, "run_gen", broken)
        assert cli.main(["gen", "tour:3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "seatgraphs: internal error: RuntimeError: kernel fault\n"
        assert "Traceback" not in captured.err


# argv lists of every command with the options it takes, over graph
# specs at n <= 5: families, JSON with labels in and out of range, and
# malformed or junk specs; most pairs share n, so most lists reach a kernel
_junk_specs = st.sampled_from(['{"n":3}', '{"n":', '{"n":"3","edges":[]}', '{"n":3,"edges":[[1]]}', "[]",
                               '{"n":3,"labels":[1,2,9],"edges":[[1,9]]}', '{"n":-2,"edges":[]}', "bogus", "",
                               "tour:"])


def _specs(n):
    labels = st.one_of(st.integers(1, n), st.integers(0, n + 1))
    return st.one_of(
        st.sampled_from(["tour", "path", "cycle"]).map(lambda family: f"{family}:{n}"),
        st.lists(st.lists(labels, min_size=2, max_size=2), max_size=2 * n).map(
            lambda edges: json.dumps({"n": n, "edges": edges})),
        _junk_specs,
    )


def _argv(n):
    small = st.integers(0, n + 1)
    pair = st.one_of(st.builds("{},{}".format, small, small), st.sampled_from(["", "1", "a,b", "1,2,3"]))
    spec = _specs(n)
    count = st.integers(-1, min(n, 4)).map(str)

    def command(*head, options=()):
        """``head`` in order, then each of ``options`` or not."""
        return st.tuples(st.tuples(*head), *[st.one_of(st.just(()), st.tuples(*option)) for option in options],
                         st.sampled_from([(), ("--unsafe-bounds",)])).map(
            lambda parts: [token for part in parts for token in part])

    text = [st.just("--format"), st.sampled_from(["text", "json"])]
    two = [st.just("--x"), spec, st.just("--y"), spec]
    return st.one_of(
        command(st.just("gen"), spec, options=[[st.just("--format"), st.sampled_from(["json", "dot"])]]),
        command(st.just("odp"), spec, spec, options=[
            [st.just("--slice"), st.builds("{}:{}".format, st.sampled_from(["edge", "assign", "x"]), pair)], text]),
        command(st.just("dfs"), spec, spec, options=[[st.just("--format"), st.sampled_from(["json", "dot"])]]),
        command(st.just("verify"), st.sampled_from(["automorphism", "acyclic"]), *two, options=[text]),
        command(st.just("verify"), st.just("edge-removal"), *two, st.just("--edge"), pair, options=[text]),
        command(st.just("verify"), st.sampled_from(["self-slice", "squish"]), *two, st.just("--pair"), pair,
                options=[text]),
        command(st.just("verify"), st.sampled_from(["path-identity", "cycle-identity"]), st.just("--graph"), spec,
                options=[[st.just("--M"), count], text]),
        command(st.just("verify"), st.just("gen-eulerian"), st.just("--graph"), spec,
                options=[[st.just("--cyclic")], text]),
        command(st.just("verify"), st.sampled_from(["cycle-base", "sweep"]), st.just("--n"), count,
                options=[[st.just("--M"), count], [st.just("--identity"), st.sampled_from(["path", "cycle"])],
                         [st.just("--format"), st.sampled_from(["text", "json", "csv"])]]),
        command(st.just("table"), st.sampled_from(["eulerian", "cyclic-eulerian"]), st.just("--n"),
                st.sampled_from([f"1..{n}", f"2..{n}", str(n), "4..2", "x"])),
    )


_argvs = st.one_of([_argv(n) for n in range(6)])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_argvs)
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _readme_command_lines():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("seatgraphs ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_example_runs_as_documented(line, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    # the n=4 sweep reaches graphs outside the identity's hypothesis, where it fails
    assert cli.main(argv) == (1 if argv[:2] == ["verify", "sweep"] else 0)
    if comment:
        assert capsys.readouterr().out.splitlines()[0] == comment.strip()


def test_cli_imports_only_the_standard_library():
    # modules loaded before the import (site's .pth start-up hooks) do not count
    check = (
        "import sys; before = set(sys.modules); import seatgraphs.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'seatgraphs'}))"
    )
    r = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
