import contextlib
import inspect
import io
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatgraphs import cli, identities


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
        ('{"n":3,"edges":[[3,1,5]]}', "edges"),
        ('{"n":3,"edges":[[true,1]]}', "edges"),
    ], ids=["n-string", "n-list", "n-bool", "labels-string", "labels-repeated", "edge-triple", "edge-bool"])
    def test_malformed_graph_json_is_usage_error(self, spec, field):
        r = run_cli("gen", spec)
        assert r.returncode == 2
        assert f"seatgraphs: error: graph field '{field}'" in r.stderr
        assert "Traceback" not in r.stderr


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
    # each bounded command at the first n it refuses, plus the cheap
    # --unsafe-bounds rows; a sweep row may fail its identity (exit 1)
    @pytest.mark.parametrize("argv, codes", [
        pytest.param(("odp", "tour:11", "path:11"), {3}, id="odp"),
        pytest.param(("odp", "tour:11", "path:11", "--slice", "edge:2,1"), {3}, id="odp-edge-slice"),
        pytest.param(("odp", "tour:11", "path:11", "--slice", "assign:1,1"), {3}, id="odp-assign-slice"),
        pytest.param(("dfs", "tour:8", "tour:8"), {3}, id="dfs"),
        pytest.param(("verify", "sweep", "--n", "5"), {3}, id="sweep"),
        pytest.param(("verify", "automorphism", "--x", "tour:6", "--y", "tour:6"), {3}, id="automorphism"),
        pytest.param(("verify", "acyclic", "--x", "tour:8", "--y", "tour:8"), {3}, id="acyclic"),
        pytest.param(("verify", "edge-removal", "--x", "tour:9", "--y", "path:9", "--edge", "2,1"), {3},
                     id="edge-removal"),
        pytest.param(("verify", "path-identity", "--graph", "tour:9"), {3}, id="path-identity"),
        pytest.param(("verify", "cycle-base", "--n", "9"), {3}, id="cycle-base"),
        pytest.param(("verify", "gen-eulerian", "--graph", "tour:8"), {3}, id="gen-eulerian"),
        # the Eulerian table is a recurrence and has no bound
        pytest.param(("table", "eulerian", "--n", "1..40"), {0}, id="table-eulerian"),
        pytest.param(("table", "cyclic-eulerian", "--n", "9"), {3}, id="table-cyclic-eulerian"),
        pytest.param(("verify", "sweep", "--n", "5", "--unsafe-bounds"), {0, 1}, id="sweep-unsafe"),
        pytest.param(("table", "eulerian", "--n", "9", "--unsafe-bounds"), {0}, id="table-eulerian-unsafe"),
        # the certificate search must honour --unsafe-bounds too
        pytest.param(("verify", "path-identity", "--graph", '{"n":9,"edges":[]}', "--M", "2", "--unsafe-bounds"),
                     {0, 1}, id="path-identity-unsafe"),
        pytest.param(("verify", "cycle-identity", "--graph", '{"n":9,"edges":[]}', "--M", "2", "--unsafe-bounds"),
                     {0, 1}, id="cycle-identity-unsafe"),
    ])
    def test_bound_exit_code(self, argv, codes):
        r = run_cli(*argv)
        assert r.returncode in codes
        assert ("bound" in r.stderr) == (codes == {3})


def run_cli_in_1gb(*args):
    """run_cli with the address space capped at 1 GB, so that a spec built
    before its bound check fails fast instead of exhausting memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "seatgraphs", *args],
                          capture_output=True, text=True, preexec_fn=cap, timeout=60)


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
    ], ids=["odp-json", "odp-family", "odp-slice", "dfs-json", "verify-family", "verify-json", "table"])
    def test_oversized_spec_exits_3(self, argv):
        r = run_cli_in_1gb(*argv)
        assert r.returncode == 3
        assert "bound" in r.stderr and "Traceback" not in r.stderr

    def test_oversized_file_spec_exits_3(self, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text('{"n":99999999,"edges":[]}')
        r = run_cli_in_1gb("odp", str(spec), "path:3")
        assert r.returncode == 3

    def test_theorem_bounds_are_the_verifiers_defaults(self):
        verifiers = {
            "automorphism": identities.verify_automorphism,
            "acyclic": identities.verify_acyclic_potential,
            "edge-removal": identities.verify_edge_removal,
            "self-slice": identities.verify_self_equivalent_slice,
            "squish": identities.verify_point_squish,
            "path-identity": identities.verify_path_identity,
            "cycle-identity": identities.verify_cycle_identity,
            "gen-eulerian": identities.verify_generalized_equals_odp,
        }
        assert cli.THEOREM_BOUNDS == {name: inspect.signature(fn).parameters["bound"].default
                                      for name, fn in verifiers.items()}


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
        import os

        env = dict(os.environ, SEATGRAPHS_M="4")
        r = run_cli("verify", "cycle-base", "--n", "3", "--format", "json", env=env)
        assert json.loads(r.stdout)["checked_range"] == "prefix m=0..4 at n=3"


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
