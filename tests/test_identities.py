import random

import pytest

from seatgraphs import dfsgraph, identities, polynomials
from seatgraphs.chromatic import enumerate_labeled_acyclic, is_peo
from seatgraphs.digraph import Digraph, cycle, path, tour
from seatgraphs.dfsgraph import odp, odp_assign_slice, odp_edge_slice, witness_rows
from seatgraphs.identities import (
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
    verify_subgraph_monotonicity,
)
from seatgraphs.polynomials import Polynomial, eulerian_poly

import oracles


def random_digraph(n, rng, p=0.4):
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return Digraph.from_edges(n, [e for e in pool if rng.random() < p])


def all_simple_digraphs(n):
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    for mask in range(1 << len(pool)):
        yield Digraph.from_edges(n, [e for i, e in enumerate(pool) if mask >> i & 1])


def tampered_rows(tampers):
    """``witness_rows`` with the row function of each pair in ``tampers``
    passed through its tamper."""
    def rows(pairs, what, bound):
        return [tampers.get(pair, lambda row: row)(row) for pair, row in zip(pairs, witness_rows(pairs, what, bound))]

    return rows


class TestVerdict:
    def test_failed_verdict_needs_counterexample(self):
        with pytest.raises(ValueError):
            Verdict(False, "nothing")

    def test_json_shape(self):
        v = verify_path_identity(tour(3), 4)
        obj = v.to_json_obj()
        assert obj["holds"] is True
        assert obj["counterexample"] is None
        assert set(obj["certificates"]) == {"x_chordal", "complement_peo"}


class TestAutomorphism:
    def test_tour_path(self):
        assert verify_automorphism(tour(3), path(3)).holds

    def test_cycle_cycle(self):
        assert verify_automorphism(cycle(3), cycle(3)).holds

    def test_edgeless_vacuous(self):
        assert verify_automorphism(tour(3), Digraph.from_edges(3, [])).holds

    def test_multigraph_multiplicities_preserved(self):
        x = Digraph.from_edges(3, [(2, 1), (2, 1), (3, 2)])
        y = Digraph.from_edges(3, [(1, 2), (1, 2), (3, 1)])
        assert verify_automorphism(x, y).holds

    def test_random_pairs(self):
        rng = random.Random(11)
        for _ in range(40):
            assert verify_automorphism(random_digraph(4, rng), random_digraph(4, rng)).holds

    def test_first_mismatched_edge_is_named(self, monkeypatch):
        # DFS(Path_3, Tour_3) with the witness 213 -> 123 dropped and
        # 321 -> 312 tripled: two edges disagree, and the smaller is named
        def tamper(row):
            return lambda p: [w._replace(multiplicity=3) if (w.source, w.target) == ((3, 2, 1), (3, 1, 2)) else w
                              for w in row(p) if (w.source, w.target) != ((2, 1, 3), (1, 2, 3))]

        monkeypatch.setattr(identities, "witness_rows", tampered_rows({(path(3), tour(3)): tamper}))
        verdict = verify_automorphism(tour(3), path(3))
        assert not verdict.holds
        assert verdict.counterexample == identities.Counterexample(
            "edge 2,1,3 -> 1,2,3", "multiplicity 1 mapped from DFS(X,Y)", "multiplicity 0 in DFS(Y,X)")


class TestAcyclicPotential:
    def test_tournaments(self):
        assert verify_acyclic_potential(tour(3), tour(3)).holds

    def test_edgeless(self):
        assert verify_acyclic_potential(Digraph.from_edges(3, []), tour(3)).holds

    def test_rejects_non_labeled_acyclic(self):
        x = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(ValueError):
            verify_acyclic_potential(x, tour(3))

    def test_all_labeled_acyclic_pairs_n3(self):
        graphs = [g for _, g in enumerate_labeled_acyclic(3)]
        for x in graphs:
            for y in graphs:
                assert verify_acyclic_potential(x, y).holds

    def test_potential_rising_along_an_edge_fails(self, monkeypatch):
        # reverse the witness 123 -> 213 of DFS(Tour_3, Tour_3) into the
        # row of 213: the potential rises along it and nowhere else
        def reversed_edge(row):
            def tampered(p):
                witnesses = row(p)
                if p == (1, 2, 3):
                    return [w for w in witnesses if w.target != (2, 1, 3)]
                if p == (2, 1, 3):
                    (w,) = [w for w in row((1, 2, 3)) if w.target == p]
                    return witnesses + [w._replace(source=w.target, target=w.source)]
                return witnesses

            return tampered

        monkeypatch.setattr(identities, "witness_rows", tampered_rows({(tour(3), tour(3)): reversed_edge}))
        verdict = verify_acyclic_potential(tour(3), tour(3))
        assert not verdict.holds
        assert verdict.counterexample.inputs == "edge 2,1,3 -> 1,2,3"
        assert (verdict.counterexample.lhs, verdict.counterexample.rhs) == ("f(source)=13", "f(target)=14")


class TestSubgraphMonotonicity:
    def test_named_containments(self):
        assert verify_subgraph_monotonicity(path(3), path(3), path(3), cycle(3)).holds

    def test_random_thinnings(self):
        rng = random.Random(23)
        for _ in range(40):
            xb, yb = random_digraph(4, rng), random_digraph(4, rng)
            xs = Digraph.from_edges(4, [e for e in xb.edges() if rng.random() < 0.6])
            ys = Digraph.from_edges(4, [e for e in yb.edges() if rng.random() < 0.6])
            assert verify_subgraph_monotonicity(xs, xb, ys, yb).holds

    def test_rejects_non_subgraph(self):
        with pytest.raises(ValueError):
            verify_subgraph_monotonicity(tour(3), path(3), path(3), path(3))

    def test_first_missing_witness_is_named(self, monkeypatch):
        # DFS(Path_3, Path_3) inside DFS(Path_3, Cycle_3), with the small
        # pair's witness at 312, swap (2,3) tripled and the big pair's at
        # 231, swap (1,2) dropped: the earlier vertex is named
        def tripled(row):
            return lambda p: [w._replace(multiplicity=3) if (p, w.a) == ((3, 1, 2), 2) else w for w in row(p)]

        def dropped(row):
            return lambda p: [w for w in row(p) if (p, w.a) != ((2, 3, 1), 1)]

        small, big = (path(3), path(3)), (path(3), cycle(3))
        monkeypatch.setattr(identities, "witness_rows", tampered_rows({small: tripled, big: dropped}))
        verdict = verify_subgraph_monotonicity(path(3), path(3), path(3), cycle(3))
        assert not verdict.holds
        assert verdict.counterexample == identities.Counterexample(
            "sigma=2,3,1, swap pair (1,2)", "multiplicity 1 in DFS(X,Y)", "multiplicity 0 in DFS(X',Y')")
        monkeypatch.setattr(identities, "witness_rows", tampered_rows({small: tripled}))
        assert verify_subgraph_monotonicity(path(3), path(3), path(3), cycle(3)).counterexample == (
            identities.Counterexample(
                "sigma=3,1,2, swap pair (2,3)", "multiplicity 3 in DFS(X,Y)", "multiplicity 1 in DFS(X',Y')"))


def test_inversion_and_monotonicity_checks_never_materialize(monkeypatch):
    # the three checks that walk witness rows: inversion, monotonicity, acyclicity
    def refuse(*args, **kwargs):
        raise AssertionError("materialize called")

    monkeypatch.setattr(dfsgraph, "materialize", refuse)
    assert not hasattr(identities, "materialize")
    assert verify_automorphism(tour(4), cycle(4)).holds
    assert verify_automorphism(cycle(4), tour(4)).holds
    assert verify_subgraph_monotonicity(path(4), cycle(4), path(4), cycle(4)).holds
    assert verify_acyclic_potential(tour(4), tour(4)).holds


class TestEdgeRemoval:
    def test_worked_instance(self):
        verdict = verify_edge_removal(tour(3), path(3), 3, 1)
        assert verdict.holds
        # the removed-edge ODP itself, pinned by brute force
        assert odp(tour(3).remove_edge(3, 1), path(3)) == Polynomial((3, 2, 1))

    def test_empty_y(self):
        assert verify_edge_removal(tour(3), Digraph.from_edges(3, []), 2, 1).holds

    def test_multigraph_x_one_copy_removed(self):
        x = Digraph.from_edges(3, [(2, 1), (2, 1), (3, 2)])
        for y in (path(3), cycle(3), tour(3)):
            assert verify_edge_removal(x, y, 2, 1).holds

    def test_requires_the_edge(self):
        with pytest.raises(ValueError):
            verify_edge_removal(tour(3), path(3), 1, 3)

    def test_random_simple_pairs_n4(self):
        rng = random.Random(5)
        for _ in range(30):
            x, y = random_digraph(4, rng), random_digraph(4, rng)
            for a, b, _ in x.edge_counts:
                assert verify_edge_removal(x, y, a, b).holds

    def test_parallel_y_breaks_the_telescoping(self):
        # with a weight-2 Y edge the outdegree drops by two per removal,
        # so the (x-1)/x correction no longer matches; the verdict
        # reports the mismatch as data
        y = Digraph.from_edges(3, [(1, 2), (1, 2), (2, 3)])
        verdict = verify_edge_removal(tour(3), y, 2, 1)
        assert not verdict.holds
        assert verdict.counterexample is not None


class TestSelfEquivalentSlice:
    def test_tour_path_instance(self):
        verdict = verify_self_equivalent_slice(tour(3), path(3), 2, 1)
        assert verdict.holds
        assert odp_edge_slice(tour(3), path(3), 2, 1) == Polynomial((0, 1, 1))

    def test_empty_y(self):
        assert verify_self_equivalent_slice(tour(3), Digraph.from_edges(3, []), 2, 1).holds

    def test_certificate_failure_raises(self):
        x = Digraph.from_edges(3, [(2, 1), (3, 2)])
        assert not x.is_self_equivalent({2, 1})
        with pytest.raises(ValueError):
            verify_self_equivalent_slice(x, path(3), 2, 1)

    def test_holds_for_all_antiparallel_free_y_n3(self):
        for x_id, x in enumerate_labeled_acyclic(3):
            for a, b, _ in x.edge_counts:
                if not x.is_self_equivalent({a, b}):
                    continue
                for y in all_simple_digraphs(3):
                    if any(y.multiplicity(v, u) for u, v, _ in y.edge_counts):
                        continue
                    assert verify_self_equivalent_slice(x, y, a, b).holds

    def test_antiparallel_y_is_a_counterexample(self):
        # Cycle_2 as Y defeats the x-shift: both slices are 2x, so the
        # claimed identity would need 2x == 2x^2
        verdict = verify_self_equivalent_slice(tour(2), cycle(2), 2, 1)
        assert not verdict.holds
        assert odp_edge_slice(tour(2), cycle(2), 2, 1) == Polynomial((0, 2))
        assert odp_edge_slice(tour(2), cycle(2), 1, 2) == Polynomial((0, 2))


class TestPointSquish:
    def test_tour_path_instance(self):
        assert verify_point_squish(tour(3), path(3), 2, 1).holds

    def test_multigraph_cycle2_instance(self):
        assert verify_point_squish(tour(2), cycle(2), 2, 1).holds

    def test_empty_y(self):
        assert verify_point_squish(tour(3), Digraph.from_edges(3, []), 2, 1).holds

    def test_certificate_failure_raises(self):
        x = Digraph.from_edges(3, [(2, 1), (3, 2)])
        assert not x.is_sink_equivalent({3, 2})
        with pytest.raises(ValueError):
            verify_point_squish(x, path(3), 3, 2)

    def test_holds_for_all_self_equivalent_pairs_n3(self):
        rng = random.Random(17)
        ys = [path(3), cycle(3), tour(3)] + [random_digraph(3, rng) for _ in range(20)]
        for _, x in enumerate_labeled_acyclic(3):
            for a, b, _ in x.edge_counts:
                if not x.is_self_equivalent({a, b}):
                    continue
                for y in ys:
                    assert verify_point_squish(x, y, a, b).holds

    def test_sink_only_pair_is_a_counterexample(self):
        # {1,2} is sink- but not source-equivalent here (3->1 without
        # 3->2), and with Y = Tour_3 the claimed reduction fails: the
        # left slice is x + 2x^2 while the squished side is 3x
        x = Digraph.from_edges(3, [(2, 1), (3, 1)])
        assert x.is_sink_equivalent({1, 2}) and not x.is_self_equivalent({1, 2})
        verdict = verify_point_squish(x, tour(3), 2, 1)
        assert not verdict.holds
        assert odp_edge_slice(x, tour(3), 2, 1) == Polynomial((0, 1, 2))

    def test_sink_only_pair_still_works_for_path(self):
        # the same pair with Y = Path_3: this is the reduction the path
        # identity's proof actually uses, and it does hold there
        x = Digraph.from_edges(3, [(2, 1), (3, 1)])
        assert verify_point_squish(x, path(3), 2, 1).holds


class TestPathIdentity:
    def test_worpitzky_for_tournaments(self):
        for n in (1, 2, 3, 4, 5):
            verdict = verify_path_identity(tour(n), 6)
            assert verdict.holds

    def test_single_edge_instance(self):
        verdict = verify_path_identity(Digraph.from_edges(3, [(3, 1)]), 8)
        assert verdict.holds
        assert odp(Digraph.from_edges(3, [(3, 1)]), path(3)) == Polynomial((4, 2))

    def test_disambiguation_instance(self):
        x = Digraph.from_edges(4, [(3, 1), (4, 2)])
        verdict = verify_path_identity(x, 12)
        assert verdict.holds
        assert verdict.certificates == {"x_chordal": True, "complement_peo": False}

    def test_identity_peo_complement_implies_identity(self):
        for n in (2, 3, 4):
            for _, x in enumerate_labeled_acyclic(n):
                if is_peo(x.complement()):
                    assert verify_path_identity(x, 12).holds

    def test_chordal_labeling_does_not_imply_identity(self):
        # the chain 3->2->1 is a PEO of itself and its underlying path is
        # chordal, yet the identity fails at m=0: the series starts
        # (3, 14, 39, ...) = (m+1)(m^2+3m+3), which is not a chromatic
        # evaluation of any 3-vertex graph
        x = Digraph.from_edges(3, [(2, 1), (3, 2)])
        assert is_peo(x)
        verdict = verify_path_identity(x, 8)
        assert verdict.certificates["x_chordal"] is True
        assert not verdict.holds
        assert verdict.first_bad_m == 0
        assert odp(x, path(3)) == Polynomial((3, 2, 1))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="the path identity is stated for simple labeled acyclic X"):
            verify_path_identity(path(3), 8)


class TestCycleBase:
    def test_degenerate_n1(self):
        assert verify_cycle_base(1, 10).holds

    def test_small_n(self):
        for n in (2, 3, 4, 5, 6):
            assert verify_cycle_base(n, 12).holds

    def test_intermediate_claim_explicit(self):
        for n in (2, 3, 4, 5, 6, 7):
            got = odp(tour(n), cycle(n))
            assert got == n * Polynomial((0, 1)) * eulerian_poly(n - 1)

    def test_multigraph_cycle2_value(self):
        assert odp(tour(2), cycle(2)) == Polynomial((0, 2))


class TestCycleIdentity:
    def test_tournament_reduces_to_base(self):
        assert verify_cycle_identity(tour(3), 10).holds

    def test_single_edge_instance(self):
        x = Digraph.from_edges(3, [(3, 1)])
        verdict = verify_cycle_identity(x, 8)
        assert verdict.holds
        assert odp(x, cycle(3)) == Polynomial((3, 3))

    def test_edgeless_instance(self):
        assert verify_cycle_identity(Digraph.from_edges(3, []), 8).holds

    def test_identity_peo_complement_implies_identity(self):
        for n in (2, 3, 4):
            for _, x in enumerate_labeled_acyclic(n):
                if is_peo(x.complement()):
                    assert verify_cycle_identity(x, 12).holds

    def test_same_counterexample_as_path_identity(self):
        x = Digraph.from_edges(3, [(2, 1), (3, 2)])
        assert not verify_cycle_identity(x, 8).holds

    def test_rejects_n1(self):
        with pytest.raises(ValueError, match="the cycle identity requires n >= 2"):
            verify_cycle_identity(tour(1), 8)
        # the input check comes first: a self-loop is refused as such, not for its n
        with pytest.raises(ValueError, match="the cycle identity is stated for simple labeled acyclic X"):
            verify_cycle_identity(Digraph.from_edges(1, [(1, 1)]), 8)


class TestGeneralizedEqualsOdp:
    def test_complete_graphs(self):
        for n in (1, 2, 3, 4, 5):
            assert verify_generalized_equals_odp(tour(n), cyclic=False).holds
        for n in (2, 3, 4, 5):
            assert verify_generalized_equals_odp(tour(n), cyclic=True).holds

    def test_edgeless(self):
        g = Digraph.from_edges(4, [])
        assert verify_generalized_equals_odp(g, cyclic=False).holds

    def test_single_edge(self):
        g = Digraph.from_edges(3, [(3, 1)])
        assert verify_generalized_equals_odp(g, cyclic=False).holds

    def test_direction_of_input_does_not_matter(self):
        up = Digraph.from_edges(4, [(1, 3), (2, 4)])
        assert verify_generalized_equals_odp(up, cyclic=False).holds
        assert verify_generalized_equals_odp(up, cyclic=True).holds

    def test_labels_other_than_1_to_n_rejected_before_enumeration(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("S_n was enumerated")

        monkeypatch.setattr(polynomials, "enumerate_perms", no_enumeration)
        obj = {"n": 3, "labels": [2, 3, 7], "edges": [[3, 2], [7, 3]]}
        for cyclic in (False, True):
            with pytest.raises(ValueError, match="graph field 'labels'"):
                verify_generalized_equals_odp(Digraph.from_json_obj(obj), cyclic)


class TestRotationInvariance:
    def test_cycle_odp_is_n_times_any_assignment_slice(self):
        # composing sigma with the rotation v -> v + 1 of Cycle_n's labels
        # keeps every outdegree and moves the pin sigma(i) = j to
        # sigma(i) = j + 1, so the n slices at i are equal and sum to ODP
        for n in range(2, 5):
            for _, x in enumerate_labeled_acyclic(n):
                whole = odp(x, cycle(n))
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert whole == n * odp_assign_slice(x, cycle(n), i, j)


class TestSweep:
    def test_n3_path_rows(self):
        rows = sweep_identity(3, 10, which="path")
        assert len(rows) == 8
        by_edges = {r.edges: r for r in rows}
        # the one genuine failure at n=3, with both certificates recorded
        bad = by_edges["2>1 3>2"]
        assert not bad.identity
        assert bad.first_bad_m == 0
        assert bad.cert_x_chordal and not bad.cert_comp_chordal
        assert sum(not r.identity for r in rows) == 1

    def test_comp_peo_rows_always_hold(self):
        for which in ("path", "cycle"):
            for n in (2, 3, 4):
                for row in sweep_identity(n, 12, which=which):
                    if row.cert_comp_chordal:
                        assert row.identity

    def test_path_and_cycle_failures_coincide_at_n4(self):
        path_rows = {r.graph_id: r.identity for r in sweep_identity(4, 12, which="path")}
        cycle_rows = {r.graph_id: r.identity for r in sweep_identity(4, 12, which="cycle")}
        assert path_rows == cycle_rows
        assert sum(not ok for ok in path_rows.values()) == 24

    def test_flagship_row_present(self):
        rows = sweep_identity(4, 12, which="path")
        flagship = [r for r in rows if r.edges == "3>1 4>2"]
        assert len(flagship) == 1
        assert flagship[0].identity
        assert flagship[0].cert_x_chordal and not flagship[0].cert_comp_chordal

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sweep_identity(3, 10, which="banana")

    # the sweep verifies one row per directed-isomorphism class and copies
    # its verdict; every row must still read as its own verification would
    @pytest.mark.parametrize("n, which", [(n, "path") for n in range(1, 6)] + [(n, "cycle") for n in range(2, 5)])
    def test_every_row_matches_its_own_verification(self, n, which):
        verifier = verify_path_identity if which == "path" else verify_cycle_identity
        rows = sweep_identity(n, 12, which=which, bound=None)
        graphs = list(enumerate_labeled_acyclic(n))
        assert [r.graph_id for r in rows] == [graph_id for graph_id, _ in graphs]
        for row, (_, x) in zip(rows, graphs):
            verdict = verifier(x, 12, bound=None)
            assert row.cert_x_chordal == verdict.certificates["x_chordal"]
            assert row.cert_comp_chordal == verdict.certificates["complement_peo"] == is_peo(x.complement())
            assert (row.identity, row.first_bad_m) == (verdict.holds, verdict.first_bad_m)

    # directed-isomorphism classes of labeled acyclic graphs (OEIS A003087)
    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 6), (4, 31), (5, 302)])
    def test_one_verification_per_class(self, n, classes, monkeypatch):
        verified = []
        verify = identities.verify_path_identity
        monkeypatch.setattr(identities, "verify_path_identity",
                            lambda x, *args, **kwargs: verified.append(x) or verify(x, *args, **kwargs))
        assert len(sweep_identity(n, 2, bound=None)) == 2 ** (n * (n - 1) // 2)
        assert len(verified) == classes

    # `verify sweep --n 5` is what the benchmark checks `cert_X_chordal`
    # on, row by row; brute force over all 5! labelings decides it here
    @pytest.mark.parametrize("which", ["path", "cycle"])
    def test_x_chordal_column_matches_brute_force_at_n5(self, which):
        rows = sweep_identity(5, 1, which=which, bound=None)
        assert len(rows) == 1024
        for row in rows:
            edges = [tuple(sorted(map(int, e.split(">")))) for e in row.edges.split()]
            assert row.cert_x_chordal == (oracles.brute_chordal_labeling(5, edges) is not None), row.edges

    # both identities hold exactly on the transitively closed X: the
    # naturally labeled posets, 1, 2, 7, 40, 357 of them (OEIS A006455)
    @pytest.mark.parametrize("which", ["path", "cycle"])
    def test_identity_holds_exactly_when_x_is_transitive(self, which):
        first = 1 if which == "path" else 2
        holding = []
        for n in range(first, 6):
            rows = sweep_identity(n, which=which, bound=None)
            for row in rows:
                edges = [tuple(map(int, e.split(">"))) for e in row.edges.split()]
                assert row.identity == oracles.is_transitive(edges), (n, row.edges)
            holding.append(sum(row.identity for row in rows))
            if n == 3:
                # the smallest X the identities separate: a chain without its shortcut
                assert [row.edges for row in rows if not row.identity] == ["2>1 3>2"]
        assert holding == [1, 2, 7, 40, 357][first - 1:]
