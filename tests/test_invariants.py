import pytest

from loquad import complexes, embeddings, invariants, surfaces
from loquad.complexes import HypothesisError, lovasz_complex
from loquad.embeddings import (EmbeddedGraph, embedded,
                               lovasz_from_quadrangulation)
from loquad.generators import klein_grid, torus_grid
from loquad.graphs import Graph, InvariantViolation, chromatic_number
from loquad.invariants import (build_labeling, cyclic_quad_count, gray_count,
                               invariant_report, is_gray, labeled_quads,
                               symmetric_triangulation, verify_theorems)
from loquad.surfaces import SurfaceClass


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


class TestLabeling:
    def test_k4_labeling_golden(self):
        L = lovasz_complex(complete_graph(4))
        lab = build_labeling(L)
        for v in range(4):
            single = (v,)
            other = tuple(u for u in range(4) if u != v)
            assert lab[single] == v + 1
            assert lab[other] == -(v + 1)

    def test_labels_paired_by_involution(self, t33):
        L = lovasz_from_quadrangulation(t33)
        lab = build_labeling(L)
        for a, value in lab.items():
            i = L.vertex_of(a)
            assert lab[L.labels[L.nu[i]]] == -value

    def test_no_singletons_is_an_error(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(HypothesisError):
            build_labeling(lovasz_complex(c4))


class TestSymmetricTriangulation:
    def test_sizes(self, k4p, t33):
        for e, size in ((k4p, 12), (t33, 36)):
            L = lovasz_from_quadrangulation(e)
            tris = symmetric_triangulation(labeled_quads(L), build_labeling(L))
            assert len(tris) == size

    def test_triangulation_is_involution_invariant(self, k4p, klein_odd):
        for e in (k4p, klein_odd):
            L = lovasz_from_quadrangulation(e)
            lab = build_labeling(L)
            for rule in ("min", "max"):
                tris = {frozenset(lab[v] for v in t)
                        for t in symmetric_triangulation(labeled_quads(L),
                                                         lab, rule)}
                for t in tris:
                    mirror = frozenset(-x for x in t)
                    assert mirror in tris
                    assert mirror != t

    def test_unknown_rule_rejected(self, k4p):
        L = lovasz_from_quadrangulation(k4p)
        with pytest.raises(ValueError):
            symmetric_triangulation(labeled_quads(L), build_labeling(L),
                                    rule="diagonal")


class TestGrayness:
    def test_is_gray_examples(self):
        lab = {"a": 1, "b": -2, "c": 3, "d": -4}
        assert is_gray(("a", "b", "c"), lab)          # signs +,-,+
        assert not is_gray(("a", "b", "d"), lab)      # signs +,-,-
        assert is_gray(("b", "c", "d"), lab)          # signs -,+,-
        assert not is_gray(("a", "c", "d"), lab)      # middle agrees with lo

    def test_unpaired_gray_triangle_is_a_violation(self):
        # one gray triangle without its mirror: an explicit check, so it
        # holds under python -O as well
        lab = {"a": 1, "b": -2, "c": 3}
        with pytest.raises(InvariantViolation):
            gray_count([("a", "b", "c")], lab)

    def test_unpaired_cyclic_quad_is_a_violation(self):
        lab = {"a": 1, "b": 2, "c": 3, "d": 4}
        with pytest.raises(InvariantViolation):
            cyclic_quad_count([("a", "b", "c", "d")], lab)

    def test_gray_count_k4(self, k4p):
        L = lovasz_from_quadrangulation(k4p)
        lab = build_labeling(L)
        tris = symmetric_triangulation(labeled_quads(L), lab)
        assert gray_count(tris, lab) == 3

    def test_rule_choice_preserves_parity(self, fixtures):
        for fx in fixtures:
            e = fx.embedding
            if e.graph.__class__ is not Graph:
                continue
            try:
                L = lovasz_from_quadrangulation(e)
            except HypothesisError:
                continue
            lab, quads = build_labeling(L), labeled_quads(L)
            g_min = gray_count(symmetric_triangulation(quads, lab, "min"), lab)
            g_max = gray_count(symmetric_triangulation(quads, lab, "max"), lab)
            assert g_min % 2 == g_max % 2

    def test_gray_parity_equals_cyclic_parity(self, k4p, t33, klein_odd,
                                              klein_even):
        for e in (k4p, t33, klein_odd, klein_even):
            L = lovasz_from_quadrangulation(e)
            lab, quads = build_labeling(L), labeled_quads(L)
            g = gray_count(symmetric_triangulation(quads, lab), lab)
            r = cyclic_quad_count(quads, lab)
            assert g % 2 == r % 2

    def test_relabeling_invariance_of_gray_parity(self, k4p):
        base = invariant_report(k4p).gray_count % 2
        perm = [2, 0, 3, 1]
        g = k4p.graph
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rotations = [()] * g.n
        for v in range(g.n):
            rotations[perm[v]] = tuple(perm[u] for u in k4p.rotations[v])
        neg = [(perm[u], perm[v]) for (u, v), s in k4p.signs.items()
               if s == -1]
        from loquad.embeddings import embedded
        relabeled = embedded(g.n, edges, rotations, neg)
        assert invariant_report(relabeled).gray_count % 2 == base


class TestInvariantReport:
    def test_k4_projective(self, k4p):
        r = invariant_report(k4p)
        assert r.gray_count == 3
        assert r.cyclic_count == 1
        assert (r.cohom_ind, r.ind, r.coind) == (2, 2, 2)
        assert r.chromatic_lower_bound == 4
        assert r.lo_class == SurfaceClass(True, 0, 2)
        assert r.odd is True
        assert not r.non_tidy
        assert r.but_manifold
        assert chromatic_number(k4p.graph)[0] == 4

    def test_torus_grid(self, t33):
        r = invariant_report(t33)
        assert r.lo_class == SurfaceClass(True, 1, 0)
        assert r.odd is None
        assert (r.cohom_ind, r.ind, r.coind) == (1, 1, 1)
        assert r.chromatic_lower_bound == 3
        assert r.gray_count % 2 == 0

    def test_klein_instances(self, klein_odd, klein_even):
        r = invariant_report(klein_odd)
        assert r.odd is True
        assert r.gray_count % 2 == 1
        assert (r.cohom_ind, r.ind, r.coind) == (2, 2, 1)
        assert r.non_tidy and r.but_manifold
        assert r.lo_class == SurfaceClass(False, 2, 0)
        assert r.chromatic_lower_bound == 4

        r = invariant_report(klein_even)
        assert r.odd is False
        assert r.gray_count % 2 == 0
        assert (r.cohom_ind, r.ind, r.coind) == (1, 1, 1)
        assert not r.non_tidy
        assert r.lo_class == SurfaceClass(True, 1, 0)

    def test_bipartite_input_rejected(self):
        with pytest.raises(HypothesisError):
            invariant_report(torus_grid(4, 4))


class TestCrossCheckDisagreements:
    def test_oracle_disagreement_is_a_violation(self, monkeypatch, k4p):
        # k4-projective is odd; an oracle that finds no witness disagrees
        monkeypatch.setattr(embeddings, "oddness_oracle",
                            lambda e, cap: (False, None, True))
        with pytest.raises(InvariantViolation, match="oddness disagreement"):
            embeddings.is_odd_quadrangulation(k4p, run_oracle=True)

    def test_gray_parity_contradiction_is_a_violation(self, monkeypatch,
                                                      k4p):
        # gray count 3 says odd; a decision of not odd contradicts it
        monkeypatch.setattr("loquad.invariants.is_odd_quadrangulation",
                            lambda e: embeddings.OddnessVerdict(False))
        with pytest.raises(InvariantViolation,
                           match=r"gray parity \(3\) contradicts"):
            invariant_report(k4p)


class TestVerifyTheorems:
    def test_all_pass_on_good_fixtures(self, k4p, t33, klein_odd):
        for e in (k4p, t33, klein_odd):
            verdicts = verify_theorems(e)
            assert all(v.status != "fail" for v in verdicts), verdicts
            names = {v.name for v in verdicts}
            assert "double_cover_surface" in names
            assert "gray_parity_agreement" in names

    def test_non_facial_instance_reports_witness(self, t34):
        verdicts = {v.name: v for v in verify_theorems(t34)}
        v = verdicts["non_facial_rejection"]
        assert v.status == "pass"
        assert v.detail

    def test_oracle_mode(self, k4p):
        verdicts = {v.name: v for v in verify_theorems(k4p, run_oracle=True)}
        assert verdicts["gray_parity_agreement"].status == "pass"

    def test_oracle_verdicts_in_gray_parity_agreement(self, monkeypatch,
                                                       k4p):
        # k4-projective is odd: a contrary oracle fails the check, an open
        # one passes it
        for result, verdict in (((False, None, True),
                                 ("fail", "cutting oracle disagrees")),
                                ((None, None, False), ("pass", ""))):
            monkeypatch.setattr("loquad.invariants.oddness_oracle",
                                lambda e, cap: result)
            v = {v.name: v for v in verify_theorems(k4p, run_oracle=True)}
            assert (v["gray_parity_agreement"].status,
                    v["gray_parity_agreement"].detail) == verdict

    def test_non_quadrangulation_is_skipped_not_raised(self):
        path = embedded(2, [(0, 1)], [(1,), (0,)])
        verdicts = {v.name: v for v in verify_theorems(path)}
        assert all(v.status == "skipped" for v in verdicts.values())
        assert verdicts["k23_dichotomy"].detail == \
            "needs an all-facial quadrangulation"
        assert verdicts["non_facial_rejection"].detail == \
            "needs a non-bipartite quadrangulation"

    @pytest.mark.parametrize("exc", [InvariantViolation("w1 cross-check"),
                                     RuntimeError("oddness disagreement")],
                             ids=lambda exc: type(exc).__name__)
    def test_runtime_error_in_a_check_becomes_fail(self, monkeypatch, k4p,
                                                   exc):
        clean = verify_theorems(k4p, run_oracle=True)

        def raising(e, cap):
            raise exc
        monkeypatch.setattr("loquad.invariants.oddness_oracle", raising)
        verdicts = verify_theorems(k4p, run_oracle=True)
        assert [v.name for v in verdicts] == [v.name for v in clean]
        for before, after in zip(clean, verdicts):
            if after.name == "gray_parity_agreement":
                assert (after.status, after.detail) == ("fail", str(exc))
            else:
                assert after == before

    def test_failed_min_report_fails_both_of_its_checks(self, monkeypatch,
                                                          k4p):
        clean = verify_theorems(k4p)
        report = invariants.invariant_report
        attempts = []

        def failing_min(e, rule="min"):
            if rule == "min":
                attempts.append(rule)
                raise InvariantViolation("min report broken")
            return report(e, rule)
        monkeypatch.setattr(invariants, "invariant_report", failing_min)
        verdicts = verify_theorems(k4p)
        shared = {"gray_parity_agreement", "chromatic_bound"}
        for before, after in zip(clean, verdicts):
            if after.name in shared:
                assert (after.status, after.detail) == \
                    ("fail", "min report broken")
            else:
                assert after == before
        # the raise is not kept: each of the two checks builds it anew
        assert attempts == ["min", "min"]

    def test_recursion_error_in_a_check_still_raises(self, monkeypatch, k4p):
        def too_deep(a, b):
            raise RecursionError("too deep")
        monkeypatch.setattr("loquad.invariants.embedded_isomorphic", too_deep)
        with pytest.raises(RecursionError):
            verify_theorems(k4p)


# ---------------------------------------------------------------------------
# Work counts: one analysis per embedding, one surface verdict per complex
# ---------------------------------------------------------------------------

def test_faces_and_face_rule_complex_are_built_once(monkeypatch):
    walked, assembled = [], []
    walks = embeddings._face_state_walks
    assemble = embeddings._assemble_lovasz

    def counting_walks(e):
        walked.append(e)
        return walks(e)

    def counting_assemble(g, labels, faces):
        assembled.append(g)
        return assemble(g, labels, faces)

    def fresh(e):
        # the generators' self-checks have analysed their own object
        return EmbeddedGraph(e.graph, e.rotations, dict(e.signs))

    report_input = fresh(klein_grid(5, 5, 0))
    verify_input = fresh(klein_grid(5, 7, 0))
    monkeypatch.setattr(embeddings, "_face_state_walks", counting_walks)
    monkeypatch.setattr(embeddings, "_assemble_lovasz", counting_assemble)
    e = report_input
    first = invariant_report(e)
    assert walked == [e] and len(assembled) == 1
    assert invariant_report(e) == first
    assert walked == [e] and len(assembled) == 1

    walked.clear()
    assembled.clear()
    verdicts_built, links_walked = [], []
    verdict = surfaces._surface_verdict
    link_walk = complexes._link_walk

    def counting_verdict(K):
        verdicts_built.append(K)
        return verdict(K)

    def counting_link_walk(star, v):
        links_walked.append(v)
        return link_walk(star, v)

    reports_built = []
    report = invariants.invariant_report

    def counting_report(e, rule="min"):
        reports_built.append(rule)
        return report(e, rule)

    monkeypatch.setattr(surfaces, "_surface_verdict", counting_verdict)
    monkeypatch.setattr(complexes, "_link_walk", counting_link_walk)
    quads_labeled = []
    label_quads = invariants.labeled_quads

    def counting_labeled_quads(L):
        quads_labeled.append(L)
        return label_quads(L)

    monkeypatch.setattr(invariants, "invariant_report", counting_report)
    monkeypatch.setattr(invariants, "labeled_quads", counting_labeled_quads)
    e = verify_input
    verdicts = verify_theorems(e)
    assert all(v.passed for v in verdicts), verdicts
    # the input only: the map isomorphism of quotient_round_trip steps
    # states of the folded embedding without tracing its faces
    assert walked == [e]
    assert len(assembled) == 1
    # the definitional complex and the face-rule complex, 140 vertices each
    assert len(verdicts_built) == 2
    assert verdicts_built[0] is not verdicts_built[1]
    assert len(links_walked) == sum(K.num_vertices for K in verdicts_built)
    assert len(links_walked) == 280
    # gray_parity_agreement and chromatic_bound share the min-rule report
    assert reports_built == ["min", "max"]
    # each report labels the quads of its complex once
    assert len(quads_labeled) == 2
