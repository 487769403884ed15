import pytest

from conftest import drawn
from cut_reference import cut_along_cycle
from loquad import embeddings
from loquad.complexes import HypothesisError, lovasz_complex
from loquad.embeddings import (EmbeddedGraph, all_4cycles_facial,
                               check_face_rule_hypotheses,
                               cut_surface_orientable, embedded,
                               embedded_isomorphic, euler_characteristic,
                               is_orientable_embedding, is_quadrangulation,
                               lovasz_from_quadrangulation,
                               lovasz_quotient_embedding, oddness_functional,
                               oddness_oracle, surface_class, switch_vertex,
                               trace_faces)
from loquad.generators import klein_grid, shipped_fixtures, torus_grid
from loquad.graphs import InvariantViolation, is_bipartite
from loquad.surfaces import SurfaceClass
from oddness_reference import _cup_product, _star_cocycles, cup_product_odd


def sphere_quad():
    # the cube graph embedded in the sphere
    return embedded(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
         (0, 4), (1, 5), (2, 6), (3, 7)],
        [(3, 1, 4), (0, 2, 5), (1, 3, 6), (2, 0, 7),
         (5, 7, 0), (6, 4, 1), (7, 5, 2), (4, 6, 3)])


class TestFaceTracing:
    def test_face_lengths_cover_every_dart(self, k23):
        faces = trace_faces(k23)
        assert sorted(len(f) for f in faces) == [4, 4, 4]
        assert sum(len(f) for f in faces) == 2 * k23.graph.num_edges

    def test_cube_faces(self):
        faces = trace_faces(sphere_quad())
        assert len(faces) == 6
        assert all(len(f) == 4 for f in faces)

    def test_surface_classes(self, k4p, k23, t33, klein_odd, klein_even):
        assert surface_class(k4p) == SurfaceClass(False, 1, 1)
        assert surface_class(k23) == SurfaceClass(True, 0, 2)
        assert surface_class(t33) == SurfaceClass(True, 1, 0)
        assert surface_class(klein_odd) == SurfaceClass(False, 2, 0)
        assert surface_class(klein_even) == SurfaceClass(False, 2, 0)

    def test_quadrangulation_verdicts(self, k4p, t34):
        assert is_quadrangulation(k4p).ok
        assert is_quadrangulation(t34).ok
        # K4 in the sphere has triangular faces
        bad = embedded(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                       [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])
        verdict = is_quadrangulation(bad)
        assert not verdict.ok
        assert len(verdict.bad_face) == 3

    def test_facial_verdicts(self, k4p, t33, t34):
        assert all_4cycles_facial(k4p).ok
        assert all_4cycles_facial(t33).ok
        verdict = all_4cycles_facial(t34)
        assert not verdict.ok
        assert len(verdict.witness) == 4


class TestOrientability:
    def test_fixture_orientability(self, k4p, t33, klein_odd):
        assert not is_orientable_embedding(k4p)
        assert is_orientable_embedding(t33)
        assert not is_orientable_embedding(klein_odd)

    def test_all_positive_signs_orientable(self):
        assert is_orientable_embedding(sphere_quad())


class TestSwitching:
    def test_switch_preserves_everything_observable(self, k4p, klein_odd):
        for e in (k4p, klein_odd):
            for v in range(e.graph.n):
                s = switch_vertex(e, v)
                assert sorted(f.canonical() for f in trace_faces(s)) == \
                    sorted(f.canonical() for f in trace_faces(e))
                assert is_orientable_embedding(s) == \
                    is_orientable_embedding(e)
                assert oddness_functional(s) == oddness_functional(e)

    def test_switch_is_an_involution(self, t33):
        assert switch_vertex(switch_vertex(t33, 4), 4) == t33


class TestCutting:
    def test_cut_torus_fiber_gives_sphere(self, t33):
        # a meridian of the torus grid; cutting and capping yields chi 2
        cut = cut_along_cycle(t33, (0, 1, 2))
        assert euler_characteristic(cut) == 2
        assert is_orientable_embedding(cut)

    def test_cut_facial_cycle_disconnects_sphere(self):
        e = sphere_quad()
        cut = cut_along_cycle(e, (0, 1, 2, 3))
        from loquad.graphs import is_connected
        assert not is_connected(cut.graph)

    def test_cut_orientizes_exactly_on_odd_instances(self, k4p):
        # any odd cycle of K4 orientizes the projective plane
        assert cut_surface_orientable(k4p, (0, 1, 2))

    def test_dual_table_checks_sides_and_orientability(self, k4p, t33):
        # the face coherence table is checked against the face walks, the
        # disc around every vertex and the vertex-sign verdict when it is
        # built; a stale kept analysis stands in for a wrong one
        for e in (k4p, t33):
            wrong_verdict = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
            wrong_verdict._kept["_balance"] = (
                not is_orientable_embedding(e), False)
            with pytest.raises(InvariantViolation, match="disagree"):
                cut_surface_orientable(wrong_verdict, (0, 1, 2))
            face_lost = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
            face_lost._kept["_face_state_walks"] = \
                embeddings._face_state_walks(face_lost)[1:]
            with pytest.raises(InvariantViolation, match="1 face sides"):
                cut_surface_orientable(face_lost, (0, 1, 2))
            # one side flag turned: the coherence signs around the two ends
            # of that edge no longer multiply to +1, the premise of the cut
            # rule
            turned = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
            walks = [list(w) for w in embeddings._face_state_walks(turned)]
            walks[0][0] ^= 1
            turned._kept["_face_state_walks"] = walks
            d = walks[0][0] >> 1
            first = e.graph.names[min(e._darts.tail[d], e._darts.head[d])]
            with pytest.raises(InvariantViolation,
                               match=f"around vertex {first} multiply to -1"):
                cut_surface_orientable(turned, (0, 1, 2))


class TestOddness:
    def test_projective_k4_is_odd(self, k4p):
        assert oddness_functional(k4p)
        verdict, witness, complete = oddness_oracle(k4p)
        assert verdict is True and complete
        assert witness is not None
        assert len(witness.cycle) % 2 == 1

    def test_klein_sweep_agrees_with_oracle(self, klein_odd, klein_even):
        for e, odd in ((klein_odd, True), (klein_even, False)):
            assert oddness_functional(e) is odd
            verdict, _, _ = oddness_oracle(e)
            assert verdict in (None, odd)

    def test_oracle_returns_witness_on_odd(self, klein_odd):
        verdict, witness, _ = oddness_oracle(klein_odd, 200000)
        assert verdict is True
        assert witness.cut_surface_orientable

    def test_reversal_parity_matches_cup_product(self):
        # the fixtures, Klein grids m, n in 3..9 with twists 0..2 and torus
        # grids m, n in 3..6, each as generated and in three seeded draws
        base = [f.embedding for f in shipped_fixtures()]
        base += [klein_grid(m, n, t) for m in range(3, 10)
                 for n in range(3, 10) for t in range(3)]
        base += [torus_grid(m, n) for m in range(3, 7) for n in range(3, 7)]
        corpus = [e for b in base
                  for e in (b, *(drawn(b, seed)[0] for seed in (1, 2, 3)))]
        odd_cases = 0
        for e in corpus:
            _, reversal, _, _ = embeddings._face_coherence(e)
            r = [ed for ed, rev in zip(e.signs, reversal) if rev]
            # R is a Z2 cycle, empty exactly on orientable embeddings
            degree = [0] * e.graph.n
            for u, v in r:
                degree[u] += 1
                degree[v] += 1
            assert all(d % 2 == 0 for d in degree)
            assert (not r) == is_orientable_embedding(e)
            assert is_quadrangulation(e).ok
            # Wu's identity, on R and in the reference
            assert sum(e.signs[ed] < 0 for ed in r) % 2 == \
                euler_characteristic(e) % 2
            triangles, cw, _ = _star_cocycles(e)
            assert _cup_product(triangles, cw, cw) == \
                euler_characteristic(e) % 2
            if is_orientable_embedding(e) or is_bipartite(e.graph):
                continue
            odd_cases += 1
            assert oddness_functional(e) == cup_product_odd(e)
        assert len(corpus) == 688 and odd_cases == 492

    def test_face_hypotheses_match_the_reference(self):
        # a tree's single face meets itself; planar K4 has triangles
        path = embedded(3, [(0, 1), (1, 2)], [(1,), (0, 2), (1,)])
        k4 = embedded(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                      [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])
        for e, name in ((path, "faces are simple cycles"),
                        (k4, "faces have even length")):
            with pytest.raises(HypothesisError, match=name) as got:
                oddness_functional(e)
            with pytest.raises(HypothesisError) as want:
                cup_product_odd(e)
            assert str(got.value) == str(want.value)

    def test_wu_check_catches_a_wrong_euler_characteristic(
            self, monkeypatch, k4p, t33, klein_odd, klein_even):
        chi = embeddings.euler_characteristic
        monkeypatch.setattr(embeddings, "euler_characteristic",
                            lambda e: chi(e) + 1)
        for e in (k4p, t33, klein_odd, klein_even):
            fresh = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
            with pytest.raises(InvariantViolation, match="w1 squared"):
                oddness_functional(fresh)


class TestEmbeddedIsomorphism:
    def test_reflexive_and_gauge_stable(self, k4p, klein_odd):
        assert embedded_isomorphic(k4p, k4p)
        assert embedded_isomorphic(klein_odd, switch_vertex(klein_odd, 3))

    def test_distinguishes_surfaces(self, t33, klein_even):
        assert not embedded_isomorphic(t33, klein_even)

    def test_distinguishes_klein_from_torus_grid(self, t33):
        assert not embedded_isomorphic(t33, klein_grid(3, 3, 0))

    def test_depth_is_not_bounded_by_recursion_limit(self):
        # 1,225 vertices, one backtracking level each
        e = klein_grid(35, 35, 0)
        assert embedded_isomorphic(e, klein_grid(35, 35, 0))


class TestQuotientRoundTrip:
    def test_round_trip_on_quadrangulations(self, k4p, t33, klein_odd):
        for e in (k4p, t33, klein_odd):
            L = lovasz_from_quadrangulation(e)
            q = lovasz_quotient_embedding(L)
            assert embedded_isomorphic(q, e)

    def test_torus_grid_3x5_round_trip(self):
        e = torus_grid(3, 5)
        L = lovasz_from_quadrangulation(e)
        assert embedded_isomorphic(lovasz_quotient_embedding(L), e)

    def test_fold_round_trips_on_grids_and_fixtures(self):
        # the fixtures, Klein grids m, n in 3..8 with twists 0..1 and torus
        # grids m, n in 3..8 that meet the face-rule hypotheses, each as
        # generated and in two seeded draws, each complex built both by
        # the definition and by the face rule
        base = [f.embedding for f in shipped_fixtures()]
        base += [klein_grid(m, n, t) for m in range(3, 9)
                 for n in range(3, 9) for t in range(2)]
        base += [torus_grid(m, n) for m in range(3, 9) for n in range(3, 9)]
        folds = 0
        for e in base:
            try:
                check_face_rule_hypotheses(e)
            except HypothesisError:
                continue
            for d in (e, drawn(e, 1)[0], drawn(e, 2)[0]):
                for L in (lovasz_complex(d.graph),
                          lovasz_from_quadrangulation(d)):
                    assert embedded_isomorphic(lovasz_quotient_embedding(L),
                                               d)
                    folds += 1
        assert folds == 384

    def test_fold_names_the_defect_of_the_double_cover(self):
        # a non-facial 4-cycle leaves Lo(G) short of a closed surface
        L = lovasz_complex(torus_grid(3, 4).graph)
        with pytest.raises(HypothesisError,
                           match=r"closed surface \(edge \(\(0,\),\(0, 4, 5, "
                                 r"6\)\) in 3 triangles\)"):
            lovasz_quotient_embedding(L)
