from collections import Counter

import pytest

from loquad.graphs import Graph
from loquad.complexes import (HypothesisError, VertexKind, closed_sets,
                              complex_from_facets, lovasz_complex,
                              nu_free_on_faces, quotient_complex)
from loquad.embeddings import lovasz_from_quadrangulation
from test_surfaces import euler_characteristic


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


class TestClosedSets:
    def test_running_example_golden(self, fig1):
        # display names are 1-based: {1},{3},{3,5},{2,4},{1,3,5},{2,3,4},
        # {2,4,6},{1,2,4,6}
        expected = {(0,), (2,), (2, 4), (1, 3), (0, 2, 4), (1, 2, 3),
                    (1, 3, 5), (0, 1, 3, 5)}
        assert set(closed_sets(fig1)) == expected

    def test_four_cycle_has_only_diagonals(self):
        assert set(closed_sets(cycle_graph(4))) == {(0, 2), (1, 3)}

    def test_k4_count(self):
        assert len(closed_sets(complete_graph(4))) == 14

    def test_closed_sets_never_contain_empty_or_everything(self, fig1):
        for a in closed_sets(fig1):
            assert 0 < len(a) < fig1.n


class TestSimplicialComplex:
    def test_keeps_only_maximal_faces(self):
        K = complex_from_facets(("a", "b", "c"),
                                [frozenset({0, 1, 2}), frozenset({0, 1})])
        assert set(K.facets) == {frozenset({0, 1, 2})}

    def test_isolated_vertices_are_facets(self):
        K = complex_from_facets(("a", "b"), [frozenset({0})])
        assert frozenset({1}) in K.facets

    def test_skeleton_and_counts(self):
        K = complex_from_facets(tuple("abcd"),
                                [frozenset(t) for t in
                                 ({0, 1, 2}, {0, 1, 3}, {0, 2, 3},
                                  {1, 2, 3})])
        assert len(K.faces(1)) == 6
        assert len(K.triangles()) == 4
        assert euler_characteristic(K) == 2


class TestLovaszComplex:
    def test_running_example_shape(self, fig1):
        L = lovasz_complex(fig1)
        assert L.base.num_vertices == 8
        assert len(L.base.edge_set()) == 10
        assert len(L.base.triangles()) == 2

    def test_four_cycle_gives_two_isolated_vertices(self):
        L = lovasz_complex(cycle_graph(4))
        assert set(L.base.facets) == {frozenset({0}), frozenset({1})}
        assert L.nu == (1, 0)

    def test_involution_is_a_free_involution(self, fig1):
        L = lovasz_complex(fig1)
        for i in range(len(L.labels)):
            assert L.nu[L.nu[i]] == i
            assert L.nu[i] != i

    def test_involution_matches_common_neighbors(self, fig1):
        from loquad.graphs import common_neighbors
        L = lovasz_complex(fig1)
        for i, lab in enumerate(L.labels):
            assert set(L.labels[L.nu[i]]) == common_neighbors(fig1, lab)

    def test_k4_is_a_triangulated_surface_complex(self):
        L = lovasz_complex(complete_graph(4))
        assert (L.base.num_vertices, len(L.base.edge_set()),
                len(L.base.triangles())) == (14, 36, 24)

    def test_kind_census_k4(self):
        kinds = Counter(lovasz_complex(complete_graph(4)).kinds)
        assert kinds == {VertexKind.SINGLETON: 4, VertexKind.NEIGHBORHOOD: 4,
                         VertexKind.DIAGONAL: 6}

    def test_kind_census_torus_grid(self, t33):
        kinds = Counter(lovasz_from_quadrangulation(t33).kinds)
        assert kinds == {VertexKind.SINGLETON: 9, VertexKind.NEIGHBORHOOD: 9,
                         VertexKind.DIAGONAL: 18}

    def test_face_rule_construction_matches_definition(self, k4p, t33):
        for e in (k4p, t33):
            built = lovasz_from_quadrangulation(e)
            direct = lovasz_complex(e.graph)
            assert built.labels == direct.labels
            assert set(built.base.facets) == set(direct.base.facets)
            assert built.nu == direct.nu
            assert built.kinds == direct.kinds


class TestQuotient:
    def test_k4_quotient_shape(self):
        L = lovasz_complex(complete_graph(4))
        Q, orbit = quotient_complex(L)
        assert Q.num_vertices == 7
        assert len(Q.edge_set()) == 18
        assert len(Q.triangles()) == 12
        assert euler_characteristic(Q) == 1
        for i in range(len(L.labels)):
            assert orbit[i] == orbit[L.nu[i]]

    def test_freeness_check(self, fig1):
        assert nu_free_on_faces(lovasz_complex(fig1)) is None


def test_labeling_error_without_singletons():
    from loquad.invariants import build_labeling
    with pytest.raises(HypothesisError):
        build_labeling(lovasz_complex(cycle_graph(4)))
