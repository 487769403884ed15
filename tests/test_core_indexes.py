"""Differential tests: the indexed complex and the wedge-based 4-cycle
search against brute-force references, on fixed seeds."""

import itertools
import random

import pytest

from loquad.complexes import (ComplexError, SimplicialComplex,
                              complex_from_facets, lovasz_complex)
from loquad.embeddings import lovasz_from_quadrangulation
from loquad.graphs import Graph, canonical_cycle, find_k23, four_cycles
from loquad.surfaces import link_cycle

RANDOM_SEEDS = range(50)


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a)
                                    for j in range(b)])


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    p = rng.uniform(0.2, 0.8)
    return Graph.from_edges(n, [(u, v) for u, v in
                                itertools.combinations(range(n), 2)
                                if rng.random() < p])


def brute_four_cycles(g):
    out = set()
    for subset in itertools.combinations(range(g.n), 4):
        for order in itertools.permutations(subset):
            if all(order[(i + 1) % 4] in g.adj[order[i]] for i in range(4)):
                out.add(canonical_cycle(order))
    return sorted(out)


def brute_find_k23(g):
    for u, v in itertools.combinations(range(g.n), 2):
        common = [w for w in range(g.n)
                  if w in g.adj[u] and w in g.adj[v]]
        if len(common) >= 3:
            return ((u, v), tuple(common[:3]))
    return None


def corpus(fixtures):
    graphs = [complete_graph(4), complete_bipartite(3, 3),
              complete_bipartite(2, 3)]
    graphs += [fx.embedding.graph for fx in fixtures]
    graphs += [random_graph(seed) for seed in RANDOM_SEEDS]
    return graphs


def test_four_cycles_match_brute_force(fixtures):
    for g in corpus(fixtures):
        assert four_cycles(g) == brute_four_cycles(g), g


def test_find_k23_matches_brute_force(fixtures):
    hits = 0
    for g in corpus(fixtures):
        expected = brute_find_k23(g)
        assert find_k23(g) == expected, g
        hits += expected is not None
    assert hits > 10      # the corpus exercises both outcomes


def brute_faces(K, dim):
    out = {frozenset(s) for f in K.facets
           for s in itertools.combinations(sorted(f), dim + 1)}
    if dim == 0:
        out |= {frozenset([v]) for v in range(K.num_vertices)}
    return out


def complexes(fixtures):
    mixed = complex_from_facets(tuple("abcdefg"), [
        frozenset({0, 1, 2, 3}), frozenset({3, 4}), frozenset({4, 5, 6})])
    out = [mixed, lovasz_complex(complete_graph(4)).base]
    out += [lovasz_from_quadrangulation(fx.embedding).base
            for fx in fixtures if fx.name in ("k4-projective",
                                              "torus-grid-3-3",
                                              "klein-grid-3-5-0")]
    return out


def test_faces_are_immutable_and_match_recomputation(fixtures):
    for K in complexes(fixtures):
        for dim in range(K.dimension() + 2):
            faces = K.faces(dim)
            assert isinstance(faces, frozenset)
            assert faces == brute_faces(K, dim)
        assert K.all_faces() == set().union(
            *(brute_faces(K, d) for d in range(K.dimension() + 1)))


def test_triangle_indexes_match_recomputation(fixtures):
    for K in complexes(fixtures):
        tris = brute_faces(K, 2)
        for v in range(K.num_vertices):
            assert sorted(map(sorted, K.vertex_star(v))) == \
                sorted(sorted(t) for t in tris if v in t)
        for e in brute_faces(K, 1):
            assert sorted(map(sorted, K.edge_star(e))) == \
                sorted(sorted(t) for t in tris if e < t)
        assert K.edge_star(frozenset({0, K.num_vertices})) == ()


def test_link_cycle_order_and_defects():
    tetra = complex_from_facets(tuple("abcd"), [
        frozenset(t) for t in itertools.combinations(range(4), 3)])
    # starts at the least link vertex, then its lesser neighbor
    assert link_cycle(tetra, 0) == [1, 2, 3]
    assert link_cycle(tetra, 3) == [0, 1, 2]
    # two tetrahedra pinched at vertex 3: its link is two triangles
    pinched = complex_from_facets(tuple("abcdefg"), [
        frozenset(t) for t in itertools.combinations(range(4), 3)]
        + [frozenset(t) for t in itertools.combinations(range(3, 7), 3)])
    assert link_cycle(pinched, 3) is None
    assert link_cycle(pinched, 0) == [1, 2, 3]
    isolated = complex_from_facets(("a", "b"), [frozenset({0})])
    assert link_cycle(isolated, 1) is None


def test_mixed_sizes_keep_only_maximal_faces():
    faces = [frozenset(s) for s in ({0, 1, 2, 3}, {0, 1, 2}, {1, 3},
                                    {4, 5}, {5}, {1, 4}, {4}, {0, 1, 2, 3})]
    K = complex_from_facets(tuple("abcdefg"), faces)
    assert set(K.facets) == {frozenset({0, 1, 2, 3}), frozenset({4, 5}),
                             frozenset({1, 4}), frozenset({6})}


def test_constructor_rejects_nested_facets_of_different_sizes():
    with pytest.raises(ComplexError):
        SimplicialComplex(tuple("abc"), frozenset(
            [frozenset({0, 1, 2}), frozenset({0, 2})]))
    K = SimplicialComplex(tuple("abcd"), frozenset(
        [frozenset({0, 1, 2}), frozenset({1, 2, 3})]))
    assert len(K.edge_set()) == 5
