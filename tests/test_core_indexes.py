"""Differential tests: the indexed complex and the wedge-based 4-cycle
search against brute-force references, on fixed seeds."""

import dataclasses
import itertools
import random

import pytest

import involution_reference as reference
from loquad.complexes import (ComplexError, HypothesisError,
                              SimplicialComplex, _link_graphs,
                              complex_from_facets, lovasz_complex,
                              nu_free_on_faces, quotient_complex)
from loquad.embeddings import lovasz_from_quadrangulation
from loquad.graphs import Graph, canonical_cycle, find_k23, four_cycles

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


def brute_link(K, v):
    """Per link vertex w of v, the sorted third vertices of the triangles
    on the edge vw."""
    link = {}
    for t in brute_faces(K, 2):
        if v in t:
            for w in t - {v}:
                link.setdefault(w, []).extend(t - {v, w})
    return {w: sorted(thirds) for w, thirds in link.items()}


def test_link_graphs_match_recomputation(fixtures):
    for K in complexes(fixtures):
        graphs = _link_graphs(K)
        assert len(graphs) == K.num_vertices
        for v, adj in enumerate(graphs):
            assert {w: sorted(thirds) for w, thirds in adj.items()} == \
                brute_link(K, v)
    # the mixed complex: a tetrahedron vertex links a triangle, and a
    # vertex of one triangle links an edge, which is not a cycle
    mixed = complexes(fixtures)[0]
    assert mixed._links[0] == (1, 2, 3)
    assert _link_graphs(mixed)[4] == {5: [6], 6: [5]}
    assert mixed._links[4] is None


def test_link_cycle_order_and_defects():
    tetra = complex_from_facets(tuple("abcd"), [
        frozenset(t) for t in itertools.combinations(range(4), 3)])
    # starts at the least link vertex, then its lesser neighbor
    assert tetra._links[0] == (1, 2, 3)
    assert tetra._links[3] == (0, 1, 2)
    # two tetrahedra pinched at vertex 3: its link is two triangles
    pinched = complex_from_facets(tuple("abcdefg"), [
        frozenset(t) for t in itertools.combinations(range(4), 3)]
        + [frozenset(t) for t in itertools.combinations(range(3, 7), 3)])
    assert pinched._links[3] is None
    assert pinched._links[0] == (1, 2, 3)
    isolated = complex_from_facets(("a", "b"), [frozenset({0})])
    assert isolated._links[1] is None


def hand_made_nu(L, rng, apart):
    """A seeded involution of L's vertices; with `apart`, each pair shares
    no facet, and a vertex left without a partner is fixed."""
    n = L.base.num_vertices
    near = [set() for _ in range(n)]
    if apart:
        for f in L.base.facets:
            for v in f:
                near[v] |= f
    nu = list(range(n))
    order = rng.sample(range(n), n)
    unpaired = set(order)
    for v in order:
        if v in unpaired:
            unpaired.discard(v)
            choices = sorted(unpaired - near[v])
            if choices:
                u = rng.choice(choices)
                nu[v], nu[u] = u, v
                unpaired.discard(u)
    return tuple(nu)


def involution_corpus(fixtures):
    graphs = [g for g in map(random_graph, range(150)) if g.n <= 8]
    graphs += [fx.embedding.graph for fx in fixtures]
    out = [lovasz_complex(g) for g in graphs]
    out += [lovasz_from_quadrangulation(fx.embedding) for fx in fixtures
            if fx.embedding._hypothesis_failure is None]
    rng = random.Random(15)
    out += [dataclasses.replace(L, nu=hand_made_nu(L, rng, apart))
            for L in out[:80] for apart in (False, True)]
    return out


def test_involution_checks_match_all_faces_reference(fixtures):
    corpus = involution_corpus(fixtures)
    assert len(corpus) > 200
    free = []
    for L in corpus:
        face = nu_free_on_faces(L)
        ref_face = reference.nu_free_on_faces(L)
        assert (face is None) == (ref_face is None)
        free.append(face is None)
        if face is None:
            assert quotient_complex(L) == reference.quotient_complex(L)
            continue
        assert frozenset(L.nu[v] for v in face) == face
        assert any(face <= f for f in L.base.facets)
        raised = []
        for check in (quotient_complex, reference.quotient_complex):
            with pytest.raises(HypothesisError) as info:
                check(L)
            raised.append(info.value.hypothesis)
        assert raised == ["involution free on faces"] * 2
    # the CN involution is free; the hand-made ones, the last 160, give
    # both outcomes
    assert all(free[:-160])
    assert 50 < sum(free[-160:]) < 110


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
