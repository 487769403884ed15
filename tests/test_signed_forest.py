"""The one signed labelling, `graphs.signed_forest`, against independent
routes: the triangle-by-triangle orientation of `orientation_reference`
for the complexes, networkx for the graph questions, and two separate
labellings for the two sign-balance answers that an embedding reads off
the graph's parity forest.
"""

import random
from functools import lru_cache

import networkx as nx

from loquad.complexes import HypothesisError, lovasz_complex
from loquad.embeddings import (EmbeddedGraph, embedded,
                               lovasz_from_quadrangulation, switch_vertex)
from loquad.generators import k4_projective, klein_grid, torus_grid
from loquad.graphs import Graph, is_bipartite, is_connected, signed_forest
from loquad.surfaces import check_surface

from orientation_reference import _coherently_orientable
from test_darts import CORPUS as DART_CORPUS
from test_oracle_fast import random_rotation_system
from test_surfaces import RP2, TETRAHEDRON, TORUS7


def signed(n, edges):
    """`signed_neighbors` of a signed edge list, tagged by edge index."""
    nbrs = [[] for _ in range(n)]
    for i, (u, v, s) in enumerate(edges):
        nbrs[u].append((i, v, s))
        nbrs[v].append((i, u, s))
    return nbrs.__getitem__


def test_forest_labels_agree_with_its_edges():
    # a 5-cycle with two negative edges, and vertex 5 isolated
    cycle = [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, -1), (0, 4, 1)]
    forest = signed_forest(6, signed(6, cycle))
    assert forest.balanced
    assert forest.up.count(None) == 2 and forest.up[5] is None
    assert forest.order[0] == 0 and sorted(forest.order) == list(range(6))
    for w, edge in enumerate(forest.up):
        if edge is not None:
            i, u = edge
            assert forest.order.index(u) < forest.order.index(w)
            assert forest.labels[w] == forest.labels[u] * cycle[i][2]
    # a positive chord closes the triangle 0-1-2 with one negative edge
    assert not signed_forest(6, signed(6, cycle + [(0, 2, 1)])).balanced


@lru_cache(maxsize=None)
def embeddings_corpus():
    """Klein and torus grids with m, n in 3..7, the Klein twists 0..2, and
    K4 on the projective plane, each as generated and after three seeded
    vertex switches."""
    out = [klein_grid(m, n, t) for m in range(3, 8) for n in range(3, 8)
           for t in range(3)]
    out += [torus_grid(m, n) for m in range(3, 8) for n in range(3, 8)]
    out.append(k4_projective())
    rng = random.Random(13)
    for e in list(out):
        for v in rng.sample(range(e.graph.n), 3):
            e = switch_vertex(e, v)
        out.append(e)
    return out


@lru_cache(maxsize=None)
def complex_corpus():
    """The face-rule complex, where its hypotheses hold, and the
    definitional complex of every embedding of the corpus, plus the three
    triangulations of `test_surfaces`."""
    out = [TETRAHEDRON, RP2, TORUS7]
    for e in embeddings_corpus():
        try:
            out.append(lovasz_from_quadrangulation(e).base)
        except HypothesisError:
            pass
        out.append(lovasz_complex(e.graph).base)
    return out


def skeleton_components(K) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(K.num_vertices))
    g.add_edges_from(tuple(e) for e in K.edge_set())
    return nx.number_connected_components(g)


def test_surface_verdict_matches_the_triangle_orientation():
    surfaces = {True: 0, False: 0}
    disconnected = 0
    for K in complex_corpus():
        verdict = check_surface(K)
        if verdict.is_surface:
            assert skeleton_components(K) == 1
            assert verdict.surface.orientable == _coherently_orientable(K)
            surfaces[verdict.surface.orientable] += 1
        elif verdict.witness.kind == "disconnected":
            assert verdict.witness.detail == \
                f"{skeleton_components(K)} components"
            disconnected += 1
    assert surfaces[True] >= 50 and surfaces[False] >= 50
    assert surfaces[True] + surfaces[False] >= 200
    assert disconnected >= 10


def graph_corpus():
    out = [e.graph for e in embeddings_corpus()]
    out += [K.skeleton_graph() for K in complex_corpus()]
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        out.append(Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]))
    return out


def test_graph_questions_match_networkx():
    graphs = graph_corpus()
    assert len(graphs) >= 500
    seen = set()
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        answers = (is_bipartite(g), is_connected(g))
        assert answers == (nx.is_bipartite(h), nx.is_connected(h))
        seen.add(answers)
    assert len(seen) == 4


def test_graph_keeps_one_labelling():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert is_bipartite(g) and not is_connected(g)
    assert g._parity is g._parity


# ---------------------------------------------------------------------------
# The two sign-balance answers of an embedding, from one labelling
# ---------------------------------------------------------------------------

def separate_labellings(e):
    """Whether the signs, and the negated signs, are balanced: each by a
    labelling of its own, along the adjacency, not the rotations."""
    def signed(flip):
        return lambda u: [(None, w, flip * e.sign(u, w))
                          for w in sorted(e.graph.adj[u])]
    return tuple(signed_forest(e.graph.n, signed(flip)).balanced
                 for flip in (1, -1))


def disjoint_union(a, b):
    """The embedding of a beside that of b, b's vertices shifted past a's."""
    k = a.graph.n
    rotations = a.rotations + tuple(tuple(k + w for w in r)
                                    for r in b.rotations)
    edges = list(a.signs) + [(u + k, v + k) for u, v in b.signs]
    negative = [ed for ed, s in a.signs.items() if s < 0] + [
        (u + k, v + k) for (u, v), s in b.signs.items() if s < 0]
    return embedded(k + b.graph.n, edges, rotations, negative)


@lru_cache(maxsize=None)
def balance_corpus():
    """The dart corpus of `test_darts`, seeded rotation systems with seeded
    signs, and disconnected embeddings: two disjoint grids each."""
    out = list(DART_CORPUS)
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n)
                                 if rng.random() < 0.35])
        out.append(random_rotation_system(g, rng.randrange(10 ** 6)))
    grids = [klein_grid(3, 5, 0), klein_grid(6, 3, 1), torus_grid(3, 4),
             torus_grid(4, 4)]
    out += [disjoint_union(a, b) for a in grids for b in grids]
    out += [switch_vertex(e, 0) for e in out[-16:]]
    return out


def test_one_labelling_gives_both_balance_answers():
    seen = set()
    disconnected = 0
    for e in balance_corpus():
        fresh = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
        assert fresh._balance == separate_labellings(e)
        seen.add(fresh._balance)
        disconnected += not is_connected(e.graph)
    # all four pairs of answers occur
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}
    assert disconnected >= 32
