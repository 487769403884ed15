import random

from hypothesis import assume, given, settings, strategies as st

from conftest import drawn
from loquad.complexes import (HypothesisError, closed_sets, lovasz_complex,
                              nu_free_on_faces)
from loquad.embeddings import (check_face_rule_hypotheses, cycle_edge_set,
                               embedded_isomorphic, lovasz_quotient_embedding,
                               one_sidedness_functional, parity_functional,
                               switch_vertex, trace_faces)
from loquad.generators import KLEIN_SWEEP, klein_grid, torus_grid
from loquad.graphs import Graph, common_neighbors, cycle_space_basis
from loquad.invariants import invariant_report


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, keep in zip(pairs, mask) if keep])


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_common_neighbors_galois_properties(g):
    subsets = list(closed_sets(g))[:20]
    for a in subsets:
        cn = common_neighbors(g, a)
        # disjointness and the closure identity CN(CN(CN(A))) = CN(A)
        assert not cn & set(a)
        assert common_neighbors(g, common_neighbors(g, cn)) == cn
    # antitone: bigger sets have fewer common neighbors
    for a in subsets[:10]:
        for v in range(g.n):
            if v in a or v in common_neighbors(g, a):
                continue
            bigger = tuple(sorted(set(a) | {v}))
            assert common_neighbors(g, bigger) <= common_neighbors(g, a)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_involution_is_free_and_involutive(g):
    L = lovasz_complex(g)
    for i in range(len(L.labels)):
        assert L.nu[L.nu[i]] == i
        assert L.nu[i] != i
    assert nu_free_on_faces(L) is None


def test_seeded_random_graph_sweep():
    rng = random.Random(20260826)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10))
        for a in list(closed_sets(g))[:12]:
            cn = common_neighbors(g, a)
            assert not cn & set(a)
            assert common_neighbors(g, common_neighbors(g, cn)) == cn


class TestEmbeddingProperties:
    def test_edge_conservation(self):
        from collections import Counter
        from loquad.graphs import norm_edge
        for m, n, t in KLEIN_SWEEP:
            e = klein_grid(m, n, t)
            darts = [d for f in trace_faces(e) for d in f.darts]
            assert len(darts) == 2 * e.graph.num_edges
            # every edge is traversed exactly twice over all face walks
            uses = Counter(norm_edge(u, v) for u, v in darts)
            assert all(c == 2 for c in uses.values())
            assert set(uses) == set(e.graph.edges)

    def test_gauge_invariance_of_functionals(self, k4p, klein_odd):
        for e in (k4p, klein_odd):
            basis = cycle_space_basis(e.graph)
            w1 = one_sidedness_functional(e, basis)
            rng = random.Random(7)
            s = e
            for _ in range(5):
                s = switch_vertex(s, rng.randrange(e.graph.n))
            assert one_sidedness_functional(s, basis).bits == w1.bits

    def test_functionals_additive_over_symmetric_difference(self, klein_odd):
        e = klein_odd
        basis = cycle_space_basis(e.graph)
        w1 = one_sidedness_functional(e, basis)
        par = parity_functional(e.graph, basis)
        cycles = basis.cycles[:6]
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                a = cycle_edge_set(cycles[i])
                b = cycle_edge_set(cycles[j])
                for f in (w1, par):
                    assert f.evaluate(a ^ b) == \
                        (f.evaluate(a) + f.evaluate(b)) % 2

    def test_parity_functional_matches_cycle_lengths(self, klein_odd):
        basis = cycle_space_basis(klein_odd.graph)
        par = parity_functional(klein_odd.graph, basis)
        for c in basis.cycles:
            assert par.evaluate(cycle_edge_set(c)) == len(c) % 2


# ---------------------------------------------------------------------------
# Metamorphic properties: a relabelling and a change of local orientations
# change no label-free result
# ---------------------------------------------------------------------------

def _label_free(report):
    return (report.gray_count % 2, report.cyclic_count % 2, report.odd,
            report.cohom_ind, report.ind, report.coind, report.non_tidy,
            report.lo_class)


@given(klein=st.booleans(), m=st.integers(3, 6), n=st.integers(3, 6),
       twist=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_relabel_and_switch_change_no_label_free_result(klein, m, n, twist,
                                                        seed):
    e = klein_grid(m, n, twist) if klein else torus_grid(m, n)
    try:
        check_face_rule_hypotheses(e)
    except HypothesisError:
        assume(False)
    d, _ = drawn(e, seed)
    assert embedded_isomorphic(d, e)
    folded = lovasz_quotient_embedding(lovasz_complex(d.graph))
    assert embedded_isomorphic(folded, d)
    report = invariant_report(d)
    assert _label_free(report) == _label_free(invariant_report(e))
    assert report.gray_count % 2 == invariant_report(d, "max").gray_count % 2
