import random

import pytest

from conftest import relabeled
from loquad.graphs import (CapExceeded, Graph, GraphError, canonical_cycle,
                           chromatic_number, common_neighbors,
                           cycle_space_basis,
                           enumerate_simple_cycles, find_domination,
                           find_k23, four_cycles, is_bipartite, is_connected,
                           is_k23, norm_edge)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_edges_sorted_and_deduplicated(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == [(0, 1), (1, 2)]
        assert g.num_edges == 2

    def test_relabeled_preserves_structure(self, fig1):
        perm = [3, 0, 4, 1, 5, 2]
        h = relabeled(fig1, perm)
        assert h.num_edges == fig1.num_edges
        for u, v in fig1.edges:
            assert perm[v] in h.adj[perm[u]]
        assert h.names[perm[0]] == fig1.names[0]


class TestCommonNeighbors:
    def test_empty_set_has_all_common_neighbors(self, fig1):
        assert common_neighbors(fig1, []) == frozenset(range(6))

    def test_single_vertex_gives_neighborhood(self, fig1):
        assert common_neighbors(fig1, [0]) == fig1.adj[0]

    def test_antitone_on_running_example(self, fig1):
        small = common_neighbors(fig1, [2])
        large = common_neighbors(fig1, [2, 4])
        assert large <= small


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(6)) is True

    def test_odd_cycle(self):
        assert is_bipartite(cycle_graph(5)) is False


class TestSmallStructures:
    def test_k23_recognized(self):
        g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                                 (1, 4)])
        assert is_k23(g)
        witness = find_k23(g)
        assert witness is not None
        (u, v), (a, b, c) = witness
        for x in (a, b, c):
            assert x in g.adj[u] and x in g.adj[v]

    def test_k4_has_no_k23(self):
        assert find_k23(complete_graph(4)) is None
        assert not is_k23(complete_graph(4))

    def test_domination_on_running_example(self, fig1):
        dom = find_domination(fig1)
        assert dom is not None
        u, v = dom
        assert fig1.adj[u] <= fig1.adj[v]
        # display vertices 2 and 4 share the neighborhood {1,3,5}
        assert {fig1.names[u], fig1.names[v]} == {"2", "4"}

    def test_no_domination_in_k4(self):
        assert find_domination(complete_graph(4)) is None

    def test_domination_matches_quadratic_scan(self):
        # seeded random graphs with n <= 9, isolated vertices included
        rng = random.Random(11)
        found = 0
        for _ in range(2000):
            n = rng.randint(1, 9)
            p = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n)
                                     if rng.random() < p])
            dom = find_domination(g)
            assert dom == quadratic_domination(g)
            found += dom is not None
        assert found > 1000


def quadratic_domination(g):
    """The reference for `find_domination`: every vertex pair in order."""
    for u in range(g.n):
        for v in range(g.n):
            if u != v and g.adj[u] <= g.adj[v]:
                return (u, v)
    return None


class TestColoring:
    def test_clique_numbers(self):
        for n in (2, 3, 4, 5):
            assert chromatic_number(complete_graph(n))[0] == n

    def test_odd_cycle_needs_three(self):
        assert chromatic_number(cycle_graph(7))[0] == 3

    def test_coloring_returned_is_proper(self, fig1):
        k, coloring = chromatic_number(fig1)
        assert len(set(coloring)) == k
        for u, v in fig1.edges:
            assert coloring[u] != coloring[v]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            chromatic_number(complete_graph(5), cap=4)


class TestCycleSpace:
    def test_fundamental_cycle_count(self, fig1):
        basis = cycle_space_basis(fig1)
        assert len(basis.cycles) == fig1.num_edges - fig1.n + 1

    def test_fundamental_cycles_close_up(self, fig1):
        basis = cycle_space_basis(fig1)
        for c in basis.cycles:
            for i in range(len(c)):
                assert c[(i + 1) % len(c)] in fig1.adj[c[i]]

    def test_each_fundamental_cycle_holds_only_its_own_chord(self, fig1):
        basis = cycle_space_basis(fig1)
        assert len(basis.nontree_edges) == len(basis.cycles)
        assert not basis.tree_edges & set(basis.nontree_edges)
        assert len(basis.tree_edges) == fig1.n - 1
        for chord, c in zip(basis.nontree_edges, basis.cycles):
            edges = {norm_edge(c[i - 1], c[i]) for i in range(len(c))}
            assert len(edges) == len(c)
            assert edges - basis.tree_edges == {chord}


class TestCycleEnumeration:
    def test_k4_has_seven_simple_cycles(self):
        cycles, overflow = enumerate_simple_cycles(complete_graph(4))
        assert not overflow
        assert len(cycles) == 7   # four triangles and three 4-cycles

    def test_canonical_form_identifies_rotations_and_reflections(self):
        assert canonical_cycle((2, 0, 1)) == canonical_cycle((0, 2, 1))
        assert canonical_cycle((3, 1, 2, 0)) == canonical_cycle((1, 3, 0, 2))

    def test_canonical_form_is_the_least_of_all_rotations(self):
        # against every rotation of both directions, on seeded sequences
        # whose least vertex repeats, as in a closed walk
        rng = random.Random(3)
        for _ in range(500):
            seq = [rng.randrange(5) for _ in range(rng.randint(1, 9))]
            k = len(seq)
            every = [tuple(s[(i + j) % k] for j in range(k))
                     for s in (seq, seq[::-1]) for i in range(k)]
            assert canonical_cycle(seq) == min(every), seq

    def test_four_cycles_of_k4(self):
        assert len(four_cycles(complete_graph(4))) == 3

    def test_overflow_flag(self):
        cycles, overflow = enumerate_simple_cycles(complete_graph(6),
                                                   max_count=5)
        assert overflow and len(cycles) == 5


def test_connectivity(fig1):
    assert is_connected(fig1)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


def test_norm_edge_orders_endpoints():
    assert norm_edge(3, 1) == (1, 3) == norm_edge(1, 3)
