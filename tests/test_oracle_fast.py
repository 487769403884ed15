"""The cutting oracle's fast paths against their slow references.

`cut_surface_orientable` decides orientability of the cut surface without
building it; `cut_along_cycle` followed by `is_orientable_embedding` is the
reference.  `enumerate_simple_cycles` runs on an explicit stack and emits
its paths as they are; the recursive version it replaced is kept below as
the reference.  Seeds are fixed.
"""

import random

import pytest

from conftest import drawn, oracle_cap
from loquad import embeddings
from loquad.embeddings import (EmbeddedGraph, cut_along_cycle,
                               cut_surface_orientable, is_orientable_embedding,
                               oddness_oracle)
from loquad.generators import klein_grid, shipped_fixtures, torus_grid
from loquad.graphs import (Graph, GraphError, canonical_cycle,
                           enumerate_simple_cycles)


def reference_cut(e, cycle):
    return is_orientable_embedding(cut_along_cycle(e, cycle))


def every_variant(cycle):
    """The cycle from every start vertex, in both directions."""
    k = len(cycle)
    for seq in (tuple(cycle), tuple(reversed(cycle))):
        for s in range(k):
            yield seq[s:] + seq[:s]


def one_variant(cycle, rng):
    seq = tuple(cycle) if rng.random() < 0.5 else tuple(reversed(cycle))
    s = rng.randrange(len(seq))
    return seq[s:] + seq[:s]


def fixture(name):
    if name == "torus_grid(3,3)":
        return torus_grid(3, 3)
    return next(f.embedding for f in shipped_fixtures() if f.name == name)


# (fixture, cycle selection, seed): every cycle of the small ones, a seeded
# sample of 6-3-0, and the first 3000 cycles of the two capped ones
DIFFERENTIAL = [
    ("k4-projective", "all", 1),
    ("klein-grid-3-5-0", "all", 2),
    ("klein-grid-3-5-1", "all", 3),
    ("torus_grid(3,3)", "all", 4),
    ("klein-grid-6-3-0", "sample", 5),
    ("klein-grid-5-5-0", "first", 6),
    ("klein-grid-6-5-0", "first", 7),
]


@pytest.mark.parametrize("name, selection, seed", DIFFERENTIAL,
                         ids=[d[0] for d in DIFFERENTIAL])
def test_fast_cut_matches_reference(name, selection, seed):
    e = fixture(name)
    rng = random.Random(seed)
    if selection == "first":
        cycles, overflow = enumerate_simple_cycles(e.graph, 3000)
        assert overflow
    else:
        cycles, overflow = enumerate_simple_cycles(e.graph, 200000)
        assert not overflow
        if selection == "sample":
            cycles = rng.sample(cycles, 2000)
    small = len(cycles) <= 400
    assert {len(c) % 2 for c in cycles} == {0, 1}

    # identity input: the reference on every selected cycle
    expected = {}
    for c in cycles:
        expected[c] = reference_cut(e, c)
        assert cut_surface_orientable(e, c) == expected[c], c
    assert len(set(expected.values())) == (1 if name.startswith("torus")
                                           else 2)

    # every rotation and direction: all cycles when few, else a sample
    for c in cycles if small else rng.sample(cycles, 40):
        for variant in every_variant(c):
            assert cut_surface_orientable(e, variant) == expected[c], variant

    # a gauge draw with a relabelling: the verdict is a property of the
    # surface and the cycle, so it must not move.  When there are many
    # cycles, a sample of 500 is drawn; 60 of them are passed in every
    # rotation and direction and also given to the reference.
    d, perm = drawn(e, seed)
    drawn_cycles = cycles if small else rng.sample(cycles, 500)
    checked = set(drawn_cycles if small else drawn_cycles[:60])
    for c in drawn_cycles:
        image = tuple(perm[v] for v in c)
        if c in checked:
            variants = list(every_variant(image))
        else:
            variants = [one_variant(image, rng)]
        for variant in variants:
            assert cut_surface_orientable(d, variant) == expected[c], variant
        if c in checked:
            assert reference_cut(d, variants[0]) == expected[c], c


def bad_inputs(e):
    """Sequences that are not simple cycles of length >= 3 of e."""
    g = e.graph
    u = 0
    v = min(g.adj[u])
    cycles, _ = enumerate_simple_cycles(g, 200)
    path = next(c[:-1] for c in cycles
                if len(c) >= 5 and c[-2] not in g.adj[c[0]])
    far = next(w for w in range(g.n) if w != u and w not in g.adj[u])
    return [(), (u,), (u, v), (u, v, u), path + (path[1],), path,
            tuple(reversed(path)), (u, far, v)]


@pytest.mark.parametrize("name", ["k4-projective", "klein-grid-3-5-0",
                                  "klein-grid-6-5-0"])
def test_bad_inputs_raise_the_reference_error(name):
    e = fixture(name)
    if name == "k4-projective":
        # K4 has no cycle of length 5 and no non-adjacent pair
        cases = [(), (0,), (0, 1), (0, 1, 0), (0, 1, 2, 0), (0, 1, 1, 2)]
    else:
        cases = bad_inputs(e)
    for seq in cases:
        with pytest.raises(GraphError) as ref:
            cut_along_cycle(e, seq)
        with pytest.raises(GraphError) as fast:
            cut_surface_orientable(e, seq)
        assert str(fast.value) == str(ref.value), seq


# ---------------------------------------------------------------------------
# Cycle enumeration
# ---------------------------------------------------------------------------

def recursive_enumerate(g, max_count=100000):
    """The recursive enumeration the iterative one replaced."""
    cycles = []
    overflow = False
    for root in range(g.n):
        path = [root]
        on_path = {root}

        def dfs(u):
            for w in sorted(g.adj[u]):
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    if len(cycles) >= max_count:
                        return False
                    cycles.append(canonical_cycle(path))
                elif w > root and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    ok = dfs(w)
                    path.pop()
                    on_path.remove(w)
                    if not ok:
                        return False
            return True

        if not dfs(root):
            overflow = True
            break
    return cycles, overflow


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    p = rng.uniform(0.25, 0.6)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    # shuffle the labels so the search order is not the generation order
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def assert_pinned(g, cap):
    got = enumerate_simple_cycles(g, cap)
    assert got == recursive_enumerate(g, cap)
    # equality with the reference, which canonicalises every path, implies
    # this; checked directly on up to 1000 cycles, a seeded sample beyond
    cycles = got[0]
    if len(cycles) > 1000:
        cycles = random.Random(len(cycles)).sample(cycles, 1000)
    for c in cycles:
        assert canonical_cycle(c) == c
    return got


def test_long_cycle_needs_no_recursion():
    n = 1500
    cycles, overflow = enumerate_simple_cycles(cycle_graph(n))
    assert cycles == [tuple(range(n))] and not overflow
    with pytest.raises(RecursionError):
        recursive_enumerate(cycle_graph(n))


@pytest.mark.parametrize("g", [complete_graph(5),
                               Graph.from_edges(6, [(i, j) for i in range(3)
                                                    for j in range(3, 6)]),
                               petersen()],
                         ids=["K5", "K33", "Petersen"])
def test_enumeration_matches_recursive_reference(g):
    total = len(assert_pinned(g, 100000)[0])
    # caps that stop the search inside a root's subtree, and at the edges
    for cap in sorted({0, 1, 2, total // 3, total // 2, total - 1, total,
                       total + 1}):
        cycles, overflow = assert_pinned(g, cap)
        assert overflow == (cap < total)
        assert len(cycles) == min(cap, total)


def test_enumeration_matches_reference_on_fixtures():
    for f in shipped_fixtures():
        if f.name == "klein-grid-6-3-0":
            continue        # pinned below, where its size is the point
        assert_pinned(f.embedding.graph, oracle_cap(f.embedding))


def test_enumeration_matches_reference_on_klein_grid_6_3_0(klein_even):
    cycles, overflow = assert_pinned(klein_even.graph,
                                     oracle_cap(klein_even))
    assert len(cycles) == 40097 and not overflow


def test_enumeration_matches_reference_on_random_graphs():
    for seed in range(30):
        g = random_graph(seed)
        total = len(assert_pinned(g, 100000)[0])
        if total > 2:
            assert_pinned(g, total // 2)


# ---------------------------------------------------------------------------
# Work counts: no embedding is built per cut
# ---------------------------------------------------------------------------

def test_oracle_builds_no_embeddings(monkeypatch):
    odd_quad, even_quad = klein_grid(3, 5, 0), klein_grid(6, 3, 0)
    built, enumerated, cut = [], [], []
    post_init = EmbeddedGraph.__post_init__
    enumerate_cycles = embeddings.enumerate_simple_cycles
    cut_orientable = embeddings.cut_surface_orientable

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_enumerate(g, cap):
        result = enumerate_cycles(g, cap)
        enumerated.extend(result[0])
        return result

    def counting_cut(e, cycle):
        cut.append(cycle)
        return cut_orientable(e, cycle)

    monkeypatch.setattr(EmbeddedGraph, "__post_init__", counting_post_init)
    monkeypatch.setattr(embeddings, "enumerate_simple_cycles",
                        counting_enumerate)
    monkeypatch.setattr(embeddings, "cut_surface_orientable", counting_cut)
    verdict, witness, complete = oddness_oracle(odd_quad, 200000)
    assert not built
    assert len(enumerated) == 7331
    assert sum(len(c) % 2 for c in enumerated) == 3648
    assert verdict is True and complete
    # the witness is the first odd cycle, in enumeration order, that is cut
    odd = [c for c in enumerated if len(c) % 2]
    assert cut == odd[:len(cut)] and witness.cycle == cut[-1]

    # an even quadrangulation: every odd cycle up to the cap is cut
    enumerated.clear()
    cut.clear()
    verdict, witness, complete = oddness_oracle(even_quad, 3000)
    assert (verdict, witness, complete) == (None, None, False)
    assert len(enumerated) == 3000
    assert cut == [c for c in enumerated if len(c) % 2]
    assert not built
