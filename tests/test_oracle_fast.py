"""The cutting oracle's fast paths against their slow references.

`cut_surface_orientable` decides orientability of the cut surface from the
class of the face coherence signs of the uncut embedding and the masks of
the cycle's edges.  The reference builds the cut surface: `cut_along_cycle`
(in `cut_reference.py`) followed by `is_orientable_embedding`.  The fixtures
include a bipartite one (no odd cycle), an orientable one with a
non-facial 4-cycle, and a twisted Klein grid; seeded random rotation
systems of small graphs add faces that meet themselves.
`simple_cycles` runs on an explicit stack, prunes the subtrees that
cannot close a cycle and emits its paths as they are; the plain recursive
search it replaced is kept below as the reference for the cycles and
their order, on every shipped fixture and two seeded draws of each.
`oddness_oracle` streams those cycles and stops at its first witness; it
is compared with the first witness in the reference's list at caps just
before, at and beyond it, and its memory peak shows that it keeps no
list.  Seeds are fixed.
"""

import functools
import itertools
import random
import tracemalloc

import pytest

from conftest import drawn, oracle_cap
from cut_reference import cut_along_cycle
from loquad import embeddings
from loquad.embeddings import (EmbeddedGraph, cut_surface_orientable,
                               is_orientable_embedding, oddness_oracle)
from loquad.generators import klein_grid, shipped_fixtures, torus_grid
from loquad.graphs import (DEFAULT_ORACLE_CYCLE_CAP, Graph, GraphError,
                           canonical_cycle, enumerate_simple_cycles,
                           is_bipartite, norm_edge, simple_cycles)
from loquad.invariants import invariant_report


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
    if name == "klein_grid(4,4,1)":
        return klein_grid(4, 4, 1)
    return next(f.embedding for f in shipped_fixtures() if f.name == name)


# (fixture, cycle selection, seed): every cycle of the small ones, a seeded
# sample of 6-3-0 and of klein_grid(4,4,1), and the first 3000 cycles of the
# two capped ones.  k23-sphere is bipartite, so it has no odd cycle.
DIFFERENTIAL = [
    ("k4-projective", "all", 1),
    ("klein-grid-3-5-0", "all", 2),
    ("klein-grid-3-5-1", "all", 3),
    ("torus_grid(3,3)", "all", 4),
    ("k23-sphere", "all", 8),
    ("torus-grid-3-4", "all", 9),
    ("klein-grid-6-3-0", "sample", 5),
    ("klein_grid(4,4,1)", "sample", 10),
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
    assert {len(c) % 2 for c in cycles} == (
        {0} if is_bipartite(e.graph).bipartite else {0, 1})

    # identity input: the reference on every selected cycle
    expected = {}
    for c in cycles:
        expected[c] = reference_cut(e, c)
        assert cut_surface_orientable(e, c) == expected[c], c
    # every cut of an orientable surface is orientable; a non-orientable
    # one has cuts either way among the selected cycles
    assert len(set(expected.values())) == (1 if is_orientable_embedding(e)
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


# the oracle's (verdict, witness cycle, complete) on every shipped fixture
# at the caps of `oracle_cap`, recorded before the cut became a table
# look-up; klein-grid-5-5-0 has more cycles than its cap, but a witness
# ends the search and settles the verdict, so that search is complete
PINNED_ORACLE = {
    "k4-projective": (True, (0, 1, 2), True),
    "k23-sphere": (False, None, True),
    "torus-grid-3-3": (True, (0, 1, 2), True),
    "torus-grid-3-4": (True, (0, 1, 2), True),
    "klein-grid-3-5-0": (True, (0, 1, 2), True),
    "klein-grid-3-5-1": (True, (0, 1, 2), True),
    "klein-grid-6-3-0": (False, None, True),
    "klein-grid-5-5-0": (True, (0, 1, 2, 3, 4), True),
    "klein-grid-6-5-0": (None, None, False),
}


def test_oracle_outputs_are_pinned(fixtures):
    assert [f.name for f in fixtures] == list(PINNED_ORACLE)
    for f in fixtures:
        e = f.embedding
        verdict, witness, complete = oddness_oracle(e, oracle_cap(e))
        got = (verdict, witness.cycle if witness else None, complete)
        assert got == PINNED_ORACLE[f.name], f.name


def random_rotation_system(g, seed):
    """A seeded rotation per vertex and a seeded sign per edge of g."""
    rng = random.Random(seed)
    rotations = []
    for v in range(g.n):
        rot = sorted(g.adj[v])
        rng.shuffle(rot)
        rotations.append(tuple(rot))
    signs = {ed: rng.choice((1, -1)) for ed in g.edges}
    return EmbeddedGraph(g, tuple(rotations), signs)


def meets_itself(e):
    """Whether some face has both sides of one edge."""
    for walk in e._walks:
        edges = [norm_edge(u, v) for u, v, _ in walk]
        if len(set(edges)) != len(edges):
            return True
    return False


# 40 fixed seeds per graph; faces of every length, and faces that meet
# themselves across an edge, which no quadrangulation above has
ROTATION_SEEDS = range(40)


def test_cut_matches_reference_on_random_rotation_systems():
    graphs = {"K4": complete_graph(4), "K5": complete_graph(5),
              "K33": complete_bipartite(3, 3), "Petersen": petersen()}
    queries = self_meeting = 0
    for name, g in graphs.items():
        cycles, overflow = enumerate_simple_cycles(g, 100000)
        assert not overflow
        for seed in ROTATION_SEEDS:
            e = random_rotation_system(g, seed)
            self_meeting += meets_itself(e)
            for c in cycles:
                assert cut_surface_orientable(e, c) == reference_cut(e, c), \
                    (name, seed, c)
                queries += 1
    assert queries == 40 * (7 + 37 + 15 + 57)
    assert self_meeting == 156


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


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a)
                                    for j in range(b)])


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


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite(3, 3),
                               petersen()],
                         ids=["K5", "K33", "Petersen"])
def test_enumeration_matches_recursive_reference(g):
    total = len(assert_pinned(g, 100000)[0])
    # caps that stop the search inside a root's subtree, and at the edges
    for cap in sorted({-1, 0, 1, 2, total // 3, total // 2, total - 1,
                       total, total + 1}):
        cycles, overflow = assert_pinned(g, cap)
        assert overflow == (cap < total)
        assert len(cycles) == min(max(cap, 0), total)


# every shipped fixture as shipped and in two seeded draws
STREAM_CASES = [(f.name, seed) for f in shipped_fixtures()
                for seed in (None, 21, 22)]


@functools.lru_cache(maxsize=None)
def stream_case(name, seed):
    """A shipped fixture (seed None) or a seeded draw of it, and the first
    `oracle_cap` + 1 cycles of the recursive reference."""
    e = fixture(name)
    if seed is not None:
        e, _ = drawn(e, seed)
    cycles, _ = recursive_enumerate(e.graph, oracle_cap(e) + 1)
    return e, cycles


@pytest.mark.parametrize("name, seed", STREAM_CASES,
                         ids=[f"{n}-{s}" for n, s in STREAM_CASES])
def test_enumeration_matches_reference_on_fixtures(name, seed):
    e, cycles = stream_case(name, seed)
    cap = oracle_cap(e)
    assert list(itertools.islice(simple_cycles(e.graph),
                                 len(cycles))) == cycles
    assert enumerate_simple_cycles(e.graph, cap) == (cycles[:cap],
                                                     len(cycles) > cap)
    if name == "klein-grid-6-3-0":
        assert len(cycles) == 40097


def test_enumeration_matches_reference_on_random_graphs():
    for seed in range(30):
        g = random_graph(seed)
        total = len(assert_pinned(g, 100000)[0])
        if total > 2:
            assert_pinned(g, total // 2)


# ---------------------------------------------------------------------------
# Work counts: no embedding is built per cut, and a witness ends the search
# ---------------------------------------------------------------------------

def test_oracle_builds_no_embeddings(monkeypatch):
    # fresh objects: the generators' self-checks have traced their faces
    odd_quad, even_quad = (EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
                           for e in (klein_grid(3, 5, 0), klein_grid(6, 3, 0)))
    built, drawn_cycles, cut, checked, traced, duals = [], [], [], [], [], []
    balanced, balanced_at_table, coherences = [], [], []
    post_init = EmbeddedGraph.__post_init__
    cycles_of = embeddings.simple_cycles
    cut_orientable = embeddings._cut_orientable
    check_cut_cycle = embeddings._check_cut_cycle
    face_walks = embeddings._face_state_walks
    dual_table = embeddings._dual_table
    face_coherence = embeddings._face_coherence
    signs_balanced = embeddings._signs_balanced

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_cycles(g):
        for c in cycles_of(g):
            drawn_cycles.append(c)
            yield c

    def counting_cut(e, cycle):
        cut.append(cycle)
        return cut_orientable(e, cycle)

    def counting_check(e, cycle):
        checked.append(cycle)
        return check_cut_cycle(e, cycle)

    def counting_walks(e):
        traced.append(e)
        return face_walks(e)

    def counting_dual(e):
        duals.append(e)
        table = dual_table(e)
        balanced_at_table.append(len(balanced))
        return table

    def counting_coherence(e):
        coherences.append(e)
        return face_coherence(e)

    def counting_balanced(n, signed_neighbors):
        balanced.append(n)
        return signs_balanced(n, signed_neighbors)

    monkeypatch.setattr(EmbeddedGraph, "__post_init__", counting_post_init)
    monkeypatch.setattr(embeddings, "simple_cycles", counting_cycles)
    monkeypatch.setattr(embeddings, "_cut_orientable", counting_cut)
    monkeypatch.setattr(embeddings, "_check_cut_cycle", counting_check)
    monkeypatch.setattr(embeddings, "_face_state_walks", counting_walks)
    monkeypatch.setattr(embeddings, "_dual_table", counting_dual)
    monkeypatch.setattr(embeddings, "_face_coherence", counting_coherence)
    monkeypatch.setattr(embeddings, "_signs_balanced", counting_balanced)
    verdict, witness, complete = oddness_oracle(odd_quad, 200000)
    assert not built
    assert verdict is True and complete
    # the search stops at its witness: of the 7,331 cycles it examines the
    # witness's position + 1, the first odd cycle whose cut orientizes
    every, overflow = enumerate_simple_cycles(odd_quad.graph, 200000)
    assert len(every) == 7331 and not overflow
    assert drawn_cycles == every[:every.index(witness.cycle) + 1]
    assert cut == [c for c in drawn_cycles if len(c) % 2]
    assert witness.cycle == cut[-1] == (0, 1, 2)
    # the enumerated cycles are simple: no cut re-checks them
    assert not checked
    # the cuts read one face trace and one dual table of the embedding,
    # built over one coherence labelling
    assert traced == [odd_quad] and duals == [odd_quad]
    assert coherences == [odd_quad]
    # the table's check reads the vertex-sign verdict, one balance test;
    # the cuts after it run none
    assert balanced == [odd_quad.graph.n] and balanced_at_table == [1]

    # an even quadrangulation: every odd cycle up to the cap is cut, and
    # one more cycle is drawn to learn that the cap stopped the search
    drawn_cycles.clear()
    cut.clear()
    verdict, witness, complete = oddness_oracle(even_quad, 3000)
    assert (verdict, witness, complete) == (None, None, False)
    assert len(drawn_cycles) == 3001
    assert cut == [c for c in drawn_cycles[:3000] if len(c) % 2]
    assert not built and not checked
    # still one trace and one table per embedding, over 1,527 cuts
    assert len(cut) == 1527
    assert traced == duals == coherences == [odd_quad, even_quad]
    assert balanced == [odd_quad.graph.n, even_quad.graph.n]
    assert balanced_at_table == [1, 2]

    # the report decides oddness from one coherence labelling and builds
    # no cut masks
    report_quad = EmbeddedGraph(odd_quad.graph, odd_quad.rotations,
                                dict(odd_quad.signs))
    assert invariant_report(report_quad).odd is True
    assert duals == [odd_quad, even_quad]
    assert coherences == [odd_quad, even_quad, report_quad]


# ---------------------------------------------------------------------------
# The streamed oracle against the list reference
# ---------------------------------------------------------------------------

def first_witness(e, cycles):
    """The index of the first odd cycle in the list whose cut
    `cut_surface_orientable` accepts, or None."""
    return next((i for i, c in enumerate(cycles)
                 if len(c) % 2 and cut_surface_orientable(e, c)), None)


@pytest.mark.parametrize("name, seed", STREAM_CASES,
                         ids=[f"{n}-{s}" for n, s in STREAM_CASES])
def test_streamed_oracle_matches_list_reference(name, seed):
    e, cycles = stream_case(name, seed)
    cap = oracle_cap(e)
    k = first_witness(e, cycles[:cap])
    if k is not None:
        # a cap of k stops just before the witness, k + 1 takes it
        caps = {k, k + 1, cap}
    elif len(cycles) <= cap:
        # no witness among all the cycles: one short of them leaves the
        # search open
        caps = {len(cycles) - 1, len(cycles), cap}
    else:
        caps = {cap}
    for c in sorted(caps):
        # the first witness among the first c cycles; without one, False
        # when there are no more than c cycles, else None
        if k is not None and k < c:
            expected = (True, cycles[k])
        else:
            expected = (False if len(cycles) <= c else None, None)
        got, found, complete = oddness_oracle(e, c)
        assert (got, found.cycle if found else None) == expected, c
        assert complete == (got is not None), c
        if found:
            assert found.length == len(found.cycle)
            assert found.cut_surface_orientable


def tree_embedding():
    return EmbeddedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]),
                         ((1,), (0, 2), (1,)), {(0, 1): 1, (1, 2): -1})


def test_oracle_cap_edge_cases(fixtures):
    for f in fixtures:
        e = f.embedding
        # a cap of zero or below examines no cycle, and every fixture has
        # one, so the search is open
        for cap in (0, -1):
            assert oddness_oracle(e, cap) == (None, None, False), f.name
        if e.graph.n <= 18:
            default = oddness_oracle(e)
            assert default == oddness_oracle(e, DEFAULT_ORACLE_CYCLE_CAP)
            assert default[0] is not None and default[2], f.name
    # a graph without cycles: nothing to examine, the search is complete
    # at every cap
    for cap in (-1, 0, 1, DEFAULT_ORACLE_CYCLE_CAP):
        assert oddness_oracle(tree_embedding(), cap) == (False, None, True)
    assert list(simple_cycles(tree_embedding().graph)) == []


def test_oracle_holds_no_cycle_list():
    e = klein_grid(6, 3, 0)
    e = EmbeddedGraph(e.graph, e.rotations, dict(e.signs))
    e._dual     # the table is built once per embedding, not per search
    tracemalloc.start()
    try:
        result = oddness_oracle(e, 200000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 40,097 cycles are examined; a list of them would take 6.3 MB
    assert result == (False, None, True)
    assert peak < 256 * 1024, peak
