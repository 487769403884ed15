"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line on success; pytest reports the failure
otherwise.
"""

import itertools
import random

from loquad.complexes import (closed_sets, lovasz_complex, nu_free_on_faces,
                              quotient_complex)
from loquad.embeddings import (all_4cycles_facial, embedded_isomorphic,
                               is_bipartite, is_orientable_embedding,
                               is_quadrangulation, lovasz_from_quadrangulation,
                               lovasz_quotient_embedding, oddness_functional,
                               oddness_oracle, rotation_system_of_surface)
from loquad.generators import shipped_fixtures
from loquad.graphs import (Graph, chromatic_number, common_neighbors,
                           find_domination, find_k23, is_connected, is_k23)
from loquad.invariants import (build_labeling, cyclic_quad_count, gray_count,
                               invariant_report, labeled_quads,
                               symmetric_triangulation)
from loquad.surfaces import check_surface

from conftest import oracle_cap


def report(number, detail):
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


def test_acceptance_1_running_example_golden(fig1):
    expected = {(0,), (2,), (2, 4), (1, 3), (0, 2, 4), (1, 2, 3),
                (1, 3, 5), (0, 1, 3, 5)}
    assert set(closed_sets(fig1)) == expected
    L = lovasz_complex(fig1)
    edges = L.base.edge_set()
    triangles = L.base.triangles()
    assert L.base.num_vertices == 8
    assert len(edges) == 10
    assert len(triangles) == 2
    # the 1-skeleton is an octagon plus one chord per triangle: removing
    # some pair of edges must leave a single spanning 8-cycle
    def is_octagon(remaining):
        deg = {v: 0 for v in range(8)}
        adj = {v: [] for v in range(8)}
        for u, v in remaining:
            deg[u] += 1
            deg[v] += 1
            adj[u].append(v)
            adj[v].append(u)
        if any(d != 2 for d in deg.values()):
            return False
        seen, stack = set(), [0]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
        return len(seen) == 8

    pairs = [p for p in itertools.combinations(edges, 2)
             if is_octagon([tuple(sorted(e)) for e in edges
                            if e not in p])]
    assert pairs, "no chord pair leaves a spanning octagon"
    report(1, "8 closed sets match the labeled figure; complex is an "
              "octagon with 2 chords spanning 2 triangles")


def test_acceptance_2_k4_pipeline(k4p):
    k4 = complete_graph(4)
    L = lovasz_complex(k4)
    counts = (L.base.num_vertices, len(L.base.edge_set()),
              len(L.base.triangles()))
    assert counts == (14, 36, 24)
    verdict = check_surface(L.base)
    assert verdict.is_surface
    assert verdict.surface.orientable and verdict.surface.genus == 0
    assert nu_free_on_faces(L) is None
    quotient = lovasz_quotient_embedding(lovasz_from_quadrangulation(k4p))
    assert embedded_isomorphic(quotient, k4p)
    assert oddness_functional(k4p)
    verdict, _, complete = oddness_oracle(k4p)
    assert verdict is True and complete
    r = invariant_report(k4p)
    assert r.gray_count % 2 == 1
    assert r.cohom_ind == 2 and r.ind == 2
    assert r.chromatic_lower_bound == 4
    assert chromatic_number(k4)[0] == 4
    report(2, "Lo(K4) = sphere (14,36,24); quotient matches the projective "
              "fixture; odd per functional and oracle; gray parity odd; "
              "cohom_ind = ind = 2; bound 4 = chi(K4)")


def test_acceptance_3_torus_grid_classification(t33):
    L = lovasz_from_quadrangulation(t33)
    counts = (L.base.num_vertices, len(L.base.edge_set()),
              len(L.base.triangles()))
    assert counts == (36, 108, 72)
    verdict = check_surface(L.base)
    assert verdict.is_surface
    assert verdict.surface.orientable and verdict.surface.genus == 1
    assert embedded_isomorphic(lovasz_quotient_embedding(L), t33)
    report(3, "Lo(torus 3x3 grid) orientable genus 1 with (36,108,72); "
              "quotient round-trip is embedded-isomorphic")


def test_acceptance_4_non_facial_rejection(t34):
    facial = all_4cycles_facial(t34)
    assert not facial.ok and facial.witness is not None
    verdict = check_surface(lovasz_complex(t34.graph).base)
    assert not verdict.is_surface
    assert verdict.witness.kind == "edge-degree"
    report(4, f"torus 3x4 grid: non-facial 4-cycle {facial.witness}; "
              f"complex rejected ({verdict.witness.detail})")


def test_acceptance_5_k23_domination_dichotomy(fixtures, k23):
    checked = 0
    for fx in fixtures:
        e = fx.embedding
        if is_bipartite(e.graph) and not is_k23(e.graph):
            continue
        if not is_quadrangulation(e).ok or not all_4cycles_facial(e).ok:
            continue
        if is_k23(e.graph):
            assert find_k23(e.graph) is not None
        else:
            assert find_k23(e.graph) is None
            assert find_domination(e.graph) is None
        checked += 1
    assert checked >= 5
    assert is_k23(k23.graph) and find_k23(k23.graph) is not None
    report(5, f"{checked} all-facial fixtures are K23 itself or K23-free "
              f"with no dominated vertex; k23-sphere takes the K23 branch")


def _nonorientable_all_facial(fixtures):
    for fx in fixtures:
        e = fx.embedding
        if e.graph.n > 40 or is_bipartite(e.graph):
            continue
        if not is_quadrangulation(e).ok or not all_4cycles_facial(e).ok:
            continue
        if is_orientable_embedding(e):
            continue
        yield fx.name, e


def test_acceptance_6_oddness_equivalence(fixtures):
    mismatches = []
    checked = 0
    for name, e in _nonorientable_all_facial(fixtures):
        odd = oddness_functional(e)
        verdict, _, _ = oddness_oracle(e, oracle_cap(e))
        L = lovasz_from_quadrangulation(e)
        lab, quads = build_labeling(L), labeled_quads(L)
        g_min = gray_count(symmetric_triangulation(quads, lab, "min"), lab)
        g_max = gray_count(symmetric_triangulation(quads, lab, "max"), lab)
        if g_min % 2 != g_max % 2:
            mismatches.append(f"{name}: rule disagreement")
        if (g_min % 2 == 1) != odd:
            mismatches.append(f"{name}: gray parity vs functional")
        # an inconclusive oracle (cycle cap reached on the larger
        # instances) cannot witness a mismatch
        if verdict is not None and verdict != odd:
            mismatches.append(f"{name}: cut oracle vs functional")
        checked += 1
    assert checked >= 5
    assert not mismatches, mismatches
    report(6, f"gray parity = functional oddness = cut oracle on all "
              f"{checked} non-orientable all-facial fixtures, both "
              f"triangulation rules")


def test_acceptance_7_gray_cyclic_congruence(fixtures):
    checked = 0
    for fx in fixtures:
        e = fx.embedding
        if is_bipartite(e.graph):
            continue
        if not is_quadrangulation(e).ok or not all_4cycles_facial(e).ok:
            continue
        L = lovasz_from_quadrangulation(e)
        lab, quads = build_labeling(L), labeled_quads(L)
        r = cyclic_quad_count(quads, lab)
        for rule in ("min", "max"):
            g = gray_count(symmetric_triangulation(quads, lab, rule), lab)
            assert g % 2 == r % 2, fx.name
        checked += 1
    assert checked >= 6
    report(7, f"gray count congruent to cyclic quad count mod 2 on all "
              f"{checked} applicable fixtures, both rules")


def test_acceptance_8_galois_properties():
    rng = random.Random(1729)
    graphs_checked = 0
    while graphs_checked < 1000:
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = Graph.from_edges(n, edges)
        sets = closed_sets(g)
        for a in sets[:16]:
            cn = common_neighbors(g, a)
            assert not cn & set(a)
            assert common_neighbors(g, common_neighbors(g, cn)) == cn
            for v in range(g.n):
                if v in a or v in cn:
                    continue
                bigger = tuple(sorted(set(a) | {v}))
                assert common_neighbors(g, bigger) <= cn
                break
        L = lovasz_complex(g)
        for i in range(len(L.labels)):
            assert L.nu[L.nu[i]] == i and L.nu[i] != i
        assert nu_free_on_faces(L) is None
        graphs_checked += 1
    report(8, f"closure and involution laws hold on {graphs_checked} "
              f"random graphs with n <= 10")


def test_acceptance_9_klein_family_split(fixtures):
    odd_seen, even_seen = [], []
    for name, e in _nonorientable_all_facial(fixtures):
        if name == "k4-projective":
            continue
        odd = oddness_functional(e)
        verdict, witness, complete = oddness_oracle(e, oracle_cap(e))
        assert verdict in (None, odd), name
        r = invariant_report(e)
        if odd:
            assert r.ind == 2 and r.cohom_ind == 2
            assert r.coind == 1 and r.non_tidy
            if complete or witness is not None:
                odd_seen.append(name)
        else:
            assert r.ind == 1 and r.cohom_ind == 1
            assert not r.non_tidy
            if complete:
                even_seen.append(name)
    assert odd_seen, "no oracle-verified odd Klein instance"
    assert even_seen, "no oracle-verified non-odd Klein instance"
    report(9, f"odd instances with ind 2 and non-tidy flag: "
              f"{', '.join(odd_seen)}; non-odd with ind 1: "
              f"{', '.join(even_seen)}")
