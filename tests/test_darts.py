"""The dart numbering of an embedding against its public view.

`EmbeddedGraph._darts` numbers the darts once; the face walks, the
quadrangulation and facial tests and the coherence table read its flat
tables.  Here the tables are checked against `rotations` and `signs`,
the int walks against the tuple tracer of `face_reference.py`, and the
count-first facial test against the sorted `four_cycles` scan, and the
table a parsed embedding comes with against the numbering of the same
embedding built in code.  The corpus is the shipped fixtures, Klein
grids (m, n in 3..6, twists 0..2) and torus grids (m, n in 3..6), each
as generated and in two seeded relabel-and-switch draws, plus seeded
rotation systems of small graphs, whose faces have every length and can
meet themselves.  Seeds are fixed.
"""

import pytest

from conftest import drawn
from face_reference import as_tuples, tuple_walks
from loquad import embeddings
from loquad.embeddings import (Darts, EmbeddedGraph, all_4cycles_facial,
                               is_quadrangulation)
from loquad.fileio import dump_embedding, parse_embedding
from loquad.generators import klein_grid, shipped_fixtures, torus_grid
from loquad.graphs import Graph, canonical_cycle, four_cycles, norm_edge
from test_invariants import GRIDS, _fresh
from test_oracle_fast import random_rotation_system


def _corpus():
    base = [f.embedding for f in shipped_fixtures()]
    base += [klein_grid(m, n, t) for m in range(3, 7) for n in range(3, 7)
             for t in range(3)]
    base += [torus_grid(m, n) for m in range(3, 7) for n in range(3, 7)]
    out = [d for e in base
           for d in (_fresh(e), drawn(e, 11)[0], drawn(e, 12)[0])]
    small = [Graph.from_edges(4, [(a, b) for a in range(4)
                                  for b in range(a + 1, 4)]),
             Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                  (0, 2), (1, 3)]),
             Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                  (5, 3), (0, 3), (1, 4), (2, 5)])]
    out += [random_rotation_system(g, seed) for g in small for seed in range(20)]
    return out


CORPUS = _corpus()


def test_corpus_size():
    assert len(CORPUS) == 3 * (9 + 48 + 16) + 60


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_tables_match_the_rotations_and_signs(i):
    e = CORPUS[i]
    dt = e._darts
    m = 2 * e.graph.num_edges
    assert all(len(t) == m for t in (dt.tail, dt.head, dt.sgn, dt.eid))
    assert len(dt.step) == len(dt.mirror) == 2 * m
    # the darts of u are the run with tail u, with heads in rotation order
    assert list(dt.tail) == sorted(dt.tail)
    for u, rot in enumerate(e.rotations):
        assert tuple(h for t, h in zip(dt.tail, dt.head) if t == u) == rot
    # each dart has a reverse, the one dart with tail and head swapped
    arcs = list(zip(dt.tail, dt.head))
    assert len(set(arcs)) == m and all(t != h for t, h in arcs)
    assert set(arcs) == {(h, t) for t, h in arcs}
    # sign and edge index, in `signs` order
    edges = list(e.signs)
    for d in range(m):
        ed = norm_edge(dt.tail[d], dt.head[d])
        assert dt.sgn[d] == e.signs[ed]
        assert edges[dt.eid[d]] == ed


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_walks_match_the_tuple_tracer(i):
    e = CORPUS[i]
    walks = embeddings._face_state_walks(e)
    assert [as_tuples(e, w) for w in walks] == tuple_walks(e)
    # every state lies on exactly one face walk, in one of its traversals
    on = [0] * (4 * e.graph.num_edges)
    for w in walks:
        for s in w:
            on[s] += 1
            on[e._darts.mirror[s]] += 1
    assert on == [1] * len(on)
    # the step and the mirror are permutations; the mirror is an
    # involution that reverses the step
    step, mirror = e._darts.step, e._darts.mirror
    assert sorted(step) == list(range(len(step)))
    assert all(mirror[mirror[s]] == s for s in range(len(step)))
    assert all(step[mirror[step[s]]] == mirror[s] for s in range(len(step)))


def test_corpus_has_faces_that_meet_themselves():
    meets = sum(any(len({e._darts.eid[s >> 1] for s in w}) < len(w)
                    for w in embeddings._face_state_walks(e))
               for e in CORPUS)
    assert meets > 0


def _reference_facial(e):
    """The sorted scan: every 4-cycle against the facial boundaries."""
    tail = e._darts.tail
    facial = {canonical_cycle([tail[s >> 1] for s in w])
              for w in embeddings._face_state_walks(e)}
    return next((c for c in four_cycles(e.graph) if c not in facial), None)


def test_count_first_facial_test_matches_the_scan():
    # the inputs of TestFaceRoute: fixtures and grids, each as generated
    # and in the seed-1 draw
    base = [f.embedding for f in shipped_fixtures()]
    base += [(klein_grid if family == "klein" else torus_grid)(*params)
             for family, *params in GRIDS]
    non_facial = 0
    for b in base:
        for e in (_fresh(b), drawn(b, 1)[0]):
            if not is_quadrangulation(e).ok:
                continue
            witness = _reference_facial(e)
            verdict = all_4cycles_facial(e)
            assert verdict.ok == (witness is None)
            assert verdict.witness == witness
            non_facial += witness is not None
    assert non_facial == 80


def test_facial_scan_runs_only_without_a_count_match(monkeypatch):
    scanned = []
    scan = embeddings.four_cycles

    def counting_scan(g):
        scanned.append(g)
        return scan(g)
    monkeypatch.setattr(embeddings, "four_cycles", counting_scan)
    facial, non_facial = _fresh(klein_grid(5, 5, 0)), _fresh(torus_grid(3, 4))
    assert all_4cycles_facial(facial).ok and not scanned
    assert not all_4cycles_facial(non_facial).ok
    assert scanned == [non_facial.graph]


# ---------------------------------------------------------------------------
# The hand-over: a parsed embedding comes with the table the code would build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_parsed_table_matches_the_numbering_of_the_built_embedding(i):
    e = CORPUS[i]
    parsed = parse_embedding(dump_embedding(e))
    # the parser hands its numbering over; nothing numbers it again
    assert "_darts" in parsed._kept
    # the file lists the signs in the graph's edge order, and `eid` counts
    # them in that order
    g = e.graph
    built = EmbeddedGraph(g, e.rotations, {ed: e.signs[ed] for ed in g.edges})
    assert "_darts" not in built._kept
    table, reference = parsed._darts, built._darts
    for name in Darts._fields:
        assert getattr(table, name) == getattr(reference, name), name
    assert parsed.graph == g and parsed.rotations == e.rotations
    assert parsed.signs == e.signs
    # masks are built when first read, and equal the eager ones
    eager = tuple(sum(1 << w for w in a) for a in g.adj)
    assert "masks" not in parsed.graph._kept
    assert parsed.graph.masks == eager
    assert parsed.graph == g and built.graph.masks == eager
