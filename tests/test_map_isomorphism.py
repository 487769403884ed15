"""The map isomorphism against the vertex backtracking it replaced.

`embedded_isomorphic` fixes the image of one root dart-side state and
follows the face step, the mirror and the side flip from there.  The
backtracking below searched vertex bijections that carry the face walks of
one embedding onto those of the other, compared up to rotation and
reflection; it is kept as the reference.  Seeds are fixed.
"""

import pytest

from conftest import drawn
from loquad.embeddings import (EmbeddedGraph, embedded, embedded_isomorphic,
                               trace_faces)
from loquad.generators import klein_grid, shipped_fixtures, torus_grid
from loquad.graphs import GraphError, canonical_cycle


def _face_profile(faces, n):
    prof = [[] for _ in range(n)]
    for f in faces:
        for v in f.boundary:
            prof[v].append(len(f))
    return [tuple(sorted(p)) for p in prof]


def reference_isomorphic(a, b):
    """Graph isomorphism carrying the face-walk multiset of a onto b's,
    by backtracking over vertices on an explicit stack."""
    ga, gb = a.graph, b.graph
    if ga.n != gb.n or ga.num_edges != gb.num_edges:
        return False
    fa, fb = trace_faces(a), trace_faces(b)
    if sorted(len(f) for f in fa) != sorted(len(f) for f in fb):
        return False
    pa, pb = _face_profile(fa, ga.n), _face_profile(fb, gb.n)
    if sorted(pa) != sorted(pb):
        return False
    target_faces = sorted(f.canonical() for f in fb)
    mapping = [-1] * ga.n
    used = [False] * gb.n
    order = sorted(range(ga.n), key=lambda v: (-ga.degree(v), v))

    def faces_match():
        mapped = sorted(canonical_cycle([mapping[v] for v in f.boundary])
                        for f in fa)
        return mapped == target_faces

    def fits(v, w):
        if used[w] or pa[v] != pb[w] or ga.degree(v) != gb.degree(w):
            return False
        for x in ga.adj[v]:
            if mapping[x] >= 0 and mapping[x] not in gb.adj[w]:
                return False
        for x in range(ga.n):
            if mapping[x] >= 0 and x not in ga.adj[v] \
                    and mapping[x] in gb.adj[w]:
                return False
        return True

    def candidates(v):
        return (w for w in [v] + [w for w in range(gb.n) if w != v]
                if fits(v, w))

    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if mapping[v] >= 0:
            used[mapping[v]] = False
            mapping[v] = -1
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        mapping[v] = w
        used[w] = True
        if len(stack) < ga.n:
            stack.append(candidates(order[len(stack)]))
        elif faces_match():
            return True
    return False


def mirrored(e):
    """Every rotation reversed, signs kept."""
    return EmbeddedGraph(e.graph, tuple(r[::-1] for r in e.rotations),
                         dict(e.signs))


def transposed(e):
    """The first two neighbors swapped in the rotation at the first vertex
    of degree at least 3."""
    v = next(v for v, r in enumerate(e.rotations) if len(r) >= 3)
    rotations = list(e.rotations)
    r = rotations[v]
    rotations[v] = (r[1], r[0]) + r[2:]
    return EmbeddedGraph(e.graph, tuple(rotations), dict(e.signs))


def sign_flipped(e):
    """The sign of the least edge flipped."""
    signs = dict(e.signs)
    first = min(signs)
    signs[first] = -signs[first]
    return EmbeddedGraph(e.graph, e.rotations, signs)


def inputs():
    out = [(f.name, f.embedding) for f in shipped_fixtures()]
    out += [(f"klein_grid(4,4,{t})", klein_grid(4, 4, t)) for t in range(4)]
    out += [("torus_grid(4,4)", torus_grid(4, 4)),
            ("klein_grid(5,5,2)", klein_grid(5, 5, 2))]
    return out


INPUTS = inputs()


def pairs():
    """(id, a, b, must_hold) for every pair the differential test compares;
    must_hold marks the pairs that are isomorphic by construction."""
    out = []
    for name, e in INPUTS:
        out.append((f"{name}/itself", e, e, True))
        for seed in range(3):
            out.append((f"{name}/draw{seed}", e, drawn(e, seed)[0], True))
        out.append((f"{name}/mirror", e, mirrored(e), True))
        out.append((f"{name}/transposition", e, transposed(e), False))
        out.append((f"{name}/flipped-sign", e, sign_flipped(e), False))
        for other, f in INPUTS:
            if other != name and f.graph.n == e.graph.n:
                out.append((f"{name}/{other}", e, f, False))
    return out


PAIRS = pairs()


@pytest.mark.parametrize("a, b, must_hold", [p[1:] for p in PAIRS],
                         ids=[p[0] for p in PAIRS])
def test_map_isomorphism_matches_backtracking(a, b, must_hold):
    expected = reference_isomorphic(a, b)
    assert expected or not must_hold
    assert embedded_isomorphic(a, b) is expected
    assert embedded_isomorphic(b, a) is expected


def test_same_size_grids_split_both_ways():
    # the twists 0 and 2 of the 4-by-4 Klein grid give one map, 1 and 3
    # another; the torus grid is neither
    grids = [klein_grid(4, 4, t) for t in range(4)]
    assert embedded_isomorphic(grids[0], grids[2])
    assert embedded_isomorphic(grids[1], grids[3])
    assert not embedded_isomorphic(grids[0], grids[1])
    assert not embedded_isomorphic(torus_grid(4, 4), grids[0])


def test_disconnected_input_raises():
    two_edges = embedded(4, [(0, 1), (2, 3)], [(1,), (0,), (3,), (2,)])
    e = klein_grid(3, 5, 0)
    with pytest.raises(GraphError):
        embedded_isomorphic(two_edges, two_edges)
    with pytest.raises(GraphError):
        embedded_isomorphic(e, two_edges)


def test_relabelled_large_grid_is_isomorphic():
    # the reference backtracking did not finish on this draw within 100 s
    # (2 cores, CPython 3.11.7); the map isomorphism takes about 0.2 s
    e = klein_grid(15, 15, 0)
    d, _ = drawn(e, 1)
    assert embedded_isomorphic(d, e)
    assert embedded_isomorphic(e, d)
