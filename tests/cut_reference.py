"""The cut surface, built: the reference for `cut_surface_orientable`.

`cut_along_cycle` cuts the embedding surface along a simple cycle, caps
the boundaries with discs and returns the result as an embedding, so
`is_orientable_embedding` of it decides what `cut_surface_orientable`
decides without building anything.  The input checks are shared.
"""

from typing import Sequence

from loquad.embeddings import EmbeddedGraph, _check_cut_cycle, embedded
from loquad.graphs import norm_edge


def _arc_between(rot: Sequence[int], start: int, stop: int) -> list[int]:
    """Elements of the cyclic sequence strictly between start and stop."""
    i = rot.index(start)
    out = []
    j = (i + 1) % len(rot)
    while rot[j] != stop:
        out.append(rot[j])
        j = (j + 1) % len(rot)
    return out


def cut_along_cycle(e: EmbeddedGraph, cycle: Sequence[int]) -> EmbeddedGraph:
    """The surface cut along a simple cycle, with boundaries capped by discs.

    Cycle vertices are doubled; a one-sided cycle yields one boundary
    circle (linking the two copies with a twist), a two-sided cycle two.
    The capped boundaries appear as new faces of the returned embedding,
    which may be disconnected (one component per resulting surface).
    """
    _check_cut_cycle(e, cycle)
    k = len(cycle)
    # Normalize local orientations so the open path carries +1 signs; the
    # closing sign is then the (gauge-invariant) one-sidedness of the cycle.
    # Walking the path, a vertex is switched (as by `switch_vertex`) when
    # its incoming path edge is negative after its predecessor's switch.
    switched = set()
    for i in range(1, k):
        if (e.sign(cycle[i - 1], cycle[i]) < 0) != (cycle[i - 1] in switched):
            switched.add(cycle[i])
    gauged = [rot[::-1] if v in switched else rot
              for v, rot in enumerate(e.rotations)]
    signs = {(u, v): -s if (u in switched) != (v in switched) else s
             for (u, v), s in e.signs.items()}
    sigma = signs[norm_edge(cycle[k - 1], cycle[0])]

    g = e.graph
    on_cycle = {v: i for i, v in enumerate(cycle)}
    # new ids: the untouched vertices in their order, then two copies of
    # each cycle vertex
    kept = [v for v in range(g.n) if v not in on_cycle]
    new_id = {v: i for i, v in enumerate(kept)}
    copy_a = {v: len(kept) + 2 * i for i, v in enumerate(cycle)}
    copy_b = {v: len(kept) + 2 * i + 1 for i, v in enumerate(cycle)}
    arcs = {}     # v on cycle -> its left and right rotation arcs
    sides: dict[int, dict[int, int]] = {}    # v on cycle -> neighbor -> copy
    for i, v in enumerate(cycle):
        nxt, prv = cycle[(i + 1) % k], cycle[(i - 1) % k]
        left = _arc_between(gauged[v], nxt, prv)
        right = _arc_between(gauged[v], prv, nxt)
        arcs[v] = left, right
        sides[v] = {u: copy_a[v] for u in left}
        sides[v].update({u: copy_b[v] for u in right})

    def image(v: int, seen_from: int) -> int:
        if v not in on_cycle:
            return new_id[v]
        return sides[v][seen_from]

    edges: list[tuple[int, int]] = []
    neg: list[tuple[int, int]] = []
    for u, v in g.edges:
        if u in on_cycle and v in on_cycle and \
                abs(on_cycle[u] - on_cycle[v]) in (1, k - 1):
            continue    # cycle edges handled below
        a, b = image(u, v), image(v, u)
        edges.append((a, b))
        if signs[u, v] < 0:
            neg.append((a, b))
    succ, pred = {}, {}     # copy -> next / previous copy along the cycle
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        if i < k - 1 or sigma > 0:
            ea = (copy_a[u], copy_a[v])
            eb = (copy_b[u], copy_b[v])
        else:
            ea = (copy_a[u], copy_b[v])
            eb = (copy_b[u], copy_a[v])
        edges.extend([ea, eb])
        if i == k - 1 and sigma < 0:
            neg.extend([ea, eb])
        for a, b in (ea, eb):
            succ[a], pred[b] = b, a

    rotations = [tuple(image(u, v) for u in gauged[v]) for v in kept]
    names = [g.names[v] for v in kept]
    for v in cycle:
        left, right = arcs[v]
        a, b = copy_a[v], copy_b[v]
        rotations.append(tuple([succ[a]] + [image(u, v) for u in left]
                               + [pred[a]]))
        rotations.append(tuple([pred[b]] + [image(u, v) for u in right]
                               + [succ[b]]))
        names += [g.names[v] + "'", g.names[v] + "''"]
    return embedded(len(names), edges, rotations, neg, names)
