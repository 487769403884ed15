"""Coherent triangle orientations, propagated triangle by triangle: the
reference for the orientability that `surfaces.check_surface` reads off
one signed labelling of the vertices over their link neighbours.
"""

from collections import deque
from itertools import combinations

from loquad.complexes import SimplicialComplex


def _coherently_orientable(K: SimplicialComplex) -> bool:
    """Whether coherent triangle orientations exist, for a closed surface.

    Propagates orientations across shared edges breadth-first; a conflict
    means non-orientable.
    """
    on_edge: dict[frozenset[int], list[frozenset[int]]] = {}
    for t in K.triangles():
        for u, v in combinations(t, 2):
            on_edge.setdefault(frozenset((u, v)), []).append(t)
    # orientation of a triangle: its three darts (a, b), (b, c), (c, a)
    darts: dict[frozenset[int], tuple[tuple[int, int], ...]] = {}
    for start in K.triangles():
        if start in darts:
            continue
        a, b, c = sorted(start)
        darts[start] = ((a, b), (b, c), (c, a))
        queue = deque([start])
        while queue:
            t = queue.popleft()
            for u, v in darts[t]:
                # the other triangle on edge uv must run it as (v, u)
                for s in on_edge[frozenset((u, v))]:
                    if s == t:
                        continue
                    (w,) = s - {u, v}
                    if s not in darts:
                        darts[s] = ((v, u), (u, w), (w, v))
                        queue.append(s)
                    elif (v, u) not in darts[s]:
                        return False
    return True
