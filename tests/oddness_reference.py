"""The cup-product route to oddness, kept as the reference for
`oddness_functional`.

`loquad` reads oddness as the parity of the set R of edges reversed by the
face coherence signs.  This module decides it the way the pipeline once
did: a star triangulation of the embedding surface carrying two cocycles,
w1 and the length parity, whose cup product pairs parity with w1.  Its own
consistency check is Wu's identity, w1 squared equals the Euler
characteristic mod 2.
"""

from face_reference import tuple_walks
from loquad.complexes import HypothesisError
from loquad.embeddings import EmbeddedGraph, euler_characteristic
from loquad.graphs import InvariantViolation, norm_edge


def _star_cocycles(e: EmbeddedGraph
                   ) -> tuple[list[tuple[int, int, int]],
                              dict[tuple[int, int], int],
                              dict[tuple[int, int], int]]:
    """Star triangulation of the embedding surface with two cocycles.

    Each face gets a center vertex joined to its corners; the side flag of
    the face walk at a corner is the sign of that spoke, which makes every
    small triangle two-sided.  Returns (triangles, w1, parity) where the
    cocycles are 0/1 edge maps: w1 marks negative edges and parity is 1 on
    original edges, alternating 0/1 on the spokes of each (even) face.
    """
    n = e.graph.n
    triangles = []
    cw = {ed: (1 if s == -1 else 0) for ed, s in e.signs.items()}
    cp = {ed: 1 for ed in e.signs}
    for fi, walk in enumerate(tuple_walks(e)):
        x = n + fi
        corners = [v for _, v, _ in walk]
        if len(set(corners)) != len(corners):
            raise HypothesisError("faces are simple cycles",
                                  f"face walk {tuple(corners)}")
        if len(corners) % 2 != 0:
            raise HypothesisError("faces have even length",
                                  f"face walk {tuple(corners)}")
        for k, (_, v, flag) in enumerate(walk):
            spoke = norm_edge(x, v)
            cw[spoke] = 1 if flag == -1 else 0
            cp[spoke] = k % 2
        for k in range(len(corners)):
            triangles.append((x, corners[k], corners[(k + 1) % len(corners)]))
    for x, a, b in triangles:
        for name, c in (("w1", cw), ("parity", cp)):
            if (c[norm_edge(x, a)] + c[norm_edge(x, b)]
                    + c[norm_edge(a, b)]) % 2:
                raise InvariantViolation(
                    f"{name} cochain is not a cocycle on triangle "
                    f"{(x, a, b)}")
    return triangles, cw, cp


def _cup_product(triangles: list[tuple[int, int, int]],
                 left: dict[tuple[int, int], int],
                 right: dict[tuple[int, int], int]) -> int:
    """Pairing of two cocycle classes, evaluated on the fundamental class.

    Simplicial cup product with the global integer order on vertices:
    sum over triangles v0 < v1 < v2 of left(v0,v1) * right(v1,v2).
    """
    total = 0
    for t in triangles:
        v0, v1, v2 = sorted(t)
        total += left[norm_edge(v0, v1)] * right[norm_edge(v1, v2)]
    return total % 2


def cup_product_odd(e: EmbeddedGraph) -> bool:
    """Oddness as the cup product of the parity class with w1, after the
    Wu check of w1 squared against the Euler characteristic."""
    triangles, cw, cp = _star_cocycles(e)
    # Wu consistency check: the self-pairing of w1 is the Euler
    # characteristic mod 2.
    chi = euler_characteristic(e)
    if _cup_product(triangles, cw, cw) != chi % 2:
        raise InvariantViolation(
            f"w1 squared disagrees with the Euler characteristic {chi}")
    return _cup_product(triangles, cp, cw) == 1
