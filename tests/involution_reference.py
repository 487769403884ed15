"""The all-faces involution checks: the reference for
`complexes.nu_free_on_faces` and `complexes.quotient_complex`, which read
the facets only.
"""

from typing import Optional

from loquad.complexes import (HypothesisError, LovaszComplex,
                              SimplicialComplex, complex_from_facets)


def all_faces(K: SimplicialComplex) -> frozenset[frozenset[int]]:
    return frozenset().union(*(K.faces(d)
                               for d in range(K.dimension() + 1)))


def nu_free_on_faces(L: LovaszComplex) -> Optional[frozenset[int]]:
    """A face fixed setwise by the involution, or None if the action is free."""
    for f in all_faces(L.base):
        if frozenset(L.nu[v] for v in f) == f:
            return f
    return None


def quotient_complex(L: LovaszComplex
                     ) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """The orbit complex of the involution with the vertex projection.

    Requires the action to be free on faces and no face to meet an orbit
    twice, so face images are faces of the same dimension.
    """
    fixed = nu_free_on_faces(L)
    if fixed is not None:
        labs = tuple(L.labels[v] for v in sorted(fixed))
        raise HypothesisError("involution free on faces", f"fixed face {labs}")
    nv = L.base.num_vertices
    orbit = [-1] * nv
    reps = []
    for v in range(nv):
        if orbit[v] < 0:
            orbit[v] = len(reps)
            orbit[L.nu[v]] = len(reps)
            reps.append(v)
    faces = []
    for f in all_faces(L.base):
        img = frozenset(orbit[v] for v in f)
        if len(img) != len(f):
            labs = tuple(L.labels[v] for v in sorted(f))
            raise HypothesisError("no face meets an orbit twice",
                                  f"face {labs}")
        faces.append(img)
    labels = tuple(L.labels[r] for r in reps)
    return complex_from_facets(labels, faces), tuple(orbit)
