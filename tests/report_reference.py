"""The invariant report through the face-rule complex: the reference for
`invariants.invariant_report`.

`invariant_report` reads the gray and cyclic counts off the faces of the
graph and takes the class of the complex from the main theorem.  This
reference builds the face-rule complex instead, classifies it, labels it
and triangulates the links of its diagonals, and reports the same fields
with the same cross-checks.
"""

from typing import Optional

from loquad.embeddings import (EmbeddedGraph, is_orientable_embedding,
                               lovasz_from_quadrangulation,
                               oddness_functional)
from loquad.graphs import InvariantViolation
from loquad.invariants import (GrayReport, build_labeling, cyclic_quad_count,
                               gray_count, labeled_quads,
                               symmetric_triangulation)
from loquad.surfaces import classify


def complex_report(e: EmbeddedGraph, rule: str = "min") -> GrayReport:
    L = lovasz_from_quadrangulation(e)
    lo_class = classify(L.base)
    labeling = build_labeling(L)
    quads = labeled_quads(L)
    triangles = symmetric_triangulation(quads, labeling, rule)
    gray = gray_count(triangles, labeling)
    r = cyclic_quad_count(quads, labeling)
    if gray % 2 != r % 2:
        raise InvariantViolation(
            f"gray count {gray} and cyclic count {r} differ in parity")
    cohom_ind = 2 if gray % 2 == 1 else 1
    odd: Optional[bool] = None
    if not is_orientable_embedding(e):
        odd = oddness_functional(e)
        if odd != (cohom_ind == 2):
            raise InvariantViolation(
                f"gray parity ({gray}) contradicts the oddness decision "
                f"({odd})")
    # on surfaces the cohomological index equals the index
    ind = cohom_ind
    coind = 2 if (lo_class.orientable and lo_class.genus == 0) else 1
    if not coind <= cohom_ind <= ind:
        raise InvariantViolation(
            f"coind {coind} <= cohom-ind {cohom_ind} <= ind {ind} fails")
    return GrayReport(
        gray_count=gray,
        cyclic_count=r,
        cohom_ind=cohom_ind,
        ind=ind,
        coind=coind,
        chromatic_lower_bound=ind + 2,
        lo_class=lo_class,
        odd=odd,
        non_tidy=coind < ind,
        but_manifold=ind == 2,
    )
