"""Closed-surface recognition and classification for 2-complexes.

A complex is a closed surface iff it is pure 2-dimensional, connected,
every edge lies in exactly two triangles and every vertex link is a single
cycle.  Closed surfaces are classified by Euler characteristic and
orientability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import (ComplexError, HypothesisError, SimplicialComplex,
                        _link_graphs, _rot_step)
from .graphs import signed_forest


@dataclass(frozen=True)
class SurfaceClass:
    orientable: bool
    genus: int
    euler: int

    def __post_init__(self):
        expected = 2 - 2 * self.genus if self.orientable else 2 - self.genus
        if expected != self.euler:
            raise ComplexError(
                f"inconsistent surface class: orientable={self.orientable} "
                f"genus={self.genus} euler={self.euler}")

    @classmethod
    def from_euler(cls, orientable: bool, euler: int) -> SurfaceClass:
        """The class of a closed surface from its two invariants."""
        genus = (2 - euler) // 2 if orientable else 2 - euler
        return cls(orientable, genus, euler)

    def describe(self) -> str:
        side = "orientable" if self.orientable else "non-orientable"
        return f"{side} genus {self.genus} (euler {self.euler})"


@dataclass(frozen=True)
class SurfaceDefect:
    kind: str            # not-pure | edge-degree | bad-link | disconnected
    detail: str


@dataclass(frozen=True)
class SurfaceVerdict:
    is_surface: bool
    witness: Optional[SurfaceDefect] = None
    surface: Optional[SurfaceClass] = None


def check_surface(K: SimplicialComplex) -> SurfaceVerdict:
    """Combinatorial closed-surface test, kept with the complex; defects
    are returned, not raised."""
    return K._surface


def _link_sign(links: Sequence[Sequence[int]], u: int, v: int) -> int:
    """The link-rotation sign of the edge uv: +1 iff the links of u and v,
    read in their stored directions, step across uv into different
    triangles, so that the two orientations they give agree."""
    return 1 if _rot_step(links[u], v, 1) != _rot_step(links[v], u, 1) else -1


def _surface_verdict(K: SimplicialComplex) -> SurfaceVerdict:
    """Once every link is a cycle, one labelling of the vertices over
    their link neighbours, signed by `_link_sign`, counts the components
    and decides orientability: balanced signs orient the links
    coherently."""
    for f in K.facets:
        if len(f) != 3:
            return SurfaceVerdict(False, SurfaceDefect(
                "not-pure", f"facet of size {len(f)}: "
                f"{tuple(K.labels[v] for v in sorted(f))}"))
    links = K._links
    if None in links:
        # a link that is one cycle puts each of its edges in two triangles
        bad = min(((u, w, len(thirds))
                   for u, adj in enumerate(_link_graphs(K))
                   for w, thirds in adj.items()
                   if u < w and len(thirds) != 2), default=None)
        if bad is not None:
            u, w, count = bad
            return SurfaceVerdict(False, SurfaceDefect(
                "edge-degree", f"edge ({K.labels[u]},{K.labels[w]}) in "
                f"{count} triangles"))
        v = links.index(None)
        return SurfaceVerdict(False, SurfaceDefect(
            "bad-link", f"link of {K.labels[v]} is not a single cycle"))
    forest = signed_forest(K.num_vertices, lambda u: (
        (None, w, _link_sign(links, u, w)) for w in links[u]))
    comps = forest.up.count(None)
    if comps != 1:
        return SurfaceVerdict(False, SurfaceDefect(
            "disconnected", f"{comps} components"))
    # each edge uw is a vertex of the links of u and w
    edges = sum(map(len, links)) // 2
    return SurfaceVerdict(True, None, SurfaceClass.from_euler(
        forest.balanced, K.num_vertices - edges + len(K.facets)))


def euler_characteristic(K: SimplicialComplex) -> int:
    """V - E + F for complexes of dimension at most 2."""
    if K.dimension() > 2:
        raise ComplexError(
            f"euler characteristic limited to dimension <= 2, got "
            f"{K.dimension()}")
    return K.num_vertices - len(K.edge_set()) + len(K.triangles())


def orientability(K: SimplicialComplex) -> bool:
    """Whether coherent triangle orientations exist (surface input only)."""
    return classify(K).orientable


def classify(K: SimplicialComplex) -> SurfaceClass:
    """Surface class from Euler characteristic and orientability."""
    v = check_surface(K)
    if not v.is_surface:
        raise HypothesisError("complex is a closed surface",
                              v.witness.detail if v.witness else "")
    assert v.surface is not None
    return v.surface


def double_cover_branch(lo: SurfaceClass, base: SurfaceClass
                        ) -> tuple[str, bool]:
    """The double-cover branch of the complex class `lo`, and whether the
    base surface class is the one that branch determines.

    Orientable even genus 2k covers non-orientable genus 2k+1;
    non-orientable genus 2k covers non-orientable genus k+1; orientable
    odd genus 2k-1 covers orientable genus k or non-orientable genus 2k.
    """
    if lo.orientable and lo.genus % 2 == 0:
        name = "orientable-even-genus"
        ok = not base.orientable and base.genus == lo.genus + 1
    elif not lo.orientable:
        name = "non-orientable"
        ok = (lo.genus % 2 == 0 and not base.orientable
              and base.genus == lo.genus // 2 + 1)
    else:
        name = "orientable-odd-genus"
        k = (lo.genus + 1) // 2
        ok = (base.orientable and base.genus == k) or \
            (not base.orientable and base.genus == 2 * k)
    return name, ok
