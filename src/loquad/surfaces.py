"""Closed-surface recognition and classification for 2-complexes.

A complex is a closed surface iff it is pure 2-dimensional, connected,
every edge lies in exactly two triangles and every vertex link is a single
cycle.  Closed surfaces are classified by Euler characteristic and
orientability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .complexes import ComplexError, HypothesisError, SimplicialComplex
from .graphs import connected_components


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


def link_cycle(K: SimplicialComplex, v: int) -> Optional[list[int]]:
    """The link of v in cyclic order, as a new list, or None when it is not
    one cycle."""
    return None if K._links[v] is None else list(K._links[v])


def check_surface(K: SimplicialComplex) -> SurfaceVerdict:
    """Combinatorial closed-surface test, kept with the complex; defects
    are returned, not raised."""
    return K._surface


def _surface_verdict(K: SimplicialComplex) -> SurfaceVerdict:
    for f in K.facets:
        if len(f) != 3:
            return SurfaceVerdict(False, SurfaceDefect(
                "not-pure", f"facet of size {len(f)}: "
                f"{tuple(K.labels[v] for v in sorted(f))}"))
    bad = [e for e in K.edge_set() if len(K.edge_star(e)) != 2]
    if bad:
        e = min(bad, key=sorted)
        u, v = sorted(e)
        return SurfaceVerdict(False, SurfaceDefect(
            "edge-degree", f"edge ({K.labels[u]},{K.labels[v]}) in "
            f"{len(K.edge_star(e))} triangles"))
    for v, link in enumerate(K._links):
        if link is None:
            return SurfaceVerdict(False, SurfaceDefect(
                "bad-link", f"link of {K.labels[v]} is not a single cycle"))
    comps = connected_components(K.skeleton_graph())
    if len(comps) != 1:
        return SurfaceVerdict(False, SurfaceDefect(
            "disconnected", f"{len(comps)} components"))
    chi = euler_characteristic(K)
    orient = _coherently_orientable(K)
    genus = (2 - chi) // 2 if orient else 2 - chi
    return SurfaceVerdict(True, None, SurfaceClass(orient, genus, chi))


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


def _coherently_orientable(K: SimplicialComplex) -> bool:
    """Whether coherent triangle orientations exist, for a closed surface.

    Propagates orientations across shared edges breadth-first; a conflict
    means non-orientable.
    """
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
                for s in K.edge_star(frozenset((u, v))):
                    if s == t:
                        continue
                    (w,) = s - {u, v}
                    if s not in darts:
                        darts[s] = ((v, u), (u, w), (w, v))
                        queue.append(s)
                    elif (v, u) not in darts[s]:
                        return False
    return True


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
