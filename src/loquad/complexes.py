"""Simplicial complexes and the Lovász complex.

The Lovász complex of a graph has one vertex per CN-closed vertex set and
one face per chain of such sets under strict inclusion.  It carries the
canonical free involution A -> CN(A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .graphs import Graph, common_neighbors, common_neighbors_mask, kept, \
    mask_bits

Label = tuple[int, ...]     # a closed set as a sorted vertex tuple


class ComplexError(ValueError):
    """Malformed complex data."""


class HypothesisError(ValueError):
    """A structural hypothesis required by an operation fails.

    `hypothesis` names the failed requirement.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis failed: {hypothesis}"
                         + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by vertex labels and maximal faces.

    Built once, on first use, and kept with the complex: the faces of
    each dimension, the vertex link cycles and the closed-surface verdict
    of `surfaces.check_surface`.
    """

    labels: tuple[Label, ...]
    facets: frozenset[frozenset[int]]
    _kept: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ComplexError("vertex labels must be unique")
        nv = len(self.labels)
        for f in self.facets:
            if any(not 0 <= v < nv for v in f):
                raise ComplexError("facet vertex index out of range")
        if len(_maximal_faces(self.facets)) != len(self.facets):
            raise ComplexError("facets must be inclusion-incomparable")

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @kept
    def faces(self, dim: int) -> frozenset[frozenset[int]]:
        """All faces of the given dimension (vertex-index sets of size dim+1)."""
        if dim == 0:
            return frozenset(frozenset([v]) for v in range(self.num_vertices))
        # a facet of this size is its own face, not a copy
        found = {f for f in self.facets if len(f) == dim + 1}
        for f in self.facets:
            if len(f) > dim + 1:
                found.update(map(frozenset, itertools.combinations(
                    sorted(f), dim + 1)))
        return frozenset(found)

    def dimension(self) -> int:
        return max((len(f) for f in self.facets), default=1) - 1

    def edge_set(self) -> frozenset[frozenset[int]]:
        return self.faces(1)

    def triangles(self) -> frozenset[frozenset[int]]:
        return self.faces(2)

    @property
    @kept
    def _links(self) -> tuple[Optional[tuple[int, ...]], ...]:
        """Each vertex link in cyclic order, None where it is not one cycle."""
        return tuple(map(_link_walk, _link_graphs(self)))

    def skeleton_graph(self) -> Graph:
        edges = [tuple(sorted(e)) for e in self.edge_set()]
        names = ["{" + ",".join(map(str, lab)) + "}" for lab in self.labels]
        return Graph.from_edges(self.num_vertices, edges, names)


def _link_graphs(K: SimplicialComplex) -> list[dict[int, list[int]]]:
    """Each vertex's link graph, from one pass over the triangles: per
    link vertex w, the third vertices of the triangles on the edge vw."""
    adj: list[dict[int, list[int]]] = [{} for _ in range(K.num_vertices)]
    for a, b, c in K.triangles():
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            adj[x].setdefault(y, []).append(z)
            adj[x].setdefault(z, []).append(y)
    return adj


def _link_walk(adj: dict[int, list[int]]) -> Optional[tuple[int, ...]]:
    """A link graph in cyclic order; None if it is not one cycle.

    The walk starts at the least link vertex and steps to its lesser
    neighbor first, so the order depends on the complex alone.
    """
    if not adj or any(len(nb) != 2 for nb in adj.values()):
        return None
    start = min(adj)
    out = [start, min(adj[start])]
    while True:
        x, y = adj[out[-1]]
        nxt = y if x == out[-2] else x
        if nxt == start:
            break
        out.append(nxt)
    # a 2-regular link is one cycle exactly when the walk visits all of it
    return tuple(out) if len(out) == len(adj) else None


def _maximal_faces(faces: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The distinct faces of a family that lie in no other face of it.

    Distinct faces of one size are never nested, so a face is compared only
    with the larger faces kept before it, found through one of its
    vertices; a family of one face size needs no comparison at all.  The
    faces keep the order of a stable sort by decreasing size.
    """
    ordered = sorted(set(faces), key=len, reverse=True)
    if len({len(f) for f in ordered}) < 2:
        return ordered
    kept: list[frozenset[int]] = []
    through: dict[int, list[frozenset[int]]] = {}
    for f in ordered:
        home = min((through.get(v, ()) for v in f), key=len, default=kept)
        if any(f < g for g in home):
            continue
        kept.append(f)
        for v in f:
            through.setdefault(v, []).append(f)
    return kept


def complex_from_facets(labels: Iterable[Label],
                        faces: Iterable[frozenset[int]]) -> SimplicialComplex:
    """Build a complex from any face family, retaining only maximal faces."""
    facets = _maximal_faces(faces)
    labels = tuple(labels)
    covered = set().union(*facets) if facets else set()
    for v in range(len(labels)):
        if v not in covered:
            facets.append(frozenset([v]))
    return SimplicialComplex(labels, frozenset(facets))


class VertexKind(Enum):
    SINGLETON = "singleton"
    NEIGHBORHOOD = "neighborhood"
    DIAGONAL = "diagonal"
    OTHER = "other"


@dataclass(frozen=True)
class LovaszComplex:
    """The Lovász complex with kind tags and the CN involution."""

    graph: Graph
    base: SimplicialComplex
    kinds: tuple[VertexKind, ...]
    nu: tuple[int, ...]     # involution A -> CN(A) as a vertex permutation

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.base.labels


def closed_sets(g: Graph) -> list[Label]:
    """All nonempty A with CN(A) nonempty and CN(CN(A)) = A, sorted.

    Every such A is an intersection of neighborhoods, so the candidates are
    the intersection closure of {N(v)}; the closure is then filtered.
    """
    family = {m for m in g.masks if m}
    frontier = set(family)
    while frontier:
        new = set()
        for a in frontier:
            for b in family:
                c = a & b
                if c and c not in family and c not in new:
                    new.add(c)
        family |= new
        frontier = new
    out = []
    for m in sorted(family):
        cn = common_neighbors_mask(g, m)
        if cn and common_neighbors_mask(g, cn) == m:
            out.append(_mask_label(m))
    out.sort()
    return out


def _mask_label(mask: int) -> Label:
    return tuple(mask_bits(mask))


def _classify_label(g: Graph, neighborhoods: frozenset[frozenset[int]],
                    label: Label) -> VertexKind:
    s = frozenset(label)
    if len(s) == 1:
        return VertexKind.SINGLETON
    if s in neighborhoods:
        return VertexKind.NEIGHBORHOOD
    if len(s) == 2 and len(common_neighbors(g, s)) >= 2:
        return VertexKind.DIAGONAL
    return VertexKind.OTHER


def _assemble_lovasz(g: Graph, labels: list[Label],
                     faces: Iterable[frozenset[int]]) -> LovaszComplex:
    base = complex_from_facets(tuple(labels), faces)
    neighborhoods = frozenset(g.adj)
    kinds = tuple(_classify_label(g, neighborhoods, lab) for lab in labels)
    index = {lab: i for i, lab in enumerate(labels)}
    nu = []
    for lab in labels:
        partner = tuple(sorted(common_neighbors(g, lab)))
        if partner not in index:
            raise ComplexError(f"CN image {partner} of {lab} is not a vertex")
        nu.append(index[partner])
    for i, j in enumerate(nu):
        if nu[j] != i:
            raise ComplexError("CN involution is not an involution")
    return LovaszComplex(g, base, kinds, tuple(nu))


def lovasz_complex(g: Graph) -> LovaszComplex:
    """The Lovász complex from the definition: chains of closed sets."""
    labels = closed_sets(g)
    sets = [frozenset(lab) for lab in labels]
    order = sorted(range(len(labels)), key=lambda i: len(sets[i]))
    # Strict-inclusion DAG, then all maximal chains by DFS.
    succ: list[list[int]] = [[] for _ in labels]
    for i in order:
        for j in order:
            if len(sets[i]) < len(sets[j]) and sets[i] < sets[j]:
                succ[i].append(j)
    has_pred = set(itertools.chain.from_iterable(succ))
    chains: list[frozenset[int]] = []

    def grow(chain: list[int]) -> None:
        # extend only by sets containing the whole chain top
        exts = succ[chain[-1]]
        if not exts:
            chains.append(frozenset(chain))
            return
        for j in exts:
            grow(chain + [j])

    for i in range(len(labels)):
        if i not in has_pred:
            grow([i])
    return _assemble_lovasz(g, labels, chains)


def nu_free_on_faces(L: LovaszComplex) -> Optional[frozenset[int]]:
    """A face fixed setwise by the involution, or None if the action is free.

    A fixed face holds an orbit {v, nu v}, itself a fixed face, so the
    facets are searched for an orbit pair.
    """
    for f in L.base.facets:
        for v in f:
            if L.nu[v] in f:
                return frozenset((v, L.nu[v]))
    return None


def quotient_complex(L: LovaszComplex
                     ) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """The orbit complex of the involution with the vertex projection.

    Requires the action to be free on faces; then no face meets an orbit
    twice, so each facet maps onto a face of its own dimension.
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
    faces = [frozenset(orbit[v] for v in f) for f in L.base.facets]
    labels = tuple(L.labels[r] for r in reps)
    return complex_from_facets(labels, faces), tuple(orbit)
