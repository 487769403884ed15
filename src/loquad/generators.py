"""Deterministic fixture graphs and quadrangulation families.

Every generator self-checks its own annotations before returning, so a
shipped fixture can never drift from its documented properties.
"""

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, GraphError, is_bipartite, norm_edge
from .embeddings import (EmbeddedGraph, all_4cycles_facial, embedded,
                         is_orientable_embedding, is_quadrangulation,
                         oddness_functional, surface_class)


@dataclass(frozen=True)
class CycleAnnotation:
    cycle: tuple[int, ...]
    one_sidedness: int        # negative-edge parity: 0 two-sided, 1 one-sided
    parity: int               # length mod 2


@dataclass(frozen=True)
class FamilySpec:
    """The stated properties of a family member; None is not annotated."""

    family: str
    params: tuple[int, ...]
    orientable: bool
    euler: int
    bipartite: Optional[bool] = None
    all_facial: Optional[bool] = None
    basis_cycles: tuple[CycleAnnotation, ...] = ()
    odd: Optional[bool] = None


def _self_check(e: EmbeddedGraph, spec: FamilySpec) -> EmbeddedGraph:
    """Verify every annotation of the spec against the embedding."""
    problems = []
    if spec.bipartite is not None and is_bipartite(e.graph) != spec.bipartite:
        problems.append("bipartite")
    sc = surface_class(e)
    if (sc.orientable, sc.euler) != (spec.orientable, spec.euler):
        problems.append(f"surface class {sc.describe()}")
    if spec.all_facial is not None and \
            all_4cycles_facial(e).ok != spec.all_facial:
        problems.append("all_facial")
    for ann in spec.basis_cycles:
        cyc = ann.cycle
        edges = [norm_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                 for i in range(len(cyc))]
        if len(set(edges)) != len(edges) or \
                any(ed not in e.signs for ed in edges):
            problems.append(f"annotated walk {cyc} is not a cycle")
            continue
        neg = sum(1 for ed in edges if e.signs[ed] == -1) % 2
        if neg != ann.one_sidedness or len(cyc) % 2 != ann.parity:
            problems.append(f"cycle annotation {ann}")
    if spec.odd is not None:
        if not is_quadrangulation(e).ok or is_orientable_embedding(e):
            problems.append("oddness annotation on unsuitable embedding")
        elif oddness_functional(e) != spec.odd:
            problems.append("oddness annotation")
    if problems:
        raise GraphError(
            f"{spec.family}{spec.params} failed self-check: "
            + ", ".join(problems))
    return e


def figure1_graph() -> Graph:
    """The 6-vertex running example (display names are 1-based)."""
    edges_1based = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 6),
                    (4, 5), (5, 6)]
    return Graph.from_edges(6, [(u - 1, v - 1) for u, v in edges_1based],
                            names=[str(i) for i in range(1, 7)])


def k4_projective() -> EmbeddedGraph:
    """K4 quadrangulating the projective plane: three quad faces, chi 1.

    The canonical odd, 4-chromatic instance.
    """
    e = embedded(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                 [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)],
                 neg_edges=[(0, 2), (1, 3)])
    spec = FamilySpec("k4-projective", (), orientable=False, euler=1,
                      bipartite=False, all_facial=True,
                      basis_cycles=(CycleAnnotation((0, 1, 2), 1, 1),),
                      odd=True)
    return _self_check(e, spec)


def k23_sphere() -> EmbeddedGraph:
    """K(2,3) quadrangulating the sphere with three quad faces.

    Vertices 0, 1 form the small side; 2, 3, 4 the large side.
    """
    e = embedded(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
                 [(2, 3, 4), (2, 4, 3), (0, 1), (0, 1), (0, 1)])
    spec = FamilySpec("k23-sphere", (), orientable=True, euler=2,
                      bipartite=True, all_facial=True)
    return _self_check(e, spec)


def _grid_id(m: int, i: int, j: int) -> int:
    return (i % m) + m * j


def torus_grid(m: int, n: int) -> EmbeddedGraph:
    """The m-by-n product-of-cycles grid on the torus, all signs positive."""
    if m < 3 or n < 3:
        raise GraphError("torus grid needs m, n >= 3")

    def vid(i, j):
        return _grid_id(m, i, j % n)

    edges = set()
    rotations = [None] * (m * n)
    for j in range(n):
        for i in range(m):
            edges.add(norm_edge(vid(i, j), vid(i + 1, j)))
            edges.add(norm_edge(vid(i, j), vid(i, j + 1)))
            rotations[vid(i, j)] = (vid(i, j + 1), vid(i + 1, j),
                                    vid(i, j - 1), vid(i - 1, j))
    e = embedded(m * n, edges, rotations)
    spec = FamilySpec(
        "torus-grid", (m, n), orientable=True, euler=0,
        bipartite=(m % 2 == 0 and n % 2 == 0),
        basis_cycles=(
            CycleAnnotation(tuple(vid(i, 0) for i in range(m)), 0, m % 2),
            CycleAnnotation(tuple(vid(0, j) for j in range(n)), 0, n % 2),
        ))
    return _self_check(e, spec)


def klein_grid(m: int, n: int, twist: int = 0) -> EmbeddedGraph:
    """An m-by-n grid on the Klein bottle.

    Rows wrap as in the torus grid; the column direction closes through a
    reversing seam that sends (i, n-1) up to ((twist - i) mod m, 0), with
    sign -1 on the seam edges.  The two documented cycles generate the
    cycle space together with the faces: a two-sided row loop and a
    one-sided loop through the seam.
    """
    if m < 3 or n < 3:
        raise GraphError("klein grid needs m, n >= 3")
    t = twist % m

    def vid(i, j):
        return _grid_id(m, i, j)

    edges = set()
    neg = set()
    rotations = [None] * (m * n)
    for j in range(n):
        for i in range(m):
            edges.add(norm_edge(vid(i, j), vid(i + 1, j)))
    for j in range(n - 1):
        for i in range(m):
            edges.add(norm_edge(vid(i, j), vid(i, j + 1)))
    for i in range(m):
        seam = norm_edge(vid(i, n - 1), vid(t - i, 0))
        edges.add(seam)
        neg.add(seam)
    for j in range(n):
        for i in range(m):
            north = vid(t - i, 0) if j == n - 1 else vid(i, j + 1)
            south = vid(t - i, n - 1) if j == 0 else vid(i, j - 1)
            rotations[vid(i, j)] = (north, vid(i + 1, j), south,
                                    vid(i - 1, j))
    e = embedded(m * n, edges, rotations, neg)

    row = tuple(vid(i, 0) for i in range(m))
    # column 0 up to the seam, then back along row 0 to close up
    seam_loop = tuple(vid(0, j) for j in range(n)) \
        + tuple(vid(i, 0) for i in range(t, 0, -1))
    spec = FamilySpec(
        "klein-grid", (m, n, t), orientable=False, euler=0,
        basis_cycles=(
            CycleAnnotation(row, 0, m % 2),
            CycleAnnotation(seam_loop, 1, (n + t) % 2),
        ))
    return _self_check(e, spec)


# The shipped sweep.  Parameters were selected by running the oddness
# pipeline (functional decision plus cutting oracle) over small grids;
# the selection is re-verified by the acceptance tests, not trusted.
KLEIN_SWEEP: tuple[tuple[int, int, int], ...] = (
    (3, 5, 0),    # odd, all 4-cycles facial
    (3, 5, 1),    # odd, all 4-cycles facial
    (6, 3, 0),    # not odd, all 4-cycles facial
    (5, 5, 0),    # odd, all 4-cycles facial
    (6, 5, 0),    # not odd, all 4-cycles facial
)


@dataclass(frozen=True)
class Fixture:
    name: str
    embedding: EmbeddedGraph


def fixture_text(filename: str) -> str:
    """Content of a shipped fixture file (fixtures/v1 inside the package)."""
    from importlib.resources import files
    return (files("loquad") / "fixtures" / "v1" / filename).read_text(
        encoding="utf-8")


def shipped_fixtures() -> list[Fixture]:
    """Every embedded fixture the package ships, freshly generated."""
    out = [Fixture("k4-projective", k4_projective()),
           Fixture("k23-sphere", k23_sphere()),
           Fixture("torus-grid-3-3", torus_grid(3, 3)),
           Fixture("torus-grid-3-4", torus_grid(3, 4))]
    for m, n, t in KLEIN_SWEEP:
        out.append(Fixture(f"klein-grid-{m}-{n}-{t}", klein_grid(m, n, t)))
    return out
