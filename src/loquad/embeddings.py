"""Cellular embeddings via signed rotation systems.

An embedding is a cyclic neighbor order at each vertex plus a sign per
edge; negative edges reverse local orientation, which is the standard
encoding of embeddings in possibly non-orientable surfaces.  This module
covers face tracing, quadrangulation checks, GF(2) functionals on the
cycle space, the cut-along-cycle oracle, embedded isomorphism, and the
constructions relating embeddings to the Lovász complex.

The cutting oracle decides each cut directly (`cut_surface_orientable`):
a +-1 gauge factor per cycle vertex takes the place of switching, each
cycle vertex is split into a left and a right copy read off its rotation,
and a signed BFS labeling of the resulting edge list decides
orientability, so no cut embedding is built.  `cut_along_cycle` builds
the cut surface and stays as the reference for that decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .complexes import (HypothesisError, Label, LovaszComplex, VertexKind,
                        _assemble_lovasz)
from .graphs import (DEFAULT_ORACLE_CYCLE_CAP, CycleSpaceBasis, Edge, Graph,
                     GraphError, InvariantViolation, canonical_cycle,
                     cycle_space_basis, enumerate_simple_cycles, four_cycles,
                     is_bipartite, is_connected, is_k23, norm_edge)
from .surfaces import SurfaceClass, classify


@dataclass(frozen=True)
class EmbeddedGraph:
    """Graph with a cyclic neighbor order per vertex and a sign per edge.

    The analyses of the embedding are built once, on first use, and kept
    with it: the face walks, the quadrangulation and facial verdicts, the
    outcome of the face-rule hypotheses, the face-rule complex,
    orientability and the oddness functional.  The public functions below
    read them.  So neither an embedding nor its `signs` dict may be
    changed after construction.
    """

    graph: Graph
    rotations: tuple[tuple[int, ...], ...]
    signs: dict[Edge, int]

    def __post_init__(self):
        g = self.graph
        if len(self.rotations) != g.n:
            raise GraphError("one rotation per vertex required")
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != sorted(g.adj[v]):
                raise GraphError(
                    f"rotation at {g.names[v]} is not a permutation of its "
                    f"neighbors")
        for e in g.edges:
            if self.signs.get(e) not in (1, -1):
                raise GraphError(f"missing or invalid sign for edge {e}")
        if len(self.signs) != g.num_edges:
            raise GraphError("signs given for non-edges")

    def sign(self, u: int, v: int) -> int:
        return self.signs[norm_edge(u, v)]

    @cached_property
    def _walks(self) -> list[list[State]]:
        return _face_state_walks(self)

    @cached_property
    def _quad(self) -> QuadVerdict:
        for f in trace_faces(self):
            if len(f) != 4 or not f.is_simple_cycle():
                return QuadVerdict(False, f.boundary)
        return QuadVerdict(True)

    @cached_property
    def _facial(self) -> FacialVerdict:
        # a raise is not kept; a later call re-reads the kept quad verdict
        quad = is_quadrangulation(self)
        if not quad.ok:
            raise HypothesisError("embedding is a quadrangulation",
                                  f"face {quad.bad_face}")
        facial = {f.canonical() for f in trace_faces(self)}
        for c in four_cycles(self.graph):
            if c not in facial:
                return FacialVerdict(False, c)
        return FacialVerdict(True)

    @cached_property
    def _hypothesis_failure(self) -> Optional[tuple[str, str]]:
        """The first failed face-rule hypothesis and its detail, or None."""
        g = self.graph
        if not is_connected(g):
            return "graph connected", ""
        if is_bipartite(g).bipartite:
            return "graph non-bipartite", ""
        if is_k23(g):
            return "graph not isomorphic to K(2,3)", ""
        quad = is_quadrangulation(self)
        if not quad.ok:
            return "embedding is a quadrangulation", f"face {quad.bad_face}"
        facial = all_4cycles_facial(self)
        if not facial.ok:
            return ("every 4-cycle is facial",
                    f"non-facial cycle {facial.witness}")
        return None

    @cached_property
    def _face_rule_complex(self) -> LovaszComplex:
        check_face_rule_hypotheses(self)
        g = self.graph
        nb: list[Label] = [tuple(sorted(a)) for a in g.adj]
        triangles: set[frozenset[Label]] = set()
        for f in trace_faces(self):
            a, b, c, d = f.boundary
            for (x, z), (y, w) in (((a, c), (b, d)), ((b, d), (a, c))):
                diag: Label = tuple(sorted((x, z)))
                for s in (x, z):
                    for t in (y, w):
                        triangles.add(frozenset(((s,), diag, nb[t])))
        labels = sorted({lab for t in triangles for lab in t})
        index = {lab: i for i, lab in enumerate(labels)}
        faces = [frozenset(index[lab] for lab in t) for t in triangles]
        return _assemble_lovasz(g, labels, faces)

    @cached_property
    def _orientable(self) -> bool:
        g = self.graph
        return _signs_balanced(
            g.n, lambda u: ((w, self.sign(u, w)) for w in g.adj[u]))

    @cached_property
    def _odd(self) -> bool:
        triangles, cw, cp = _star_cocycles(self)
        # Wu consistency check: the self-pairing of w1 is the Euler
        # characteristic mod 2.
        chi = euler_characteristic(self)
        if _cup_product(triangles, cw, cw) != chi % 2:
            raise InvariantViolation(
                f"w1 squared disagrees with the Euler characteristic {chi}")
        return _cup_product(triangles, cp, cw) == 1


def embedded(n: int, edges: Iterable[tuple[int, int]],
             rotations: Sequence[Sequence[int]],
             neg_edges: Iterable[tuple[int, int]] = (),
             names: Optional[Sequence[str]] = None) -> EmbeddedGraph:
    """Convenience constructor: all signs +1 except `neg_edges`."""
    g = Graph.from_edges(n, edges, names)
    signs = {e: 1 for e in g.edges}
    for u, v in neg_edges:
        signs[norm_edge(u, v)] = -1
    return EmbeddedGraph(g, tuple(tuple(r) for r in rotations), signs)


# ---------------------------------------------------------------------------
# Face tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceWalk:
    """A face boundary as the cyclic sequence of traversed darts."""

    darts: tuple[tuple[int, int], ...]

    @property
    def boundary(self) -> tuple[int, ...]:
        return tuple(d[0] for d in self.darts)

    def __len__(self) -> int:
        return len(self.darts)

    def canonical(self) -> tuple[int, ...]:
        return canonical_cycle(self.boundary)

    def is_simple_cycle(self) -> bool:
        b = self.boundary
        return len(set(b)) == len(b) and len(b) >= 3


State = tuple[int, int, int]    # (from, to, side flag)


def _rot_step(rot: Sequence[int], u: int, direction: int) -> int:
    """The neighbor after u in the cyclic order rot (before it for -1)."""
    return rot[(rot.index(u) + direction) % len(rot)]


def _next_state(e: EmbeddedGraph, s: State) -> State:
    u, v, f = s
    w = _rot_step(e.rotations[v], u, f)
    return (v, w, f * e.sign(v, w))


def _mirror_state(e: EmbeddedGraph, s: State) -> State:
    u, v, f = s
    return (v, u, -f * e.sign(u, v))


def _flip_state(e: EmbeddedGraph, s: State) -> State:
    return (s[0], s[1], -s[2])


def _face_state_walks(e: EmbeddedGraph) -> list[list[State]]:
    """One state walk per face; every dart is used by exactly one face.

    Tracing runs over dart-side states; each face appears as a mirror pair
    of state orbits, reported once.
    """
    states = [(u, v, f)
              for u in range(e.graph.n)
              for v in e.rotations[u]
              for f in (1, -1)]
    orbit_id: dict[State, int] = {}
    orbits: list[list[State]] = []
    for s0 in states:
        if s0 in orbit_id:
            continue
        orbit = []
        s = s0
        while True:
            orbit_id[s] = len(orbits)
            orbit.append(s)
            s = _next_state(e, s)
            if s == s0:
                break
        orbits.append(orbit)
    walks = []
    used = set()
    for i, orbit in enumerate(orbits):
        if i in used:
            continue
        used.add(i)
        j = orbit_id[_mirror_state(e, orbit[0])]
        if j != i:
            used.add(j)
            walk = orbit
        else:
            # self-mirrored orbit traverses the face in both directions
            if len(orbit) % 2:
                raise InvariantViolation("self-mirrored face orbit of odd "
                                         "length")
            walk = orbit[: len(orbit) // 2]
        walks.append(walk)
    if sum(len(w) for w in walks) != 2 * e.graph.num_edges:
        raise InvariantViolation("face walks do not use every dart once")
    return walks


def trace_faces(e: EmbeddedGraph) -> list[FaceWalk]:
    """All face boundary walks of the embedding."""
    return [FaceWalk(tuple((u, v) for u, v, _ in walk)) for walk in e._walks]


def euler_characteristic(e: EmbeddedGraph) -> int:
    return e.graph.n - e.graph.num_edges + len(e._walks)


def surface_class(e: EmbeddedGraph) -> SurfaceClass:
    """Classification of the embedding surface (connected embeddings)."""
    if not is_connected(e.graph):
        raise GraphError("surface classification requires a connected graph")
    chi = euler_characteristic(e)
    orient = is_orientable_embedding(e)
    genus = (2 - chi) // 2 if orient else 2 - chi
    return SurfaceClass(orient, genus, chi)


@dataclass(frozen=True)
class QuadVerdict:
    ok: bool
    bad_face: Optional[tuple[int, ...]] = None


def is_quadrangulation(e: EmbeddedGraph) -> QuadVerdict:
    """Every face walk is a simple 4-cycle."""
    return e._quad


@dataclass(frozen=True)
class FacialVerdict:
    ok: bool
    witness: Optional[tuple[int, ...]] = None   # a non-facial 4-cycle


def all_4cycles_facial(e: EmbeddedGraph) -> FacialVerdict:
    """Whether every simple 4-cycle of the graph bounds a face; raises on
    an embedding that is not a quadrangulation."""
    return e._facial


# ---------------------------------------------------------------------------
# GF(2) functionals on the cycle space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z2Functional:
    """A linear functional recorded by its values on fundamental cycles."""

    basis: CycleSpaceBasis
    bits: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.bits)

    def evaluate(self, edge_set: frozenset[Edge]) -> int:
        coords = self.basis.decompose(edge_set)
        return sum(b * c for b, c in zip(self.bits, coords)) % 2


def cycle_edge_set(cycle: Sequence[int]) -> frozenset[Edge]:
    k = len(cycle)
    return frozenset(norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def one_sidedness_functional(e: EmbeddedGraph,
                             basis: CycleSpaceBasis) -> Z2Functional:
    """1 on cycles whose strip is a Möbius band (odd negative-sign count)."""
    bits = []
    for i in range(len(basis.cycles)):
        neg = sum(1 for ed in basis.cycle_edges(i) if e.signs[ed] < 0)
        bits.append(neg % 2)
    return Z2Functional(basis, tuple(bits))


def parity_functional(g: Graph, basis: CycleSpaceBasis) -> Z2Functional:
    """Cycle length mod 2."""
    return Z2Functional(basis, tuple(len(c) % 2 for c in basis.cycles))


def is_orientable_embedding(e: EmbeddedGraph) -> bool:
    """True iff no cycle has an odd number of negative edges.

    Equivalent to the sign assignment being switching-equivalent to
    all-positive; decided by BFS labeling.
    """
    return e._orientable


def _signs_balanced(
        n: int,
        signed_neighbors: Callable[[int], Iterable[tuple[int, int]]]) -> bool:
    """True iff the vertices 0..n-1 admit labels eps in {+1, -1} with
    eps(w) = eps(u) * s for every pair (w, s) in `signed_neighbors(u)`.

    BFS labeling; returns False at the first conflict.
    """
    eps = [0] * n       # 0 marks an unlabeled vertex
    for s in range(n):
        if eps[s]:
            continue
        eps[s] = 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w, sign in signed_neighbors(u):
                want = eps[u] * sign
                if not eps[w]:
                    eps[w] = want
                    queue.append(w)
                elif eps[w] != want:
                    return False
    return True


@dataclass(frozen=True)
class EvenOneSidedVerdict:
    exists: bool
    # a cycle-space element with (one-sided, even) signature, as coordinates
    # over the fundamental-cycle basis
    coords: Optional[tuple[int, ...]] = None


def has_even_one_sided_class(e: EmbeddedGraph) -> EvenOneSidedVerdict:
    """Existence of a one-sided even element of the cycle space.

    Exists iff the one-sidedness functional is neither zero nor equal to
    the parity functional.
    """
    basis = cycle_space_basis(e.graph)
    w1 = one_sidedness_functional(e, basis)
    par = parity_functional(e.graph, basis)
    if w1.is_zero() or w1.bits == par.bits:
        return EvenOneSidedVerdict(False)
    m = len(basis.cycles)
    for i in range(m):
        if w1.bits[i] == 1 and par.bits[i] == 0:
            coords = tuple(1 if j == i else 0 for j in range(m))
            return EvenOneSidedVerdict(True, coords)
    i = next(j for j in range(m) if w1.bits[j] == 1)      # par[i] == 1 here
    j = next(j for j in range(m) if par.bits[j] == 1 and w1.bits[j] == 0)
    coords = tuple(1 if x in (i, j) else 0 for x in range(m))
    return EvenOneSidedVerdict(True, coords)


# ---------------------------------------------------------------------------
# Switching (local reorientation) and cutting
# ---------------------------------------------------------------------------

def switch_vertex(e: EmbeddedGraph, v: int) -> EmbeddedGraph:
    """Reverse the local orientation at v: flip its rotation and edge signs."""
    rotations = list(e.rotations)
    rotations[v] = tuple(reversed(rotations[v]))
    signs = dict(e.signs)
    for u in e.graph.adj[v]:
        ed = norm_edge(u, v)
        signs[ed] = -signs[ed]
    return EmbeddedGraph(e.graph, tuple(rotations), signs)


def _arc_between(rot: Sequence[int], start: int, stop: int) -> list[int]:
    """Elements of the cyclic sequence strictly between start and stop."""
    i = rot.index(start)
    out = []
    j = (i + 1) % len(rot)
    while rot[j] != stop:
        out.append(rot[j])
        j = (j + 1) % len(rot)
    return out


def _check_cut_cycle(e: EmbeddedGraph, cycle: Sequence[int]) -> None:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise GraphError("cut requires a simple cycle of length >= 3")
    for i in range(k):
        if cycle[(i + 1) % k] not in e.graph.adj[cycle[i]]:
            raise GraphError("cut input is not a cycle of the graph")


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


def cut_surface_orientable(e: EmbeddedGraph, cycle: Sequence[int]) -> bool:
    """Whether every component of the cut (and capped) surface is orientable.

    Decided without building the cut embedding.  The gauge of
    `cut_along_cycle` switches cycle vertex i exactly when the running
    product of the path signs up to it is -1; that product is kept as a
    factor per cycle vertex, and the closing sign times the last factor is
    the one-sidedness of the cycle.  Each cycle vertex gets a left copy
    (the neighbors strictly between its successor and its predecessor in
    its rotation, read in reverse where the factor is -1) and a right copy
    (the rest).  Off-cycle edges and chords join the copies their ends see,
    re-signed by the factors of those ends; the copies are joined along
    the cycle by positive edges, with a twisted negative closing pair when
    the cycle is one-sided.  The cut is orientable iff that signed graph
    admits a consistent +-1 labeling.  `cut_along_cycle` is the reference.
    Cost O(E) per cut.
    """
    _check_cut_cycle(e, cycle)
    k = len(cycle)
    n = e.graph.n
    signs = e.signs
    index = {v: i for i, v in enumerate(cycle)}
    factor = [1] * k
    for i in range(1, k):
        factor[i] = factor[i - 1] * signs[norm_edge(cycle[i - 1], cycle[i])]
    one_sided = factor[k - 1] * signs[norm_edge(cycle[k - 1], cycle[0])] < 0

    # copy n + 2i is the left side of cycle[i], n + 2i + 1 the right side;
    # the slots of the cycle vertices themselves stay isolated
    side: dict[tuple[int, int], int] = {}     # (cycle vertex, neighbor)
    for i, v in enumerate(cycle):
        rot = e.rotations[v] if factor[i] > 0 else e.rotations[v][::-1]
        nxt, prv = cycle[(i + 1) % k], cycle[i - 1]
        d = len(rot)
        start = rot.index(nxt)
        copy = n + 2 * i
        for j in range(start + 1, start + d):
            u = rot[j % d]
            if u == prv:
                copy += 1
            else:
                side[v, u] = copy

    signed_adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 2 * k)]
    for (u, v), s in signs.items():
        iu, iv = index.get(u), index.get(v)
        a, b = u, v
        if iu is not None:
            if iv is not None and (iu - iv) % k in (1, k - 1):
                continue    # cycle edges are joined below
            a, s = side[u, v], s * factor[iu]
        if iv is not None:
            b, s = side[v, u], s * factor[iv]
        signed_adj[a].append((b, s))
        signed_adj[b].append((a, s))
    # The twisted closing pair mirrors `cut_along_cycle`; it never changes
    # the verdict.  Cutting along a one-sided C leaves an orientable surface
    # only if w1 is dual to C, and then every path between the two sides of
    # C already has sign -1, so joining untwisted gives the same answer.
    for i in range(k):
        a_u, a_v = n + 2 * i, n + 2 * ((i + 1) % k)
        if i < k - 1 or not one_sided:
            pairs, s = ((a_u, a_v), (a_u + 1, a_v + 1)), 1
        else:
            pairs, s = ((a_u, a_v + 1), (a_u + 1, a_v)), -1
        for a, b in pairs:
            signed_adj[a].append((b, s))
            signed_adj[b].append((a, s))
    return _signs_balanced(len(signed_adj), signed_adj.__getitem__)


# ---------------------------------------------------------------------------
# Oddness of quadrangulations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientizingWitness:
    cycle: tuple[int, ...]
    length: int
    cut_surface_orientable: bool


@dataclass(frozen=True)
class OddnessVerdict:
    odd: bool
    witness: Optional[OrientizingWitness] = None
    oracle_ran: bool = False
    oracle_complete: bool = False


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
    for fi, walk in enumerate(e._walks):
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


def oddness_functional(e: EmbeddedGraph) -> bool:
    """Homological oddness: length parity evaluated on the dual of the
    one-sidedness class.

    An odd cycle whose cut orientizes the surface must be dual to the
    one-sidedness class w1, so one exists at the homology level exactly
    when the parity class pairs nontrivially with w1 under the cup
    product.  Faces must be simple even cycles so that both classes
    descend to the surface.
    """
    return e._odd


def oddness_oracle(e: EmbeddedGraph, max_cycles: int = DEFAULT_ORACLE_CYCLE_CAP
                   ) -> tuple[Optional[bool], Optional[OrientizingWitness], bool]:
    """Exhaustive cutting oracle: search odd simple cycles whose cut orientizes.

    Returns (verdict, witness, complete).  The verdict is None when the
    enumeration overflowed before finding a witness.
    """
    cycles, overflow = enumerate_simple_cycles(e.graph, max_cycles)
    for c in cycles:
        if len(c) % 2 == 1 and cut_surface_orientable(e, c):
            return True, OrientizingWitness(c, len(c), True), not overflow
    if overflow:
        return None, None, False
    return False, None, True


def is_odd_quadrangulation(e: EmbeddedGraph, run_oracle: bool = False,
                           oracle_cap: int = DEFAULT_ORACLE_CYCLE_CAP
                           ) -> OddnessVerdict:
    """Oddness decided homologically, optionally checked by the cut oracle.

    Requires a connected non-bipartite quadrangulation of a non-orientable
    surface.  With `run_oracle`, the cut-along-cycle search must agree;
    disagreement raises.
    """
    if not is_connected(e.graph):
        raise HypothesisError("graph connected")
    if is_bipartite(e.graph).bipartite:
        raise HypothesisError("graph non-bipartite")
    quad = is_quadrangulation(e)
    if not quad.ok:
        raise HypothesisError("embedding is a quadrangulation",
                              f"face {quad.bad_face}")
    if is_orientable_embedding(e):
        raise HypothesisError("surface non-orientable")
    odd = oddness_functional(e)
    if not run_oracle:
        return OddnessVerdict(odd)
    verdict, witness, complete = oddness_oracle(e, oracle_cap)
    if verdict is not None and verdict != odd:
        raise InvariantViolation(
            f"oddness disagreement: functional says {odd}, cutting oracle "
            f"says {verdict}")
    return OddnessVerdict(odd, witness, oracle_ran=True,
                          oracle_complete=complete)


# ---------------------------------------------------------------------------
# Embedded isomorphism
# ---------------------------------------------------------------------------

def embedded_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Whether a map isomorphism carries a onto b, up to switching and
    reflection; connected embeddings only.

    The map is a bijection of dart-side states that commutes with the face
    step, the mirror and the side flip, and comes from a vertex bijection.
    These moves reach every state of a connected embedding (without the
    mirror, half of them on an orientable one), so the image of one root
    state fixes the map.  Each candidate image costs O(E); the same dart of
    b goes first, which settles two embeddings of one labelled graph.
    """
    ga, gb = a.graph, b.graph
    if not (is_connected(ga) and is_connected(gb)):
        raise GraphError("embedded isomorphism requires connected graphs")
    if ga.n != gb.n or ga.num_edges != gb.num_edges:
        return False
    if not ga.num_edges:
        return True
    root = (0, a.rotations[0][0], 1)
    images = sorted(((u, v, f) for u in range(gb.n)
                     if gb.degree(u) == ga.degree(0)
                     for v in b.rotations[u] for f in (1, -1)),
                    key=lambda t: t[:2] != root[:2])
    return any(_state_map_fits(a, b, root, t) for t in images)


def _state_map_fits(a: EmbeddedGraph, b: EmbeddedGraph, root: State,
                    image: State) -> bool:
    """Whether root -> image extends to an isomorphism of a onto b."""
    vertex, taken = [-1] * a.graph.n, [False] * b.graph.n
    image_of = {root: image}
    stack = [(root, image)]
    while stack:
        s, t = stack.pop()
        for x, y in ((s[0], t[0]), (s[1], t[1])):
            if vertex[x] < 0 and not taken[y]:
                vertex[x], taken[y] = y, True
            elif vertex[x] != y:
                return False
        for move in (_next_state, _mirror_state, _flip_state):
            s2, t2 = move(a, s), move(b, t)
            known = image_of.get(s2)
            if known is None:
                image_of[s2] = t2
                stack.append((s2, t2))
            elif known != t2:
                return False
    # an injective vertex map that commutes with the flip is injective on
    # states, so covering as many states as b has makes it onto
    return len(image_of) == 4 * a.graph.num_edges


# ---------------------------------------------------------------------------
# Lovász complex from faces, and the quotient embedding
# ---------------------------------------------------------------------------

def check_face_rule_hypotheses(e: EmbeddedGraph) -> None:
    """The hypotheses of the face-rule construction; raises on violation,
    the same error on every call, from one check per embedding."""
    if e._hypothesis_failure is not None:
        raise HypothesisError(*e._hypothesis_failure)


def lovasz_from_quadrangulation(e: EmbeddedGraph) -> LovaszComplex:
    """Build the Lovász complex face by face: eight triangles per quad.

    A face a-b-c-d contributes, for each diagonal, the four triangles
    singleton < diagonal < neighborhood visible in the face.  Raises when
    the face-rule hypotheses fail.
    """
    return e._face_rule_complex


def rotation_system_of_surface(K) -> EmbeddedGraph:
    """A signed rotation system for the 1-skeleton of a triangulated surface.

    Each vertex gets its link cycle (arbitrary direction); the sign of an
    edge is +1 iff the two endpoints' rotations pick opposite triangles as
    the successor across it.
    """
    classify(K)
    rots = K._links
    skel = K.skeleton_graph()
    signs = {(u, v): 1 if _rot_step(rots[u], v, 1) != _rot_step(rots[v], u, 1)
             else -1 for u, v in skel.edges}
    return EmbeddedGraph(skel, rots, signs)


def _cyclic_direction(a: Sequence[int], b: Sequence[int]) -> int:
    """+1 if b is a rotation of a, -1 if of reversed a; raises otherwise."""
    if len(a) != len(b):
        raise ValueError("cyclic sequences of different lengths")
    k = len(a)
    for direction, seq in ((1, list(a)), (-1, list(reversed(a)))):
        for s in range(k):
            if all(seq[(s + j) % k] == b[j] for j in range(k)):
                return direction
    raise ValueError("sequences are not cyclically related")


def lovasz_quotient_embedding(L: LovaszComplex) -> EmbeddedGraph:
    """The induced quadrangulation of the surface, quotiented by the involution.

    The subgraph on singletons and neighborhoods quadrangulates the surface
    (each diagonal's link is one quad).  Folding it by the involution gives
    an embedding of the original graph: rotations are read off the
    singleton representatives, and signs compose the surface signs with the
    orientation behavior of the involution at each vertex.
    """
    surf = rotation_system_of_surface(L.base)    # classifies L.base first
    if any(k is VertexKind.OTHER for k in L.kinds):
        raise HypothesisError("every vertex is singleton/neighborhood/diagonal")
    g = L.graph
    singleton_of = {}
    for i, lab in enumerate(L.labels):
        if L.kinds[i] is VertexKind.SINGLETON:
            singleton_of[lab[0]] = i
    # the quotient image v of each singleton {v} and neighborhood N(v)
    down = {i: L.labels[i if k is VertexKind.SINGLETON else L.nu[i]][0]
            for i, k in enumerate(L.kinds) if k is not VertexKind.DIAGONAL}

    # orientation behavior of the involution at each vertex: does it map the
    # oriented link of {v} onto the chosen orientation of the link of N(v)?
    tau = {}
    for v in range(g.n):
        sv = singleton_of[v]
        nv = L.nu[sv]
        mapped = [L.nu[x] for x in surf.rotations[sv]]
        tau[v] = _cyclic_direction(mapped, surf.rotations[nv])

    rotations = []
    for v in range(g.n):
        sv = singleton_of[v]
        rot = [down[u] for u in surf.rotations[sv] if u in down]
        if sorted(rot) != sorted(g.adj[v]):
            raise HypothesisError(
                "induced subgraph quadrangulates the surface",
                f"rotation mismatch at {g.names[v]}")
        rotations.append(tuple(rot))
    signs: dict[Edge, int] = {}
    for u, v in g.edges:
        s1 = surf.sign(singleton_of[u], L.nu[singleton_of[v]]) * tau[v]
        s2 = surf.sign(singleton_of[v], L.nu[singleton_of[u]]) * tau[u]
        if s1 != s2:
            raise RuntimeError("inconsistent quotient edge sign")
        signs[(u, v)] = s1
    return EmbeddedGraph(g, tuple(rotations), signs)


def lovasz_quads(L: LovaszComplex) -> list[tuple[int, ...]]:
    """The quads of the induced quadrangulation, one per diagonal vertex.

    Each quad is the link cycle of a diagonal, a 4-cycle alternating
    singletons and neighborhoods, returned in cyclic order.
    """
    quads = []
    for i, kind in enumerate(L.kinds):
        if kind is VertexKind.DIAGONAL:
            link = L.base._links[i]
            if link is None or len(link) != 4:
                raise HypothesisError("link of a diagonal is a 4-cycle",
                                      f"diagonal {L.labels[i]}")
            quads.append(link)
    return quads
