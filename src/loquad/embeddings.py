"""Cellular embeddings via signed rotation systems.

An embedding is a cyclic neighbor order at each vertex plus a sign per
edge; negative edges reverse local orientation, which is the standard
encoding of embeddings in possibly non-orientable surfaces.  This module
covers face tracing, quadrangulation checks, the sign-balance tests, the
cut-along-cycle oracle, embedded isomorphism, and the constructions
relating embeddings to the Lovász complex.

Orientability and the even one-sided test are balance tests on the
vertex signs (`_signs_balanced`).  The cuts of the oracle read the face
coherence signs instead: reading a face walk state (u, v, f) as the dart
u->v with local orientation f at v, an edge whose two face sides are
(ua, va, ga) and (ub, vb, gb) gets ga * gb when they traverse it in the
same direction and ga * gb * sign(u, v) when in opposite directions.  The
faces orient coherently iff these signs are balanced.  Their class over
the fundamental cycles of the dual graph, and each edge's mask over those
cycles, are built once per embedding (`EmbeddedGraph._dual`); a cut is
then decided from the masks of the cycle's k edges, so no cut embedding
is built.  The reference that builds one is `tests/cut_reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .complexes import (HypothesisError, Label, LovaszComplex, VertexKind,
                        _assemble_lovasz)
from .graphs import (DEFAULT_ORACLE_CYCLE_CAP, Edge, Graph, GraphError,
                     InvariantViolation, canonical_cycle, four_cycles,
                     is_bipartite, is_connected, norm_edge, simple_cycles)
from .surfaces import SurfaceClass, classify


@dataclass(frozen=True)
class EmbeddedGraph:
    """Graph with a cyclic neighbor order per vertex and a sign per edge.

    The analyses of the embedding are built once, on first use, and kept
    with it: the face walks and their signed dual table, the
    quadrangulation and facial verdicts, the outcome of the face-rule
    hypotheses, the face-rule complex, orientability and the oddness
    functional.  The public functions below read them.  So neither an
    embedding nor its `signs` dict may be changed after construction.
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
    def _dual(self) -> DualTable:
        return _dual_table(self)

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
# per edge, in both directions, the fundamental dual cycles holding it as a
# bitmask; and the class of the coherence signs as such a bitmask
DualTable = tuple[dict[tuple[int, int], int], int]


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


def _dual_table(e: EmbeddedGraph) -> DualTable:
    """The class of the face coherence signs on the dual graph.

    The dual graph has a vertex per face and an edge per edge of the
    embedding, joining its two face sides, with the coherence sign of the
    module docstring.  A spanning forest of it fixes one fundamental dual
    cycle per non-forest edge.  Returns a bitmask over those cycles for
    every edge, keyed by both of its directions, that marks the cycles
    holding it, and the class of the coherence signs: the mask of the
    cycles whose sign product is -1.  Checked against the face walks, the
    disc around every vertex and the vertex-sign verdict `_orientable`.
    """
    found: dict[Edge, list[tuple[int, State]]] = {ed: [] for ed in e.signs}
    for fi, walk in enumerate(e._walks):
        for s in walk:
            found[norm_edge(s[0], s[1])].append((fi, s))
    around = [1] * e.graph.n
    sides: list[tuple[int, int, int]] = []      # per edge id: fa, fb, sign
    dual: list[list[tuple[int, int]]] = [[] for _ in e._walks]
    for i, (ed, pair) in enumerate(found.items()):
        if len(pair) != 2:
            raise InvariantViolation(f"edge {ed} has {len(pair)} face sides")
        (fa, (ua, _, ga)), (fb, (ub, _, gb)) = pair
        c = ga * gb if ua == ub else ga * gb * e.signs[ed]
        around[ed[0]] *= c
        around[ed[1]] *= c
        sides.append((fa, fb, c))
        dual[fa].append((i, fb))
        dual[fb].append((i, fa))
    # the faces at a vertex form a disc, so they orient coherently around
    # it; the cut rule of `cut_surface_orientable` rests on this
    for v, c in enumerate(around):
        if c != 1:
            raise InvariantViolation(
                f"coherence signs around vertex {e.graph.names[v]} "
                f"multiply to -1")
    # a depth-first spanning forest, each face oriented along it from its
    # root; `order` lists every face after its parent, `up` the forest
    # edge to its parent
    eps = [0] * len(dual)
    up: list[Optional[tuple[int, int]]] = [None] * len(dual)
    order: list[int] = []
    for root in range(len(dual)):
        if eps[root]:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            f = stack.pop()
            order.append(f)
            for i, h in dual[f]:
                if not eps[h]:
                    eps[h] = eps[f] * sides[i][2]
                    up[h] = (i, f)
                    stack.append(h)
    # each non-forest edge gets its own bit, and each face the bits of the
    # non-forest edges at it; a forest edge lies on exactly the cycles of
    # the edges with one end below it
    forest = {u[0] for u in up if u is not None}
    bits = [0] * len(sides)
    below = [0] * len(dual)
    cls = 0
    bit = 1
    for i, (fa, fb, c) in enumerate(sides):
        if i in forest:
            continue
        bits[i] = bit
        below[fa] ^= bit
        below[fb] ^= bit
        if eps[fa] * eps[fb] * c < 0:
            cls |= bit
        bit <<= 1
    for f in reversed(order):
        if up[f] is not None:
            i, p = up[f]
            bits[i] = below[f]
            below[p] ^= below[f]
    if (cls == 0) != e._orientable:
        raise InvariantViolation("face coherence and vertex signs disagree "
                                 "on orientability")
    masks: dict[tuple[int, int], int] = {}
    for (u, v), m in zip(found, bits):
        masks[u, v] = masks[v, u] = m
    return masks, cls


def euler_characteristic(e: EmbeddedGraph) -> int:
    return e.graph.n - e.graph.num_edges + len(e._walks)


def surface_class(e: EmbeddedGraph) -> SurfaceClass:
    """Classification of the embedding surface (connected embeddings)."""
    if not is_connected(e.graph):
        raise GraphError("surface classification requires a connected graph")
    return SurfaceClass.from_euler(is_orientable_embedding(e),
                                   euler_characteristic(e))


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
# Sign balance: orientability and even one-sided cycles
# ---------------------------------------------------------------------------

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

    Depth-first labeling; returns False at the first conflict.
    """
    eps = [0] * n       # 0 marks an unlabeled vertex
    for s in range(n):
        if eps[s]:
            continue
        eps[s] = 1
        stack = [s]
        while stack:
            u = stack.pop()
            for w, sign in signed_neighbors(u):
                want = eps[u] * sign
                if not eps[w]:
                    eps[w] = want
                    stack.append(w)
                elif eps[w] != want:
                    return False
    return True


def has_even_one_sided_class(e: EmbeddedGraph) -> bool:
    """Whether some even element of the cycle space is one-sided.

    The one-sidedness class w1 (negative-edge parity) is zero iff the
    signs are balanced, and equals the length parity iff the negated
    signs are balanced: a cycle has an even number of positive edges iff
    it has an even number of negative ones under the negated signs.  Over
    GF(2) an even one-sided element exists iff w1 is neither.
    """
    g = e.graph
    return not e._orientable and not _signs_balanced(
        g.n, lambda u: ((w, -e.sign(u, w)) for w in g.adj[u]))


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


def _check_cut_cycle(e: EmbeddedGraph, cycle: Sequence[int]) -> None:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise GraphError("cut requires a simple cycle of length >= 3")
    for i in range(k):
        if cycle[(i + 1) % k] not in e.graph.adj[cycle[i]]:
            raise GraphError("cut input is not a cycle of the graph")


def cut_surface_orientable(e: EmbeddedGraph, cycle: Sequence[int]) -> bool:
    """Whether every component of the cut (and capped) surface is orientable.

    The faces of the cut surface are those of the embedding; only the
    adjacencies across the cycle's k edges C are gone, and capping adds
    discs, which change no orientation.  So the cut is orientable iff the
    coherence signs c become balanced when the signs on some subset S of
    C are flipped.  Balanced signs, like c, multiply to +1 around every
    vertex, so every vertex meets S an even number of times; a vertex of
    the cycle meets C in its two cycle edges only, so S is empty or all
    of C.  The cut is orientable iff the class of c in
    `EmbeddedGraph._dual` is zero or equals the XOR of the masks of C's
    edges.  Cost O(k) after one O(F + E) table per embedding; no cut
    embedding is built, `tests/cut_reference.py` builds it.
    """
    _check_cut_cycle(e, cycle)
    return _cut_orientable(e, cycle)


def _cut_orientable(e: EmbeddedGraph, cycle: Sequence[int]) -> bool:
    """`cut_surface_orientable` for a cycle known to be simple."""
    masks, cls = e._dual
    if cls == 0:
        return True
    flipped = 0
    u = cycle[-1]
    for v in cycle:
        flipped ^= masks[u, v]
        u = v
    return flipped == cls


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
    """The homological oddness verdict, and what the cutting oracle found
    when it ran.

    `oracle_complete` is True when the oracle settled its own verdict: it
    found a witness, which ends its search, or it examined every simple
    cycle within its cap.  It is False when the cap stopped the search
    without a witness, and when the oracle did not run.
    """

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
    """Cutting oracle: search the odd simple cycles for one whose cut
    orientizes the surface.

    Reads the cycles of `simple_cycles` one at a time, in its order, and
    decides each odd one in O(k) by `_cut_orientable`; no cycle list is
    kept.  Returns (verdict, witness, complete):
    - (True, the first such cycle, True) once one is found among the
      first `max_cycles` cycles, which ends the search;
    - (False, None, True) when the graph has at most `max_cycles` cycles
      and none is such;
    - (None, None, False) when the first `max_cycles` cycles hold none
      and there are more; a cap of zero or below examines none.
    """
    for examined, c in enumerate(simple_cycles(e.graph)):
        if examined >= max_cycles:
            return None, None, False
        if len(c) % 2 == 1 and _cut_orientable(e, c):
            return True, OrientizingWitness(c, len(c), True), True
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
