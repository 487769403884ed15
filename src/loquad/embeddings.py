"""Cellular embeddings via signed rotation systems.

An embedding is a cyclic neighbor order at each vertex plus a sign per
edge; negative edges reverse local orientation, which is the standard
encoding of embeddings in possibly non-orientable surfaces.  This module
covers face tracing, quadrangulation checks, the sign-balance tests, the
cut-along-cycle oracle, embedded isomorphism, and the constructions
relating embeddings to the Lovász complex.  Its analyses read one integer
numbering of the darts (`Darts`), which also checks a file's rotations
and signs, and one list of face corners; a face walk state is
2 * dart + side, the dart u->v with local orientation +1 (side 0) or -1
at v.

Orientability and the even one-sided test are balance tests on the
vertex signs, both read off one labelling down the spanning forest that
`Graph._parity` builds for connectivity (`EmbeddedGraph._balance`).
Oddness and the oracle's cuts read the face coherence signs instead: an
edge whose face sides have orientations ga and gb gets ga * gb when they
traverse it in the same direction and ga * gb * sign(u, v) when in
opposite ones.  Labelling the faces by these signs along a spanning
forest of the dual graph (`_face_coherence`) leaves the set R of edges
whose two sides do not cancel.  R is a cycle dual to the one-sidedness
class w1: it is empty iff the surface is orientable, and a
quadrangulation is odd iff |R| is odd.  A cut reads each edge's mask
over the fundamental dual cycles and the class of the signs over them
(`EmbeddedGraph._dual`); the oracle carries the XOR of the masks down
its cycle search, in O(1) per cycle.  The references,
`tests/cut_reference.py`, `tests/oddness_reference.py` and
`tests/face_reference.py`, build the cut embedding, the cup product on a
star triangulation and the face walks of (u, v, f) tuples.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from typing import Iterable, Optional, Sequence

from .complexes import (HypothesisError, Label, LovaszComplex, VertexKind,
                        _assemble_lovasz, quotient_complex)
from .graphs import (DEFAULT_ORACLE_CYCLE_CAP, Edge, Graph, GraphError,
                     InvariantViolation, canonical_cycle, four_cycles,
                     is_bipartite, is_connected, labelled_cycles, norm_edge,
                     signed_forest)
from .surfaces import SurfaceClass, _link_sign, classify


@dataclass(frozen=True)
class EmbeddedGraph:
    """Graph with a cyclic neighbor order per vertex and a sign per edge.

    The analyses of the embedding are built once, on first use, and kept
    with it: the dart numbering, the face walks and corners, the coherence
    signs and dual table, the quad and facial verdicts, the face-rule
    hypotheses and complex, the sign balance and the oddness functional.
    The public functions below read them.  So neither an embedding nor
    its `signs` dict may be changed after construction.
    """

    graph: Graph
    rotations: tuple[tuple[int, ...], ...]
    signs: dict[Edge, int]
    # `_darts` and `_corners`, kept in declared fields, as `Graph._forest`
    # is; a parsed embedding comes with its darts numbered
    _dart_table: Optional[Darts] = field(
        default=None, init=False, repr=False, compare=False)
    _face_corners: Optional[list[list[int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        if len(self.rotations) != g.n:
            raise GraphError("one rotation per vertex required")
        for v, (rot, nbrs) in enumerate(zip(self.rotations, g.adj)):
            if len(rot) != len(nbrs) or not nbrs.issubset(rot):
                raise GraphError(f"rotation at {g.names[v]} is not a "
                                 f"permutation of its neighbors")
        for e in g.edges:
            if self.signs.get(e) not in (1, -1):
                raise GraphError(f"missing or invalid sign for edge {e}")
        if len(self.signs) != g.num_edges:
            raise GraphError("signs given for non-edges")

    def sign(self, u: int, v: int) -> int:
        return self.signs[norm_edge(u, v)]

    @property
    def _darts(self) -> Darts:
        if self._dart_table is None:
            object.__setattr__(self, "_dart_table", _number_darts(
                self.rotations, [(*uv, s) for uv, s in self.signs.items()],
                self.graph.names))
        return self._dart_table

    @property
    def _corners(self) -> list[list[int]]:
        if self._face_corners is None:
            tail = self._darts.tail
            object.__setattr__(self, "_face_corners", [
                [tail[s >> 1] for s in walk] for walk in self._walks])
        return self._face_corners

    @cached_property
    def _walks(self) -> list[list[int]]:
        return _face_state_walks(self)

    @cached_property
    def _coherence(self) -> Coherence:
        return _face_coherence(self)

    @cached_property
    def _dual(self) -> DualTable:
        return _dual_table(self)

    @cached_property
    def _quad(self) -> QuadVerdict:
        for boundary in self._corners:
            if len(boundary) != 4 or len(set(boundary)) != 4:
                return QuadVerdict(False, tuple(boundary))
        return QuadVerdict(True)

    @cached_property
    def _facial(self) -> FacialVerdict:
        # a raise is not kept; a later call re-reads the kept quad verdict
        quad = is_quadrangulation(self)
        if not quad.ok:
            raise HypothesisError("embedding is a quadrangulation",
                                  f"face {quad.bad_face}")
        # a 4-cycle is its pair of diagonals, and wedge pairs a-b-c, a-d-c
        # count it twice per diagonal {a, c}; the sorted scan names a witness
        n, boundaries = self.graph.n, self._corners
        facial = {frozenset((a * n + c, c * n + a, b * n + d, d * n + b))
                  for a, b, c, d in boundaries}
        wedges = Counter(chain.from_iterable(
            combinations(sorted(nb), 2) for nb in self.graph.adj))
        if 4 * len(facial) == sum(k * (k - 1) for k in wedges.values()):
            return FacialVerdict(True)
        named = set(map(canonical_cycle, boundaries))
        return FacialVerdict(False, next(
            c for c in four_cycles(self.graph) if c not in named))

    @cached_property
    def _hypothesis_failure(self) -> Optional[tuple[str, str]]:
        """The first failed face-rule hypothesis and its detail, or None."""
        g = self.graph
        if not is_connected(g):
            return "graph connected", ""
        if is_bipartite(g):
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
        for a, b, c, d in self._corners:
            for (x, z), (y, w) in (((a, c), (b, d)), ((b, d), (a, c))):
                diag: Label = tuple(sorted((x, z)))
                triangles.update(frozenset(((s,), diag, nb[t]))
                                 for s in (x, z) for t in (y, w))
        labels = sorted({lab for t in triangles for lab in t})
        index = {lab: i for i, lab in enumerate(labels)}
        faces = [frozenset(index[lab] for lab in t) for t in triangles]
        return _assemble_lovasz(g, labels, faces)

    @cached_property
    def _balance(self) -> tuple[bool, bool]:
        """Whether the signs, and the negated signs, are balanced (Harary
        1953), from the signs' labels down the forest of `Graph._parity`:
        all edges agree, or each disagrees iff it breaks the parity labels."""
        forest, signs = self.graph._parity, self.signs
        label = [1] * self.graph.n
        for v in forest.order:
            if forest.up[v] is not None:
                u = forest.up[v][1]
                label[v] = label[u] * signs[(u, v) if u < v else (v, u)]
        parity = forest.labels
        agree = [label[u] * label[v] == s for (u, v), s in signs.items()]
        return all(agree), all(
            ok != (parity[u] == parity[v]) for ok, (u, v) in zip(agree, signs))

    @cached_property
    def _odd(self) -> bool:
        for c in self._corners:
            bad = ("faces are simple cycles" if len(set(c)) != len(c) else
                   "faces have even length" if len(c) % 2 else None)
            if bad:     # the walk of its darts' heads, the corners turned
                raise HypothesisError(bad, f"face walk {(*c[1:], *c[:1])}")
        _, reversal, _, _ = self._coherence
        # Wu consistency check: w1 squared, the number of negative edges
        # of R, is the Euler characteristic mod 2
        chi = euler_characteristic(self)
        negative = sum(s < 0 for s, rev in zip(self.signs.values(), reversal)
                       if rev)
        if negative % 2 != chi % 2:
            raise InvariantViolation(
                f"w1 squared disagrees with the Euler characteristic {chi}")
        return sum(reversal) % 2 == 1


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


Coherence = tuple[list[tuple[int, int, int]], list[bool],
                  list[Optional[tuple[int, int]]], list[int]]
DualTable = tuple[dict[tuple[int, int], int], int]


# Int arrays over the darts: d runs from tail[d] to head[d], the darts at
# u are first[u] to first[u + 1] - 1 in rotation order, and rev, succ,
# pred, sgn and eid give d's reverse, the darts after and before it at
# tail[d], and its edge's sign and index in `signs`.  A state s steps
# along its face to step[s], and mirror[s] runs the face backwards.
Darts = namedtuple("Darts", "first tail head rev succ pred sgn eid step "
                            "mirror")


def _number_darts(rots: Sequence[Sequence[int]], signs: Iterable,
                  names: Sequence[str]) -> Darts:
    """Number the darts, each with the sign and index of its edge's
    [u, v, s] in `signs`, and check on the way, raising the first fault:
    each sign in turn, then the edges' signs, then the rotations."""
    n = len(rots)
    first = [0, *accumulate(map(len, rots))]
    tail = list(chain.from_iterable(map(repeat, range(n), map(len, rots))))
    head = list(chain.from_iterable(rots))
    m = len(head)
    succ, pred = list(range(1, m + 1)), list(range(-1, m - 1))
    for a, b in zip(first, first[1:]):
        if a < b:
            succ[b - 1], pred[a] = a, b - 1
    keys = [t * n + h for t, h in zip(tail, head)]
    at = dict(zip(keys, range(m)))
    # a dart whose head does not list its tail gets the spare slot m as reverse
    rev = list(map(at.get, [h * n + t for t, h in zip(tail, head)], repeat(m)))
    sgn, eid = [0] * (m + 1), [0] * (m + 1)
    for i, item in enumerate(signs):
        u, v, s = item if type(item) in (list, tuple) and len(item) == 3 \
            else (None,) * 3
        if not type(u) is type(v) is type(s) is int:
            raise GraphError(f"signs[{i}] must be [u, v, s]")
        d = at.get(u * n + v, at.get(v * n + u, -1)) \
            if 0 <= u < v < n and s in (1, -1) else -1
        if d < 0 or sgn[d]:
            raise GraphError(f"duplicate sign for [{u}, {v}]" if d >= 0 else
                             f"signs[{i}] = [{u}, {v}, {s}] must name an "
                             f"edge with s in {{1, -1}}")
        sgn[d] = sgn[rev[d]] = s
        eid[d] = eid[rev[d]] = i
    del sgn[m], eid[m]
    # a repeated dart has no sign; the one `at` keeps for its key has
    missing = [norm_edge(tail[d], head[d]) for d in range(m)
               if not sgn[at[keys[d]]]] if 0 in sgn else ()
    if missing:
        raise GraphError("missing sign for edge [%d, %d]" % min(missing))
    if len(at) < m or m in rev:
        bad = [tail[d] for d in range(m) if at[keys[d]] != d] + [
            head[d] for d in range(m) if rev[d] == m]
        raise GraphError(f"rotation at {names[min(bad)]} is not a "
                         f"permutation of its neighbors")
    # u->v steps to v->w, w after (on side 1 before) u at v, times sign(vw)
    plus = [2 * d + (s < 0) for d, s in enumerate(sgn)]
    minus = [p ^ 1 for p in plus]
    step, mirror = [0] * 2 * m, [0] * 2 * m
    step[0::2] = map(plus.__getitem__, map(succ.__getitem__, rev))
    step[1::2] = map(minus.__getitem__, map(pred.__getitem__, rev))
    mirror[0::2] = map(minus.__getitem__, rev)
    mirror[1::2] = map(plus.__getitem__, rev)
    return Darts(*(array("i", t) for t in (first, tail, head, rev, succ, pred,
                                           sgn, eid, step, mirror)))


def _face_state_walks(e: EmbeddedGraph) -> list[list[int]]:
    """One state walk per face; every dart is used by exactly one face.

    Each face is a mirror pair of step orbits: the orbit of the least
    state not yet met is walked, and then its mirror states are marked.
    """
    step, mirror = e._darts.step, e._darts.mirror
    seen = [False] * len(step)
    walks = []
    for s0, met in enumerate(seen):
        if met:
            continue
        s, walk = s0, []
        while not seen[s]:
            seen[s] = True
            walk.append(s)
            s = step[s]
        # a face is a disc, so its two traversals are different orbits
        if seen[mirror[s0]]:
            raise InvariantViolation("self-mirrored face orbit")
        for s in walk:
            seen[mirror[s]] = True
        walks.append(walk)
    # a vertex without darts is a sphere with one face, of empty boundary
    walks += [[] for rot in e.rotations if not rot]
    if sum(map(len, walks)) != 2 * e.graph.num_edges:
        raise InvariantViolation("face walks do not use every dart once")
    return walks


def trace_faces(e: EmbeddedGraph) -> list[FaceWalk]:
    """All face boundary walks of the embedding."""
    return [FaceWalk(tuple(zip(c, c[1:] + c[:1]))) for c in e._corners]


def _face_coherence(e: EmbeddedGraph) -> Coherence:
    """Orient the faces along a depth-first spanning forest of the dual
    graph, whose edges join the two face sides of each edge with its
    coherence sign.  Returns per edge id its two faces and sign, and
    whether it is in R; per face the forest edge to its parent; and the
    faces in `signed_forest` order.  Checked against the face walks, the
    disc around every vertex and the vertex-sign verdict `_balance`.
    """
    dt = e._darts
    eid, sgn, tail, head = dt.eid, dt.sgn, dt.tail, dt.head
    # per edge id its face sides, flat: face, state, face, state
    found: list[list[int]] = [[] for _ in e.signs]
    for fi, walk in enumerate(e._walks):
        for s in walk:
            found[eid[s >> 1]] += fi, s
    around = [1] * e.graph.n
    sides: list[tuple[int, int, int]] = []      # per edge id: fa, fb, sign
    dual: list[list[tuple[int, int, int]]] = [[] for _ in e._walks]
    for i, pair in enumerate(found):
        if len(pair) != 4:
            raise InvariantViolation(
                f"edge {list(e.signs)[i]} has {len(pair) // 2} face sides")
        fa, sa, fb, sb = pair
        d = sa >> 1
        # the sides' orientations differ when their side bits do
        c = -1 if (sa ^ sb) & 1 else 1
        if sb >> 1 != d:
            c *= sgn[d]
        around[tail[d]] *= c
        around[head[d]] *= c
        sides.append((fa, fb, c))
        dual[fa].append((i, fb, c))
        dual[fb].append((i, fa, c))
    # the faces at a vertex form a disc, so they orient coherently around
    # it; the cut rule of `cut_surface_orientable` and R rest on this
    if -1 in around:
        raise InvariantViolation(
            f"coherence signs around vertex "
            f"{e.graph.names[around.index(-1)]} multiply to -1")
    eps, up, order, balanced = signed_forest(len(dual), dual.__getitem__)
    reversal = [eps[fa] * eps[fb] * c < 0 for fa, fb, c in sides]
    if balanced != e._balance[0]:
        raise InvariantViolation("face coherence and vertex signs disagree "
                                 "on orientability")
    return sides, reversal, up, order


def _dual_table(e: EmbeddedGraph) -> DualTable:
    """Per edge, in both directions, the mask of the fundamental cycles of
    `_face_coherence`'s forest that hold it; and the class of the
    coherence signs, the mask of the cycles whose sign product is -1."""
    sides, reversal, up, order = e._coherence
    # each non-forest edge gets its own bit, and each face the bits of the
    # non-forest edges at it; a forest edge, never reversed, lies on
    # exactly the cycles of the edges with one end below it
    forest = {u[0] for u in up if u is not None}
    bits, below, cls, bit = [0] * len(sides), [0] * len(up), 0, 1
    for i, (fa, fb, _) in enumerate(sides):
        if i in forest:
            continue
        bits[i] = bit
        below[fa] ^= bit
        below[fb] ^= bit
        if reversal[i]:
            cls |= bit
        bit <<= 1
    for f in reversed(order):
        if up[f] is not None:
            i, p = up[f]
            bits[i] = below[f]
            below[p] ^= below[f]
    masks: dict[tuple[int, int], int] = {}
    for (u, v), m in zip(e.signs, bits):
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
    all-positive; decided by one signed labelling.
    """
    return e._balance[0]


def has_even_one_sided_class(e: EmbeddedGraph) -> bool:
    """Whether some even element of the cycle space is one-sided.

    The one-sidedness class w1 (negative-edge parity) is zero iff the
    signs are balanced, and equals the length parity iff the negated
    signs are balanced: a cycle has an even number of positive edges iff
    it has an even number of negative ones under the negated signs.  Over
    GF(2) an even one-sided element exists iff w1 is neither.
    """
    return not any(e._balance)


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
    edges, as in `oddness_oracle`.  Cost O(k) after one O(F + E) table
    per embedding; no cut embedding is built, `tests/cut_reference.py`
    builds it.
    """
    _check_cut_cycle(e, cycle)
    masks, cls = e._dual
    flipped, u = 0, cycle[-1]
    for v in cycle:
        flipped ^= masks[u, v]
        u = v
    return cls == 0 or flipped == cls


# ---------------------------------------------------------------------------
# Oddness of quadrangulations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientizingWitness:
    cycle: tuple[int, ...]
    length: int
    cut_surface_orientable: bool


def oddness_functional(e: EmbeddedGraph) -> bool:
    """Homological oddness: length parity evaluated on the dual of the
    one-sidedness class.

    An odd cycle whose cut orientizes the surface must be dual to the
    one-sidedness class w1, so one exists at the homology level exactly
    when w1's dual cycle has odd length.  That dual is the set R of edges
    reversed by the face coherence signs (module docstring), so this is
    the parity of |R|, in O(F + E).  Faces must be simple even cycles so
    that the length parity descends to the surface.
    """
    return e._odd


def oddness_oracle(e: EmbeddedGraph, max_cycles: int = DEFAULT_ORACLE_CYCLE_CAP
                   ) -> tuple[Optional[bool], Optional[OrientizingWitness], bool]:
    """Cutting oracle: search the odd simple cycles for one whose cut
    orientizes the surface.

    Streams the cycles of `graphs.labelled_cycles`, keeping none, each
    with the XOR x of its edge masks in `EmbeddedGraph._dual`, and decides
    each in O(1) by the rule of `cut_surface_orientable`; only a witness
    becomes a tuple.  Returns (verdict, witness, complete):
    - (True, the first such cycle, True) once one is found among the
      first `max_cycles` cycles, which ends the search;
    - (False, None, True) when the graph has at most `max_cycles` cycles
      and none is such;
    - (None, None, False) when the first `max_cycles` cycles hold none
      and there are more; a cap of zero or below examines none.
    """
    masks, cls = e._dual
    for examined, (path, x) in enumerate(labelled_cycles(e.graph, masks)):
        if examined >= max_cycles:
            return None, None, False
        if len(path) % 2 == 1 and (cls == 0 or x == cls):
            c = tuple(path)
            return True, OrientizingWitness(c, len(c), True), True
    return False, None, True


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
    # the root is state 0: vertex 0's first dart, on side 0
    db = b._darts
    images = [s for s in range(4 * gb.num_edges)
              if gb.degree(db.tail[s >> 1]) == ga.degree(0)]
    images.sort(key=lambda s: (db.tail[s >> 1], db.head[s >> 1])
                != (0, a.rotations[0][0]))
    return any(_state_map_fits(a, b, t) for t in images)


def _state_map_fits(a: EmbeddedGraph, b: EmbeddedGraph, image: int) -> bool:
    """Whether state 0 -> image extends to an isomorphism of a onto b."""
    da, db = a._darts, b._darts
    vertex, taken = [-1] * a.graph.n, [False] * b.graph.n
    image_of = [image] + [-1] * (len(da.step) - 1)
    stack = [(0, image)]
    while stack:
        s, t = stack.pop()
        for x, y in ((da.tail[s >> 1], db.tail[t >> 1]),
                     (da.head[s >> 1], db.head[t >> 1])):
            if vertex[x] < 0 and not taken[y]:
                vertex[x], taken[y] = y, True
            elif vertex[x] != y:
                return False
        for s2, t2 in ((da.step[s], db.step[t]),
                       (da.mirror[s], db.mirror[t]), (s ^ 1, t ^ 1)):
            known = image_of[s2]
            if known < 0:
                image_of[s2] = t2
                stack.append((s2, t2))
            elif known != t2:
                return False
    # an injective vertex map that commutes with the flip is injective on
    # states, so covering as many states as b has makes it onto
    return -1 not in image_of


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

    Each vertex gets its link cycle (arbitrary direction) and each edge its
    link-rotation sign, `surfaces._link_sign`.
    """
    classify(K)
    rots = K._links
    skel = K.skeleton_graph()
    signs = {(u, v): _link_sign(rots, u, v) for u, v in skel.edges}
    return EmbeddedGraph(skel, rots, signs)


def lovasz_quotient_embedding(L: LovaszComplex) -> EmbeddedGraph:
    """The graph folded out of the orbit surface Lo(G)/Z2.

    `quotient_complex` gives the orbit surface: one vertex per graph
    vertex v, the orbit {{v}, N(v)}, and one per face, a diagonal orbit.
    `rotation_system_of_surface` turns it into a signed rotation system.
    The rotation of v is the link cycle of its orbit with the face
    vertices dropped, and the sign of uv is the link-rotation sign of the
    quotient edge between their orbits.  Requires Lo(G) to be a closed
    surface on which the involution acts freely.
    """
    classify(L.base)
    if any(k is VertexKind.OTHER for k in L.kinds):
        raise HypothesisError("every vertex is singleton/neighborhood/diagonal")
    Q, orbit = quotient_complex(L)
    surf = rotation_system_of_surface(Q)    # classifies Q first
    g = L.graph
    # the orbit of each graph vertex, and the graph vertex of each orbit
    at = {L.labels[i][0]: orbit[i]
          for i, k in enumerate(L.kinds) if k is VertexKind.SINGLETON}
    down = {q: v for v, q in at.items()}
    rotations = []
    for v in range(g.n):
        rot = [down[x] for x in surf.rotations[at[v]] if x in down]
        if sorted(rot) != sorted(g.adj[v]):
            raise HypothesisError(
                "induced subgraph quadrangulates the surface",
                f"rotation mismatch at {g.names[v]}")
        rotations.append(tuple(rot))
    signs = {(u, v): surf.sign(at[u], at[v]) for u, v in g.edges}
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
