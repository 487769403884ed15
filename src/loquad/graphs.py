"""Finite simple graphs and common-neighbor machinery.

Vertices are dense integer indices 0..n-1; optional display names are kept
separately.  Adjacency is stored as frozensets (for iteration) and, from
their first use, as integer bitmasks (for the common-neighbor kernels).
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Optional, Sequence)


class GraphError(ValueError):
    """Malformed graph data (asymmetric adjacency, loops, bad indices)."""


class CapExceeded(RuntimeError):
    """An exact computation was requested beyond its configured size cap."""


class InvariantViolation(RuntimeError):
    """A mathematical cross-check failed: the program, not the input, is
    at fault."""


@dataclass(frozen=True)
class Graph:
    """Immutable finite simple undirected graph."""

    n: int
    adj: tuple[frozenset[int], ...]
    names: tuple[str, ...]
    # `masks` and `_parity`, kept on first use in declared fields: a key
    # added to the instance dict would slow every later read of the others
    _masks: Optional[tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _forest: Optional[SignedForest] = field(
        default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   names: Optional[Sequence[str]] = None) -> "Graph":
        if n < 1:
            raise GraphError("graph must have at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        names = tuple(map(str, range(n)) if names is None else names)
        if len(names) != n:
            raise GraphError("names length must equal vertex count")
        return Graph(n, tuple(frozenset(a) for a in adj), names)

    @property
    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            object.__setattr__(self, "_masks", tuple(
                sum(1 << w for w in a) for a in self.adj))
        return self._masks

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def _parity(self) -> SignedForest:
        """One labelling with every edge sign -1: its roots count the
        components, and it is balanced iff the graph is bipartite."""
        if self._forest is None:
            none, minus = itertools.repeat(None), itertools.repeat(-1)
            object.__setattr__(self, "_forest", signed_forest(
                self.n, lambda u: zip(none, self.adj[u], minus)))
        return self._forest


def mask_bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending; costs one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def common_neighbors_mask(g: Graph, mask: int) -> int:
    """Bitmask kernel: vertices adjacent to every vertex of `mask`.

    The empty set has every vertex as a (vacuous) common neighbor.
    """
    result, masks = (1 << g.n) - 1, g.masks
    while mask:
        low = mask & -mask
        result &= masks[low.bit_length() - 1]
        if not result:
            return 0
        mask ^= low
    return result


def common_neighbors(g: Graph, a: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every vertex of `a` (all of V for empty `a`)."""
    mask = sum(1 << v for v in set(a))
    return frozenset(mask_bits(common_neighbors_mask(g, mask)))


class SignedForest(NamedTuple):
    """A depth-first labelling of a signed graph; see `signed_forest`."""

    labels: list[int]                       # +1 or -1 per vertex
    up: list[Optional[tuple[Any, int]]]     # forest edge (tag, parent)
    order: list[int]                        # each vertex after its parent
    balanced: bool


def signed_forest(n: int, signed_neighbors: Callable[
        [int], Iterable[tuple[Any, int, int]]]) -> SignedForest:
    """Label the vertices 0..n-1 with +1 or -1 along a depth-first forest:
    a forest edge (tag, w, s) of `signed_neighbors(u)` gives w the label
    of u times s, and the signs are balanced when every triple agrees
    (Harary, "On the notion of balance of a signed graph", 1953).  Roots
    go in increasing order, labelled +1 with `up` None, so they count the
    components; a vertex is labelled when it is pushed."""
    eps = [0] * n       # 0 marks an unlabelled vertex
    up: list[Optional[tuple[Any, int]]] = [None] * n
    order: list[int] = []
    balanced = True
    for root in range(n):
        if eps[root]:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for tag, w, s in signed_neighbors(u):
                if not eps[w]:
                    eps[w] = eps[u] * s
                    up[w] = (tag, u)
                    stack.append(w)
                elif eps[w] != eps[u] * s:
                    balanced = False
    return SignedForest(eps, up, order, balanced)


def is_connected(g: Graph) -> bool:
    return g._parity.up.count(None) == 1


def is_bipartite(g: Graph) -> bool:
    return g._parity.balanced


def _wedges(g: Graph) -> dict[tuple[int, int], list[int]]:
    """Every path a-b-c with a < c, grouped by its ends (a, c).

    The middles of each pair are its common neighbors, ascending.  Costs
    the sum of the squared degrees.
    """
    middles: dict[tuple[int, int], list[int]] = {}
    for b in range(g.n):
        nb = sorted(g.adj[b])
        for i, a in enumerate(nb):
            for c in nb[i + 1:]:
                middles.setdefault((a, c), []).append(b)
    return middles


def find_k23(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int, int]]]:
    """A K(2,3) subgraph as shore tuples, or None.

    The lexicographically first vertex pair with >= 3 common neighbors,
    which is equivalent to containing K(2,3) as a subgraph, with its three
    least common neighbors.
    """
    wedges = _wedges(g)
    pair = min((p for p, mids in wedges.items() if len(mids) >= 3),
               default=None)
    if pair is None:
        return None
    return (pair, tuple(wedges[pair][:3]))  # type: ignore[return-value]


def find_domination(g: Graph) -> Optional[tuple[int, int]]:
    """The lexicographically first distinct (u, v) with N(u) a subset of
    N(v), or None.

    Such a v is adjacent to every neighbour of u, so only the v in N(w)
    are tried, for the neighbour w of u of least degree; an empty N(u)
    lies in every other neighbourhood.
    """
    for u in range(g.n):
        if not g.adj[u]:
            if g.n > 1:
                return (u, 1 if u == 0 else 0)
            continue
        w = min(g.adj[u], key=g.degree)
        v = min((v for v in g.adj[w] if v != u and g.adj[u] <= g.adj[v]),
                default=None)
        if v is not None:
            return (u, v)
    return None


def is_k23(g: Graph) -> bool:
    """Whether g is (isomorphic to) the complete bipartite graph K(2,3)."""
    if g.n != 5 or g.num_edges != 6:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    if degs != [2, 2, 2, 3, 3]:
        return False
    big = [v for v in range(g.n) if g.degree(v) == 3]
    small = [v for v in range(g.n) if g.degree(v) == 2]
    return all(g.adj[a] == frozenset(small) for a in big)


# ---------------------------------------------------------------------------
# Exact chromatic number
# ---------------------------------------------------------------------------

# the default caps of the exact chromatic search and the cutting oracle
DEFAULT_CHROMATIC_CAP = 64
DEFAULT_ORACLE_CYCLE_CAP = 200000


def _greedy_clique(g: Graph) -> list[int]:
    """A maximal clique grown greedily from the highest-degree vertex."""
    order = sorted(range(g.n), key=g.degree, reverse=True)
    clique: list[int] = []
    for v in order:
        if all(v in g.adj[u] for u in clique):
            clique.append(v)
    return clique


def _greedy_coloring(g: Graph) -> list[int]:
    order = sorted(range(g.n), key=g.degree, reverse=True)
    color = [-1] * g.n
    for v in order:
        used = {color[w] for w in g.adj[v] if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def _try_k_coloring(g: Graph, k: int, seed: Sequence[int]) -> Optional[list[int]]:
    """Backtracking k-coloring with the seed clique pre-colored."""
    color = [-1] * g.n
    for i, v in enumerate(seed):
        if i >= k:
            return None
        color[v] = i
    rest = sorted((v for v in range(g.n) if color[v] < 0),
                  key=g.degree, reverse=True)

    def extend(i: int, used: int) -> bool:
        if i == len(rest):
            return True
        v = rest[i]
        forbidden = {color[w] for w in g.adj[v] if color[w] >= 0}
        for c in range(min(used + 1, k)):
            if c not in forbidden:
                color[v] = c
                if extend(i + 1, max(used, c + 1)):
                    return True
                color[v] = -1
        return False

    return color if extend(0, len(seed)) else None


def chromatic_number(g: Graph, cap: int = DEFAULT_CHROMATIC_CAP
                     ) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with an optimal coloring as certificate."""
    if g.n > cap:
        raise CapExceeded(f"exact coloring capped at n <= {cap}, got n={g.n}")
    if g.num_edges == 0:
        return 1, tuple([0] * g.n)
    clique = _greedy_clique(g)
    lo = len(clique)
    greedy = _greedy_coloring(g)
    hi = max(greedy) + 1
    best = tuple(greedy)
    k = lo
    while k < hi:
        attempt = _try_k_coloring(g, k, clique)
        if attempt is not None:
            best = tuple(attempt)
            hi = k
            break
        k += 1
    else:
        k = hi
    if max(best) + 1 != k or any(best[u] == best[v] for u, v in g.edges):
        raise InvariantViolation(
            f"coloring certificate does not prove chromatic number {k}")
    return k, best


# ---------------------------------------------------------------------------
# Cycle space over GF(2)
# ---------------------------------------------------------------------------

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class CycleSpaceBasis:
    """Spanning tree plus the fundamental cycle of each non-tree edge."""

    tree_edges: frozenset[Edge]
    nontree_edges: tuple[Edge, ...]
    cycles: tuple[tuple[int, ...], ...]     # vertex sequences, one per chord


def cycle_space_basis(g: Graph) -> CycleSpaceBasis:
    """BFS spanning tree and its fundamental cycles (connected graphs only)."""
    if not is_connected(g):
        raise GraphError("cycle space basis requires a connected graph")
    parent = [-1] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    seen[0] = True
    order = [0]
    queue = deque([0])
    tree: set[Edge] = set()
    while queue:
        u = queue.popleft()
        for w in sorted(g.adj[u]):
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                depth[w] = depth[u] + 1
                tree.add(norm_edge(u, w))
                order.append(w)
                queue.append(w)
    chords = [e for e in g.edges if e not in tree]
    cycles = []
    for u, v in chords:
        pu, pv = [u], [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            pu.append(a)
            pv.append(b)
        # pu ends at the meeting vertex; pv's copy of it is dropped.
        cycles.append(tuple(pu + list(reversed(pv[:-1]))))
    return CycleSpaceBasis(frozenset(tree), tuple(chords), tuple(cycles))


# ---------------------------------------------------------------------------
# Simple cycle enumeration
# ---------------------------------------------------------------------------

def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal rotation/reflection of a vertex cycle.

    Only rotations that start at a least vertex can be minimal, so only
    those are compared.
    """
    k = len(cycle)
    least = min(cycle)
    best = None
    for seq in (tuple(cycle), tuple(reversed(cycle))):
        doubled = seq + seq
        for s in range(k):
            if seq[s] == least:
                rot = doubled[s:s + k]
                if best is None or rot < best:
                    best = rot
    assert best is not None
    return best


def labelled_cycles(g: Graph, label: Optional[Mapping[Edge, int]] = None
                    ) -> Iterator[tuple[list[int], int]]:
    """Every simple cycle once, lazily, as a canonical vertex path with
    the XOR of `label` over its edges; `label` maps each edge, both ways,
    to an int, and None labels every edge 0.

    Backtracks from each minimal vertex r over larger vertices only, and
    kills reflections by requiring second vertex s < last vertex, so the
    path is the canonical form of its cycle.  Neighbors go in ascending
    order; a path is emitted when its last vertex joins it, before it is
    extended, and the XOR rides down the path, so a cycle costs O(1).

    A path from r through s closes only at a neighbor of r larger than s,
    a closer (after Johnson, "Finding all the elementary circuits of a
    directed graph", SIAM J. Comput. 4, 1975).  So s is skipped when r
    has no larger neighbor than s, and a path that has just taken the
    last closer not on it is emitted and not extended.  This prunes only
    subtrees that emit nothing, so the order is that of the plain search.

    An explicit stack of neighbor iterators frees the depth from the
    recursion limit.  The search holds one path, never a list of cycles,
    and stops when its consumer does; it yields that one list, which
    changes when the search resumes, so a consumer copies what it keeps.
    """
    # per vertex its (neighbor, label) pairs, ascending; each root leaves
    # its neighbors' lists, so they hold only vertices above the root
    above = [sorted((w, 0 if label is None else label[v, w]) for w in a)
             for v, a in enumerate(g.adj)]
    on_path = [False] * g.n
    closing: list[Optional[int]] = [None] * g.n     # label w-r of a closer
    for root in range(g.n):
        for w in g.adj[root]:
            del above[w][0]
        larger = above[root]
        for w, lab in larger:
            closing[w] = lab
        for i, (s, lab) in enumerate(larger[:-1]):
            closing[s] = None
            left = len(larger) - 1 - i      # closers not on the path
            path = [root, s]
            x, xs = lab, [0]    # the XOR to the path's end, to each before
            on_path[s] = True
            stack = [iter(above[s])]
            while stack:
                for w, lab in stack[-1]:
                    if not on_path[w]:
                        path.append(w)
                        c = closing[w]
                        if c is not None:
                            yield path, x ^ lab ^ c
                            if left == 1:
                                path.pop()
                                continue
                            left -= 1
                        on_path[w] = True
                        xs.append(x)
                        x ^= lab
                        stack.append(iter(above[w]))
                        break
                else:
                    stack.pop()
                    x = xs.pop()
                    w = path.pop()
                    on_path[w] = False
                    left += closing[w] is not None
        if larger:
            closing[larger[-1][0]] = None


def simple_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """The cycles of `labelled_cycles`, in order, as vertex tuples."""
    return (tuple(path) for path, _ in labelled_cycles(g))


def enumerate_simple_cycles(g: Graph,
                            max_count: int = DEFAULT_ORACLE_CYCLE_CAP
                            ) -> tuple[list[tuple[int, ...]], bool]:
    """The first `max_count` cycles of `simple_cycles`, in its order, and
    whether the graph has more; a cap below zero acts as zero.  A search
    that can stop early reads `simple_cycles` instead."""
    cap = max(max_count, 0)
    cycles = list(itertools.islice(simple_cycles(g), cap + 1))
    return cycles[:cap], len(cycles) > cap


def four_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All simple 4-cycles in canonical form, sorted.

    A 4-cycle a-b-c-d is two wedges a-b-c and a-d-c with the same ends.
    It is emitted once, from the diagonal {a, c} that holds its least
    vertex; its canonical form is then (a, b, c, d) with b < d.
    """
    out = []
    for (a, c), mids in _wedges(g).items():
        for i in range(bisect.bisect(mids, a), len(mids)):
            for d in mids[i + 1:]:
                out.append((a, mids[i], c, d))
    out.sort()
    return out

