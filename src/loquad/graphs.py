"""Finite simple graphs and common-neighbor machinery.

Vertices are dense integer indices 0..n-1; optional display names are kept
separately.  Adjacency is stored both as frozensets (for iteration) and as
integer bitmasks (for the common-neighbor kernels).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


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
    masks: tuple[int, ...] = field(repr=False, default=())

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
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n:
                raise GraphError("names length must equal vertex count")
        masks = tuple(sum(1 << w for w in a) for a in adj)
        return Graph(n, tuple(frozenset(a) for a in adj), names, masks)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Image under the vertex bijection v -> perm[v]."""
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        names = [""] * self.n
        for v in range(self.n):
            names[perm[v]] = self.names[v]
        return Graph.from_edges(self.n, edges, names)


def _to_mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def mask_bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending; costs one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _from_mask(mask: int) -> frozenset[int]:
    return frozenset(mask_bits(mask))


def common_neighbors_mask(g: Graph, mask: int) -> int:
    """Bitmask kernel: vertices adjacent to every vertex of `mask`.

    The empty set has every vertex as a (vacuous) common neighbor.
    """
    result = g.full_mask()
    while mask:
        low = mask & -mask
        result &= g.masks[low.bit_length() - 1]
        if not result:
            return 0
        mask ^= low
    return result


def common_neighbors(g: Graph, a: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every vertex of `a` (all of V for empty `a`)."""
    return _from_mask(common_neighbors_mask(g, _to_mask(a)))


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


@dataclass(frozen=True)
class BipartiteVerdict:
    bipartite: bool
    coloring: Optional[tuple[int, ...]] = None
    odd_walk: Optional[tuple[int, ...]] = None   # closed walk of odd length


def is_bipartite(g: Graph) -> BipartiteVerdict:
    """2-colorability check; a failing run returns an odd closed walk."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    # Tree paths to the common root close an odd walk.
                    pu, pw = [u], [w]
                    while pu[-1] != -1:
                        pu.append(parent[pu[-1]])
                    while pw[-1] != -1:
                        pw.append(parent[pw[-1]])
                    pu, pw = pu[:-1], pw[:-1]
                    walk = tuple(reversed(pu)) + tuple(pw[:-1])
                    return BipartiteVerdict(False, odd_walk=walk)
    return BipartiteVerdict(True, coloring=tuple(color))


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
    """Distinct (u, v) with N(u) a subset of N(v), or None."""
    for u in range(g.n):
        for v in range(g.n):
            if u != v and g.adj[u] <= g.adj[v]:
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

    def cycle_edges(self, i: int) -> frozenset[Edge]:
        c = self.cycles[i]
        return frozenset(norm_edge(c[j], c[(j + 1) % len(c)])
                         for j in range(len(c)))

    def decompose(self, edge_set: frozenset[Edge]) -> tuple[int, ...]:
        """GF(2) coordinates of a cycle-space element in this basis."""
        return tuple(1 if e in edge_set else 0 for e in self.nontree_edges)


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
    """Lexicographically minimal rotation/reflection of a vertex cycle."""
    k = len(cycle)
    best = None
    for seq in (list(cycle), list(reversed(cycle))):
        for s in range(k):
            rot = tuple(seq[(s + j) % k] for j in range(k))
            if best is None or rot < best:
                best = rot
    assert best is not None
    return best


def enumerate_simple_cycles(g: Graph,
                            max_count: int = DEFAULT_ORACLE_CYCLE_CAP
                            ) -> tuple[list[tuple[int, ...]], bool]:
    """All simple cycles as canonical vertex tuples, plus an overflow flag.

    Backtracks from each minimal vertex, visiting only larger vertices, and
    kills reflections by requiring second vertex < last vertex; the path
    is then already the canonical form of its cycle.  The search keeps an
    explicit stack of neighbor iterators, so its depth is not bounded by
    the interpreter's recursion limit.  When the count would exceed
    `max_count` the search stops and the flag is True.
    """
    cycles: list[tuple[int, ...]] = []
    nbrs = [sorted(a) for a in g.adj]
    on_path = [False] * g.n
    for root in range(g.n):
        path = [root]
        stack = [iter(nbrs[root])]
        while stack:
            for w in stack[-1]:
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        if len(cycles) >= max_count:
                            return cycles, True
                        cycles.append(tuple(path))
                elif w > root and not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    stack.append(iter(nbrs[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return cycles, False


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

