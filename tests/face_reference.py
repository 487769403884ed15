"""The tuple face tracer, kept as the reference for the int walks of
`embeddings._face_state_walks`.

A state (u, v, f) is the dart u->v with local orientation f at v.  The
step goes on to v->w, with w after u in the rotation at v (before it for
f = -1), and multiplies f by the sign of vw; the mirror traverses the same
face backwards.  The states fall into step orbits, and each face is a
mirror pair of orbits, reported once, as the orbit met first.  Every
rotation position is found with `rot.index` and every state keyed by its
tuple, which is what the dart numbering replaces.
"""

from loquad.embeddings import EmbeddedGraph
from loquad.graphs import InvariantViolation

State = tuple[int, int, int]    # (from, to, side flag)


def next_state(e: EmbeddedGraph, s: State) -> State:
    u, v, f = s
    rot = e.rotations[v]
    w = rot[(rot.index(u) + f) % len(rot)]
    return (v, w, f * e.sign(v, w))


def mirror_state(e: EmbeddedGraph, s: State) -> State:
    u, v, f = s
    return (v, u, -f * e.sign(u, v))


def tuple_walks(e: EmbeddedGraph) -> list[list[State]]:
    """One state walk per face, in the order of the int tracer."""
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
            s = next_state(e, s)
            if s == s0:
                break
        orbits.append(orbit)
    walks = []
    used = set()
    for i, orbit in enumerate(orbits):
        if i in used:
            continue
        j = orbit_id[mirror_state(e, orbit[0])]
        if j == i:
            raise InvariantViolation("self-mirrored face orbit")
        used.add(j)
        walks.append(orbit)
    walks += [[] for rot in e.rotations if not rot]
    return walks


def as_tuples(e: EmbeddedGraph, walk: list[int]) -> list[State]:
    """An int walk of `_face_state_walks(e)` as (u, v, f) states."""
    tail, head = e._darts.tail, e._darts.head
    return [(tail[s >> 1], head[s >> 1], -1 if s & 1 else 1) for s in walk]
