"""The benchmark's workloads: inputs, job lists and the seeded input draw.

A job is one `loquad` command line.  Every job reads its own input file,
drawn from a base instance by a vertex relabelling and a gauge (a local
orientation switch at a random set of vertices).  Seed 0 is the identity
draw, so its inputs are exactly what the generators and shipped fixtures
produce.  The workloads and the reasons for each are documented in
bench/README.md.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

from loquad import generators
from loquad.embeddings import EmbeddedGraph, trace_faces
from loquad.fileio import parse_embedding, parse_graph
from loquad.graphs import Graph, norm_edge

# Per-job time limit.  It sits well above the slowest relabelled draw of
# every job that completes (verify on klein_grid(5,7,0): up to about 12 s
# on 2 cores) and far below the cliff job (verify on klein_grid(7,7,0):
# 387 s at identity labels), which therefore shows as a standing failure.
JOB_LIMIT_S = 20.0


@dataclass(frozen=True)
class Base:
    """A base instance: an embedding, or a bare graph for `lovasz`."""
    name: str
    make: Callable[[], object]


@dataclass(frozen=True)
class Job:
    command: str
    base: str
    args: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return " ".join((self.command,) + self.args + (self.base,))

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    bases: tuple[Base, ...]
    jobs: tuple[Job, ...]
    largest: str                 # job id timed for largest_s
    growth: tuple[str, ...]      # job ids fitted for growth_exp


def fixture_embedding(name: str) -> EmbeddedGraph:
    text = generators.fixture_text(f"{name}.emb.json")
    return parse_embedding(text, name)


def fixture_graph(name: str) -> Graph:
    return parse_graph(generators.fixture_text(f"{name}.graph.json"), name)


def _klein(m: int, n: int) -> Base:
    return Base(f"klein_grid({m},{n},0)",
                lambda: generators.klein_grid(m, n, 0))


def _torus(m: int) -> Base:
    return Base(f"torus_grid({m},{m})", lambda: generators.torus_grid(m, m))


def _fixture(name: str) -> Base:
    return Base(name, lambda: fixture_embedding(name))


def _report_ladder() -> Workload:
    bases = []
    for m in (5, 7, 9, 11, 13, 15):
        bases += [_klein(m, m), _torus(m)]
    jobs = tuple(Job("invariants", b.name) for b in bases)
    return Workload("report-ladder", tuple(bases), jobs,
                    largest="invariants klein_grid(15,15,0)",
                    growth=tuple(j.id for j in jobs))


CLIFF_JOB = "verify klein_grid(7,7,0)"


def _verify_sweep() -> Workload:
    triple = ("check", "classify", "verify")
    grids = []
    for m in (5, 9, 11):
        grids += [_klein(m, m), _torus(m)]
    grids += [_torus(7), _klein(5, 7)]
    fixtures = [_fixture(f) for f in ("torus-grid-3-4", "k23-sphere",
                                      "k4-projective", "torus-grid-3-3")]
    jobs = [Job(c, b.name) for b in grids + fixtures for c in triple]
    graphs = [Base("figure1", lambda: fixture_graph("figure1")),
              Base("graph of klein_grid(9,9,0)",
                   lambda: generators.klein_grid(9, 9, 0).graph)]
    jobs += [Job("lovasz", b.name) for b in graphs]
    cliff = _klein(7, 7)
    jobs.append(Job("verify", cliff.name))
    growth = tuple(f"verify {b.name}" for b in grids[:7])
    return Workload("verify-sweep", tuple(grids + fixtures + graphs
                                          + [cliff]),
                    tuple(jobs), largest="verify klein_grid(11,11,0)",
                    growth=growth)


def _oracle_fixtures() -> Workload:
    # the caps of tests/conftest.oracle_cap: exhaustive up to n = 18
    caps = (("k4-projective", 200000), ("klein-grid-3-5-0", 200000),
            ("klein-grid-3-5-1", 200000), ("klein-grid-6-3-0", 200000),
            ("klein-grid-5-5-0", 3000), ("klein-grid-6-5-0", 3000))
    bases = tuple(_fixture(name) for name, _ in caps)
    jobs = tuple(Job("verify", name, ("--oracle", "--cap-cycles", str(cap)))
                 for name, cap in caps)
    return Workload("oracle-fixtures", bases, jobs,
                    largest="verify --oracle --cap-cycles 200000 "
                            "klein-grid-6-3-0",
                    growth=tuple(j.id for j in jobs))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (_report_ladder(), _verify_sweep(),
                        _oracle_fixtures())}


def input_faces(instance) -> Optional[int]:
    """Faces of an embedding, the size measure of the growth fit."""
    if isinstance(instance, EmbeddedGraph):
        return len(trace_faces(instance))
    return None


# ---------------------------------------------------------------------------
# The seeded draw
# ---------------------------------------------------------------------------

def job_rng(seed: int, workload: str, job_id: str) -> Optional[random.Random]:
    """The job's own random stream; None for seed 0, the identity draw."""
    if seed == 0:
        return None
    return random.Random(f"{seed}/{workload}/{job_id}")


def relabel_graph(g: Graph, perm: list[int]) -> Graph:
    """Vertex v becomes perm[v]; display names move with their vertices."""
    names = [""] * g.n
    for v in range(g.n):
        names[perm[v]] = g.names[v]
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges],
                            names)


def relabel_and_gauge(e: EmbeddedGraph, perm: list[int],
                      switched: set[int]) -> EmbeddedGraph:
    """Relabel by perm, then switch local orientation at `switched`.

    Switching a vertex reverses its rotation and flips the signs of its
    edges (embeddings.switch_vertex); switching a set flips each edge once
    per switched endpoint.  Neither step changes the surface or any
    invariant the benchmark checks.
    """
    g = relabel_graph(e.graph, perm)
    rotations: list[tuple[int, ...]] = [()] * g.n
    for v, rot in enumerate(e.rotations):
        new = tuple(perm[u] for u in rot)
        rotations[perm[v]] = new[::-1] if perm[v] in switched else new
    signs = {}
    for (u, v), s in e.signs.items():
        a, b = perm[u], perm[v]
        flips = (a in switched) + (b in switched)
        signs[norm_edge(a, b)] = -s if flips == 1 else s
    return EmbeddedGraph(g, tuple(rotations), signs)


def draw(instance, rng: Optional[random.Random]):
    """A relabelled and gauged copy of an embedding (a relabelled copy of a
    graph); the instance itself for the identity draw."""
    if rng is None:
        return instance
    g = instance.graph if isinstance(instance, EmbeddedGraph) else instance
    perm = list(range(g.n))
    rng.shuffle(perm)
    if not isinstance(instance, EmbeddedGraph):
        return relabel_graph(instance, perm)
    switched = {v for v in range(g.n) if rng.random() < 0.5}
    return relabel_and_gauge(instance, perm, switched)
