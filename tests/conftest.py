import random

import pytest

from loquad.embeddings import EmbeddedGraph, switch_vertex
from loquad.generators import (figure1_graph, k4_projective, k23_sphere,
                               klein_grid, shipped_fixtures, torus_grid)
from loquad.graphs import norm_edge


@pytest.fixture(scope="session")
def fig1():
    return figure1_graph()


@pytest.fixture(scope="session")
def k4p():
    return k4_projective()


@pytest.fixture(scope="session")
def k23():
    return k23_sphere()


@pytest.fixture(scope="session")
def t33():
    return torus_grid(3, 3)


@pytest.fixture(scope="session")
def t34():
    return torus_grid(3, 4)


@pytest.fixture(scope="session")
def klein_odd():
    return klein_grid(3, 5, 0)


@pytest.fixture(scope="session")
def klein_even():
    return klein_grid(6, 3, 0)


@pytest.fixture(scope="session")
def fixtures():
    return shipped_fixtures()


def drawn(e, seed):
    """A seeded gauge draw and relabelling of e, and its permutation."""
    rng = random.Random(seed)
    n = e.graph.n
    for v in rng.sample(range(n), n // 2):
        e = switch_vertex(e, v)
    perm = list(range(n))
    rng.shuffle(perm)
    rotations = [()] * n
    for v, rot in enumerate(e.rotations):
        rotations[perm[v]] = tuple(perm[u] for u in rot)
    signs = {norm_edge(perm[u], perm[v]): s for (u, v), s in e.signs.items()}
    return EmbeddedGraph(e.graph.relabeled(perm), tuple(rotations),
                         signs), perm


def oracle_cap(e) -> int:
    """Documented per-size cycle cap: exhaustive for small fixtures, a
    quick bounded search for the larger sweep instances."""
    return 200000 if e.graph.n <= 18 else 3000
