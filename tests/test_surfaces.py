import pytest

from loquad.complexes import ComplexError, complex_from_facets
from loquad.surfaces import (SurfaceClass, check_surface, classify,
                             euler_characteristic, orientability)


def build(n, triangles):
    return complex_from_facets(tuple(str(i) for i in range(n)),
                               [frozenset(t) for t in triangles])


TETRAHEDRON = build(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# the minimal 6-vertex triangulation of the projective plane, faces of
# the icosahedron with antipodal pairs identified
RP2 = build(6, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])

# the 7-vertex Moebius-Kantor triangulation of the torus
TORUS7 = build(7, [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
               + [(i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


class TestRecognition:
    def test_tetrahedron_is_a_sphere(self):
        verdict = check_surface(TETRAHEDRON)
        assert verdict.is_surface
        assert verdict.surface == SurfaceClass(True, 0, 2)

    def test_projective_plane(self):
        verdict = check_surface(RP2)
        assert verdict.is_surface
        assert verdict.surface == SurfaceClass(False, 1, 1)

    def test_torus(self):
        verdict = check_surface(TORUS7)
        assert verdict.is_surface
        assert verdict.surface == SurfaceClass(True, 1, 0)

    def test_not_pure(self):
        K = complex_from_facets(("a", "b", "c", "d"),
                                [frozenset({0, 1, 2}), frozenset({2, 3})])
        verdict = check_surface(K)
        assert not verdict.is_surface
        assert verdict.witness.kind == "not-pure"
        assert verdict.witness.detail == "facet of size 2: ('c', 'd')"

    def test_edge_in_three_triangles(self):
        K = build(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])
        verdict = check_surface(K)
        assert not verdict.is_surface
        assert verdict.witness.kind == "edge-degree"
        # the least bad edge is named: (0,2) lies in one triangle only
        assert verdict.witness.detail == "edge (0,1) in 3 triangles"
        # a boundary edge is bad too
        disc = check_surface(build(4, [(0, 1, 2), (0, 2, 3)]))
        assert disc.witness.detail == "edge (0,1) in 1 triangles"

    def test_bad_vertex_link(self):
        # two tetrahedra glued at one vertex: every edge is fine but the
        # shared vertex link is two disjoint triangles
        K = build(7, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                      (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)])
        verdict = check_surface(K)
        assert not verdict.is_surface
        assert verdict.witness.kind == "bad-link"
        assert verdict.witness.detail == "link of 3 is not a single cycle"

    def test_disconnected(self):
        K = build(8, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                      (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)])
        verdict = check_surface(K)
        assert not verdict.is_surface
        assert verdict.witness.kind == "disconnected"
        assert verdict.witness.detail == "2 components"


class TestInvariants:
    def test_euler_characteristics(self):
        assert euler_characteristic(TETRAHEDRON) == 2
        assert euler_characteristic(RP2) == 1
        assert euler_characteristic(TORUS7) == 0

    def test_orientability(self):
        assert orientability(TETRAHEDRON)
        assert orientability(TORUS7)
        assert not orientability(RP2)

    def test_classify(self):
        assert classify(TETRAHEDRON).describe() == \
            "orientable genus 0 (euler 2)"
        assert classify(RP2) == SurfaceClass(False, 1, 1)
        assert classify(TORUS7) == SurfaceClass(True, 1, 0)

    def test_inconsistent_class_rejected(self):
        with pytest.raises(ComplexError):
            SurfaceClass(True, 1, 2)

    def test_class_from_euler(self):
        for orientable, euler, genus in [(True, 2, 0), (True, 0, 1),
                                         (True, -2, 2), (False, 1, 1),
                                         (False, 0, 2), (False, -1, 3)]:
            assert SurfaceClass.from_euler(orientable, euler) == \
                SurfaceClass(orientable, genus, euler)
        # no orientable closed surface has odd euler characteristic
        with pytest.raises(ComplexError):
            SurfaceClass.from_euler(True, 1)
