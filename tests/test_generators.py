import pytest

from loquad.embeddings import is_orientable_embedding, surface_class
from loquad.fileio import (dump_embedding, dump_graph, parse_embedding,
                           parse_graph)
from loquad.generators import (KLEIN_SWEEP, FamilySpec, _self_check,
                               figure1_graph, fixture_text, k4_projective,
                               k23_sphere, klein_grid, shipped_fixtures,
                               torus_grid)
from loquad.graphs import GraphError, is_bipartite


class TestFamilies:
    def test_figure1_shape(self, fig1):
        assert fig1.n == 6
        assert fig1.num_edges == 9
        assert fig1.names == ("1", "2", "3", "4", "5", "6")

    def test_torus_grid_parameters(self):
        with pytest.raises(GraphError):
            torus_grid(2, 3)
        with pytest.raises(GraphError):
            torus_grid(3, 2)

    def test_torus_grid_bipartite_iff_both_even(self):
        assert is_bipartite(torus_grid(4, 4).graph)
        assert not is_bipartite(torus_grid(3, 4).graph)
        assert not is_bipartite(torus_grid(3, 3).graph)

    def test_klein_grid_parameters(self):
        with pytest.raises(GraphError):
            klein_grid(2, 3, 0)
        # twists are taken modulo the row count
        assert klein_grid(3, 3, 4) == klein_grid(3, 3, 1)

    def test_klein_grids_are_klein_bottles(self):
        for m, n, t in KLEIN_SWEEP:
            e = klein_grid(m, n, t)
            cls = surface_class(e)
            assert not cls.orientable and cls.genus == 2
            assert not is_orientable_embedding(e)

    def test_annotation_self_checks_run(self, k4p, t33):
        # the constructors re-verify their documented cycle annotations on
        # every call; reaching here means the checks passed
        assert surface_class(k4p).genus == 1
        assert surface_class(t33).euler == 0

    def test_only_stated_fields_are_checked(self, k4p):
        wrong = FamilySpec("k4-projective", (), orientable=False, euler=1,
                           bipartite=True, all_facial=False, odd=False)
        with pytest.raises(GraphError,
                           match="bipartite, all_facial, oddness annotation"):
            _self_check(k4p, wrong)
        unstated = FamilySpec("k4-projective", (), orientable=False, euler=1)
        assert _self_check(k4p, unstated) is k4p

    def test_grids_compare_no_value_with_itself(self):
        # a Klein grid states neither its facial verdict nor its oddness,
        # so generating it computes neither
        e = klein_grid(3, 5, 0)
        assert not {"_facial", "_odd"} & e.__dict__.keys()


class TestShippedFixtures:
    def test_fixture_files_are_byte_exact(self, fixtures):
        for fx in fixtures:
            text = fixture_text(f"{fx.name}.emb.json")
            assert text == dump_embedding(fx.embedding), fx.name

    def test_figure1_graph_file_is_byte_exact(self, fig1):
        assert fixture_text("figure1.graph.json") == dump_graph(fig1)

    def test_round_trip(self, fixtures, fig1):
        for fx in fixtures:
            assert parse_embedding(dump_embedding(fx.embedding)) == \
                fx.embedding
        assert parse_graph(dump_graph(fig1)) == fig1

    def test_sweep_is_shipped(self, fixtures):
        names = {fx.name for fx in fixtures}
        for m, n, t in KLEIN_SWEEP:
            assert f"klein-grid-{m}-{n}-{t}" in names

    def test_generators_match_fixture_objects(self, fixtures):
        by_name = {fx.name: fx.embedding for fx in fixtures}
        assert by_name["k4-projective"] == k4_projective()
        assert by_name["k23-sphere"] == k23_sphere()
        assert by_name["torus-grid-3-3"] == torus_grid(3, 3)
        assert by_name["klein-grid-3-5-0"] == klein_grid(3, 5, 0)
