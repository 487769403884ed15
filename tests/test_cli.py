import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loquad
from loquad.cli import EXIT_INPUT, EXIT_OK, EXIT_VERDICT, main
from loquad.complexes import ComplexError
from loquad.embeddings import embedded
from loquad.fileio import dump_embedding, dump_graph, parse_embedding
from loquad.generators import fixture_text, k4_projective, torus_grid


@pytest.fixture()
def fixture_path(tmp_path):
    def write(filename):
        p = tmp_path / filename
        p.write_text(fixture_text(filename))
        return str(p)
    return write


# the one-vertex embedding: no edges, so no darts
ONE_VERTEX = '{"version":1,"n":1,"rotations":[[]],"signs":[]}'


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLovasz:
    def test_figure1(self, capsys, fixture_path):
        code, report = run_json(capsys, ["lovasz",
                                         fixture_path("figure1.graph.json")])
        assert code == EXIT_OK
        assert len(report["vertices"]) == 8
        assert "{1}" in report["vertices"]
        assert "{2,4}" in report["vertices"]
        assert sorted(report["kinds"]).count("singleton") == 2
        assert len(report["involution"]) == 4
        assert all(i < j for i, j in report["involution"])

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(fixture_text("figure1.graph.json")))
        code, report = run_json(capsys, ["lovasz", "-"])
        assert code == EXIT_OK
        assert len(report["facets"]) > 0


class TestCheck:
    def test_k4_projective(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["check", fixture_path("k4-projective.emb.json")])
        assert code == EXIT_OK
        assert report["connected"]
        assert not report["bipartite"]
        assert report["is_quadrangulation"]
        assert report["all_4cycles_facial"]
        assert report["k23_witness"] is None
        assert report["domination_witness"] is None
        assert report["surface"] == {"orientable": False, "genus": 1,
                                     "euler": 1}

    def test_torus_grid_3_4_witness(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["check", fixture_path("torus-grid-3-4.emb.json")])
        assert code == EXIT_OK
        assert report["is_quadrangulation"]
        assert not report["all_4cycles_facial"]
        assert len(report["non_facial_witness"]) == 4

    def test_k23_witness(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["check", fixture_path("k23-sphere.emb.json")])
        assert code == EXIT_OK
        assert report["k23_witness"] is not None

    @pytest.mark.parametrize("e", [
        # K4 on the sphere: four triangular faces
        embedded(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                 [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)]),
        # a single edge: one face of length 2
        embedded(2, [(0, 1)], [(1,), (0,)]),
    ], ids=["k4-sphere", "path"])
    def test_non_quadrangulation_reports_its_bad_face(self, capsys, tmp_path,
                                                     e):
        p = tmp_path / "e.emb.json"
        p.write_text(dump_embedding(e))
        code, report = run_json(capsys, ["check", str(p)])
        assert code == EXIT_OK
        assert report["connected"] and not report["is_quadrangulation"]
        assert report["bad_face"]
        assert report["all_4cycles_facial"] is None
        assert report["non_facial_witness"] is None
        assert report["surface"] == {"orientable": True, "genus": 0,
                                     "euler": 2}

    def test_one_vertex_is_a_sphere(self, capsys, tmp_path):
        # K1 has no darts: one face, of empty boundary, on the sphere
        p = tmp_path / "k1.emb.json"
        p.write_text(ONE_VERTEX)
        code, report = run_json(capsys, ["check", str(p)])
        assert code == EXIT_OK
        assert report["connected"] and not report["is_quadrangulation"]
        assert report["bad_face"] == []
        assert report["surface"] == {"orientable": True, "genus": 0,
                                     "euler": 2}


class TestClassify:
    def test_k4_projective(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["classify", fixture_path("k4-projective.emb.json")])
        assert code == EXIT_OK
        assert report["hypotheses_ok"]
        assert report["lo_is_surface"]
        assert report["lo_class"] == {"orientable": True, "genus": 0,
                                      "euler": 2}
        assert report["branch"] == "orientable-even-genus"
        assert report["consistent"]

    def test_klein_odd(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["classify", fixture_path("klein-grid-3-5-0.emb.json")])
        assert code == EXIT_OK
        assert report["lo_class"] == {"orientable": False, "genus": 2,
                                      "euler": 0}
        assert report["branch"] == "non-orientable"
        assert report["consistent"]

    def test_non_facial_input_reports_hypothesis_failure(self, capsys,
                                                         fixture_path):
        code, report = run_json(
            capsys, ["classify", fixture_path("torus-grid-3-4.emb.json")])
        assert code == EXIT_OK
        assert not report["hypotheses_ok"]
        assert not report["lo_is_surface"]
        assert report["lo_defect"]

    def test_one_vertex_has_an_empty_complex(self, capsys, tmp_path):
        # Lo(K1) has no vertex: an empty complex, not a disconnected one
        p = tmp_path / "k1.emb.json"
        p.write_text(ONE_VERTEX)
        code, report = run_json(capsys, ["classify", str(p)])
        assert code == EXIT_OK
        assert not report["lo_is_surface"]
        assert report["lo_defect"] == "empty: no vertices"
        assert report["lo_class"] is None


class TestInvariants:
    def test_k4_projective(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["invariants", fixture_path("k4-projective.emb.json"),
                     "--exact-chi"])
        assert code == EXIT_OK
        assert report["gray_count"] == 3
        assert report["odd"] is True
        assert report["cohom_ind"] == 2
        assert report["chromatic_lower_bound"] == 4
        assert report["chromatic_number"] == 4
        assert report["bound_respected"]

    def test_chi_cap_note(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["invariants", fixture_path("klein-grid-3-5-0.emb.json"),
                     "--exact-chi", "--cap-chi", "10"])
        assert code == EXIT_OK
        assert report["chromatic_number"] is None
        assert "chromatic_note" in report

    def test_bipartite_input_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / "t44.emb.json"
        p.write_text(dump_embedding(torus_grid(4, 4)))
        assert main(["invariants", str(p)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_good_fixture_passes(self, capsys, fixture_path):
        code, report = run_json(
            capsys, ["verify", fixture_path("k4-projective.emb.json"),
                     "--oracle"])
        assert code == EXIT_OK
        assert all(v["status"] != "fail" for v in report.values())
        assert report["gray_parity_agreement"]["status"] == "pass"

    def test_non_facial_fixture_passes_rejection_check(self, capsys,
                                                       fixture_path):
        code, report = run_json(
            capsys, ["verify", fixture_path("torus-grid-3-4.emb.json")])
        assert code == EXIT_OK
        assert report["non_facial_rejection"]["status"] == "pass"

    def test_inapplicable_input_fails(self, capsys, tmp_path):
        # bipartite quadrangulation: every statement is skipped, which the
        # command reports as a failed verification
        p = tmp_path / "t44.emb.json"
        p.write_text(dump_embedding(torus_grid(4, 4)))
        code, report = run_json(capsys, ["verify", str(p)])
        assert code == EXIT_VERDICT
        assert all(v["status"] == "skipped" for v in report.values())

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["plain", "oracle"])
    def test_one_vertex_skips_everything(self, capsys, tmp_path, oracle):
        p = tmp_path / "k1.emb.json"
        p.write_text(ONE_VERTEX)
        code, report = run_json(capsys, ["verify", str(p)] + oracle)
        assert code == EXIT_VERDICT
        assert all(v["status"] == "skipped" and v["detail"]
                   for v in report.values())

    def test_non_quadrangulation_reports_skips(self, capsys, tmp_path):
        p = tmp_path / "path.emb.json"
        p.write_text(dump_embedding(embedded(2, [(0, 1)], [(1,), (0,)])))
        code, report = run_json(capsys, ["verify", str(p)])
        assert code == EXIT_VERDICT
        assert all(v["status"] == "skipped" and v["detail"]
                   for v in report.values())


class TestGenerate:
    def test_generate_matches_fixture(self, capsys):
        code = main(["generate", "klein-grid", "3", "5", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == fixture_text("klein-grid-3-5-0.emb.json")

    def test_generate_to_file(self, tmp_path):
        p = tmp_path / "out.json"
        assert main(["generate", "torus-grid", "3", "3",
                     "--out", str(p)]) == EXIT_OK
        assert parse_embedding(p.read_text()) == torus_grid(3, 3)

    def test_bad_parameters(self, capsys):
        assert main(["generate", "torus-grid", "2", "3"]) == EXIT_INPUT
        assert main(["generate", "figure1", "7"]) == EXIT_INPUT
        assert main(["generate", "unknown-family"]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("argv,usage", [
        (["figure1", "1"], "figure1 takes no parameters"),
        (["k4-projective", "1", "2"], "k4-projective takes no parameters"),
        (["k23-sphere", "3"], "k23-sphere takes no parameters"),
        (["torus-grid", "3"], "torus-grid takes parameters m n"),
        (["klein-grid", "3", "3", "0", "1"],
         "klein-grid takes parameters m n [twist]"),
        (["moebius"], "unknown family 'moebius'"),
    ])
    def test_bad_parameters_name_the_usage(self, capsys, argv, usage):
        assert main(["generate", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {usage}\n"

    def test_help_lists_every_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        for family in ("figure1", "k4-projective", "k23-sphere",
                       "torus-grid", "klein-grid"):
            assert family in words


def run_stdin(capsys, monkeypatch, argv, doc):
    """The exit code and standard error of `argv` reading doc on stdin."""
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    return code, capsys.readouterr().err


# K4 on the projective plane, with display names, and the malformed
# variants of it: the fields each replaces, and the one line of standard
# error it gives
K4_DOC = {"version": 1, "n": 4, "names": ["a", "b", "c", "d"],
          "rotations": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
          "signs": [[0, 1, 1], [0, 2, -1], [0, 3, 1], [1, 2, 1],
                    [1, 3, -1], [2, 3, 1]]}
_R, _S = K4_DOC["rotations"], K4_DOC["signs"]
_NOT_EDGE = "must name an edge with s in {1, -1}"
MALFORMED = {
    "rotation-count": ({"rotations": _R[:3]},
                       "'rotations' must list 4 neighbor orders"),
    "rotations-not-a-list": ({"rotations": {"0": _R[0]}},
                             "'rotations' must list 4 neighbor orders"),
    "rotation-not-a-list": ({"rotations": [_R[0], 5, _R[2], _R[3]]},
                            "rotations[1] must list vertex indices in [0, 4)"),
    "neighbour-out-of-range": (
        {"rotations": [_R[0], _R[1], [0, 1, 4], _R[3]]},
        "rotations[2] must list vertex indices in [0, 4)"),
    "neighbour-negative": ({"rotations": [_R[0], _R[1], [0, -1, 3], _R[3]]},
                           "rotations[2] must list vertex indices in [0, 4)"),
    "neighbour-not-an-int": (
        {"rotations": [_R[0], _R[1], [0, 1.0, 3], _R[3]]},
        "rotations[2] must list vertex indices in [0, 4)"),
    "loop": ({"rotations": [_R[0], _R[1], [0, 1, 2, 3], _R[3]]},
             "rotations[2] contains a loop"),
    "repeated-neighbour": (
        {"rotations": [_R[0], _R[1], _R[2], [0, 1, 2, 1]]},
        "rotation at d is not a permutation of its neighbors"),
    # b does not list d, which lists b; then a does not list d
    "asymmetric-later-vertex": (
        {"rotations": [_R[0], [0, 2], _R[2], _R[3]]},
        "rotation at b is not a permutation of its neighbors"),
    "asymmetric-first-vertex": (
        {"rotations": [[1, 2], _R[1], _R[2], _R[3]]},
        "rotation at a is not a permutation of its neighbors"),
    "sign-on-non-edge": ({"rotations": [_R[0], _R[1], [0, 1], [0, 1]]},
                         f"signs[5] = [2, 3, 1] {_NOT_EDGE}"),
    "sign-zero": ({"signs": [_S[0], [0, 2, 0], *_S[2:]]},
                  f"signs[1] = [0, 2, 0] {_NOT_EDGE}"),
    "sign-two": ({"signs": [_S[0], [0, 2, 2], *_S[2:]]},
                 f"signs[1] = [0, 2, 2] {_NOT_EDGE}"),
    "sign-u-above-v": ({"signs": [_S[0], [2, 0, -1], *_S[2:]]},
                       f"signs[1] = [2, 0, -1] {_NOT_EDGE}"),
    "sign-u-equals-v": ({"signs": [_S[0], [2, 2, -1], *_S[2:]]},
                        f"signs[1] = [2, 2, -1] {_NOT_EDGE}"),
    "sign-out-of-range": ({"signs": [_S[0], [0, 4, -1], *_S[2:]]},
                          f"signs[1] = [0, 4, -1] {_NOT_EDGE}"),
    "sign-not-a-triple": ({"signs": [_S[0], [0, 2], *_S[2:]]},
                          "signs[1] must be [u, v, s]"),
    "signs-not-a-list": ({"signs": {"0": 1}}, "'signs' must be a list"),
    "duplicate-sign": ({"signs": [*_S, [1, 2, -1]]},
                       "duplicate sign for [1, 2]"),
    "missing-sign": ({"signs": _S[:4] + _S[5:]},
                     "missing sign for edge [1, 3]"),
    "missing-signs-name-the-least": ({"signs": _S[:1] + _S[3:5]},
                                     "missing sign for edge [0, 2]"),
    "names-wrong-length": ({"names": ["a", "b", "c"]},
                           "'names' must list 4 strings"),
    # a float equal to 1 is no version, as it is no vertex count or index
    "version-float": ({"version": 1.0, "n": 1, "names": ["a"],
                       "rotations": [[]], "signs": []},
                      "unsupported format version 1.0"),
    # faults found in different places keep their order
    "duplicate-before-shape": ({"signs": [_S[0], _S[0], [0, 2], *_S[2:]]},
                               "duplicate sign for [0, 1]"),
    "missing-sign-before-asymmetry": (
        {"rotations": [_R[0], [0, 2], _R[2], _R[3]],
         "signs": _S[:4] + _S[5:]},
        "missing sign for edge [1, 3]"),
    "sign-on-non-edge-before-repeat": (
        {"rotations": [_R[0], _R[1], [0, 1, 0], [0, 1]]},
        f"signs[5] = [2, 3, 1] {_NOT_EDGE}"),
    "repeat-before-asymmetry": (
        {"rotations": [_R[0], [0, 2, 2, 3], _R[2], [0, 2]]},
        "rotation at b is not a permutation of its neighbors"),
}
MALFORMED = {name: (changes, f"error: <stdin>: {message}\n")
             for name, (changes, message) in MALFORMED.items()}
# JSON's true is no integer, though Python's bool is an int
BOOLEAN_EMBEDDING = {
    "version": ({"version": True},
                "error: <stdin>: unsupported format version True\n"),
    "n": ({"n": True, "names": ["a"], "rotations": [[]], "signs": []},
          "error: <stdin>: 'n' must be a positive integer\n"),
    "rotation": ({"rotations": [[True, 2, 3], *_R[1:]]},
                 "error: <stdin>: rotations[0] must list vertex indices in "
                 "[0, 4)\n"),
    "sign": ({"signs": [[0, 1, True], *_S[1:]]},
             "error: <stdin>: signs[0] must be [u, v, s]\n"),
}
BOOLEAN_GRAPH = {
    "version": ({"version": True},
                "error: <stdin>: unsupported format version True\n"),
    "n": ({"n": True, "edges": []},
          "error: <stdin>: 'n' must be a positive integer\n"),
    "edge": ({"edges": [[0, 1], [True, 2]]},
             "error: <stdin>: edges[1] must be a pair of integers\n"),
}


class TestInputErrors:
    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_sign(self, capsys, tmp_path):
        doc = json.loads(dump_embedding(k4_projective()))
        doc["signs"] = doc["signs"][:-1]
        p = tmp_path / "nosign.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == EXIT_INPUT
        capsys.readouterr()

    def test_bad_version(self, capsys, tmp_path):
        doc = json.loads(dump_embedding(k4_projective()))
        doc["version"] = 99
        p = tmp_path / "v99.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == EXIT_INPUT
        capsys.readouterr()

    def test_nonpositive_cap(self, capsys, fixture_path):
        assert main(["verify", fixture_path("k4-projective.emb.json"),
                     "--cap-cycles", "0"]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("name", MALFORMED, ids=str)
    def test_malformed_embedding_file(self, capsys, monkeypatch, name):
        changes, message = MALFORMED[name]
        assert run_stdin(capsys, monkeypatch, ["check", "-"],
                         {**K4_DOC, **changes}) == (EXIT_INPUT, message)

    @pytest.mark.parametrize("field", BOOLEAN_EMBEDDING, ids=str)
    def test_boolean_is_not_an_integer_in_an_embedding(self, capsys,
                                                       monkeypatch, field):
        changes, message = BOOLEAN_EMBEDDING[field]
        assert run_stdin(capsys, monkeypatch, ["check", "-"],
                         {**K4_DOC, **changes}) == (EXIT_INPUT, message)

    @pytest.mark.parametrize("field", BOOLEAN_GRAPH, ids=str)
    def test_boolean_is_not_an_integer_in_a_graph(self, capsys, monkeypatch,
                                                  field):
        changes, message = BOOLEAN_GRAPH[field]
        doc = {"version": 1, "n": 3, "edges": [[0, 1], [1, 2]], **changes}
        assert run_stdin(capsys, monkeypatch, ["lovasz", "-"], doc) \
            == (EXIT_INPUT, message)


class TestNoTracebacks:
    @pytest.mark.parametrize("exc", [ComplexError("bad complex"),
                                     RuntimeError("cross-check failed"),
                                     RecursionError("too deep")],
                             ids=lambda exc: type(exc).__name__)
    def test_error_becomes_exit_2(self, capsys, monkeypatch, fixture_path,
                                  exc):
        def fail(args):
            raise exc
        monkeypatch.setattr("loquad.cli.cmd_check", fail)
        assert main(["check", fixture_path("k4-projective.emb.json")]) \
            == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_memory_error_becomes_exit_2(self, capsys, monkeypatch,
                                         tmp_path):
        # the definitional complex of a large graph can outgrow an
        # address-space limit; that ends in a message, not a traceback
        def exhausted(g):
            raise MemoryError()
        monkeypatch.setattr("loquad.cli.lovasz_complex", exhausted)
        p = tmp_path / "k4.json"
        p.write_text(dump_graph(k4_projective().graph))
        assert main(["lovasz", str(p)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_other_exceptions_pass_through(self, monkeypatch, fixture_path):
        # a caller's own Exception subclass (a job time limit, say) must
        # reach the caller
        class Interrupt(Exception):
            pass

        def fail(args):
            raise Interrupt()
        monkeypatch.setattr("loquad.cli.cmd_check", fail)
        with pytest.raises(Interrupt):
            main(["check", fixture_path("k4-projective.emb.json")])


def test_failing_check_gives_a_fail_verdict(capsys, monkeypatch,
                                            fixture_path):
    def raising(e, cap):
        raise RuntimeError("oracle broke")
    monkeypatch.setattr("loquad.invariants.oddness_oracle", raising)
    code, report = run_json(capsys, ["verify", "--oracle", fixture_path(
        "k4-projective.emb.json")])
    assert code == EXIT_VERDICT
    assert report["gray_parity_agreement"] == {"status": "fail",
                                               "detail": "oracle broke"}
    assert report["chromatic_bound"]["status"] == "pass"


def run_with_and_without_optimization(*args):
    """The stdout of `python -m loquad *args`, the same with and without
    -O; both runs must exit 0."""
    src = str(Path(loquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    runs = [subprocess.run([sys.executable, *flags, "-m", "loquad", *args],
                           env=env, capture_output=True, timeout=120)
            for flags in ([], ["-O"])]
    for run in runs:
        assert run.returncode == EXIT_OK, run.stderr
    assert runs[0].stdout == runs[1].stdout
    return json.loads(runs[0].stdout)


def test_optimized_mode_gives_identical_output(fixture_path):
    # the mathematical cross-checks are explicit, so python -O runs them too
    report = run_with_and_without_optimization(
        "invariants", fixture_path("klein-grid-3-5-0.emb.json"), "--exact-chi")
    assert report["odd"] is True


def test_optimized_mode_gives_identical_oracle_output(fixture_path):
    # the oracle's cuts read the face coherence table, whose cross-check
    # against the vertex signs is explicit as well
    report = run_with_and_without_optimization(
        "verify", "--oracle", fixture_path("klein-grid-3-5-0.emb.json"))
    assert report["gray_parity_agreement"] == {"status": "pass", "detail": ""}
