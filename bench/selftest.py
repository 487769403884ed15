"""Self-tests of the benchmark itself.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

- The relabel-and-gauge draw keeps the surface class and every invariant
  field, and its gauge equals a sequence of embeddings.switch_vertex.
- At seed 0, traced and untraced runs give byte-identical reports, equal
  to the ones recorded in bench/expected.json, so wrapping changes nothing.
- A traced seed-0 `verify` records calls at each import site it must
  catch.
"""

import random
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import answers  # noqa: E402
from one_pass import WORK_DIR, raise_timeout, run_job, setup  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import (CLIFF_JOB, WORKLOADS, draw,  # noqa: E402
                       relabel_and_gauge)

from loquad import generators  # noqa: E402
from loquad.embeddings import surface_class, switch_vertex  # noqa: E402
from loquad.invariants import invariant_report  # noqa: E402

# jobs too slow for a self-test; every command is still covered
SLOW = {CLIFF_JOB, "verify --oracle --cap-cycles 200000 klein-grid-6-3-0"}


def _report_fields(e):
    r = invariant_report(e)
    return (r.gray_count % 2, r.cyclic_count % 2, r.odd, r.cohom_ind, r.ind,
            r.coind, r.non_tidy, r.lo_class)


def test_draw_keeps_surface_and_invariants():
    for e in (generators.k4_projective(), generators.klein_grid(5, 5, 0),
              generators.klein_grid(3, 5, 1), generators.torus_grid(5, 5)):
        for seed in range(1, 4):
            d = draw(e, random.Random(seed))
            assert d.graph.n == e.graph.n
            assert surface_class(d) == surface_class(e)
            assert _report_fields(d) == _report_fields(e)


def test_gauge_matches_switch_vertex():
    e = generators.klein_grid(5, 5, 0)
    switched = {0, 3, 7, 12, 24}
    reference = e
    for v in sorted(switched):
        reference = switch_vertex(reference, v)
    ours = relabel_and_gauge(e, list(range(e.graph.n)), switched)
    assert ours.rotations == reference.rotations
    assert ours.signs == reference.signs


def _run_all(workload, trace: bool):
    """job id -> (status, exit code, report) at seed 0."""
    signal.signal(signal.SIGALRM, raise_timeout)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for item in setup(workload, 0, Path(tmp)):
            job = item["job"]
            if job.id in SLOW:
                continue
            tracer = Tracer() if trace else None
            if tracer:
                tracer.install()
            try:
                status, code, report, _ = run_job(item["argv"])
            finally:
                if tracer:
                    tracer.uninstall()
            out[job.id] = (status, code, report)
    return out


def test_traced_reports_identical_to_untraced_and_recorded():
    for workload in WORKLOADS.values():
        expected = answers.load_expected(workload.name)
        plain = _run_all(workload, trace=False)
        traced = _run_all(workload, trace=True)
        assert plain.keys() == traced.keys()
        for job_id, (status, code, report) in plain.items():
            assert status == "ok", (job_id, status)
            assert traced[job_id] == (status, code, report), job_id
            assert answers.check(expected[job_id], job_id.split()[0], code,
                                 report, identity=True) == [], job_id


def test_traced_verify_catches_every_import_site():
    signal.signal(signal.SIGALRM, raise_timeout)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    job_id = "verify klein_grid(5,7,0)"
    workload = WORKLOADS["verify-sweep"]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        item = next(i for i in setup(workload, 0, Path(tmp))
                    if i["job"].id == job_id)
        tracer = Tracer()
        tracer.install()
        try:
            status, code, _, _ = run_job(item["argv"])
        finally:
            tracer.uninstall()
    assert (status, code) == ("ok", 0)
    calls = dict(zip(SPAN_NAMES, tracer.calls))
    for name in ("embeddings.check_face_rule_hypotheses",
                 "invariants.invariant_report", "complexes.lovasz_complex",
                 "embeddings.embedded_isomorphic", "graphs.chromatic_number"):
        assert calls[name] > 0, name
    assert calls["cli.main"] == 1


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
