"""One timed pass over a workload, in a fresh interpreter.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1
        --spawned-ns T [--setup-only] [--skip JOB_ID ...]

Set-up imports loquad, builds every base instance, draws each job's own
relabelled and gauged input and writes it as a file.  Then the jobs run
one at a time through `loquad.cli.main(argv)`, in this process, with no
threads, each under JOB_LIMIT_S enforced by SIGALRM.  Jobs named by
--skip are not run.  Answers are checked after the last job.  A traced
pass writes its spans to SPANS_DIR/<workload>-seed<n>.json.  The last
line of standard output is one JSON object with the pass's measurements.
T is the parent's time.monotonic_ns() just before it started this
interpreter, so set-up time includes start-up.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import loquad.cli  # noqa: E402
from loquad.embeddings import EmbeddedGraph  # noqa: E402
from loquad.fileio import dump_embedding, dump_graph  # noqa: E402

import answers  # noqa: E402
from workloads import JOB_LIMIT_S, WORKLOADS, draw, input_faces, \
    job_rng  # noqa: E402

WORK_DIR = ROOT / ".bench_build" / "loquad"
SPANS_DIR = WORK_DIR / "spans"


class JobTimeout(Exception):
    pass


def raise_timeout(signum, frame):
    raise JobTimeout()


def setup(workload, seed: int, directory: Path) -> list[dict]:
    """Build the bases, draw and write one input per job."""
    bases = {b.name: b.make() for b in workload.bases}
    faces = {name: input_faces(x) for name, x in bases.items()}
    prepared = []
    for k, job in enumerate(workload.jobs):
        instance = draw(bases[job.base], job_rng(seed, workload.name, job.id))
        path = directory / f"job{k}.json"
        text = dump_embedding(instance) if isinstance(
            instance, EmbeddedGraph) else dump_graph(instance)
        path.write_text(text, encoding="utf-8")
        prepared.append({"job": job, "argv": job.argv(str(path)),
                         "faces": faces[job.base]})
    return prepared


def run_job(argv: list[str], limit: float = JOB_LIMIT_S
            ) -> tuple[str, int, str, float]:
    """(status, exit code, report, seconds) of one command.  SIGALRM must
    be handled by raise_timeout."""
    out, err = io.StringIO(), io.StringIO()
    code = -1
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = loquad.cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except JobTimeout:
        status = "timeout"
    except Exception as exc:  # a traceback from the program is a failure
        status = f"raised {exc!r}"
    return status, code, out.getvalue(), time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--skip", action="append", default=[])
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR))
    try:
        prepared = setup(workload, args.seed, directory)
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        expected = answers.load_expected(workload.name)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGALRM, raise_timeout)
        results = []
        for k, item in enumerate(prepared):
            if tracer is not None:
                tracer.job = k
            results.append(("skipped", -1, "", 0.0)
                           if item["job"].id in args.skip
                           else run_job(item["argv"]))
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs = []
    for item, (status, code, report, seconds) in zip(prepared, results):
        job = item["job"]
        problems = []
        if status == "ok":
            problems = answers.check(expected[job.id], job.command, code,
                                     report, identity=args.seed == 0)
        jobs.append({"id": job.id, "status": status, "seconds": seconds,
                     "faces": item["faces"], "problems": problems})
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "jobs": jobs,
           "largest": workload.largest, "growth": list(workload.growth)}
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"{workload.name}-seed{args.seed}.json",
                           [j["id"] for j in jobs])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
