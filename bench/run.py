"""The loquad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs timed passes of one workload, each in a fresh
interpreter (bench/one_pass.py), one after another: at least MIN_PASSES,
and more until S seconds have been spent.  The seed draws every job's
relabelling and gauge, and every pass of a run reads the same inputs, so
a job that ran over the time limit in one pass is not run again; its time
stays the limit.  A job's time is its median over the passes that ran it.
The end-to-end metrics are computed from those times, and setup_s is the
median over at least SETUP_SAMPLES set-ups (extra interpreters that only
set up make up the count).

With --trace 1 it runs one untraced reference pass and one traced pass,
and reports the per-layer metrics of the traced pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, where
attempted counts the jobs of the workload's list and failed those that
failed in any pass.  Workloads, metrics and predictions: bench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report-ladder", "verify-sweep", "oracle-fixtures")
MIN_PASSES = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170          # the whole run, so that it ends within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("largest_s", "s"),
              ("growth_exp", "1"), ("peak_rss_mb", "MB"))


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, deadline: float,
          extra: tuple[str, ...] = ()) -> dict:
    """Run one pass interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassFailed("out of time before the pass started")
    # one string-hash seed, so that the passes of a run execute alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "one_pass.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), *extra,
            "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed("pass did not finish before the run's deadline")
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(faces)."""
    xs = [math.log(f) for f, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def job_outcomes(passes: list[dict]) -> dict[str, dict]:
    """Per job: its median time over the passes that ran it, and whether
    it failed (status other than ok, or wrong answers) in any of them."""
    out: dict[str, dict] = {}
    for p in passes:
        for job in p["jobs"]:
            if job["status"] == "skipped":
                continue
            o = out.setdefault(job["id"], {"times": [], "faces": job["faces"],
                                           "notes": [], "wrong": False})
            o["times"].append(job["seconds"])
            if job["status"] == "timeout":
                o["notes"].append(f"over the {job['seconds']:.1f} s limit")
            elif job["status"] != "ok" or job["problems"]:
                o["wrong"] = True
                o["notes"].append("; ".join([job["status"]]
                                            + job["problems"]))
    for o in out.values():
        o["seconds"] = statistics.median(o["times"])
    return out


def end_to_end(passes: list[dict], jobs: dict[str, dict],
               setups: list[float]) -> dict[str, float]:
    first = passes[0]
    points = [(jobs[i]["faces"], jobs[i]["seconds"]) for i in first["growth"]
              if not jobs[i]["notes"]]
    return {
        "wall_s": sum(o["seconds"] for o in jobs.values()),
        "largest_s": jobs[first["largest"]]["seconds"],
        "growth_exp": growth_exponent(points),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "loquad" / "cli.py").is_file():
        print(f"error: no loquad sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    w, seed = args.workload, args.seed
    try:
        if args.trace:
            reference = spawn(w, seed, 0, deadline)
            passes = [spawn(w, seed, 1, deadline)]
        else:
            passes = []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or \
                    time.monotonic() - start < args.seconds:
                timed_out = [j["id"] for q in passes for j in q["jobs"]
                             if j["status"] == "timeout"]
                extra = tuple(a for i in timed_out for a in ("--skip", i))
                passes.append(spawn(w, seed, 0, deadline, extra))
            setups = [q["setup_s"] for q in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(w, seed, 0, deadline,
                                    ("--setup-only",))["setup_s"])
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = job_outcomes(passes)
    failed = sum(1 for o in jobs.values() if o["notes"])
    correct = not any(o["wrong"] for o in jobs.values())
    if args.trace:
        metrics = dict(passes[0]["per_layer"])
        traced = sum(j["seconds"] for j in passes[0]["jobs"])
        untraced = sum(j["seconds"] for j in reference["jobs"])
        metrics["trace.overhead_frac"] = traced / untraced - 1
        from tracing import per_layer_names
        units = {n: _unit(n) for n in per_layer_names()}
    else:
        metrics = end_to_end(passes, jobs, setups)
        units = dict(END_TO_END)

    print(f"workload {w}, seed {seed}, trace {args.trace}: {len(passes)} "
          f"pass(es), {len(jobs)} jobs attempted, {failed} failed")
    print(f"  {'failed_frac':44s} {failed / len(jobs):14.6f} ratio")
    shown = metrics if not args.trace else {
        n: v for n, v in metrics.items()
        if n.startswith("trace.") or (n.endswith(".self_s") and v >= 0.05)}
    for name, value in shown.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")
    for job_id, o in jobs.items():
        for note in o["notes"]:
            print(f"  failed: {job_id}: {note}")
    result = {"correct": correct, "attempted": len(jobs), "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".calls") or name in ("graphs.cycles_enumerated",
                                           "complexes.triangles_built"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
