"""Record bench/expected.json: the answers every benchmark job must give.

    python3 bench/record.py [--limit SECONDS]

Runs every job at seed 0 (the identity draw) and stores its exit code,
its label-independent fields and the SHA-256 of its report.  A seed-0 job
that runs over --limit keeps the entry already recorded for it, so the
cliff job needs one recording with a long limit (it took 387 s when the
benchmark was added).  Seeds 1..CHECK_SEEDS then confirm that the fields
do not depend on the draw, and the answers are checked against sources that do
not go through the job's own code path:

- the odd / not-odd notes on generators.KLEIN_SWEEP;
- Youngs, "4-chromatic projective graphs" (JGT 1996): the K4
  quadrangulation of the projective plane is odd, with index 2 and
  chromatic number 4;
- the verdicts of the complete cutting-oracle searches.
"""

import argparse
import inspect
import json
import re
import signal
import sys
import tempfile
from pathlib import Path

import answers
from one_pass import WORK_DIR, raise_timeout, run_job, setup
from workloads import JOB_LIMIT_S, WORKLOADS, fixture_embedding

from loquad import generators
from loquad.embeddings import oddness_oracle
from loquad.graphs import chromatic_number
from loquad.invariants import invariant_report

CHECK_SEEDS = 2      # draws that must reproduce the seed-0 fields


def run_workload(workload, seed: int, limit: float) -> dict:
    """job id -> (status, exit code, report) for one draw."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        prepared = setup(workload, seed, Path(tmp))
        out = {}
        for item in prepared:
            status, code, report, seconds = run_job(item["argv"], limit)
            print(f"  seed {seed} {item['job'].id}: {status} {code} "
                  f"{seconds:.2f} s", file=sys.stderr, flush=True)
            out[item["job"].id] = (status, code, report)
    return out


def sweep_notes() -> dict[str, bool]:
    """The odd / not-odd comments on KLEIN_SWEEP, read from the source."""
    notes = {}
    pattern = re.compile(r"\((\d+), (\d+), (\d+)\),\s+# (not odd|odd)")
    for m, n, t, note in pattern.findall(inspect.getsource(generators)):
        notes[f"klein-grid-{m}-{n}-{t}"] = note == "odd"
    if len(notes) != len(generators.KLEIN_SWEEP):
        raise SystemExit("could not read every KLEIN_SWEEP note")
    return notes


def independent_checks(expected: dict) -> list[str]:
    problems = []
    odd = dict(sweep_notes())
    # Youngs: every non-bipartite projective quadrangulation is odd
    odd["k4-projective"] = True
    k4 = fixture_embedding("k4-projective")
    r = invariant_report(k4)
    if (r.odd, r.ind) != (True, 2) or chromatic_number(k4.graph)[0] != 4:
        problems.append("k4-projective: not odd with index 2 and chi 4")
    if expected["verify-sweep"]["verify k4-projective"]["fields"] \
            .get("gray_parity_agreement") != "pass":
        problems.append("verify k4-projective: gray parity not checked")

    for job_id, entry in expected["oracle-fixtures"].items():
        name = job_id.split()[-1]
        cap = int(job_id.split()[3])
        e = fixture_embedding(name)
        if invariant_report(e).odd != odd[name]:
            problems.append(f"{name}: invariant report contradicts "
                            f"{odd[name]}")
        verdict, _, complete = oddness_oracle(e, cap)
        if complete and verdict != odd[name]:
            problems.append(f"{name}: complete oracle says {verdict}")
        if entry["fields"]["gray_parity_agreement"] != "pass":
            problems.append(f"{job_id}: gray parity verdict is not pass")
        print(f"  {name}: odd {odd[name]}, oracle {verdict} "
              f"(complete {complete})", file=sys.stderr)

    ladder = expected["report-ladder"]["invariants klein_grid(5,5,0)"]
    if ladder["fields"]["odd"] != odd["klein-grid-5-5-0"]:
        problems.append("invariants klein_grid(5,5,0): oddness contradicts "
                        "the KLEIN_SWEEP note")
    for job_id, entry in expected["report-ladder"].items():
        f = entry["fields"]
        if f["odd"] is not None and f["odd"] != (f["cohom_ind"] == 2):
            problems.append(f"{job_id}: oddness and index disagree")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--limit", type=float, default=JOB_LIMIT_S,
                   help="per-job limit at seed 0")
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, raise_timeout)
    try:
        with open(answers.EXPECTED_PATH, encoding="utf-8") as fh:
            previous = json.load(fh)
    except FileNotFoundError:
        previous = {}

    expected: dict = {}
    problems = []
    for name, workload in WORKLOADS.items():
        entries = {}
        for job_id, (status, code, report) in run_workload(
                workload, 0, args.limit).items():
            command = job_id.split()[0]
            if status == "ok":
                entries[job_id] = {
                    "exit": code,
                    "fields": answers.invariant_fields(command, report),
                    "sha256": answers.digest(report)}
            elif job_id in previous.get(name, {}):
                entries[job_id] = previous[name][job_id]
            else:
                problems.append(f"{name} {job_id}: {status} at seed 0; "
                                f"record it with a longer --limit")
        for seed in range(1, CHECK_SEEDS + 1):
            for job_id, (status, code, report) in run_workload(
                    workload, seed, JOB_LIMIT_S).items():
                if status != "ok" or job_id not in entries:
                    continue
                want = dict(entries[job_id], sha256=None)
                found = answers.check(want, job_id.split()[0], code, report,
                                      identity=False)
                problems += [f"{name} {job_id} seed {seed}: {x}"
                             for x in found]
        expected[name] = entries

    problems += independent_checks(expected)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(answers.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
