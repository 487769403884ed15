"""Expected answers: the fields of a report that no relabelling or gauge
can change, and the checker that compares them.

bench/expected.json holds, for every job, the exit code, those fields and
the SHA-256 of the report at seed 0 (the identity draw), recorded by
bench/record.py when the benchmark was added.
"""

import hashlib
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# `chromatic_bound` may pass, or be skipped for the size cap; both are right
CHROMATIC_OK = "pass-or-capped"


def _hypothesis(message):
    """The failed hypothesis named by a HypothesisError message, without
    its vertex-numbered detail."""
    if message is None:
        return None
    return re.sub(r" \(.*\)$", "", message)


def _surface(d):
    return None if d is None else [d["orientable"], d["genus"], d["euler"]]


def _verdicts(doc: dict) -> dict:
    out = {}
    for name, v in doc.items():
        status = v["status"]
        if name == "chromatic_bound" and (
                status == "pass" or (status == "skipped"
                                     and "cap" in v["detail"])):
            status = CHROMATIC_OK
        out[name] = status
    return out


def invariant_fields(command: str, report: str) -> dict:
    """The label- and gauge-independent content of one report."""
    if not report:
        return {}
    doc = json.loads(report)
    if command == "invariants":
        keys = ("odd", "cohom_ind", "ind", "coind", "non_tidy",
                "but_manifold", "chromatic_lower_bound")
        out = {k: doc[k] for k in keys}
        out["gray_parity"] = doc["gray_count"] % 2
        out["cyclic_parity"] = doc["cyclic_count"] % 2
        out["lo_class"] = _surface(doc["lo_class"])
        return out
    if command == "check":
        out = {k: doc[k] for k in ("connected", "bipartite",
                                   "is_quadrangulation",
                                   "all_4cycles_facial")}
        for k in ("bad_face", "non_facial_witness", "k23_witness",
                  "domination_witness"):
            out[f"has_{k}"] = doc[k] is not None
        out["surface"] = _surface(doc["surface"])
        return out
    if command == "classify":
        defect = doc["lo_defect"]
        return {
            "hypotheses_ok": doc["hypotheses_ok"],
            "hypothesis_failure": _hypothesis(doc["hypothesis_failure"]),
            "lo_is_surface": doc["lo_is_surface"],
            "lo_defect_kind": None if defect is None
            else defect.split(":")[0],
            "lo_class": _surface(doc["lo_class"]),
            "base_class": _surface(doc["base_class"]),
            "branch": doc["branch"],
            "consistent": doc["consistent"],
        }
    if command == "verify":
        return _verdicts(doc)
    if command == "lovasz":
        # display names travel with their vertices, so the labels are fixed
        kinds: dict = {}
        for k in doc["kinds"]:
            kinds[k] = kinds.get(k, 0) + 1
        sizes: dict = {}
        for f in doc["facets"]:
            sizes[str(len(f))] = sizes.get(str(len(f)), 0) + 1
        vertices = sorted("{" + ",".join(sorted(v[1:-1].split(","))) + "}"
                          for v in doc["vertices"])
        return {"vertices": vertices,
                "kinds": dict(sorted(kinds.items())),
                "involution_pairs": len(doc["involution"]),
                "facet_sizes": dict(sorted(sizes.items()))}
    raise ValueError(f"no invariant fields for command {command!r}")


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check(expected: dict, command: str, exit_code: int, report: str,
          identity: bool) -> list[str]:
    """Problems with one completed job; empty when its answers are right."""
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    try:
        got = invariant_fields(command, report)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    for key in sorted(set(got) | set(expected["fields"])):
        want = expected["fields"].get(key)
        if got.get(key) != want:
            problems.append(f"{key}: {got.get(key)!r}, expected {want!r}")
    if identity and digest(report) != expected["sha256"]:
        problems.append("seed-0 report differs from the recorded bytes")
    return problems
