"""Per-layer tracing from outside the program.

The tracer replaces each traced `loquad` function by a timing wrapper at
every module attribute that binds it (methods on their class), so calls
from one module into another are caught as well; `invariants` calls
`check_face_rule_hypotheses` through its own binding, for example.  Each
call becomes a span (name, start, end, parent span, job); spans stay in
memory and are written once the pass ends.  Self time is a span's
duration minus the time of the traced spans directly inside it.
"""

import functools
import json
import sys
import time
from array import array

# module -> functions traced there; "Class.method" for methods
TRACED = {
    "graphs": ("four_cycles", "enumerate_simple_cycles", "canonical_cycle",
               "cycle_space_basis", "chromatic_number", "find_k23"),
    "complexes": ("closed_sets", "lovasz_complex", "complex_from_facets",
                  "SimplicialComplex.faces", "nu_free_on_faces",
                  "quotient_complex"),
    "surfaces": ("check_surface", "orientability"),
    "embeddings": ("EmbeddedGraph.__post_init__", "trace_faces",
                   "all_4cycles_facial", "check_face_rule_hypotheses",
                   "lovasz_from_quadrangulation", "lovasz_quads",
                   "is_orientable_embedding", "oddness_functional",
                   "has_even_one_sided_class", "oddness_oracle",
                   "cut_surface_orientable", "lovasz_quotient_embedding",
                   "rotation_system_of_surface", "embedded_isomorphic"),
    "invariants": ("invariant_report", "verify_theorems", "build_labeling",
                   "labeled_quads", "symmetric_triangulation", "gray_count",
                   "cyclic_quad_count"),
    "fileio": ("load_embedding", "dump_report"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items()
                   for fn in fns)

# counters read from return values
COUNTERS = ("graphs.cycles_enumerated", "embeddings.oracle_complete_frac",
            "complexes.triangles_built")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTERS) + ["trace.overhead_frac",
                                     "trace.unattributed_frac"]


class Tracer:
    """Installs the wrappers, records spans and aggregates them."""

    def __init__(self):
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        # spans as parallel arrays: name, start, end, parent (-1 at top), job
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self._stack: list[list[int]] = []   # [span index, child ns]
        self.cycles_enumerated = 0
        self.oracle_runs = 0
        self.oracle_complete = 0
        self.triangles_built = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _hook(self, name: str):
        if name == "graphs.enumerate_simple_cycles":
            def hook(result):
                self.cycles_enumerated += len(result[0])
        elif name == "embeddings.oddness_oracle":
            def hook(result):
                self.oracle_runs += 1
                self.oracle_complete += bool(result[2])
        elif name == "complexes.complex_from_facets":
            def hook(result):
                self.triangles_built += len(result.facets)
        else:
            hook = None
        return hook

    def _wrap(self, fid: int, fn):
        hook = self._hook(SPAN_NAMES[fid])
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs = self.span_parent, self.span_job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, depth = len(names), len(stack)
            names.append(fid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job)
            starts.append(0)
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                # a job-limit alarm can land inside an inner wrapper's
                # bookkeeping; cutting back to this depth keeps the stack
                del stack[depth:]
                starts[index], ends[index] = start, end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[fid] += 1
                self.self_ns[fid] += duration - frame[1]
                self.total_ns[fid] += duration
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "loquad"
                                         or name.startswith("loquad."))]
        for fid, span in enumerate(SPAN_NAMES):
            mod_name, _, qual = span.partition(".")
            home = sys.modules[f"loquad.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(fid, original))
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(fid, original)
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{span} is bound nowhere")

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """calls, self seconds and counters; the run adds overhead_frac."""
        out = {}
        for fid, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = self.calls[fid]
            out[f"{span}.self_s"] = self.self_ns[fid] / 1e9
        out["graphs.cycles_enumerated"] = self.cycles_enumerated
        out["embeddings.oracle_complete_frac"] = (
            self.oracle_complete / self.oracle_runs if self.oracle_runs
            else 0.0)
        out["complexes.triangles_built"] = self.triangles_built
        main = SPAN_NAMES.index("cli.main")
        out["trace.unattributed_frac"] = (
            self.self_ns[main] / self.total_ns[main] if self.total_ns[main]
            else 0.0)
        return out

    def write_spans(self, path, job_ids: list[str]) -> None:
        """All spans as JSON: one [name, start_ns, end_ns, parent, job] row
        per span, names and job ids by index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(list(SPAN_NAMES))
                     + ', "jobs": ' + json.dumps(job_ids)
                     + ', "spans": [\n')
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_job)
            first = True
            for row in rows:
                fh.write(("" if first else ",\n") + json.dumps(list(row)))
                first = False
            fh.write("\n]}\n")
