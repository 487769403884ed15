"""Command line front end.

Exit codes: 0 success or all verdicts pass, 1 a verdict failed, 2 input or
hypothesis error, or a failed internal cross-check; every error ends in a
one-line message, not a traceback.  All output is deterministic.
"""

import argparse
import sys
from typing import Optional

from .graphs import (DEFAULT_CHROMATIC_CAP, DEFAULT_ORACLE_CYCLE_CAP,
                     CapExceeded, Graph, GraphError, chromatic_number,
                     find_domination, find_k23, is_bipartite, is_connected)
from .complexes import ComplexError, HypothesisError, lovasz_complex
from .surfaces import check_surface, double_cover_branch
from .embeddings import (all_4cycles_facial, check_face_rule_hypotheses,
                         is_quadrangulation, surface_class)
from .invariants import invariant_report, verify_theorems
from . import generators
from .fileio import (FileFormatError, dump_embedding, dump_graph,
                     dump_report, load_embedding, load_graph, write_text)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


def _surface_dict(sc) -> dict:
    return {"orientable": sc.orientable, "genus": sc.genus,
            "euler": sc.euler}


def _set_label(label, names) -> str:
    return "{" + ",".join(names[v] for v in label) + "}"


def cmd_lovasz(args) -> int:
    g = load_graph(args.input)
    L = lovasz_complex(g)
    report = {
        "version": 1,
        "vertices": [_set_label(lab, g.names) for lab in L.labels],
        "kinds": [k.value for k in L.kinds],
        "involution": sorted([i, L.nu[i]] for i in range(len(L.labels))
                             if i < L.nu[i]),
        "facets": sorted(sorted(f) for f in L.base.facets),
    }
    write_text(args.out, dump_report(report))
    return EXIT_OK


def cmd_check(args) -> int:
    e = load_embedding(args.input)
    quad = is_quadrangulation(e)
    facial = all_4cycles_facial(e)
    k23 = find_k23(e.graph)
    dom = find_domination(e.graph)
    report = {
        "connected": is_connected(e.graph),
        "bipartite": is_bipartite(e.graph).bipartite,
        "is_quadrangulation": quad.ok,
        "bad_face": list(quad.bad_face) if quad.bad_face else None,
        "all_4cycles_facial": facial.ok,
        "non_facial_witness": list(facial.witness) if facial.witness
        else None,
        "k23_witness": [list(k23[0]), list(k23[1])] if k23 else None,
        "domination_witness": list(dom) if dom else None,
        "surface": _surface_dict(surface_class(e))
        if is_connected(e.graph) else None,
    }
    write_text(args.out, dump_report(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    e = load_embedding(args.input)
    report: dict = {"hypotheses_ok": True, "hypothesis_failure": None}
    try:
        check_face_rule_hypotheses(e)
    except HypothesisError as exc:
        report["hypotheses_ok"] = False
        report["hypothesis_failure"] = str(exc)
    L = lovasz_complex(e.graph)
    verdict = check_surface(L.base)
    report["lo_is_surface"] = verdict.is_surface
    report["lo_defect"] = (f"{verdict.witness.kind}: {verdict.witness.detail}"
                           if verdict.witness else None)
    if verdict.is_surface:
        base = surface_class(e)
        branch, consistent = double_cover_branch(verdict.surface, base)
        report["lo_class"] = _surface_dict(verdict.surface)
        report["base_class"] = _surface_dict(base)
        report["branch"] = branch
        report["consistent"] = consistent
    else:
        report["lo_class"] = None
        report["base_class"] = None
        report["branch"] = None
        report["consistent"] = None
    write_text(args.out, dump_report(report))
    return EXIT_OK


def cmd_invariants(args) -> int:
    e = load_embedding(args.input)
    r = invariant_report(e)
    report = {
        "gray_count": r.gray_count,
        "cyclic_count": r.cyclic_count,
        "odd": r.odd,
        "cohom_ind": r.cohom_ind,
        "ind": r.ind,
        "coind": r.coind,
        "non_tidy": r.non_tidy,
        "but_manifold": r.but_manifold,
        "lo_class": _surface_dict(r.lo_class),
        "chromatic_lower_bound": r.chromatic_lower_bound,
    }
    code = EXIT_OK
    if args.exact_chi:
        try:
            chi, _ = chromatic_number(e.graph, cap=args.cap_chi)
            report["chromatic_number"] = chi
            report["bound_respected"] = chi >= r.chromatic_lower_bound
            if not report["bound_respected"]:
                code = EXIT_VERDICT
        except CapExceeded as exc:
            report["chromatic_number"] = None
            report["bound_respected"] = None
            report["chromatic_note"] = str(exc)
    write_text(args.out, dump_report(report))
    return code


def cmd_verify(args) -> int:
    e = load_embedding(args.input)
    verdicts = verify_theorems(e, run_oracle=args.oracle,
                               oracle_cap=args.cap_cycles,
                               chromatic_cap=args.cap_chi)
    report = {v.name: {"status": v.status, "detail": v.detail}
              for v in verdicts}
    write_text(args.out, dump_report(report))
    failed = [v for v in verdicts if v.status == "fail"]
    if failed:
        return EXIT_VERDICT
    # an input to which no statement applies is a failed verification too
    if all(v.status == "skipped" for v in verdicts):
        return EXIT_VERDICT
    return EXIT_OK


# family -> (generator, accepted parameter counts, usage)
_FAMILIES = {
    "figure1": (generators.figure1_graph, (0,), "takes no parameters"),
    "k4-projective": (generators.k4_projective, (0,), "takes no parameters"),
    "k23-sphere": (generators.k23_sphere, (0,), "takes no parameters"),
    "torus-grid": (generators.torus_grid, (2,), "takes parameters m n"),
    "klein-grid": (generators.klein_grid, (2, 3),
                   "takes parameters m n [twist]"),
}


def cmd_generate(args) -> int:
    if args.family not in _FAMILIES:
        raise GraphError(f"unknown family {args.family!r}")
    make, counts, usage = _FAMILIES[args.family]
    if len(args.params) not in counts:
        raise GraphError(f"{args.family} {usage}")
    out = make(*args.params)
    dump = dump_graph if isinstance(out, Graph) else dump_embedding
    write_text(args.out, dump(out))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loquad",
        description="Lovász complexes of quadrangulations: construction, "
                    "surface classification and Z2 invariants.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: standard output)")

    sp = sub.add_parser("lovasz", help="Lovász complex of a graph file")
    sp.add_argument("input", help="graph file, or - for stdin")
    common(sp)
    sp.set_defaults(func=cmd_lovasz)

    sp = sub.add_parser("check", help="hypothesis report for an embedding")
    sp.add_argument("input", help="embedding file, or - for stdin")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("classify",
                        help="surface classification of the complex")
    sp.add_argument("input", help="embedding file, or - for stdin")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("invariants", help="gray count and index report")
    sp.add_argument("input", help="embedding file, or - for stdin")
    sp.add_argument("--exact-chi", action="store_true",
                    help="also compute the exact chromatic number")
    sp.add_argument("--cap-chi", type=int, default=DEFAULT_CHROMATIC_CAP,
                    metavar="N", help="largest n for exact coloring")
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", help="re-verify the structural results")
    sp.add_argument("input", help="embedding file, or - for stdin")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the cut-along-cycle oracle")
    sp.add_argument("--cap-cycles", type=int,
                    default=DEFAULT_ORACLE_CYCLE_CAP, metavar="N",
                    help="most simple cycles the oracle examines; a witness "
                         "ends its search sooner")
    sp.add_argument("--cap-chi", type=int, default=DEFAULT_CHROMATIC_CAP,
                    metavar="N", help="largest n for exact coloring")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("generate", help="write a fixture family instance")
    sp.add_argument("family", help=" | ".join(_FAMILIES))
    sp.add_argument("params", nargs="*", type=int)
    common(sp)
    sp.set_defaults(func=cmd_generate)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for cap in ("cap_chi", "cap_cycles"):
        if getattr(args, cap, 1) <= 0:
            print(f"error: --{cap.replace('_', '-')} must be positive",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except (FileFormatError, GraphError, HypothesisError, ComplexError,
            RuntimeError) as exc:
        # RuntimeError also covers CapExceeded, InvariantViolation and
        # RecursionError; any other Exception reaches the caller
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
