"""Z2 invariants of the complex of a quadrangulation.

The canonical labeling of singletons and neighborhoods, the symmetric
triangulation of the induced quadrangulation of the complex, gray-triangle
and cyclic-order counts, and the index/coindex report with its chromatic
lower bound.  A separate entry point re-verifies the structural results
behind the pipeline on a given embedding and returns named verdicts.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Optional

from .graphs import (DEFAULT_CHROMATIC_CAP, DEFAULT_ORACLE_CYCLE_CAP,
                     CapExceeded, InvariantViolation, chromatic_number,
                     find_domination, find_k23, is_bipartite, is_connected,
                     is_k23)
from .complexes import (HypothesisError, Label, LovaszComplex, VertexKind,
                        lovasz_complex, nu_free_on_faces)
from .surfaces import SurfaceClass, check_surface, double_cover_branch
from .embeddings import (EmbeddedGraph, all_4cycles_facial,
                         check_face_rule_hypotheses, embedded_isomorphic,
                         euler_characteristic, has_even_one_sided_class,
                         is_orientable_embedding, is_quadrangulation,
                         lovasz_quads, lovasz_quotient_embedding,
                         oddness_functional, oddness_oracle, surface_class)


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

def build_labeling(L: LovaszComplex) -> dict[Label, int]:
    """The canonical labeling of the singleton/neighborhood subgraph.

    Singleton {v_i} gets i, its neighborhood gets -i (1-based, so every
    label is a nonzero integer and |label| is invariant under the
    involution).  Requires every vertex of the graph to appear as a
    singleton vertex of the complex.
    """
    labeling: dict[Label, int] = {}
    seen = set()
    for i, lab in enumerate(L.labels):
        if L.kinds[i] is VertexKind.SINGLETON:
            v = lab[0]
            labeling[lab] = v + 1
            labeling[L.labels[L.nu[i]]] = -(v + 1)
            seen.add(v)
    if seen != set(range(L.graph.n)):
        missing = min(set(range(L.graph.n)) - seen)
        raise HypothesisError(
            "every vertex appears as a singleton closed set",
            f"no singleton for {L.graph.names[missing]}")
    return labeling


# ---------------------------------------------------------------------------
# Symmetric triangulation and gray triangles
# ---------------------------------------------------------------------------

LabeledQuad = tuple[Label, Label, Label, Label]
LabeledTriangle = tuple[Label, Label, Label]


def labeled_quads(L: LovaszComplex) -> list[LabeledQuad]:
    """Faces of the induced quadrangulation as label 4-tuples in cyclic
    order."""
    return [tuple(L.labels[i] for i in q) for q in lovasz_quads(L)]


def symmetric_triangulation(quads: list[LabeledQuad],
                            labeling: dict[Label, int],
                            rule: str = "min") -> list[LabeledTriangle]:
    """Split each quad of the induced quadrangulation (`labeled_quads`)
    into two triangles.

    The diagonal goes through the corner of minimum |label| (rule "min")
    or maximum |label| (rule "max").  Either rule commutes with the
    involution because |label| does.  Corner |label| values are distinct
    in every valid quad; a tie is reported as a hypothesis failure.
    """
    if rule not in ("min", "max"):
        raise ValueError(f"unknown triangulation rule {rule!r}")
    pick: Callable = min if rule == "min" else max
    triangles: list[LabeledTriangle] = []
    for quad in quads:
        values = [abs(labeling[c]) for c in quad]
        if len(set(values)) != 4:
            raise HypothesisError("quad corners have distinct |label|",
                                  f"quad {quad}")
        k = values.index(pick(values))
        a, b, c, d = quad[k], quad[(k + 1) % 4], quad[(k + 2) % 4], \
            quad[(k + 3) % 4]
        triangles.append((a, b, c))
        triangles.append((a, c, d))
    return triangles


def is_gray(triangle: LabeledTriangle, labeling: dict[Label, int]) -> bool:
    """Whether the middle vertex by |label| has the sign the others lack."""
    lo, mid, hi = sorted((labeling[v] for v in triangle), key=abs)
    return (mid > 0) != (lo > 0) and (mid > 0) != (hi > 0)


def _orbit_representative(cell, labeling: dict[Label, int]) -> bool:
    """One member per involution orbit: the one whose largest-|label|
    vertex carries the positive sign (the involution negates all labels,
    so exactly one member of each orbit qualifies)."""
    return max((labeling[v] for v in cell), key=abs) > 0


def gray_count(triangles: list[LabeledTriangle],
               labeling: dict[Label, int]) -> int:
    """Number of gray triangles, counted per involution orbit.

    Negating every label preserves grayness, so the symmetric
    triangulation always carries gray triangles in involution pairs; the
    meaningful count is the number of orbits, one triangle each.
    """
    gray = [t for t in triangles if is_gray(t, labeling)]
    gray_reps = sum(1 for t in gray if _orbit_representative(t, labeling))
    if 2 * gray_reps != len(gray):
        raise InvariantViolation(
            f"{len(gray)} gray triangles do not pair up under the involution "
            f"({gray_reps} orbit representatives)")
    return gray_reps


def cyclic_quad_count(quads: list[LabeledQuad],
                      labeling: dict[Label, int]) -> int:
    """Quads whose corner |label| values are in cyclic order, per orbit.

    The four values, read around the face, must be a rotation of their
    sorted order in one of the two directions.  Like gray triangles,
    cyclic quads come in involution pairs and are counted once per orbit.
    """
    count = 0
    for quad in quads:
        values = [abs(labeling[c]) for c in quad]
        k = values.index(min(values))
        turned = values[k:] + values[:k]
        if turned == sorted(values) or \
                [turned[0]] + turned[:0:-1] == sorted(values):
            count += 1
    if count % 2:
        raise InvariantViolation(
            f"{count} cyclic quads do not pair up under the involution")
    return count // 2


# ---------------------------------------------------------------------------
# Invariant report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrayReport:
    gray_count: int
    cyclic_count: int
    cohom_ind: int
    ind: int
    coind: int
    chromatic_lower_bound: int
    lo_class: SurfaceClass
    odd: Optional[bool]      # None when the input surface is orientable
    non_tidy: bool
    but_manifold: bool


def invariant_report(e: EmbeddedGraph, rule: str = "min") -> GrayReport:
    """Full invariant pipeline for a quadrangulation with facial 4-cycles,
    read off its faces in O(F); no complex is built.

    By the main theorem, under the face-rule hypotheses Lo(G) is a closed
    surface with twice G's Euler characteristic, orientable iff G has no
    even one-sided cycle, and each face a-b-c-d is one involution orbit
    of quads (a+1, -(b+1), c+1, -(d+1)) labeled as by `build_labeling`.
    With p0 the corner of least ("min") or greatest ("max") |label| and
    p1, p2, p3 those after it, the quad has a gray triangle for each of
    p1, p3 between p0 and p2, and is cyclic when p1, p2, p3 are monotone.
    Gray parity gives the cohomological index, equal to the index on
    surfaces; the coindex is 2 on the sphere, else 1; the chromatic lower
    bound is index + 2.  The gray/cyclic parity, the oddness decision and
    coindex <= cohom-index <= index are checked before reporting.
    """
    check_face_rule_hypotheses(e)
    if rule not in ("min", "max"):
        raise ValueError(f"unknown triangulation rule {rule!r}")
    # corners compare as their |label|s, negated under "max" so that the
    # diagonal corner q[k] is the least; p1, p2, p3 follow it cyclically
    faces = e._corners if rule == "min" else [[-c for c in q]
                                               for q in e._corners]
    gray = r = 0
    for q in faces:
        k = q.index(min(q))
        p1, p2, p3 = q[k - 3], q[k - 2], q[k - 1]
        gray += (p1 < p2) + (p3 < p2)
        r += (p1 < p2) == (p2 < p3)
    if gray % 2 != r % 2:
        raise InvariantViolation(
            f"gray count {gray} and cyclic count {r} differ in parity")
    cohom_ind = 2 if gray % 2 == 1 else 1
    odd: Optional[bool] = None
    if not is_orientable_embedding(e):
        odd = oddness_functional(e)
        if odd != (cohom_ind == 2):
            raise InvariantViolation(
                f"gray parity ({gray}) contradicts the oddness decision "
                f"({odd})")
    # on surfaces the cohomological index equals the index
    ind = cohom_ind
    lo_class = SurfaceClass.from_euler(not has_even_one_sided_class(e),
                                       2 * euler_characteristic(e))
    coind = 2 if (lo_class.orientable and lo_class.genus == 0) else 1
    if not coind <= cohom_ind <= ind:
        raise InvariantViolation(
            f"coind {coind} <= cohom-ind {cohom_ind} <= ind {ind} fails")
    return GrayReport(gray_count=gray, cyclic_count=r, cohom_ind=cohom_ind,
                      ind=ind, coind=coind, chromatic_lower_bound=ind + 2,
                      lo_class=lo_class, odd=odd, non_tidy=coind < ind,
                      but_manifold=ind == 2)


# ---------------------------------------------------------------------------
# Named verdicts for the structural results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckVerdict:
    name: str
    status: str              # pass | fail | skipped
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def _verdict(name: str, ok: bool, detail: str = "") -> CheckVerdict:
    return CheckVerdict(name, "pass" if ok else "fail", detail)


def _skip(name: str, reason: str) -> CheckVerdict:
    return CheckVerdict(name, "skipped", reason)


@contextmanager
def _guarded(out: list[CheckVerdict], name: str) -> Iterator[None]:
    """Run one check; a RuntimeError raised inside it becomes the check's
    fail verdict, with the error's message as detail.

    A RecursionError still propagates: it says the check could not run,
    not that a result failed.
    """
    try:
        yield
    except RecursionError:
        raise
    except RuntimeError as exc:
        out.append(CheckVerdict(name, "fail", str(exc)))


def verify_theorems(e: EmbeddedGraph, run_oracle: bool = False,
                    oracle_cap: int = DEFAULT_ORACLE_CYCLE_CAP,
                    chromatic_cap: int = DEFAULT_CHROMATIC_CAP
                    ) -> list[CheckVerdict]:
    """Re-verify the structural results on one embedding.

    Each check gates on its own hypotheses and is skipped (with a reason)
    when they fail; failures are reported, never raised: a RuntimeError
    inside a check, such as an InvariantViolation, becomes that check's
    fail verdict, and the later checks still run.  The checks:

    - k23_dichotomy: an all-facial quadrangulation is K(2,3) or is
      K(2,3)-free with no dominated neighborhood.
    - vertex_kinds: every complex vertex is a singleton, neighborhood or
      diagonal.
    - double_cover_surface: the complex is a closed surface with twice the
      Euler characteristic, and the involution is free on faces, which is
      what makes the quotient complex exist.
    - complex_orientability: the complex is orientable exactly when the
      graph has no even one-sided cycle.
    - genus_correspondence: the complex class determines the base class
      (genus arithmetic of the double cover).
    - non_facial_rejection: with a non-facial 4-cycle, the complex is not
      a surface.
    - quotient_round_trip: folding the complex back down reproduces the
      input embedding up to embedded isomorphism.
    - gray_parity_agreement: the gray parity of both triangulation rules
      matches the oddness decision, which `invariant_report` checks as it
      builds each report, and the cutting oracle agrees when requested.
    - chromatic_bound: the exact chromatic number respects index + 2.
    """
    g = e.graph
    out: list[CheckVerdict] = []
    quad_ok = is_quadrangulation(e).ok
    # the facial test is defined on quadrangulations only
    facial = all_4cycles_facial(e) if quad_ok else None
    connected = is_connected(g)
    bip = is_bipartite(g)
    # the min-rule report of gray_parity_agreement and chromatic_bound,
    # built once; a raise is not kept, so the later check raises it anew
    min_report = cache(lambda: invariant_report(e, rule="min"))

    name = "k23_dichotomy"
    with _guarded(out, name):
        if not (connected and facial is not None and facial.ok):
            out.append(_skip(name, "needs an all-facial quadrangulation"))
        elif is_k23(g):
            out.append(_verdict(name, True, "graph is K(2,3)"))
        else:
            k23 = find_k23(g)
            dom = find_domination(g)
            out.append(_verdict(
                name, k23 is None and dom is None,
                f"k23 witness {k23}, domination witness {dom}"))

    hypotheses_ok = True
    try:
        check_face_rule_hypotheses(e)
    except HypothesisError as exc:
        hypotheses_ok = False
        hypothesis_reason = str(exc)

    L = lovasz_complex(g) if hypotheses_ok else None

    name = "vertex_kinds"
    with _guarded(out, name):
        if L is None:
            out.append(_skip(name, hypothesis_reason))
        else:
            others = [L.labels[i] for i, k in enumerate(L.kinds)
                      if k is VertexKind.OTHER]
            out.append(_verdict(name, not others,
                                f"unexpected vertices {others[:3]}" if others
                                else ""))

    # the class of the complex, once it is known to be a suitable surface
    lo: Optional[SurfaceClass] = None
    name = "double_cover_surface"
    with _guarded(out, name):
        if L is None:
            out.append(_skip(name, hypothesis_reason))
        else:
            verdict = check_surface(L.base)
            fixed = nu_free_on_faces(L)
            problems = []
            if not verdict.is_surface:
                problems.append(f"not a surface: {verdict.witness.kind}")
            else:
                chi_lo = verdict.surface.euler
                chi_s = euler_characteristic(e)
                if chi_lo != 2 * chi_s:
                    problems.append(f"euler {chi_lo} != 2 * {chi_s}")
            if fixed is not None:
                problems.append(f"involution fixes face {fixed}")
            if not problems:
                lo = verdict.surface
            out.append(_verdict(name, not problems, "; ".join(problems)))

    name = "complex_orientability"
    with _guarded(out, name):
        if lo is None:
            out.append(_skip(name, "complex is not a suitable surface"))
        else:
            lo_orient = lo.orientable
            even_one_sided = has_even_one_sided_class(e)
            out.append(_verdict(
                name, lo_orient == (not even_one_sided),
                f"complex orientable {lo_orient}, "
                f"even one-sided class {even_one_sided}"))

    name = "genus_correspondence"
    with _guarded(out, name):
        if lo is None:
            out.append(_skip(name, "complex is not a suitable surface"))
        else:
            s = surface_class(e)
            _, ok = double_cover_branch(lo, s)
            out.append(_verdict(
                name, ok, f"complex {lo.describe()}, base {s.describe()}"))

    name = "non_facial_rejection"
    with _guarded(out, name):
        if facial is not None and facial.ok:
            out.append(_skip(name, "every 4-cycle is facial"))
        elif not (connected and not bip and quad_ok):
            out.append(_skip(name, "needs a non-bipartite quadrangulation"))
        else:
            verdict = check_surface(lovasz_complex(g).base)
            out.append(_verdict(
                name, not verdict.is_surface,
                f"witness {facial.witness}; "
                + (verdict.witness.detail if verdict.witness
                   else "no defect")))

    name = "quotient_round_trip"
    with _guarded(out, name):
        if lo is None:
            out.append(_skip(name, "complex is not a suitable surface"))
        else:
            folded = lovasz_quotient_embedding(L)
            same = embedded_isomorphic(folded, e)
            out.append(_verdict(name, same,
                                "" if same else "folded embedding differs"))

    name = "gray_parity_agreement"
    with _guarded(out, name):
        if not hypotheses_ok:
            out.append(_skip(name, hypothesis_reason))
        elif is_orientable_embedding(e):
            out.append(_skip(name, "oddness is defined on non-orientable "
                                   "surfaces"))
        else:
            # each report raises when its gray parity contradicts the
            # oddness decision, so both rules agree with it past here
            min_report()
            invariant_report(e, rule="max")
            ok = True
            if run_oracle:
                verdict_oracle, _, _ = oddness_oracle(e, oracle_cap)
                ok = verdict_oracle in (None, oddness_functional(e))
            out.append(_verdict(name, ok,
                                "" if ok else "cutting oracle disagrees"))

    name = "chromatic_bound"
    with _guarded(out, name):
        if not hypotheses_ok:
            out.append(_skip(name, hypothesis_reason))
        elif g.n > chromatic_cap:
            out.append(_skip(name, f"graph larger than cap {chromatic_cap}"))
        else:
            try:
                report = min_report()
                chi, _ = chromatic_number(g, cap=chromatic_cap)
                out.append(_verdict(
                    name, chi >= report.chromatic_lower_bound,
                    f"chromatic number {chi}, "
                    f"bound {report.chromatic_lower_bound}"))
            except (HypothesisError, CapExceeded) as exc:
                out.append(_skip(name, str(exc)))
    return out
