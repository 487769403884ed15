"""File formats: graphs, embeddings and reports as versioned JSON text.

An embedding is read straight into the structures its analyses use:
the adjacency from the rotations, and the dart numbering that checks
them and the signs.  JSON's true and false are no integers here.

All writers are deterministic (explicit key order, no hash iteration), so
identical objects serialize byte-identically and fixtures can be compared
as golden files.
"""

import json
import sys
from typing import Any, Optional, TextIO

from .graphs import Graph, GraphError
from .embeddings import EmbeddedGraph, _number_darts

FORMAT_VERSION = 1


class FileFormatError(GraphError):
    """Raised for malformed input files; message carries the position."""


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _parse(text: str, source: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise FileFormatError(f"{source}: top level must be an object")
    if doc.get("version") != FORMAT_VERSION or type(doc["version"]) is not int:
        raise FileFormatError(
            f"{source}: unsupported format version {doc.get('version')!r}")
    return doc


def _require_n(doc: dict, source: str) -> int:
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise FileFormatError(f"{source}: 'n' must be a positive integer")
    return n


def _require_names(doc: dict, n: int, source: str) -> tuple[str, ...]:
    names = doc.get("names")
    if names is None:
        return tuple(map(str, range(n)))
    if not (isinstance(names, list) and len(names) == n
            and all(isinstance(s, str) for s in names)):
        raise FileFormatError(f"{source}: 'names' must list {n} strings")
    return tuple(names)


def _require_edges(doc: dict, n: int, source: str) -> list[tuple[int, int]]:
    raw = doc.get("edges")
    if not isinstance(raw, list):
        raise FileFormatError(f"{source}: 'edges' must be a list")
    edges: dict[tuple[int, int], None] = {}     # a set in file order
    for k, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2
                and type(item[0]) is type(item[1]) is int):
            raise FileFormatError(
                f"{source}: edges[{k}] must be a pair of integers")
        u, v = item
        if not (0 <= u < v < n):
            raise FileFormatError(
                f"{source}: edges[{k}] = [{u}, {v}] must satisfy "
                f"0 <= u < v < {n}")
        if (u, v) in edges:
            raise FileFormatError(f"{source}: duplicate edge [{u}, {v}]")
        edges[u, v] = None
    return list(edges)


def parse_graph(text: str, source: str = "<input>") -> Graph:
    doc = _parse(text, source)
    n = _require_n(doc, source)
    names = _require_names(doc, n, source)
    return Graph.from_edges(n, _require_edges(doc, n, source), names)


def parse_embedding(text: str, source: str = "<input>") -> EmbeddedGraph:
    doc = _parse(text, source)
    n = _require_n(doc, source)
    names = _require_names(doc, n, source)
    rots = doc.get("rotations")
    if not (isinstance(rots, list) and len(rots) == n):
        raise FileFormatError(f"{source}: 'rotations' must list {n} "
                              f"neighbor orders")
    for v, rot in enumerate(rots):
        if not (isinstance(rot, list)
                and all(type(u) is int and 0 <= u < n for u in rot)):
            raise FileFormatError(
                f"{source}: rotations[{v}] must list vertex indices in "
                f"[0, {n})")
        if v in rot:
            raise FileFormatError(f"{source}: rotations[{v}] contains a "
                                  f"loop")
    raw_signs = doc.get("signs")
    if not isinstance(raw_signs, list):
        raise FileFormatError(f"{source}: 'signs' must be a list")
    rotations = tuple(map(tuple, rots))
    try:
        darts = _number_darts(rotations, raw_signs, names)
        e = EmbeddedGraph(Graph(n, tuple(map(frozenset, rotations)), names),
                          rotations, {(u, v): s for u, v, s in raw_signs})
    except GraphError as exc:
        raise FileFormatError(f"{source}: {exc}")
    e._kept["_darts"] = darts
    return e


def read_text(path: str) -> tuple[str, str]:
    """(content, source label); path '-' reads standard input."""
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror}")


def load_graph(path: str) -> Graph:
    return parse_graph(*read_text(path))


def load_embedding(path: str) -> EmbeddedGraph:
    return parse_embedding(*read_text(path))


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def dump_graph(g: Graph) -> str:
    doc: dict[str, Any] = {"version": FORMAT_VERSION, "n": g.n}
    if g.names != tuple(map(str, range(g.n))):
        doc["names"] = list(g.names)
    doc["edges"] = [list(e) for e in g.edges]
    return json.dumps(doc, indent=1) + "\n"


def dump_embedding(e: EmbeddedGraph) -> str:
    g = e.graph
    doc: dict[str, Any] = {"version": FORMAT_VERSION, "n": g.n}
    if g.names != tuple(map(str, range(g.n))):
        doc["names"] = list(g.names)
    doc["rotations"] = [list(r) for r in e.rotations]
    doc["signs"] = [[u, v, e.signs[(u, v)]] for u, v in g.edges]
    return json.dumps(doc, indent=1) + "\n"


def dump_report(report: dict) -> str:
    """Reports keep insertion order and serialize null for inapplicable
    fields."""
    return json.dumps(report, indent=1) + "\n"


def write_text(path: Optional[str], text: str,
               out: Optional[TextIO] = None) -> None:
    if path is None or path == "-":
        (out or sys.stdout).write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
