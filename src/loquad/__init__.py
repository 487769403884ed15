"""Lovász complexes of surface quadrangulations.

Builds the Lovász complex of a graph, recognizes when it is a closed
surface, validates quadrangulations given by signed rotation systems,
verifies the double-cover correspondence in both directions, and computes
the Z2-invariants (oddness, gray-triangle parity, cohomological index)
with independent brute-force oracles.
"""

from .graphs import Graph
from .complexes import LovaszComplex, SimplicialComplex, lovasz_complex
from .embeddings import (EmbeddedGraph, embedded, lovasz_from_quadrangulation,
                         lovasz_quotient_embedding, trace_faces)
from .surfaces import SurfaceClass, check_surface, classify
from .invariants import GrayReport, invariant_report, verify_theorems

__all__ = [
    "Graph", "SimplicialComplex", "LovaszComplex", "lovasz_complex",
    "EmbeddedGraph", "embedded", "trace_faces",
    "lovasz_from_quadrangulation", "lovasz_quotient_embedding",
    "SurfaceClass", "check_surface", "classify",
    "GrayReport", "invariant_report", "verify_theorems",
]

__version__ = "0.1.0"
