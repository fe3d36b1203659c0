"""Platonic-solid vertex ensembles and their shell solutions.

Vertex sets are generated at unit circumradius and scaled. Each solid also
carries two reference values for the optimum: the symmetric-shell value
(1 + b)/N, and an edge-length form (1 + coeff * a)/N built from a published
coefficient table. The dodecahedron row of that table is inconsistent with
the actual vertex geometry (the published 1/3 versus the measured
circumradius-to-edge ratio sqrt(3)(1 + sqrt(5))/4 ~ 1.401); the shell value
is the one the oracle confirms, and edge_coefficient_report lays the two
side by side rather than silently correcting the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import DISTINCT_VERTEX_TOL, EDGE_COEFFICIENT_TOL, WeightedEnsemble

__all__ = [
    "PLATONIC_KINDS",
    "PRINTED_EDGE_COEFFICIENTS",
    "EDGE_COEFFICIENT_TOL",
    "PlatonicSolid",
    "PlatonicReference",
    "platonic_vertices",
    "unit_edge_length",
    "measured_edge_coefficient",
    "platonic_ensemble",
    "edge_coefficient_report",
]

PLATONIC_KINDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# circumradius / edge, as published; the dodecahedron entry does not match
# the vertex geometry (see module docstring)
PRINTED_EDGE_COEFFICIENTS = {
    "tetrahedron": math.sqrt(3.0 / 8.0),
    "cube": math.sqrt(3.0) / 2.0,
    "octahedron": math.sqrt(2.0) / 2.0,
    "dodecahedron": 1.0 / 3.0,
    "icosahedron": math.sqrt(5.0 + math.sqrt(5.0)) / (2.0 * math.sqrt(2.0)),
}


def _cyclic(rows):
    out = []
    for x, y, z in rows:
        out.extend([(x, y, z), (z, x, y), (y, z, x)])
    return out


def platonic_vertices(kind: str) -> np.ndarray:
    """Vertex coordinates at unit circumradius, centered at the origin."""
    if kind == "tetrahedron":
        raw = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif kind == "cube":
        raw = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    elif kind == "octahedron":
        raw = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    elif kind == "icosahedron":
        raw = _cyclic(
            [(0.0, sy, sz * _GOLDEN) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
        )
    elif kind == "dodecahedron":
        raw = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        raw += _cyclic(
            [(0.0, sy / _GOLDEN, sz * _GOLDEN) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
        )
    else:
        raise ValueError(f"unknown solid kind {kind!r}")
    verts = np.asarray(raw, dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts


def unit_edge_length(kind: str) -> float:
    """Edge length of the solid at unit circumradius (nearest-vertex distance)."""
    verts = platonic_vertices(kind)
    diff = verts[:, None, :] - verts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    return float(dist[dist > DISTINCT_VERTEX_TOL].min())


def measured_edge_coefficient(kind: str) -> float:
    """Circumradius over edge, measured from the generated vertex set."""
    return 1.0 / unit_edge_length(kind)


@dataclass(frozen=True)
class PlatonicSolid:
    """A Platonic vertex set scaled to circumradius `scale` inside the ball."""

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PLATONIC_KINDS:
            raise ValueError(f"unknown solid kind {self.kind!r}")
        if not (0.0 < self.scale <= 1.0):
            raise ValueError(f"scale = {self.scale!r} outside (0, 1]")

    @property
    def n(self) -> int:
        return len(platonic_vertices(self.kind))

    def vertices(self) -> np.ndarray:
        return self.scale * platonic_vertices(self.kind)

    def edge(self) -> float:
        return self.scale * unit_edge_length(self.kind)


@dataclass(frozen=True)
class PlatonicReference:
    """The optimum computed along both reference routes for comparison."""

    edge_formula_p: float   # (1 + printed coefficient * edge)/N
    shell_formula_p: float  # (1 + circumradius)/N


def platonic_ensemble(solid: PlatonicSolid):
    """Equiprobable ensemble on the solid's vertices, plus both reference values."""
    verts = solid.vertices()
    n = len(verts)
    ensemble = WeightedEnsemble([1.0 / n] * n, verts)
    reference = PlatonicReference(
        edge_formula_p=(1.0 + PRINTED_EDGE_COEFFICIENTS[solid.kind] * solid.edge()) / n,
        shell_formula_p=(1.0 + solid.scale) / n,
    )
    return ensemble, reference


def edge_coefficient_report() -> str:
    """Tabulate printed versus measured circumradius/edge for all five solids."""
    lines = [
        "edge coefficient check (circumradius / edge length)",
        f"{'solid':<14}{'printed':>12}{'measured':>12}{'|diff|':>12}  status",
    ]
    for kind in PLATONIC_KINDS:
        printed = PRINTED_EDGE_COEFFICIENTS[kind]
        measured = measured_edge_coefficient(kind)
        diff = abs(printed - measured)
        status = "ok" if diff <= EDGE_COEFFICIENT_TOL else "MISMATCH (measured value is authoritative)"
        lines.append(f"{kind:<14}{printed:>12.8f}{measured:>12.8f}{diff:>12.2e}  {status}")
    return "\n".join(lines)
