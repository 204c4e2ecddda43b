"""Geometric primitives for polygonal/brick cells.

2-D cells are arbitrary simple polygons (counter-clockwise node order); 3-D
support covers axis-aligned bricks, which is all the structured generator
produces and all the paper's runs use (uniform grids).

Every primitive takes one polygon/edge/face or a stack of them (any leading
axes): the mesh builder calls them once per group of equally sized cells.
The operation order is fixed — ``x*roll(y) - roll(x)*y``, ``np.sum`` over
the node axis, ``/(6*area)``, a BLAS dot per row — because the bytes of the
resulting mesh arrays are a contract (``tests/mesh/reference_build.py``).
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import MeshError


def _shoelace(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, y = coords[..., 0], coords[..., 1]
    return x, y, x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y


def polygon_area(coords: np.ndarray) -> np.ndarray:
    """Signed shoelace area of ``(..., k, 2)`` polygons (positive for CCW order)."""
    return 0.5 * np.sum(_shoelace(coords)[2], axis=-1)


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Area centroid of simple 2-D polygons: ``(..., k, 2) -> (..., 2)``."""
    x, y, cross = _shoelace(coords)
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(np.abs(area) < 1e-300):
        raise MeshError("degenerate polygon (zero area)")
    cx = np.sum((x + np.roll(x, -1, axis=-1)) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + np.roll(y, -1, axis=-1)) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def edge_outward_normal(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normal of edge p1->p2 pointing right of the traversal direction.

    For a CCW-ordered polygon, traversing its edges in order makes "right of
    travel" the *outward* direction.  Returns ``(normal, length)``.
    """
    d = p2 - p1
    length = np.hypot(d[..., 0], d[..., 1])
    if np.any(length <= 0.0):
        raise MeshError("degenerate edge (zero length)")
    return np.stack([d[..., 1], -d[..., 0]], axis=-1) / length[..., None], length


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row — the same BLAS dot, so the same
    rounding, as the scalar call (``einsum`` and ``(a*b).sum`` round differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def newell_normal_area(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normal and area of planar 3-D polygons ``(nfaces, k, 3)`` (Newell's method)."""
    n = np.zeros((len(coords), 3))
    for i in range(coords.shape[1]):
        n += np.cross(coords[:, i], coords[:, (i + 1) % coords.shape[1]])
    n *= 0.5
    area = np.sqrt(row_dot(n, n))
    if np.any(area <= 0.0):
        raise MeshError("degenerate 3-D face (zero area)")
    return n / area[:, None], area


def brick_volume(lo: np.ndarray, hi: np.ndarray) -> float:
    """Volume of an axis-aligned brick given min/max corners."""
    extent = hi - lo
    if np.any(extent <= 0):
        raise MeshError("degenerate brick (non-positive extent)")
    return float(np.prod(extent))


def cell_closure_residual(normals: np.ndarray, areas: np.ndarray) -> float:
    """Max-norm of ``sum_f A_f n_f`` over a cell's faces.

    For any closed cell this vanishes (discrete divergence theorem); the mesh
    validator and the property tests use it as the primary geometric
    invariant.
    """
    return float(np.abs((normals * areas[:, None]).sum(axis=0)).max())


__all__ = [
    "polygon_area",
    "polygon_centroid",
    "edge_outward_normal",
    "row_dot",
    "newell_normal_area",
    "brick_volume",
    "cell_closure_residual",
]
