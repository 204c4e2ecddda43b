"""Structured mesh generation (Finch's "simple generation utility").

:func:`structured_grid` builds uniform 1-D interval, 2-D quadrilateral or
3-D hexahedral meshes over a box.  Boundary faces are tagged with the region
convention used throughout the examples and the BTE application:

====== =========== ==========
region side (2-D)  side (1-D/3-D)
====== =========== ==========
1      x-min       x-min
2      x-max       x-max
3      y-min       y-min (3-D)
4      y-max       y-max (3-D)
5/6    --          z-min / z-max (3-D)
====== =========== ==========

A custom ``boundary_marker`` overrides this, which is how the BTE problem
maps its physical walls (cold wall / hot wall / symmetry pair) onto regions.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.mesh.mesh import Mesh, build_mesh
from repro.util.errors import MeshError


def _default_marker(lo: np.ndarray, hi: np.ndarray, dim: int) -> Callable[[np.ndarray, np.ndarray], int]:
    span = hi - lo
    tol = 1e-8 * float(np.max(span))

    def marker(center: np.ndarray, normal: np.ndarray) -> int:
        for axis in range(dim):
            if abs(center[axis] - lo[axis]) < tol and normal[axis] < 0:
                return 2 * axis + 1
            if abs(center[axis] - hi[axis]) < tol and normal[axis] > 0:
                return 2 * axis + 2
        raise MeshError(f"boundary face at {center} lies on no box side")

    return marker


_LO, _HI = slice(None, -1), slice(1, None)
_QUAD = [(_LO, _LO), (_HI, _LO), (_HI, _HI), (_LO, _HI)]  # CCW
#: per dimension, each cell corner as a (low | high) node choice per axis
#: (3-D: bottom then top quad, the Gmsh hexahedron order)
_CORNERS = {1: [(_LO,), (_HI,)], 2: _QUAD,
            3: [(*c, _LO) for c in _QUAD] + [(*c, _HI) for c in _QUAD]}


def _tensor_grid(axes: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``(nnodes, dim)`` and cells ``(ncells, 2**dim)`` of the tensor
    grid over per-axis node coordinates, x running fastest in both:
    node ``(i, j, k)`` has index ``(k*(ny+1) + j)*(nx+1) + i``."""
    counts = [len(a) for a in axes]
    nodes = np.stack([g.ravel(order="F") for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ids = np.arange(len(nodes)).reshape(counts, order="F")
    cells = np.stack([ids[c].ravel(order="F") for c in _CORNERS[len(axes)]], axis=1)
    return nodes, cells


def structured_grid(
    shape: Sequence[int],
    bounds: Sequence[tuple[float, float]] | None = None,
    boundary_marker: Callable[[np.ndarray, np.ndarray], int] | None = None,
    name: str | None = None,
    grading: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
) -> Mesh:
    """Tensor-product grid of ``shape`` cells over the box ``bounds``.

    Parameters
    ----------
    shape:
        Cells per axis, e.g. ``(120, 120)`` for the paper's BTE mesh.
    bounds:
        ``[(lo, hi), ...]`` per axis; defaults to the unit box.
    boundary_marker:
        Optional ``f(center, normal) -> region`` tag function.
    grading:
        Optional per-axis node-spacing maps: each entry is ``None``
        (uniform) or a strictly increasing function on [0, 1] with
        ``g(0) = 0`` and ``g(1) = 1`` applied to the normalised node
        coordinates — e.g. ``lambda s: s**2`` clusters cells toward the
        low end of the axis (useful for boundary layers / the hot spot).

    Examples
    --------
    >>> mesh = structured_grid((120, 120), [(0.0, 525e-6), (0.0, 525e-6)])
    >>> mesh.ncells
    14400
    """
    shape = tuple(int(n) for n in shape)
    dim = len(shape)
    if dim not in (1, 2, 3):
        raise MeshError(f"structured_grid supports 1-3 dimensions, got {dim}")
    if any(n < 1 for n in shape):
        raise MeshError(f"all axis sizes must be >= 1, got {shape}")
    if bounds is None:
        bounds = [(0.0, 1.0)] * dim
    if len(bounds) != dim:
        raise MeshError(f"bounds has {len(bounds)} axes but shape has {dim}")
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if np.any(hi <= lo):
        raise MeshError("each bounds pair must satisfy hi > lo")
    if grading is not None and len(grading) != dim:
        raise MeshError(f"grading has {len(grading)} axes but shape has {dim}")

    axes = []
    for a in range(dim):
        s = np.linspace(0.0, 1.0, shape[a] + 1)
        g = grading[a] if grading is not None else None
        if g is not None:
            s = np.asarray(g(s), dtype=np.float64)
            if s.shape != (shape[a] + 1,):
                raise MeshError(f"grading for axis {a} changed the node count")
            if abs(s[0]) > 1e-12 or abs(s[-1] - 1.0) > 1e-12:
                raise MeshError(f"grading for axis {a} must map 0->0 and 1->1")
            if np.any(np.diff(s) <= 0):
                raise MeshError(f"grading for axis {a} is not strictly increasing")
        axes.append(lo[a] + (hi[a] - lo[a]) * s)

    nodes, cells = _tensor_grid(axes)
    marker = boundary_marker or _default_marker(lo, hi, dim)
    label = name or f"grid{'x'.join(str(s) for s in shape)}"
    mesh = build_mesh(nodes, cells, dim=dim, boundary_marker=marker, name=label)
    mesh.metadata["structured_shape"] = shape
    mesh.metadata["bounds"] = [(float(a), float(b)) for a, b in zip(lo, hi)]
    return mesh


def interval_mesh(n: int, lo: float = 0.0, hi: float = 1.0) -> Mesh:
    """1-D convenience wrapper: ``n`` uniform cells on ``[lo, hi]``."""
    return structured_grid((n,), [(lo, hi)])


def perturbed_grid(
    shape: Sequence[int],
    bounds: Sequence[tuple[float, float]] | None = None,
    amplitude: float = 0.25,
    seed: int = 0,
    boundary_marker: Callable[[np.ndarray, np.ndarray], int] | None = None,
    name: str | None = None,
) -> Mesh:
    """A 2-D quad grid with randomly jittered *interior* nodes.

    ``amplitude`` is the jitter as a fraction of the local cell size
    (<= 0.45 keeps all quads convex in practice).  Boundary nodes stay put,
    so region tagging matches :func:`structured_grid`.  Used to exercise
    the FV machinery on genuinely non-orthogonal cells.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) != 2:
        raise MeshError("perturbed_grid is 2-D only")
    if not (0.0 <= amplitude < 0.5):
        raise MeshError(f"amplitude must be in [0, 0.5), got {amplitude}")
    base = structured_grid(shape, bounds, boundary_marker, name=name or
                           f"perturbed{shape[0]}x{shape[1]}")
    nx, ny = shape
    lo = np.array([b[0] for b in (bounds or [(0.0, 1.0)] * 2)])
    hi = np.array([b[1] for b in (bounds or [(0.0, 1.0)] * 2)])
    h = (hi - lo) / np.array([nx, ny])
    rng = np.random.default_rng(seed)
    nodes = base.nodes.copy()
    interior = nodes.reshape(ny + 1, nx + 1, 2)[1:-1, 1:-1]  # a view, row-major like the draws
    interior += (rng.random(interior.shape) - 0.5) * 2.0 * amplitude * h
    cells = base.cell_node_indices.reshape(-1, 4)
    marker = boundary_marker or _default_marker(lo, hi, 2)
    mesh = build_mesh(nodes, cells, dim=2, boundary_marker=marker,
                      name=base.name)
    mesh.metadata["perturbed_amplitude"] = amplitude
    return mesh


def triangulated_grid(
    shape: Sequence[int],
    bounds: Sequence[tuple[float, float]] | None = None,
    boundary_marker: Callable[[np.ndarray, np.ndarray], int] | None = None,
    name: str | None = None,
) -> Mesh:
    """2-D unstructured-style mesh: each grid quad split into two triangles.

    Diagonals alternate in a crisscross pattern so the triangulation has no
    global directional bias.  Box boundaries (and hence the default region
    tags) are identical to :func:`structured_grid`'s, so problems configured
    for quads — including the BTE decks — run unchanged on triangles,
    demonstrating the FV machinery's generality beyond tensor grids.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) != 2:
        raise MeshError("triangulated_grid is 2-D only")
    nx, ny = shape
    if nx < 1 or ny < 1:
        raise MeshError(f"all axis sizes must be >= 1, got {shape}")
    if bounds is None:
        bounds = [(0.0, 1.0), (0.0, 1.0)]
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if np.any(hi <= lo):
        raise MeshError("each bounds pair must satisfy hi > lo")

    nodes, quads = _tensor_grid([np.linspace(lo[0], hi[0], nx + 1),
                                 np.linspace(lo[1], hi[1], ny + 1)])
    a, b, c, d = quads.T
    # quad (i, j) splits along a-c when i + j is even, else along b-d
    even = ((np.arange(nx)[None, :] + np.arange(ny)[:, None]) % 2 == 0).ravel()
    cells = np.stack([np.stack([a, b, np.where(even, c, d)], axis=1),
                      np.stack([np.where(even, a, b), c, d], axis=1)],
                     axis=1).reshape(-1, 3)

    marker = boundary_marker or _default_marker(lo, hi, 2)
    label = name or f"tri{nx}x{ny}"
    mesh = build_mesh(nodes, cells, dim=2, boundary_marker=marker, name=label)
    mesh.metadata["triangulated_shape"] = shape
    return mesh


__all__ = ["structured_grid", "interval_mesh", "triangulated_grid", "perturbed_grid"]
