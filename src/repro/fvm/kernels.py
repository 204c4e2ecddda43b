"""Vectorised numerical kernels called from generated solver code.

These are the numeric building blocks the code generator emits calls to
(keeping generated source short, readable and correct while the numerics
stay in tested library code).  All kernels are shape-polymorphic over a
leading component axis: arguments are ``(nfaces,)``/``(ncells,)`` or
``(ncomp, nfaces)``/``(ncomp, ncells)``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Working-set budget of one component-row tile: the bytes of one
#: ``(rows, nfaces)`` float64 face array.  A tile keeps about three such
#: arrays live (the upwinded side, the row-gathered projection table, the
#: flux) plus its cell-sized source/update temporaries, and at 512 KiB they
#: all stay inside a 4 MiB L2.  Measured, not configured — the sweep is in
#: EXPERIMENTS.md ("Step-invariant tables"): with half the live arrays the
#: tabled body had before, step time is flat within noise from ~380 KiB to
#: ~1.5 MiB and rises on both sides (per-tile call overhead below, L2
#: spills above), so the constant stays where it was.
TILE_BYTES = 512 * 1024


def tile_rows(nfaces: int, ncomp: int) -> int:
    """Component rows per tile for face arrays ``nfaces`` wide."""
    return min(ncomp, max(1, TILE_BYTES // (8 * nfaces)))


def row_tiles(rows, ncomp: int, height: int) -> Iterator:
    """Split a component-row selector into tiles of at most ``height`` rows.

    ``rows`` is a slice or a sorted index array (a ``comp_blocks`` entry, a
    rank's owned components, a kernel chunk); each tile is a selector of
    the same kind over the same rows, in order.
    """
    if isinstance(rows, slice):
        start, stop, _ = rows.indices(ncomp)
        for lo in range(start, stop, height):
            yield slice(lo, min(lo + height, stop))
    else:
        for lo in range(0, len(rows), height):
            yield rows[lo:lo + height]


def gather_upwind(cells: np.ndarray, columns: np.ndarray, table_rows: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The upwinded face side of a tile: ``result[i, f] = cells[i,
    columns[table_rows[i], f]]``, ``columns`` being the generated code's
    ``upw`` table (per value of the indices the flow direction depends on,
    the column of ``cells`` each face reads).  One ``np.take`` per run of
    equal ``table_rows`` — a tile that straddles two is segmented — into the
    leading rows of ``out`` when given."""
    n = len(cells)
    out = np.empty((n, columns.shape[1])) if out is None else out[:n]
    lo = 0
    for hi in (*(np.flatnonzero(table_rows[1:] != table_rows[:-1]) + 1), n):
        # mode='clip' only skips take's bounds-check buffering of ``out``
        np.take(cells[lo:hi], columns[table_rows[lo]], axis=1, out=out[lo:hi],
                mode="clip")
        lo = hi
    return out


def store_columns(u: np.ndarray, rows, columns: np.ndarray, values: np.ndarray) -> None:
    """``u[rows, columns] = values[:, columns]`` for a slice or index-array
    ``rows``: a cell-partitioned rank advances only the mesh columns it owns."""
    if not isinstance(rows, slice):
        rows = rows[:, None]
    u[rows, columns] = values[:, columns]


def upwind_flux(vn: np.ndarray, u_owner: np.ndarray, u_neighbor: np.ndarray) -> np.ndarray:
    """First-order upwind advective flux per unit area.

    ``vn`` is the advection velocity projected on the owner-outward face
    normal.  Where ``vn > 0`` the flow leaves the owner, so the upstream
    value is the owner's; otherwise the neighbour's.  This is exactly the
    ``conditional(v.n > 0, (v.n)*CELL1_u, (v.n)*CELL2_u)`` of the paper's
    expanded symbolic form.
    """
    return np.where(vn > 0.0, vn * u_owner, vn * u_neighbor)


def central_flux(vn: np.ndarray, u_owner: np.ndarray, u_neighbor: np.ndarray) -> np.ndarray:
    """Central (average) advective flux — the ``average`` operator."""
    return vn * 0.5 * (u_owner + u_neighbor)


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod limiter: the smaller-magnitude argument when signs agree,
    zero otherwise (keeps MUSCL reconstructions TVD)."""
    same = (a * b) > 0.0
    return np.where(same, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def muscl_flux(geom, vn: np.ndarray, u: np.ndarray, ghost: np.ndarray | None = None
               ) -> np.ndarray:
    """Second-order limited-linear (MUSCL) upwind advective flux.

    Each side's face value is its cell value plus a Barth-Jespersen-limited
    linear extrapolation from the Green-Gauss cell gradient (no
    extrapolation may leave the range of the cell's face-neighbour values,
    so no new extrema are created); the upwind side is then selected by the
    sign of ``vn`` exactly as in :func:`upwind_flux`.  Boundary faces fall
    back to first order on the ghost side (the ghost value sits *at* the
    face under this library's convention).

    Parameters
    ----------
    geom:
        The :class:`~repro.fvm.geometry.FVGeometry` (gradient operators and
        face-offset vectors).
    vn:
        Velocity projected on the owner-outward normal, ``(..., nfaces)``.
    u / ghost:
        Cell values ``(..., ncells)`` and boundary ghosts ``(..., nbfaces)``.
    """
    squeeze = u.ndim == 1
    u = np.atleast_2d(u)
    if ghost is not None:
        ghost = np.atleast_2d(ghost)
    u1, u2 = geom.gather_sides(u, ghost)
    ubar = 0.5 * (u1 + u2)
    # ghost values live AT the face: the Green-Gauss face value there is the
    # ghost itself, not the cell/ghost average
    ubar[..., geom.bfaces] = u2[..., geom.bfaces]
    grads = geom.green_gauss_gradient(ubar)  # per-axis (..., ncells)

    owner, neigh = geom.owner, geom.neighbor_safe
    du1 = np.zeros_like(u1)
    du2 = np.zeros_like(u2)
    for d in range(geom.dim):
        du1 += grads[d][..., owner] * geom.offset_owner[:, d]
        du2 += grads[d][..., neigh] * geom.offset_neighbor[:, d]

    # Barth-Jespersen: per-cell bounds over the cell and its face values
    # (boundary ghosts included), then the most restrictive scale factor
    umin = u.copy().T  # (ncells, ncomp) for index-first scatter ops
    umax = u.copy().T
    np.minimum.at(umin, owner, u2.T)
    np.maximum.at(umax, owner, u2.T)
    inter = geom.interior_mask
    np.minimum.at(umin, geom.neighbor[inter], u1.T[inter])
    np.maximum.at(umax, geom.neighbor[inter], u1.T[inter])

    def face_psi(d, cells):
        lo = (umin[cells] - u.T[cells]).T
        hi = (umax[cells] - u.T[cells]).T
        pos = d > 0
        neg = d < 0
        psi = np.ones_like(d)
        # denormal-small d overflows the ratio to inf; min(1, inf) is still
        # the right answer, so just silence the spurious warnings
        with np.errstate(over="ignore", divide="ignore"):
            psi = np.where(pos, np.minimum(1.0, hi / np.where(pos, d, 1.0)), psi)
            psi = np.where(neg, np.minimum(1.0, lo / np.where(neg, d, 1.0)), psi)
        return np.clip(psi, 0.0, 1.0)

    psi1 = face_psi(du1, owner)
    psi2 = face_psi(du2, neigh)
    phi = np.ones_like(u).T  # (ncells, ncomp)
    np.minimum.at(phi, owner, psi1.T)
    np.minimum.at(phi, geom.neighbor[inter], psi2.T[inter])

    du1 *= phi[owner].T
    du2 *= phi[neigh].T
    # ghost values live at the face: no extrapolation on the outside
    du2[..., geom.bfaces] = 0.0

    flux = np.where(vn > 0.0, vn * (u1 + du1), vn * (u2 + du2))
    return flux[0] if squeeze else flux


def axpy(y: np.ndarray, a: float, x: np.ndarray) -> np.ndarray:
    """In-place ``y += a * x``."""
    y += a * x
    return y


def masked_scale(values: np.ndarray, mask: np.ndarray, scale: float) -> np.ndarray:
    """``values * scale`` where ``mask``, else ``values`` (no copy of falses)."""
    out = values.copy()
    out[..., mask] *= scale
    return out


def reduction_sum(values: np.ndarray, weights: np.ndarray | None = None, axis: int = 0) -> np.ndarray:
    """Weighted sum along an axis (the band/direction energy reductions)."""
    if weights is None:
        return values.sum(axis=axis)
    w = np.asarray(weights, dtype=np.float64)
    shape = [1] * values.ndim
    shape[axis] = len(w)
    return (values * w.reshape(shape)).sum(axis=axis)


def flop_count_upwind(ncomp: int, nfaces: int, dim: int) -> int:
    """Estimated floating-point operations of one upwind flux evaluation.

    Used by the simulated-GPU timing model: dot product (2*dim-1), compare,
    select multiply -> per face-component.
    """
    per = (2 * dim - 1) + 1 + 1
    return per * ncomp * nfaces


def flop_count_euler(ncomp: int, ncells: int) -> int:
    """FLOPs of the per-cell Euler update (3 per value)."""
    return 3 * ncomp * ncells


__all__ = [
    "TILE_BYTES",
    "tile_rows",
    "row_tiles",
    "gather_upwind",
    "store_columns",
    "upwind_flux",
    "central_flux",
    "axpy",
    "masked_scale",
    "reduction_sum",
    "flop_count_upwind",
    "flop_count_euler",
]
