"""Vectorised numerical kernels called from generated solver code.

These are the numeric building blocks the code generator emits calls to
(keeping generated source short, readable and correct while the numerics
stay in tested library code).  All kernels are shape-polymorphic over a
leading component axis: arguments are ``(nfaces,)``/``(ncells,)`` or
``(ncomp, nfaces)``/``(ncomp, ncells)``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

#: Working-set budget of one component-row tile: the bytes of one
#: ``(rows, nfaces)`` float64 face array — the unit the height is derived in,
#: whatever the body keeps live.  A folded tile (the BTE's) has no face array
#: at all: it keeps five ``(rows, ncells)`` arrays live (the statements'
#: registers, the accumulator, its work array, the rows of the unknown its
#: entries read through shifted views), each half a budget wide, plus the
#: folded operator's rows of the one or two directions it spans; a two-sided
#: tile adds two face arrays (the gathered sides, the flux).  At 512 KiB
#: either stays inside a 4 MiB L2.  The Newton closure (``bte.equilibrium``)
#: sizes its cell blocks by the same constant: one ``(nbands, block)`` array
#: per budget, about six live.  Measured, not
#: configured — the sweeps are in EXPERIMENTS.md ("No allocation in steady
#: state", re-run on the folded body under "Hoist through the divergence"):
#: step time is flat within noise from ~256 KiB to ~768 KiB for either tile
#: body and rises outside (per-tile call overhead below, L2 spills above);
#: the closure alone is flat from ~128 KiB and 0.45 ms (under 1 % of a step)
#: better unblocked, which is not worth a second constant, so this one stays
#: where it was.
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


def table_runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, value)`` of every maximal run of equal consecutive integer
    ``values``."""
    cuts = [0, *((values[1:] != values[:-1]).nonzero()[0] + 1).tolist(), len(values)]
    return [(lo, hi, int(values[lo])) for lo, hi in zip(cuts, cuts[1:])]


def row_selector(idx: np.ndarray, table: bool = False):
    """How to read the rows ``idx`` of an array without a copy where a view
    will do: a slice when they are consecutive — of a ``table`` also when
    they are all one row, read as a broadcastable ``(1, n)`` view — else
    ``idx`` itself: a gather (:func:`rows_of`)."""
    if table and (idx == idx[0]).all():
        return slice(int(idx[0]), int(idx[0]) + 1)
    if (idx[1:] - idx[:-1] == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def rows_of(a: np.ndarray, rows, out: np.ndarray | None = None) -> np.ndarray:
    """``a[rows]`` for a :func:`row_selector`: the view, or the rows gathered
    into the leading rows of ``out`` (a fresh array without one)."""
    if rows.__class__ is slice:
        return a[rows]
    return a.take(rows, axis=0, out=None if out is None else out[:len(rows)], mode="clip")


def tile_plan(cache: dict, rows, ncomp: int, height: int, row_maps: tuple = (),
              blocks=None) -> list[tuple]:
    """What a sweep over the component rows ``rows`` (a slice, a sorted index
    array, ``None``: all; ``blocks(rows)``: the selectors swept one after the
    other) in tiles of ``height`` rows derives from the rows alone, once
    instead of per tile per step: per tile ``(sel, n, *reads)`` — its rows as
    a :func:`row_selector`, their number, and per map of ``row_maps``
    (component -> table row) the table rows it reads (a table
    :func:`row_selector`) and their :func:`table_runs`.  Kept in ``cache`` —
    a solver state's, a bound kernel source's — under what the rows are;
    built again for other ``row_maps`` (a recompiled source)."""
    key = (height, rows if rows is None else rows.indices(ncomp)
           if isinstance(rows, slice) else rows.tobytes())
    held = cache.get(key)
    if held is None or held[0] is not row_maps:
        tiles, every = [], np.arange(ncomp)
        for block in blocks(rows) if blocks else [slice(None) if rows is None else rows]:
            for sel in row_tiles(block, ncomp, height):
                idx = every[sel]
                reads = [read for mapped in (row_of[idx] for row_of in row_maps)
                         for read in (row_selector(mapped, table=True), table_runs(mapped))]
                tiles.append((row_selector(idx), len(idx), *reads))
        held = cache[key] = (row_maps, tiles)
    return held[1]


def entry_slots(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int],
                row_ids: np.ndarray | None = None, col_ids: np.ndarray | None = None,
                ) -> list[tuple[np.ndarray, np.ndarray, object]]:
    """Gather form of a sparse operator (cells x faces) given as COO entries:
    for the ``k``-th stored entry of every row, ``(faces, weights, where)`` —
    its column, its value, and the rows that have a ``k``-th entry: ``True``
    (all of them), a mask over the rows (most of them; ``faces``/``weights``
    are padded), or the row ids (few of them, e.g. a boundary-face operator;
    ``faces``/``weights`` cover just those).  A row's entries are stored by
    column, as a canonical CSR matrix stores them.  ``row_ids``/``col_ids``
    (sorted) restrict the operator to those rows/columns, renumbered by
    position: ``matrix[row_ids][:, col_ids]`` without a matrix."""
    def renumber(index: np.ndarray, ids: np.ndarray | None, n: int) -> tuple[np.ndarray, int]:
        if ids is None:
            return index, n
        position = np.full(n, -1, dtype=np.intp)
        position[ids] = np.arange(len(ids))
        return position[index], len(ids)

    rows, nrows = renumber(rows, row_ids, shape[0])
    cols, _ = renumber(cols, col_ids, shape[1])
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    keep = keep[np.lexsort((cols[keep], rows[keep]))]
    indices, data = cols[keep], vals[keep]
    counts = np.bincount(rows[keep], minlength=nrows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    slots = []
    for k in range(int(counts.max(initial=0))):
        present = counts > k
        where = np.flatnonzero(present)
        if 2 * len(where) < len(counts):
            at = indptr[where] + k
        else:
            at = np.where(present, indptr[:-1] + k, 0)
            where = True if present.all() else present
        slots.append((indices[at].astype(np.intp), data[at], where))
    return slots


def csr_slots(matrix) -> list[tuple[np.ndarray, np.ndarray, object]]:
    """:func:`entry_slots` of a scipy CSR matrix (canonical: sorted indices)."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return entry_slots(rows, matrix.indices, matrix.data, matrix.shape)


class FoldedOperator(NamedTuple):
    """A cell-centric operator with a face table and an upwind column choice
    folded in (:func:`fold_upwind`): per table row ``r``, ``own[r]``
    multiplies every cell's own value, and each entry ``(cells, read,
    weights)`` of ``entries[r]``, in order, adds ``weights`` times the
    values ``read`` into ``cells``.  An entry is an *offset* entry — ``read``
    is ``cells`` shifted by a constant number of cells, a slice — or a
    *gather* entry — ``cells`` is every cell and ``read`` an index array, a
    cell without the entry padded with itself.  Where a cell of ``cells``
    has no entry, its weight is zero."""

    own: np.ndarray
    entries: list[tuple[tuple[slice, slice | np.ndarray, np.ndarray], ...]]


def fold_upwind(slots, table: np.ndarray, columns: np.ndarray, ncells: int) -> FoldedOperator:
    """Fold what multiplies the unknown on its way through a gather-form
    operator (:func:`entry_slots`, ``ncells`` rows) into the operator: with
    ``table[r, f]`` a coefficient per (table row, face) and ``columns[r, f]``
    the cell face ``f`` reads under row ``r`` (the generated code's ``upw``
    table: one of the face's two cells, or a negative ghost slot), the
    cell-centric form of

        ``out[r, c] = sum_k weights_k[c] * table[r, f] * u[columns[r, f]]``,  ``f = faces_k[c]``

    The faces that read cell ``c`` itself collapse into one coefficient,
    summed in slot order; every other face keeps its own entry; a face that
    reads a ghost slot contributes nothing (the boundary part owns it) and an
    exact-zero coefficient (a face parallel to the flow) is dropped.

    When every face has two cells, the entry of cell ``c``'s ``k``-th slot
    reads the other one: a fixed number of cells away, its offset.  If there
    are at most two offsets per slot (the planes then take no more room than
    the gather form's column and weight arrays) and every cell meets them in
    one order (:func:`_offset_planes`), the coefficients go into one plane
    per offset, in that order, and a row with no more planes than its cells
    have entries takes one offset entry per plane: the sum of every cell
    keeps its slot order.  That is every row of a structured grid or of a
    brick.  Every other row keeps gather entries (:func:`_gather_form`), and
    so does every row of a mesh without such planes (triangles, a scattered
    numbering), decided before anything of the planes' size is allocated."""
    planes = _offset_planes(slots, ncells, table.shape[1])
    if planes is None:
        return FoldedOperator(*_gather_form(slots, table, columns, ncells))
    offsets, faces, weights, cells = planes
    nrows, nplanes = len(table), len(offsets)
    shape = (nrows, nplanes, ncells)
    # per (row, plane, cell): the coefficient of the cell's face to that
    # offset, and whether that face reads the cell itself
    fold = table.take(faces.ravel(), axis=1, mode="clip").reshape(shape)
    fold *= weights
    inward = columns.take(faces.ravel(), axis=1, mode="clip").reshape(shape) == cells
    # from +0.0, plane by plane: every cell's slot order
    own = np.add.reduce(fold, axis=1, where=inward, initial=0.0)
    inward |= cells == ncells  # (no face to that offset: weight zero)
    np.copyto(fold, 0.0, where=inward)
    entry = fold != 0.0
    has = entry.any(axis=2)  # per (row, plane)
    shifted = has.sum(axis=1) == entry.sum(axis=1, dtype=np.int16).max(axis=1, initial=0)
    lo = entry.argmax(axis=2).tolist()
    hi = (ncells - entry[:, :, ::-1].argmax(axis=2)).tolist()
    # the operator keeps the planes' rows its offset entries read, no more
    has &= shifted[:, None]
    kept = iter(fold[has])
    del fold
    offsets, has = offsets.tolist(), has.tolist()
    entries = [tuple((slice(lo[r][p], hi[r][p]),
                      slice(lo[r][p] + offsets[p], hi[r][p] + offsets[p]),
                      next(kept)[lo[r][p]:hi[r][p]]) for p in range(nplanes) if has[r][p])
               for r in range(nrows)]
    gather = np.flatnonzero(~shifted)
    if len(gather):
        _, rows = _gather_form(slots, table[gather], columns[gather], ncells)
        for r, row in zip(gather.tolist(), rows):
            entries[r] = row
    return FoldedOperator(own, entries)


def _offset_planes(slots, ncells: int, nfaces: int) -> tuple | None:
    """The planes of :func:`fold_upwind`, from a gather-form operator over
    ``nfaces`` faces alone: ``(offsets, faces, weights, cells)`` — per plane
    its offset and, per cell, the face to that offset (``nfaces``: none),
    the weight of its entry and the cell itself (``ncells``: none) — in the
    order of the planes' mean slot.  ``None`` when there are no such
    planes: a face with one cell, more than two offsets per slot, or a cell
    that meets them out of that order (or one twice)."""
    nslots, cell = len(slots), np.arange(ncells)
    shape = (nslots, ncells)
    # per (slot, cell): its face (``nfaces``: none), weight, and cell + 1 (0: none)
    faces, weights, mark = np.empty(shape, np.intp), np.zeros(shape), np.zeros(shape)
    cell1 = cell + 1.0
    for s, (f, w, where) in enumerate(slots):
        if where is True:
            faces[s], weights[s], mark[s] = f, w, cell1
        elif where.dtype == bool:
            faces[s], weights[s] = np.where(where, f, nfaces), w
            np.copyto(mark[s], cell1, where=where)
        else:
            faces[s].fill(nfaces)
            faces[s, where], weights[s, where], mark[s, where] = f, w, cell1[where]
    # per face, the sum of its cells + 1: an entry's face's other cell + 1 is
    # that less its own; the offset (other - own + ncells) keys its plane
    total = np.bincount(faces.ravel(), mark.ravel(), nfaces + 1)
    if 2 * np.count_nonzero(total) != np.count_nonzero(mark):
        return None  # a face with one cell
    mark *= 2.0
    mark -= ncells
    key = (total[faces] - mark).astype(np.intp).ravel()  # (no entry: ncells)
    count = np.bincount(key, minlength=2 * ncells)
    count[ncells] = 0
    keys = count.nonzero()[0]
    if len(keys) > 2 * nslots:
        return None
    mean = np.bincount(key, np.arange(nslots).repeat(ncells), 2 * ncells)[keys] / count[keys]
    keys = keys[mean.argsort(kind="stable")]
    nplanes = len(keys)
    lookup = np.empty(2 * ncells, np.intp)
    lookup.fill(nplanes)
    lookup[keys] = np.arange(nplanes)
    rank = lookup[key].reshape(shape)  # per (slot, cell); no entry: nplanes
    # a cell's entries fill its first slots: their ranks must rise
    if not ((rank[1:] > rank[:-1]) | (rank[1:] == nplanes)).all():
        return None
    at = (rank * ncells + cell).ravel()  # (no entry: an extra plane, dropped)
    plane_faces = np.empty((nplanes + 1, ncells), np.intp)
    plane_faces.fill(nfaces)
    plane_weights = np.zeros((nplanes + 1, ncells))
    plane_faces.reshape(-1)[at] = faces.ravel()
    plane_weights.reshape(-1)[at] = weights.ravel()
    plane_faces = plane_faces[:-1]
    cells = np.where(plane_faces < nfaces, cell, ncells)
    return keys - ncells, plane_faces, plane_weights[:-1], cells


def _gather_form(slots, table: np.ndarray, columns: np.ndarray,
                 ncells: int) -> tuple[np.ndarray, list[tuple]]:
    """``(own, entries)`` of :func:`fold_upwind`'s rows ``table``/``columns``
    in gather form: entry ``k`` of a row holds the ``k``-th entry of every
    cell in slot order, a cell with fewer padded with itself at weight
    zero."""
    nrows, cell = len(table), np.arange(ncells)
    own = np.zeros((nrows, ncells))
    used = np.zeros((nrows, ncells), dtype=np.intp)  # entries so far, per (row, cell)
    out_cols: list[np.ndarray] = []
    out_weights: list[np.ndarray] = []
    coef, cols = np.empty((nrows, ncells)), np.empty((nrows, ncells), dtype=columns.dtype)
    for faces, weights, where in slots:
        if where is True or where.dtype == bool:
            # padded: a row without the entry gets weight zero, and is dropped
            table.take(faces, axis=1, out=coef, mode="clip")
            coef *= weights if where is True else np.where(where, weights, 0.0)
            columns.take(faces, axis=1, out=cols, mode="clip")
        else:
            coef.fill(0.0)
            coef[:, where] = weights * table[:, faces]
            cols[:, where] = columns[:, faces]
        inward = cols == cell
        np.add(own, coef, out=own, where=inward)  # (``own`` is never -0.0)
        live = ~inward & (cols >= 0) & (coef != 0.0)
        for k in range(int(used.max(initial=0)) + 1):  # live entries move up, in order
            move = live & (used == k)
            if not move.any():
                continue
            if k == len(out_cols):
                out_cols.append(np.tile(cell, (nrows, 1)))
                out_weights.append(np.zeros((nrows, ncells)))
            np.copyto(out_cols[k], cols, where=move)
            np.copyto(out_weights[k], coef, where=move)
        used += live
    return own, [tuple((slice(None), out_cols[k][r], out_weights[k][r]) for k in range(n))
                 for r, n in enumerate(used.max(axis=1, initial=0).tolist())]


def apply_folded(op: FoldedOperator, us: np.ndarray, runs: list[tuple[int, int, int]],
                 out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out[i] = own[r] * us[i] + sum of the entries of entries[r]`` for
    every ``(lo, hi, r)`` of ``runs`` and ``lo <= i < hi``: a
    :func:`fold_upwind` operator on one tile of rows of the unknown, per run
    of equal table rows (their :func:`table_runs`, from the tile plan) and in
    entry order, each row on its own (so neither the tile height nor the row
    selector changes a bit).  An offset entry multiplies a shifted view of
    the rows; a gather entry takes its columns first.  ``work`` is scratch of
    ``out``'s shape."""
    own, entries = op
    for lo, hi, r in runs:
        rows, acc, work_rows = us[lo:hi], out[lo:hi], work[lo:hi]
        np.multiply(rows, own[r], out=acc)
        for cells, read, weights in entries[r]:
            term, into = work_rows[:, cells], acc[:, cells]
            if read.__class__ is slice:
                np.multiply(rows[:, read], weights, out=term)
            else:
                rows.take(read, axis=1, out=term, mode="clip")
                np.multiply(term, weights, out=term)
            np.add(into, term, out=into)
    return out


def slot_divergence(slots, flux: np.ndarray, out: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """``out[:, c] = sum_k weights_k[c] * flux[:, faces_k[c]]`` over the
    :func:`csr_slots` of an operator — what ``(matrix @ flux.T).T`` computes,
    bit for bit (accumulated from ``+0.0`` in storage order, so a ``-0.0``
    product leaves ``+0.0`` as CSR does), in the tile's own row layout: no
    transposed copy in, no strided read back.  ``work`` is contiguous scratch
    of at least ``out``'s size for the later slots most rows have."""
    # when every row has a first entry, slot 0 is formed in ``out`` itself,
    # ``0.0 + product`` over whatever it held; otherwise start from zeros
    overwrite = bool(slots) and slots[0][2] is True
    if not overwrite:
        out.fill(0.0)
    for k, (faces, weights, where) in enumerate(slots):
        if where is not True and where.dtype != bool:  # a few rows: in place
            out[:, where] += weights * flux[:, faces]
            continue
        if overwrite and k == 0:
            term = out
        else:
            if work is None or work.size < out.size:
                work = np.empty_like(out)
            elif work.shape != out.shape:  # larger scratch: its leading part
                work = work.reshape(-1)[:out.size].reshape(out.shape)
            term = work
        flux.take(faces, axis=1, out=term, mode="clip")
        np.multiply(term, weights, out=term)
        if term is out:
            np.add(out, 0.0, out=out)
        else:
            np.add(out, term, out=out, where=where)
    return out


def store_columns(u: np.ndarray, rows, columns: np.ndarray, values: np.ndarray,
                  out: np.ndarray | None = None) -> None:
    """``u[rows, columns] = values[:, columns]`` for a slice or index-array
    ``rows``: a cell-partitioned rank advances only the mesh columns it owns.
    ``out`` is contiguous scratch of ``values``' shape for the picked columns."""
    if out is not None:
        out = out.reshape(-1)[:len(values) * len(columns)].reshape(len(values), -1)
    if not isinstance(rows, slice):
        rows = rows[:, None]
    u[rows, columns] = values.take(columns, axis=1, out=out, mode="clip")


def muscl_flux(geom, vn: np.ndarray, u: np.ndarray, ghost: np.ndarray | None = None
               ) -> np.ndarray:
    """Second-order limited-linear (MUSCL) upwind advective flux.

    Each side's face value is its cell value plus a Barth-Jespersen-limited
    linear extrapolation from the Green-Gauss cell gradient (no
    extrapolation may leave the range of the cell's face-neighbour values,
    so no new extrema are created); the upwind side is then selected by the
    sign of ``vn``: the owner's where ``vn > 0``, else the neighbour's.
    Boundary faces fall back to first order on the ghost side (the ghost
    value sits *at* the face under this library's convention).

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


__all__ = [
    "TILE_BYTES",
    "tile_rows",
    "row_tiles",
    "table_runs",
    "row_selector",
    "rows_of",
    "tile_plan",
    "entry_slots",
    "csr_slots",
    "FoldedOperator",
    "fold_upwind",
    "apply_folded",
    "slot_divergence",
    "store_columns",
    "muscl_flux",
]
