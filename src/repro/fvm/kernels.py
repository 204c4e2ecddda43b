"""Numerical building blocks of the finite-volume operators.

What a generated sweep reads is built here once per state: the
divergence's storage order (:func:`entry_rows`, the CSR rows a C face loop
reads) and the upwinded surface statement folded through those rows into
one cell-centric operator (:func:`fold_upwind`, read by the C tile).
The NumPy forms of what the C sweeps compute stay for what is not a
generated sweep: :func:`slot_divergence` (the oracles, the probes),
:func:`reduce_rows` (a declared reduction outside an Euler sweep) and the
one limiter, :func:`muscl_flux`, which a ``flux_order(2)`` sweep evaluates
over its rows before the call.  Arguments are ``(nfaces,)``/``(ncells,)``
or ``(ncomp, nfaces)``/``(ncomp, ncells)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.util.errors import CodegenError

def table_runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, value)`` of every maximal run of equal consecutive integer
    ``values``."""
    cuts = [0, *((values[1:] != values[:-1]).nonzero()[0] + 1).tolist(), len(values)]
    return [(lo, hi, int(values[lo])) for lo, hi in zip(cuts, cuts[1:])]


def entry_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int],
               row_ids: np.ndarray | None = None, col_ids: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sparse operator (cells x faces) given as COO entries, as a canonical
    CSR matrix stores it: ``(indptr, indices, data)``, a row's entries by
    column.  ``row_ids``/``col_ids`` (sorted) restrict the operator to those
    rows/columns, renumbered by position: ``matrix[row_ids][:, col_ids]``
    without a matrix."""
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
    counts = np.bincount(rows[keep], minlength=nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, cols[keep].astype(np.int64), vals[keep]


def row_slots(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR rows ``(indptr, indices, data)`` of :func:`entry_rows` slot by
    slot: ``(faces, weights, present)``, each ``(slots, rows)``, slot ``k``
    the ``k``-th stored entry of every row — its column and its value where
    the row has one (``present``), padded with the operator's first entry
    elsewhere (every reader masks it by ``present``)."""
    indptr, indices, data = rows
    counts = np.diff(indptr)
    k = np.arange(counts.max(initial=0))[:, None]
    present = counts > k
    at = np.where(present, indptr[:-1] + k, 0)
    return indices[at].astype(np.intp), data[at], present


class FoldedOperator(NamedTuple):
    """A cell-centric operator with a face table and an upwind column choice
    folded in (:func:`fold_upwind`), the layout the C tile reads: per table row ``r``, ``own[r]`` multiplies every cell's
    own value, then each entry ``(lo, hi, shift, gather, weight)`` of
    ``entries[begin[r]:begin[r + 1]]``, in order, adds into the cells ``lo <=
    c < hi`` ``weights[weight + c - lo]`` times the value at ``c + shift`` (an
    *offset* entry, ``gather < 0``) or at ``indices[gather + c - lo]`` (a
    *gather* entry: every cell, one without the entry read at weight zero)."""

    own: np.ndarray
    begin: np.ndarray
    entries: np.ndarray
    weights: np.ndarray
    indices: np.ndarray

    def check(self, n: int) -> None:
        """Every index inside the arrays, for rows of ``n`` cells (before a
        generated sweep is handed their pointers)."""
        own, begin, entries, weights, indices = self
        if not laid_out(zip(self, (np.float64, np.int64, np.int64, np.float64, np.int64),
                            (2, 1, 2, 1, 1))) \
                or own.shape[1] != n or len(begin) != len(own) + 1 or entries.shape[1] != 5:
            raise CodegenError("a folded operator over other cells")
        lo, hi, shift, gather, weight = entries.T
        width = hi - lo
        if not ((np.diff(begin) >= 0).all() and begin[0] == 0 and begin[-1] == len(entries)
                and (lo >= 0).all() and (width >= 0).all() and (hi <= n).all()
                and (weight >= 0).all() and (weight + width <= len(weights)).all()
                and np.where(gather < 0, (lo + shift >= 0) & (hi + shift <= n),
                             gather + width <= len(indices)).all()
                and (len(indices) == 0 or (indices.min() >= 0 and indices.max() < n))):
            raise CodegenError("a folded operator reads outside its arrays")


def laid_out(arrays) -> bool:
    """Every ``(array, dtype, ndim)``: a C-ordered array of that type."""
    return all(isinstance(a, np.ndarray) and a.dtype == t and a.ndim == d
               and a.flags.c_contiguous for a, t, d in arrays)


def fold_upwind(rows, table: np.ndarray, columns: np.ndarray) -> FoldedOperator:
    """Fold what multiplies the unknown on its way through an operator (its
    CSR rows, :func:`entry_rows`, one per cell) into the operator: with
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
    slots, ncells = row_slots(rows), len(rows[0]) - 1
    planes = _offset_planes(slots, ncells, table.shape[1])
    if planes is None:
        return _flat(*_gather_form(slots, table, columns, ncells))
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
    entries = [[(lo[r][p], hi[r][p], offsets[p], None, next(kept)[lo[r][p]:hi[r][p]])
                for p in range(nplanes) if has[r][p]] for r in range(nrows)]
    gather = np.flatnonzero(~shifted)
    if len(gather):
        _, rows = _gather_form(slots, table[gather], columns[gather], ncells)
        for r, row in zip(gather.tolist(), rows):
            entries[r] = row
    return _flat(own, entries)


def _flat(own: np.ndarray, rows: list[list[tuple]]) -> FoldedOperator:
    """The :class:`FoldedOperator` of per-row entries ``(lo, hi, shift,
    read, weights)``, ``read`` a gather entry's indices (else ``None``)."""
    entries, weights, indices = [], [np.zeros(0)], [np.zeros(0, np.int64)]
    begin, nw, ni = [0], 0, 0
    for row in rows:
        for lo, hi, shift, read, w in row:
            entries.append((lo, hi, shift, -1 if read is None else ni, nw))
            weights.append(w)
            nw += len(w)
            if read is not None:
                indices.append(read)
                ni += len(read)
        begin.append(len(entries))
    return FoldedOperator(own, np.array(begin, np.int64),
                          np.array(entries, np.int64).reshape(-1, 5),
                          np.concatenate(weights), np.concatenate(indices).astype(np.int64))


def _offset_planes(slots, ncells: int, nfaces: int) -> tuple | None:
    """The planes of :func:`fold_upwind`, from an operator's slots
    (:func:`row_slots`) over ``nfaces`` faces alone: ``(offsets, faces,
    weights, cells)`` — per plane its offset and, per cell, the face to that
    offset (``nfaces``: none), the weight of its entry and the cell itself
    (``ncells``: none) — in the order of the planes' mean slot.  ``None``
    when there are no such planes: a face with one cell, more than two
    offsets per slot, or a cell that meets them out of that order (or one
    twice)."""
    faces, weights, present = slots
    nslots, cell = len(faces), np.arange(ncells)
    shape = (nslots, ncells)
    # per (slot, cell): its face (``nfaces``: none), weight, and cell + 1 (0: none)
    faces, mark = np.where(present, faces, nfaces), np.where(present, cell + 1.0, 0.0)
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
                 ncells: int) -> tuple[np.ndarray, list[list[tuple]]]:
    """``(own, rows)`` of :func:`fold_upwind`'s rows ``table``/``columns``
    in gather form (:func:`_flat`): entry ``k`` of a row holds the ``k``-th
    entry of every cell in slot order, a cell with fewer padded with itself
    at weight zero."""
    nrows, cell = len(table), np.arange(ncells)
    own = np.zeros((nrows, ncells))
    used = np.zeros((nrows, ncells), dtype=np.intp)  # entries so far, per (row, cell)
    out_cols: list[np.ndarray] = []
    out_weights: list[np.ndarray] = []
    coef, cols = np.empty((nrows, ncells)), np.empty((nrows, ncells), dtype=columns.dtype)
    for faces, weights, present in zip(*slots):
        table.take(faces, axis=1, out=coef, mode="clip")
        coef *= weights
        # padded: a row without the entry gets weight zero, and is dropped
        np.copyto(coef, 0.0, where=~present)
        columns.take(faces, axis=1, out=cols, mode="clip")
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
    return own, [[(0, ncells, 0, out_cols[k][r], out_weights[k][r]) for k in range(n)]
                 for r, n in enumerate(used.max(axis=1, initial=0).tolist())]


def slot_divergence(slots, flux: np.ndarray, out: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """``out[:, c] = sum_k weights_k[c] * flux[:, faces_k[c]]`` over the
    slots of an operator's CSR rows (:func:`row_slots`) — what ``(matrix @
    flux.T).T`` computes, bit for bit (accumulated from ``+0.0`` in storage
    order, so a ``-0.0`` product leaves ``+0.0`` as CSR does), in the row
    layout of ``flux``: no transposed copy in, no strided read back.
    ``work`` is contiguous scratch of at least ``out``'s size."""
    faces, weights, present = slots
    full = present.all(axis=1)
    if work is None or work.size < out.size:
        work = np.empty_like(out)
    term = work.reshape(-1)[:out.size].reshape(out.shape)
    if not (first := len(full) > 0 and bool(full[0])):  # else slot 0 is formed in ``out``
        out.fill(0.0)
    for k in range(len(full)):
        into = out if k == 0 and first else term
        flux.take(faces[k], axis=1, out=into, mode="clip")
        np.multiply(into, weights[k], out=into)
        np.add(out, 0.0 if into is out else term, out=out, where=True if full[k] else present[k])
    return out


def reduce_rows(u: np.ndarray, group: np.ndarray, weight: np.ndarray, out: np.ndarray,
                comps=None, work: np.ndarray | None = None) -> np.ndarray:
    """A declared reduction (:class:`~repro.dsl.entities.Reduction`) of the
    rows of ``u`` into ``out`` (zeroed, returned): ``out[group[g]] +=
    weight[g] * u[g]`` over the components ``g`` in order — all, or ``comps``
    (indices or a slice).  A run of consecutive components with consecutive
    output rows is one multiply (into ``work``, scratch of ``out``'s shape; by
    one scalar if the run's weights are equal: a column is ~3x slower) and
    one add, in order: the ordered scatter-add's bits, as the Euler C tile
    (:mod:`repro.codegen.ctile`) sums them.  Of two NaNs a sum may keep
    either (NumPy's vector and scalar loops differ): a NaN in ``out`` has
    the sum done again, keeping the term's, as ``np.add.at`` does."""
    comps = np.arange(len(group))[slice(None) if comps is None else comps]
    rows = group[comps]
    step = (comps[1:] - comps[:-1] != 1) | (rows[1:] - rows[:-1] != 1)
    cuts = [0, *(step.nonzero()[0] + 1).tolist(), comps.size] if comps.size else [0]
    for careful in (False, True):
        out.fill(0.0)
        for lo, hi in zip(cuts, cuts[1:]):
            c, r, k = comps[lo], rows[lo], hi - lo
            acc, w = out[r:r + k], weight[c:c + k]
            terms = np.multiply(u[c:c + k], w[0] if (w == w[0]).all() else w[:, None],
                                out=None if work is None else work[:k])
            np.add(terms, acc, out=acc)
            if careful:
                np.copyto(acc, terms, where=np.isnan(terms))
        if careful or not np.logical_or.reduce(np.isnan(out), axis=None):
            return out


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
    "table_runs",
    "entry_rows",
    "FoldedOperator",
    "fold_upwind",
    "row_slots",
    "slot_divergence",
    "muscl_flux",
]
