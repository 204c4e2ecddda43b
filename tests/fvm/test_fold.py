"""The folded, cell-centric upwind operator against the face-centric one.

``kernels.fold_upwind`` folds a face table (``n.s[d]``), the upwind choice
(``upw``) and the divergence's slot weights into one operator per (table
row, cell); ``kernels.apply_folded`` applies it to a tile of rows.  Two
oracles:

* what the tile body computed before the fold: gather the upwind value onto
  the interior faces, multiply by the table, take the CSR divergence —
  ``divergence_int @ (table * u[upwind])``.  The fold re-associates the
  products, so the agreement is to rounding (1e-13 of the result's scale);
* the gather form the fold built before its entries were grouped by offset
  (:func:`gather_form`: each cell's own term, then its inflow entries in
  slot order).  The offset entries must keep its sums' order, so the
  agreement is bit for bit.

Independence of the row selector and the tile height is bits too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm import kernels
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import perturbed_grid, structured_grid, triangulated_grid
from repro.mesh.mesh import build_mesh

NB = 3  # components per direction row

def renumbered(mesh, seed: int, cells: bool):
    """``mesh`` with its cells numbered at random, or each cell's corners
    listed from one at random (which numbers the faces, so the order in
    which a cell's faces fill its slots, differently)."""
    rng = np.random.default_rng(seed)
    if cells:
        order = rng.permutation(mesh.ncells)
        return build_mesh(mesh.nodes, [mesh.cell_nodes(c) for c in order])
    return build_mesh(mesh.nodes, [np.roll(mesh.cell_nodes(c), rng.integers(4))
                                   for c in range(mesh.ncells)])


MESHES = {
    "structured": lambda seed: structured_grid((6, 5)),
    "perturbed": lambda seed: perturbed_grid((6, 5), amplitude=0.3, seed=seed),
    "bricks": lambda seed: structured_grid((3, 3, 2)),
    "triangles": lambda seed: triangulated_grid((4, 3)),
    "cells at random": lambda seed: renumbered(structured_grid((6, 5)), seed, cells=True),
    "corners at random": lambda seed: renumbered(structured_grid((6, 5)), seed, cells=False),
}


def directions(dim: int, seed: int) -> np.ndarray:
    """Unit vectors: the axes (exact-zero ``n.s`` on the faces parallel to
    them), a diagonal, and random ones."""
    rng = np.random.default_rng(seed)
    random = rng.standard_normal((4, dim))
    random /= np.linalg.norm(random, axis=1)[:, None]
    diagonal = np.ones((1, dim)) / np.sqrt(dim)
    return np.concatenate([np.eye(dim), -np.eye(dim)[:1], diagonal, random])


def interior_operator(geom: FVGeometry, s: np.ndarray):
    """``(slots, table, columns)`` of the interior faces, as the generated
    ``invariant_tables`` builds them for ``upwind(s, u)``."""
    faces = geom.interior_faces
    table = s @ geom.normal[faces].T
    columns = np.where(table > 0.0, geom.owner[faces], geom.neighbor_column[faces])
    return geom.divergence_slots(faces=faces), table, columns


def gather_form(slots, table, columns, u, table_rows) -> np.ndarray:
    """Per row ``i`` (table row ``r``): ``own[r] * u[i]``, then every cell's
    inflow entries added in slot order — the operator's gather form."""
    own, terms, ncells = np.zeros((len(table), u.shape[1])), [], u.shape[1]
    for faces, weights, where in slots:
        cells = where if getattr(where, "dtype", bool) != bool else np.arange(ncells)
        w = np.where(where, weights, 0.0) if cells is not where else weights
        coef, cols = table[:, faces] * w, columns[:, faces]
        own[:, cells] += np.where(cols == cells, coef, 0.0)
        terms.append((cells, cols, np.where((cols != cells) & (cols >= 0), coef, 0.0)))
    out = u * own[table_rows]
    for cells, cols, coef in terms:
        out[:, cells] += coef[table_rows] * np.take_along_axis(u, cols[table_rows], axis=1)
    return out


def dense(entry, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    """An entry's ``(columns, weights)`` over every cell: where ``cells`` has
    none, the cell itself at weight zero."""
    cells, read, weights = entry
    cols, full = np.arange(ncells), np.zeros(ncells)
    cols[cells] = np.arange(ncells)[read] if read.__class__ is slice else read
    full[cells] = weights
    return cols, full


def face_centric(geom: FVGeometry, table, columns, u, table_rows) -> np.ndarray:
    """Gather, scale, CSR divergence: the body the fold replaces."""
    D = geom.divergence[:, geom.interior_faces]
    return np.stack([D @ (table[r] * row[columns[r]]) for row, r in zip(u, table_rows)])


@given(mesh=st.sampled_from(sorted(MESHES)), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_folded_operator_equals_gather_scale_divergence(mesh, seed):
    geom = FVGeometry(MESHES[mesh](seed))
    s = directions(geom.dim, seed)
    slots, table, columns = interior_operator(geom, s)
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    table_rows = np.repeat(np.arange(len(s)), NB)
    u = np.random.default_rng(seed).standard_normal((len(table_rows), geom.ncells))
    expected = face_centric(geom, table, columns, u, table_rows)
    out, work = np.full((2, *u.shape), np.nan)
    got = kernels.apply_folded(op, u, kernels.table_runs(table_rows), out, work)
    assert got is out
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    assert got.tobytes() == gather_form(slots, table, columns, u, table_rows).tobytes()

    # index-array selectors — a b-outer ``assemblyLoops`` block (one component
    # of every direction), a band rank's strided rows — and tiles that
    # straddle table rows: each row is computed on its own, so bit for bit
    for sel in (np.arange(0, len(u), NB), np.array([1, 2, 4, 5, 10, 11]),
                slice(2, 8), slice(NB - 1, NB + 1)):
        rows = u[sel]
        part = kernels.apply_folded(op, rows, kernels.table_runs(table_rows[sel]),
                                    np.full(rows.shape, np.nan), work[:len(rows)])
        assert part.tobytes() == got[sel].tobytes()
    for height in (1, 2, 7):
        for tile in kernels.row_tiles(slice(None), len(u), height):
            part = kernels.apply_folded(op, u[tile], kernels.table_runs(table_rows[tile]),
                                        np.empty_like(u[tile]), work[:height])
            assert part.tobytes() == got[tile].tobytes()


def offsets(op, r: int) -> list[int]:
    """The offsets of row ``r``'s entries, in order (they are all offset
    entries)."""
    assert all(read.__class__ is slice for _, read, _ in op.entries[r])
    return [read.start - cells.start for cells, read, _ in op.entries[r]]


def test_axis_aligned_direction_drops_the_parallel_faces():
    """``s = e_x`` on a quad grid: ``n.s`` is exactly zero on the horizontal
    faces, so a cell has one inflow entry, not three."""
    geom = FVGeometry(structured_grid((5, 4)))
    s = np.array([[1.0, 0.0], [0.6, 0.8]])
    op = kernels.fold_upwind(*interior_operator(geom, s), geom.ncells)
    assert [len(row) for row in op.entries] == [1, 2]
    # the axis row reads the cell to the west; the diagonal one the cell
    # below, then the one to the west, as every cell meets its faces
    assert offsets(op, 0) == [-1] and offsets(op, 1) == [-5, -1]
    # the west column has no inflow face in the interior at all
    west = np.flatnonzero(geom.cell_center[:, 0] < 0.2)
    _, weights = dense(op.entries[0][0], geom.ncells)
    assert not weights[west].any() and (op.own[0][west] > 0).all()


def test_inflow_count_varies_per_cell_and_per_row():
    """On bricks a diagonal direction gives interior cells three inflow
    faces, cells on the upstream walls two, one or none; an axis direction
    at most one — and every (row, cell) keeps exactly its own."""
    geom = FVGeometry(structured_grid((3, 3, 3)))
    s = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]) / np.sqrt([[3.0], [1.0]])
    slots, table, columns = interior_operator(geom, s)
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    assert [len(row) for row in op.entries] == [3, 1]
    used = [sum((dense(e, geom.ncells)[1] != 0.0).astype(int) for e in row)
            for row in op.entries]
    assert set(used[0].tolist()) == {0, 1, 2, 3} and set(used[1].tolist()) == {0, 1}
    # the oracle's count: interior faces of the cell whose upwind side is
    # another cell and whose coefficient is not zero
    faces = geom.interior_faces
    for r in range(2):
        downwind = np.where(columns[r] == geom.owner[faces], geom.neighbor[faces],
                            geom.owner[faces])
        count = np.bincount(downwind[table[r] != 0.0], minlength=geom.ncells)
        assert np.array_equal(used[r], count)


@pytest.mark.parametrize("shape", [(6, 5), (3, 3, 2)])
def test_structured_rows_read_shifted_views(shape):
    """On a structured grid or a brick every row's entries are offset
    entries, one per axis the direction is not parallel to: the neighbour
    upstream along it, ``-1`` / ``-nx`` / ``-nx*ny`` cells away for a positive
    component, the mirror for a negative one."""
    geom = FVGeometry(structured_grid(shape))
    s = directions(geom.dim, 0)
    op = kernels.fold_upwind(*interior_operator(geom, s), geom.ncells)
    stride = np.cumprod([1, *shape[:-1]])
    for r, d in enumerate(s):
        assert sorted(offsets(op, r)) == sorted(-int(np.sign(x)) * int(n)
                                                for x, n in zip(d, stride) if x != 0.0)


@pytest.mark.parametrize("mesh", ["triangles", "cells at random", "corners at random"])
def test_meshes_without_one_offset_order_keep_gathers(mesh):
    """A triangle's inflow neighbours, or a grid's numbered at random, sit at
    offsets that vary from cell to cell; a grid whose cells list their
    corners from one at random has four offsets, but its cells meet them in
    different slot orders.  Either way every row keeps index arrays over
    every cell."""
    geom = FVGeometry(MESHES[mesh](0))
    op = kernels.fold_upwind(*interior_operator(geom, directions(2, 0)), geom.ncells)
    assert all(cells == slice(None) and read.__class__ is np.ndarray
               for row in op.entries for cells, read, _ in row)


def test_a_scattered_numbering_keeps_gathers_in_a_small_build():
    """Numbered at random, a structured grid's neighbours sit at offsets
    that vary from cell to cell, hundreds of them: every row keeps gather
    entries, bit for bit, and the build allocates nothing the size of
    offsets x rows x cells — a few dozen ``(rows, cells)`` arrays at most."""
    grid = structured_grid((24, 24))
    order = np.random.default_rng(0).permutation(grid.ncells)
    geom = FVGeometry(build_mesh(grid.nodes, [grid.cell_nodes(c) for c in order]))
    s = directions(2, 0)
    slots, table, columns = interior_operator(geom, s)
    tracemalloc.start()
    try:
        op = kernels.fold_upwind(slots, table, columns, geom.ncells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * table.shape[0] * geom.ncells * 8
    assert all(cells == slice(None) and read.__class__ is np.ndarray
               for row in op.entries for cells, read, _ in row)
    table_rows = np.repeat(np.arange(len(s)), NB)
    u = np.random.default_rng(1).standard_normal((len(table_rows), geom.ncells))
    got = kernels.apply_folded(op, u, kernels.table_runs(table_rows),
                               np.empty_like(u), np.empty_like(u))
    assert got.tobytes() == gather_form(slots, table, columns, u, table_rows).tobytes()


@pytest.mark.parametrize("move", ["cells", "read"])
def test_a_shifted_offset_range_is_caught(move):
    """Moving one offset entry's cells, or the cells it reads, by one cell
    changes the result: the gather form tells it apart."""
    geom = FVGeometry(structured_grid((6, 5)))
    s = directions(2, 0)
    slots, table, columns = interior_operator(geom, s)
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    table_rows = np.repeat(np.arange(len(s)), NB)
    u = np.random.default_rng(0).standard_normal((len(table_rows), geom.ncells))
    expected = gather_form(slots, table, columns, u, table_rows)
    entry = dict(zip(("cells", "read", "weights"), op.entries[-1][0]))
    span = entry[move]
    step = 1 if span.stop < geom.ncells else -1
    entry[move] = slice(span.start + step, span.stop + step)
    op.entries[-1] = (tuple(entry.values()), *op.entries[-1][1:])
    got = kernels.apply_folded(op, u, kernels.table_runs(table_rows),
                               np.empty_like(u), np.empty_like(u))
    assert got[:-NB].tobytes() == expected[:-NB].tobytes()
    assert np.abs(got[-NB:] - expected[-NB:]).max() > 0.1


def fold_whole_divergence(shape):
    """The fold of the whole divergence with the whole ``upw`` table, applied
    to random values, and the face-centric result with the faces that read a
    ghost slot left out."""
    geom = FVGeometry(structured_grid(shape))
    s = np.array([[0.6, 0.8]])[:, :geom.dim]
    table = s @ geom.normal.T
    columns = np.where(table > 0.0, geom.owner, geom.neighbor_column)
    assert (columns < 0).any()
    op = kernels.fold_upwind(geom.divergence_slots(), table, columns, geom.ncells)
    u = np.random.default_rng(0).standard_normal((1, geom.ncells))
    reads_cell = columns[0] >= 0
    expected = geom.divergence @ np.where(
        reads_cell, table[0] * u[0][np.where(reads_cell, columns[0], 0)], 0.0)
    got = kernels.apply_folded(op, u, [(0, 1, 0)], np.empty_like(u), np.empty_like(u))
    return got[0], expected


def test_ghost_columns_contribute_nothing():
    """A face whose upwind side is a ghost slot belongs to the boundary part:
    folding the whole divergence with the whole ``upw`` table leaves the
    inflow boundary faces out."""
    got, expected = fold_whole_divergence((4, 4))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_a_boundary_face_has_no_offset():
    """A boundary face has one cell, so no neighbour a fixed number of cells
    away: in one dimension the first cell's would look like the interior
    ``-1`` and read cell ``-1``.  The whole divergence keeps gathers."""
    got, expected = fold_whole_divergence((6,))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("shape", [(1, 1), (1,)])
def test_a_mesh_without_interior_faces_folds_to_nothing(shape):
    geom = FVGeometry(structured_grid(shape))
    slots, table, columns = interior_operator(geom, np.eye(geom.dim)[:1])
    assert slots == []
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    assert op.entries == [()] and not op.own.any()
    u = np.ones((2, geom.ncells))
    out = kernels.apply_folded(op, u, [(0, 2, 0)], np.full_like(u, np.nan), u.copy())
    assert not out.any()
