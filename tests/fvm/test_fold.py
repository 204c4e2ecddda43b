"""The folded, cell-centric upwind operator against the face-centric one.

``kernels.fold_upwind`` folds a face table (``n.s[d]``), the upwind choice
(``upw``) and the divergence's slot weights into one operator per (table
row, cell); ``kernels.apply_folded`` applies it to a tile of rows.  The
oracle is what the tile body computed before: gather the upwind value onto
the interior faces, multiply by the table, take the CSR divergence —
``divergence_int @ (table * u[upwind])``.  The fold re-associates the
products, so the agreement is to rounding (1e-13 of the result's scale), not
bits; independence of the row selector and the tile height *is* bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm import kernels
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import perturbed_grid, structured_grid, triangulated_grid

NB = 3  # components per direction row

MESHES = {
    "structured": lambda seed: structured_grid((6, 5)),
    "perturbed": lambda seed: perturbed_grid((6, 5), amplitude=0.3, seed=seed),
    "bricks": lambda seed: structured_grid((3, 3, 2)),
    "triangles": lambda seed: triangulated_grid((4, 3)),
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


def test_axis_aligned_direction_drops_the_parallel_faces():
    """``s = e_x`` on a quad grid: ``n.s`` is exactly zero on the horizontal
    faces, so a cell has one inflow entry, not three."""
    geom = FVGeometry(structured_grid((5, 4)))
    s = np.array([[1.0, 0.0], [0.6, 0.8]])
    op = kernels.fold_upwind(*interior_operator(geom, s), geom.ncells)
    assert op.counts.tolist() == [1, 2] and len(op.cols) == 2
    # the padding of the axis row: the cell itself, at weight zero
    assert np.array_equal(op.cols[1][0], np.arange(geom.ncells))
    assert not op.weights[1][0].any()
    # the west column has no inflow face in the interior at all
    west = np.flatnonzero(geom.cell_center[:, 0] < 0.2)
    assert not op.weights[0][0][west].any() and (op.own[0][west] > 0).all()


def test_inflow_count_varies_per_cell_and_per_row():
    """On bricks a diagonal direction gives interior cells three inflow
    faces, cells on the upstream walls two, one or none; an axis direction
    at most one — and every (row, cell) keeps exactly its own."""
    geom = FVGeometry(structured_grid((3, 3, 3)))
    s = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]) / np.sqrt([[3.0], [1.0]])
    slots, table, columns = interior_operator(geom, s)
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    assert op.counts.tolist() == [3, 1]
    used = sum((w != 0.0).astype(int) for w in op.weights)
    assert set(used[0].tolist()) == {0, 1, 2, 3} and set(used[1].tolist()) == {0, 1}
    # the oracle's count: interior faces of the cell whose upwind side is
    # another cell and whose coefficient is not zero
    faces = geom.interior_faces
    for r in range(2):
        downwind = np.where(columns[r] == geom.owner[faces], geom.neighbor[faces],
                            geom.owner[faces])
        count = np.bincount(downwind[table[r] != 0.0], minlength=geom.ncells)
        assert np.array_equal(used[r], count)


def test_ghost_columns_contribute_nothing():
    """A face whose upwind side is a ghost slot belongs to the boundary part:
    folding the whole divergence with the whole ``upw`` table leaves the
    inflow boundary faces out."""
    geom = FVGeometry(structured_grid((4, 4)))
    s = np.array([[0.6, 0.8]])
    table = s @ geom.normal.T
    columns = np.where(table > 0.0, geom.owner, geom.neighbor_column)
    assert (columns < 0).any()
    op = kernels.fold_upwind(geom.divergence_slots(), table, columns, geom.ncells)
    u = np.random.default_rng(0).standard_normal((1, geom.ncells))
    reads_cell = columns[0] >= 0
    expected = geom.divergence @ np.where(
        reads_cell, table[0] * u[0][np.where(reads_cell, columns[0], 0)], 0.0)
    got = kernels.apply_folded(op, u, [(0, 1, 0)], np.empty_like(u), np.empty_like(u))
    assert np.abs(got[0] - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("shape", [(1, 1), (1,)])
def test_a_mesh_without_interior_faces_folds_to_nothing(shape):
    geom = FVGeometry(structured_grid(shape))
    slots, table, columns = interior_operator(geom, np.eye(geom.dim)[:1])
    assert slots == []
    op = kernels.fold_upwind(slots, table, columns, geom.ncells)
    assert op.cols == [] and op.counts.tolist() == [0] and not op.own.any()
    u = np.ones((2, geom.ncells))
    out = kernels.apply_folded(op, u, [(0, 2, 0)], np.full_like(u, np.nan), u.copy())
    assert not out.any()
