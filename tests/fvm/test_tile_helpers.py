"""The pieces a sweep is built from, each against the form it replaced.

* the surface divergence over the CSR rows the geometry builds without a
  matrix == ``geom.divergence @ x`` (scipy), bit for bit, on every mesh kind
  (a scattered numbering too) and on the device targets' column-sliced
  operators, with signed zeros, inf and NaN in ``x``;
* the runs of equal table rows and the operator's rows in storage order
  (``kernels.table_runs``, ``kernels.entry_rows``);
* the upwinded side of the boundary faces, formed in place — ghost values
  patched over the owner values where the flow enters — == a gather from the
  widened ``[u | ghost]`` copy, for every kind of boundary condition;
* a declared reduction (``kernels.reduce_rows``) == the ordered scatter-add
  over its components, whether a run's weights are one scalar or not.

The folded interior operator (``kernels.fold_upwind``, and its oracle
``apply_folded``) has its own suite, ``test_fold.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm import kernels
from repro.fvm.boundary import BCKind, BoundaryCondition, BoundarySet
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import perturbed_grid, structured_grid, triangulated_grid
from repro.mesh.mesh import build_mesh


def mixed_mesh():
    """Two quads and two triangles: cells with three and four faces."""
    nodes = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]
    cells = [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7), (3, 7, 6)]
    return build_mesh(np.array(nodes, dtype=float), cells)


MESHES = {
    "structured": lambda: structured_grid((6, 5)),
    "triangles": lambda: triangulated_grid((4, 3)),
    "mixed": mixed_mesh,
    "line": lambda: structured_grid((5,)),
}
#: the slot builder's differential suite adds non-orthogonal quads and bricks
SLOT_MESHES = {**MESHES, "perturbed": lambda: perturbed_grid((5, 4), seed=2),
               "bricks": lambda: structured_grid((3, 2, 2))}


def hostile(shape, seed=0):
    """Values with every special case a sum can trip over."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    where = rng.random(shape) < 0.25
    x[where] = rng.choice(special, size=int(where.sum()))
    x[0] = -0.0  # a whole row of negative zeros: every product is a signed zero
    return x


def scattered():
    """A structured grid with its cells numbered at random."""
    grid = structured_grid((6, 5))
    order = np.random.default_rng(5).permutation(grid.ncells)
    return build_mesh(grid.nodes, [grid.cell_nodes(c) for c in order])


def csr_rows(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The storage of a canonical scipy CSR matrix (sorted indices): the
    oracle of the rows the geometry builds without one."""
    assert matrix.has_canonical_format
    return matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64), matrix.data


# --------------------------------------------------------------------------
# the divergence over its CSR rows
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mesh", sorted({**MESHES, "scattered": scattered}))
def test_surface_divergence_equals_the_csr_product_bitwise(mesh):
    geom = FVGeometry({**MESHES, "scattered": scattered}[mesh]())
    x = hostile((7, geom.nfaces))
    with np.errstate(invalid="ignore"):
        expected = (geom.divergence @ x.T).T
        got = geom.surface_divergence(x)
        assert got.tobytes() == expected.tobytes()
        # into scratch, as the tiles call it, whatever the scratch held
        out, work = np.full((2, 7, geom.ncells), np.nan)
        assert geom.surface_divergence(x, out=out, work=work) is out
        assert out.tobytes() == expected.tobytes()
        # one row, as the interpreter and the reference solver call it
        assert geom.surface_divergence(x[3]).tobytes() == (geom.divergence @ x[3]).tobytes()


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("part", ["interior", "boundary"])
def test_column_sliced_operators_equal_their_csr_product_bitwise(mesh, part):
    """The divergence restricted to the interior faces (a two-sided device
    tile's) or to the boundary faces: cells have fewer entries than faces,
    some none at all."""
    geom = FVGeometry(MESHES[mesh]())
    faces = np.flatnonzero(geom.interior_mask) if part == "interior" else geom.bfaces
    operator = geom.divergence[:, faces]
    x = hostile((5, len(faces)), seed=1)
    with np.errstate(invalid="ignore"):
        expected = (operator @ x.T).T
        out = np.full((5, geom.ncells), np.nan)
        got = kernels.slot_divergence(kernels.row_slots(csr_rows(operator)), x, out,
                                      np.full_like(out, np.nan))
    assert got is out and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_boundary_cell_rows_of_the_operator_equal_its_dense_columns_bitwise(mesh):
    """The device targets' compact ``DIV_BDRY`` — the boundary operator's
    rows of the cells that have a boundary face — against the full-row
    operator it replaced: the same columns bit for bit (a corner cell's two
    or three faces accumulate in the same order), and nothing anywhere else."""
    geom = FVGeometry(MESHES[mesh]())
    assert np.array_equal(geom.bcells, np.unique(geom.owner[geom.bfaces]))
    assert np.bincount(geom.bowner).max() >= 2 or mesh == "line"  # corner cells
    x = hostile((5, len(geom.bfaces)), seed=3)
    with np.errstate(invalid="ignore"):
        dense = kernels.slot_divergence(
            kernels.row_slots(csr_rows(geom.divergence[:, geom.bfaces])), x,
            np.full((5, geom.ncells), np.nan))
        out, work = np.full((2, 5, len(geom.bcells)), np.nan)
        compact = kernels.slot_divergence(
            kernels.row_slots(csr_rows(geom.divergence[geom.bcells][:, geom.bfaces])), x,
            out, work)
    assert compact.tobytes() == dense[:, geom.bcells].tobytes()
    rest = np.setdiff1d(np.arange(geom.ncells), geom.bcells)
    assert not dense[:, rest].any() and not np.signbit(dense[:, rest]).any()


def test_first_slot_reproduces_the_csr_start_from_positive_zero():
    """CSR accumulates from ``+0.0``: a lone ``-0.0`` product stays ``+0.0``."""
    geom = FVGeometry(structured_grid((3, 3)))
    x = np.full((1, geom.nfaces), -0.0)
    x[0, geom.owner == 4] = 0.0  # mixed signs of zero around the centre cell
    got = geom.surface_divergence(x)
    assert got.tobytes() == (geom.divergence @ x.T).T.tobytes()
    assert not np.signbit(got).any()


# --------------------------------------------------------------------------
# the rows builder: straight from owner/neighbour, no matrix, read slot by slot
# --------------------------------------------------------------------------

def assert_same_slots(got, expected):
    """The same CSR rows, and the same slots read off them."""
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in zip(kernels.row_slots(got), kernels.row_slots(expected), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mesh", sorted(SLOT_MESHES))
def test_divergence_slots_equal_the_slots_of_the_sliced_scipy_matrix(mesh):
    """``geom.divergence_rows(cells, faces)`` filters and renumbers COO
    entries; the oracle slices the scipy CSR matrix (which stores a row's
    entries by column) and reads its storage: entry for entry, and slot for
    slot, the same, for the full operator and the three restrictions the
    device targets use."""
    geom = FVGeometry(SLOT_MESHES[mesh]())
    D, inter = geom.divergence, np.flatnonzero(geom.interior_mask)
    assert_same_slots(geom.divergence_rows(), csr_rows(D))
    assert_same_slots(geom.divergence_rows(faces=inter), csr_rows(D[:, inter]))
    assert_same_slots(geom.divergence_rows(faces=geom.bfaces), csr_rows(D[:, geom.bfaces]))
    assert_same_slots(geom.divergence_rows(geom.bcells, geom.bfaces),
                      csr_rows(D[geom.bcells][:, geom.bfaces]))


def test_entry_slots_order_a_row_by_column_not_by_insertion():
    """COO entries arrive owner block first, neighbour block second; scipy's
    ``tocsr`` stores each row by column, and the sum order is the bits."""
    rows, cols = np.array([0, 1, 0, 1]), np.array([3, 2, 1, 0])
    vals = np.array([1e16, 1.0, 1.0, -1e16])
    faces, weights, present = kernels.row_slots(kernels.entry_rows(rows, cols, vals, (2, 4)))
    assert present.all()
    assert faces.tolist() == [[1, 0], [3, 2]]
    assert weights.tolist() == [[1.0, -1e16], [1e16, 1.0]]
    # an empty operator (one cell, no interior face) has no slots at all
    geom = FVGeometry(structured_grid((1, 1)))
    indptr, indices, data = geom.divergence_rows(faces=np.flatnonzero(geom.interior_mask))
    assert indptr.tolist() == [0, 0] and not len(indices) and not len(data)
    assert all(a.shape == (0, 1) for a in kernels.row_slots((indptr, indices, data)))


# --------------------------------------------------------------------------
# runs of table rows, rows of the operator
# --------------------------------------------------------------------------

ND, NB = 4, 5
TMAP_D = np.repeat(np.arange(ND), NB)   # component -> direction row


def test_row_runs_and_row_block():
    """``table_runs``: the maximal runs of equal rows; ``entry_rows``: each
    row's block of entries, by column, as a canonical CSR matrix stores it
    (a generated face loop sums a column's faces in that order)."""
    assert kernels.table_runs(np.array([2, 2, 2, 0, 0, 5])) == [(0, 3, 2), (3, 5, 0), (5, 6, 5)]
    rows, cols = np.array([1, 0, 1, 1, 0]), np.array([4, 2, 0, 3, 1])
    begin, columns, values = kernels.entry_rows(rows, cols, np.arange(5.0), (3, 5))
    assert begin.tolist() == [0, 2, 5, 5] and columns.tolist() == [1, 2, 0, 3, 4]
    assert values.tolist() == [4.0, 1.0, 2.0, 3.0, 0.0]
    # restricted to rows and columns, renumbered by position
    begin, columns, values = kernels.entry_rows(rows, cols, np.arange(5.0), (3, 5),
                                                row_ids=np.array([1]), col_ids=np.array([0, 4]))
    assert begin.tolist() == [0, 2] and columns.tolist() == [0, 1]
    assert values.tolist() == [2.0, 0.0]


# --------------------------------------------------------------------------
# the upwinded boundary side: owner values + inflow patches, for every kind
# of boundary condition
# --------------------------------------------------------------------------

NCOMP = ND * NB


def boundary_set(geom, kind):
    bset = BoundarySet(geom, NCOMP)
    rng = np.random.default_rng(4)
    for region in sorted(geom.region_faces):
        if kind == BCKind.DIRICHLET:
            bc = BoundaryCondition(region, kind, value=rng.random(NCOMP))
        elif kind == BCKind.SYMMETRY:
            bc = BoundaryCondition(region, kind, reflection_map=rng.permutation(NCOMP))
        elif kind in (BCKind.GHOST_CALLBACK, BCKind.FLUX):
            bc = BoundaryCondition(
                region, kind, callback=lambda ctx: 2.0 * ctx.owner_values + ctx.region)
        else:
            bc = BoundaryCondition(region, kind)
        bset.add(bc)
    return bset


@pytest.mark.parametrize("kind", [BCKind.DIRICHLET, BCKind.NEUMANN0, BCKind.SYMMETRY,
                                  BCKind.GHOST_CALLBACK, BCKind.FLUX])
@pytest.mark.parametrize("rows", [slice(3, 12), slice(None), np.array([0, 1, 5, 6, 7, 19])])
def test_direct_gather_with_inflow_patches_equals_the_widened_copy(kind, rows):
    """What ``compute_boundary_contribution`` does for ``uw``: the owner
    values, with ``ghost_values(out=owner values, where=inflow)`` patching
    the ghost value over the entries where the flow enters."""
    geom = FVGeometry(structured_grid((5, 4)))
    rng = np.random.default_rng(5)
    u = rng.random((NCOMP, geom.ncells))
    bset = boundary_set(geom, kind)
    ghost = bset.ghost_values(u[:, geom.bowner], 0.0, 1e-3, None)
    # one direction row per value of d: upwind where a random flow leaves the owner
    outflow = rng.random((ND, geom.nfaces)) > 0.5
    columns = np.where(outflow, geom.owner, geom.neighbor_column)
    # the copy the tiles used to make: [cells | ghosts], ghost slots behind the cells
    widened = np.concatenate([u, ghost], axis=1)
    wide_columns = np.where(columns < 0, geom.ncells + ~columns, columns)
    expected = np.take_along_axis(widened, wide_columns[TMAP_D], axis=1)[:, geom.bfaces]
    u_bdry = u[:, geom.bowner]
    inflow = ~outflow[TMAP_D][:, geom.bfaces]
    got = bset.ghost_values(u_bdry, 0.0, 1e-3, None, u_bdry, where=inflow)
    assert got is u_bdry and got[rows].tobytes() == expected[rows].tobytes()
    # ... and into a buffer of its own; without ``where`` it is the ghost array
    owner_values = u[:, geom.bowner]
    into = bset.ghost_values(owner_values, 0.0, 1e-3, None, np.full_like(u_bdry, np.nan),
                             where=inflow)
    assert into.tobytes() == expected.tobytes()
    assert np.array_equal(owner_values, u[:, geom.bowner])
    fresh = bset.ghost_values(owner_values, 0.0, 1e-3, None)
    assert not np.shares_memory(fresh, owner_values) and fresh.tobytes() == ghost.tobytes()


def test_ghost_values_fill_a_given_buffer():
    geom = FVGeometry(structured_grid((5, 4)))
    u = np.random.default_rng(6).random((NCOMP, geom.ncells))
    for kind in (BCKind.DIRICHLET, BCKind.SYMMETRY, BCKind.GHOST_CALLBACK):
        bset = boundary_set(geom, kind)
        out = np.full((NCOMP, len(geom.bfaces)), np.nan)
        owner_values = u[:, geom.bowner]
        assert bset.ghost_values(owner_values, 0.0, 0.0, None, out) is out
        assert out.tobytes() == bset.ghost_values(owner_values, 0.0, 0.0, None).tobytes()


# --------------------------------------------------------------------------
# the declared reduction's NumPy form
# --------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_declared_reduction_is_the_ordered_scatter_add(data):
    """``out[group[g]] += weight[g] * u[g]`` over the components in order, bit
    for bit — runs of equal weights (multiplied by one scalar), mixed ones
    (by a column of them), and any subset, order or repetition of components."""
    ncomp, rows = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    group = (np.arange(ncomp) % rows if data.draw(st.booleans()) else
             np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=ncomp,
                                         max_size=ncomp))))
    weight = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0 / 3.0, -2.0, 1e300]),
                                         min_size=ncomp, max_size=ncomp)))
    comps = data.draw(st.none() | st.lists(st.integers(0, ncomp - 1), max_size=2 * ncomp))
    u = hostile((ncomp, 7), seed=data.draw(st.integers(0, 9)))
    picked = np.arange(ncomp) if comps is None else np.array(comps, dtype=int)
    expected = np.zeros((rows, 7))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e300 * 1e7
        np.add.at(expected, group[picked], weight[picked][:, None] * u[picked])
        for work in (None, np.full((rows, 7), np.nan)):
            out = np.full((rows, 7), np.nan)
            got = kernels.reduce_rows(u, group, weight, out,
                                      None if comps is None else picked, work)
            assert got is out and out.tobytes() == expected.tobytes()
