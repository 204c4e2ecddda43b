"""The copy-free pieces of the tile body, each against the copy it replaced.

* gather-form surface divergence == ``geom.divergence @ x`` (CSR), bit for
  bit, on every mesh kind and on the device targets' column-sliced
  operators, with signed zeros, inf and NaN in ``x``;
* a tile plan's table reads (``kernels.row_selector`` + ``rows_of``) ==
  ``table[row_of[sel]]``, as a view wherever one exists — and the plan as a
  whole against the per-tile helpers it replaced (ISSUE 23), kept here as
  its oracles;
* the upwinded side of the boundary faces, formed in place — ghost values
  patched over the owner values where the flow enters — == a gather from the
  widened ``[u | ghost]`` copy, for every kind of boundary condition.

The folded interior operator (``kernels.fold_upwind`` / ``apply_folded``) has
its own suite, ``test_fold.py``.
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


# --------------------------------------------------------------------------
# gather-form divergence
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_surface_divergence_equals_the_csr_product_bitwise(mesh):
    geom = FVGeometry(MESHES[mesh]())
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
    """``DIV_INT`` / ``DIV_BDRY`` of the device targets: cells have fewer
    entries than faces, some none at all."""
    geom = FVGeometry(MESHES[mesh]())
    faces = np.flatnonzero(geom.interior_mask) if part == "interior" else geom.bfaces
    operator = geom.divergence[:, faces]
    slots = kernels.csr_slots(operator)
    x = hostile((5, len(faces)), seed=1)
    with np.errstate(invalid="ignore"):
        expected = (operator @ x.T).T
        out = np.full((5, geom.ncells), np.nan)
        got = kernels.slot_divergence(slots, x, out, np.full_like(out, np.nan))
    assert got is out and got.tobytes() == expected.tobytes()
    kinds = {True if w is True else w.dtype.kind for _, _, w in slots}
    assert kinds <= {True, "b", "i"}


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
            kernels.csr_slots(geom.divergence[:, geom.bfaces]), x,
            np.full((5, geom.ncells), np.nan))
        out, work = np.full((2, 5, len(geom.bcells)), np.nan)
        compact = kernels.slot_divergence(
            kernels.csr_slots(geom.divergence[geom.bcells][:, geom.bfaces]), x, out, work)
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
# the slot builder: straight from owner/neighbour, no matrix
# --------------------------------------------------------------------------

def assert_same_slots(got, expected):
    assert len(got) == len(expected)
    for (faces, weights, where), (efaces, eweights, ewhere) in zip(got, expected):
        assert faces.dtype == efaces.dtype and np.array_equal(faces, efaces)
        assert weights.tobytes() == eweights.tobytes()
        if ewhere is True:
            assert where is True
        else:
            assert where.dtype == ewhere.dtype and np.array_equal(where, ewhere)


@pytest.mark.parametrize("mesh", sorted(SLOT_MESHES))
def test_divergence_slots_equal_the_slots_of_the_sliced_scipy_matrix(mesh):
    """``geom.divergence_slots(cells, faces)`` filters and renumbers COO
    entries; the oracle slices the scipy CSR matrix (which stores a row's
    entries by column) and reads its storage: entry for entry the same, for
    the full operator and the three restrictions the device targets use."""
    geom = FVGeometry(SLOT_MESHES[mesh]())
    D, inter = geom.divergence, np.flatnonzero(geom.interior_mask)
    assert D.has_canonical_format
    assert_same_slots(geom.divergence_slots(), kernels.csr_slots(D))
    assert_same_slots(geom.divergence_slots(faces=inter), kernels.csr_slots(D[:, inter]))
    assert_same_slots(geom.divergence_slots(faces=geom.bfaces),
                      kernels.csr_slots(D[:, geom.bfaces]))
    assert_same_slots(geom.divergence_slots(geom.bcells, geom.bfaces),
                      kernels.csr_slots(D[geom.bcells][:, geom.bfaces]))


def test_entry_slots_order_a_row_by_column_not_by_insertion():
    """COO entries arrive owner block first, neighbour block second; scipy's
    ``tocsr`` stores each row by column, and the sum order is the bits."""
    rows, cols = np.array([0, 1, 0, 1]), np.array([3, 2, 1, 0])
    vals = np.array([1e16, 1.0, 1.0, -1e16])
    (f0, w0, all0), (f1, w1, all1) = kernels.entry_slots(rows, cols, vals, (2, 4))
    assert all0 is True and all1 is True
    assert f0.tolist() == [1, 0] and f1.tolist() == [3, 2]
    assert w0.tolist() == [1.0, -1e16] and w1.tolist() == [1e16, 1.0]
    # an empty operator (one cell, no interior face) has no slots at all
    geom = FVGeometry(structured_grid((1, 1)))
    assert geom.divergence_slots(faces=np.flatnonzero(geom.interior_mask)) == []


# --------------------------------------------------------------------------
# table rows
# --------------------------------------------------------------------------

ND, NB = 4, 5
TMAP_D = np.repeat(np.arange(ND), NB)   # component -> direction row
TMAP_B = np.tile(np.arange(NB), ND)     # component -> band row


def table_rows(table, row_of, sel, out=None):
    """One table read of a tile, as the tile plan binds it."""
    return kernels.rows_of(table, kernels.row_selector(row_of[sel], table=True), out)


def parent_row_block(a, sel, out=None):
    """``kernels.row_block`` as every tile called it before the plan."""
    if isinstance(sel, slice):
        return a[sel]
    if (sel[1:] - sel[:-1] == 1).all():
        return a[sel[0]:sel[-1] + 1]
    return np.take(a, sel, axis=0, out=None if out is None else out[:len(sel)])


def parent_table_rows(table, row_of, sel, out=None):
    """``kernels.table_rows`` as every tile called it before the plan."""
    rows = row_of[sel]
    if rows[0] == rows[-1] and (rows == rows[0]).all():
        return table[rows[0]:rows[0] + 1]
    return parent_row_block(table, rows, out)


def row_selections(ncomp: int):
    """What a sweep is restricted to: every row, a slice, a band rank's
    sorted rows."""
    return st.one_of(
        st.none(),
        st.tuples(st.integers(0, ncomp - 1), st.integers(1, ncomp)).map(
            lambda t: slice(t[0], min(ncomp, t[0] + t[1]))),
        st.sets(st.integers(0, ncomp - 1), min_size=1).map(
            lambda rows: np.array(sorted(rows))),
    )


@given(rows=row_selections(ND * NB), height=st.integers(1, ND * NB + 2),
       bands=st.sets(st.integers(0, NB - 1), min_size=1))
@settings(max_examples=150, deadline=None)
def test_tile_plan_equals_the_per_tile_helpers_it_replaced(rows, height, bands):
    """Selector, view-or-gather of the unknown and of every table, and the
    runs of equal table rows, for random slices, index arrays and band
    subsets: each as the parent derived it, per tile per step."""
    ncomp = ND * NB
    if bands != set(range(NB)):  # the components of a subset of the bands
        keep = np.flatnonzero(np.isin(TMAP_B, sorted(bands)))
        rows = keep if rows is None else keep[np.isin(keep, np.arange(ncomp)[rows])]
        if not len(rows):
            return
    u = np.random.default_rng(5).random((ncomp, 7))
    tables = [np.random.default_rng(6).random((n, 7)) for n in (ND, NB)]
    cache: dict = {}
    maps = (TMAP_D, TMAP_B)
    plan = kernels.tile_plan(cache, rows, ncomp, height, maps)
    assert kernels.tile_plan(cache, rows, ncomp, height, maps) is plan  # built once
    assert kernels.tile_plan(cache, rows, ncomp, height, (TMAP_D, TMAP_B)) is not plan
    parent = list(kernels.row_tiles(slice(None) if rows is None else rows, ncomp, height))
    assert len(plan) == len(parent)
    for (sel, n, *reads), old in zip(plan, parent):
        scratch, old_scratch = np.full((2, height, 7), np.nan)
        us, old_us = kernels.rows_of(u, sel, scratch), parent_row_block(u, old, old_scratch)
        assert n == len(us) and us.tobytes() == old_us.tobytes() == u[old].tobytes()
        assert np.shares_memory(us, u) == np.shares_memory(old_us, u)
        for table, row_of, selector, runs in zip(tables, (TMAP_D, TMAP_B), reads[::2], reads[1::2]):
            got = kernels.rows_of(table, selector, scratch)
            want = parent_table_rows(table, row_of, old, old_scratch)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, table) == np.shares_memory(want, table)
            assert [r for lo, hi, r in runs for _ in range(lo, hi)] == row_of[old].tolist()
            assert all(a[2] != b[2] and a[1] == b[0] for a, b in zip(runs, runs[1:]))


@pytest.mark.parametrize("row_of, sel, shares", [
    (TMAP_D, slice(5, 10), True),              # one table row: a (1, n) view
    (TMAP_D, slice(7, 8), True),               # a single component
    (TMAP_B, slice(5, 9), True),               # consecutive rows: a slice
    (TMAP_B, slice(3, 8), False),              # wrapped run 3 4 0 1 2
    (TMAP_D, slice(3, 12), False),             # straddles two table rows
    (TMAP_D, np.array([5, 6, 9]), True),       # index array inside one row
    (TMAP_B, np.array([1, 6, 11, 16]), True),  # b-outer block: one band
    (TMAP_B, np.array([0, 1, 5, 6]), False),   # band rank: 0 1 0 1
    (TMAP_D, np.array([0, 1, 5, 6]), False),
])
def test_table_rows_equal_the_fancy_index_and_share_memory_when_they_can(row_of, sel, shares):
    table = np.random.default_rng(2).random((int(row_of.max()) + 1, 11))
    scratch = np.full((9, 11), np.nan)
    got = table_rows(table, row_of, sel, scratch)
    expected = table[row_of[sel]]
    assert np.broadcast_to(got, expected.shape).tobytes() == expected.tobytes()
    assert np.shares_memory(got, table) == shares
    if not shares:  # gathered into the scratch, nothing else touched
        assert got.base is scratch and np.isnan(scratch[len(expected):]).all()
        fresh = table_rows(table, row_of, sel)
        assert fresh.tobytes() == expected.tobytes()
    else:
        assert np.isnan(scratch).all()


def test_table_rows_of_a_bool_table_without_scratch():
    mask = np.random.default_rng(3).random((ND, 7)) > 0.5
    got = table_rows(mask, TMAP_D, slice(3, 12))
    assert got.dtype == bool and np.array_equal(got, mask[TMAP_D[3:12]])


def test_row_runs_and_row_block():
    assert kernels.table_runs(np.array([2, 2, 2, 0, 0, 5])) == [(0, 3, 2), (3, 5, 0), (5, 6, 5)]
    a = np.arange(40.0).reshape(10, 4)

    def row_block(sel, out=None):  # a tile's rows of the unknown, as planned
        return kernels.rows_of(a, kernels.row_selector(sel), out)

    assert np.shares_memory(kernels.rows_of(a, slice(3, 5)), a)
    consecutive = row_block(np.array([4, 5, 6]))
    assert np.shares_memory(consecutive, a) and np.array_equal(consecutive, a[4:7])
    scratch = np.full((6, 4), np.nan)
    strided = row_block(np.array([1, 3, 8]), out=scratch)
    assert strided.base is scratch and np.array_equal(strided, a[[1, 3, 8]])
    assert not np.shares_memory(row_block(np.array([1, 3, 8])), a)


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
    ghost = bset.ghost_values(u, 0.0, 1e-3)
    assert not np.shares_memory(ghost, u)
    # one direction row per value of d: upwind where a random flow leaves the owner
    outflow = rng.random((ND, geom.nfaces)) > 0.5
    columns = np.where(outflow, geom.owner, geom.neighbor_column)
    # the copy the tiles used to make: [cells | ghosts], ghost slots behind the cells
    widened = np.concatenate([u, ghost], axis=1)
    wide_columns = np.where(columns < 0, geom.ncells + ~columns, columns)
    expected = np.take_along_axis(widened, wide_columns[TMAP_D], axis=1)[:, geom.bfaces]
    u_bdry = u[:, geom.bowner]
    inflow = ~outflow[TMAP_D][:, geom.bfaces]
    got = bset.ghost_values(None, 0.0, 1e-3, out=u_bdry, owner_values=u_bdry, where=inflow)
    assert got is u_bdry and got[rows].tobytes() == expected[rows].tobytes()
    # ... and into a buffer of its own; without ``where`` it is the ghost array
    owner_values = u[:, geom.bowner]
    into = bset.ghost_values(None, 0.0, 1e-3, out=np.full_like(u_bdry, np.nan),
                             owner_values=owner_values, where=inflow)
    assert into.tobytes() == expected.tobytes()
    assert np.array_equal(owner_values, u[:, geom.bowner])
    assert bset.ghost_values(None, 0.0, 1e-3, owner_values=owner_values).tobytes() \
        == ghost.tobytes()


def test_ghost_values_fill_a_given_buffer():
    geom = FVGeometry(structured_grid((5, 4)))
    u = np.random.default_rng(6).random((NCOMP, geom.ncells))
    for kind in (BCKind.DIRICHLET, BCKind.SYMMETRY, BCKind.GHOST_CALLBACK):
        bset = boundary_set(geom, kind)
        out = np.full((NCOMP, len(geom.bfaces)), np.nan)
        assert bset.ghost_values(u, out=out) is out
        assert out.tobytes() == bset.ghost_values(u).tobytes()
