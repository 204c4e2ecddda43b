"""A rank's piece of the mesh (``repro.mesh.partition.mesh_pieces``) is the
whole mesh's, bit for bit, wherever an owned cell can look: the faces with
both cells in the piece keep their cells, their orientation and their
geometry, and every owned cell's divergence row keeps its weights and their
order; the halo's outer faces, and they alone, are in the fresh region."""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import perturbed_grid, structured_grid, triangulated_grid
from repro.mesh.partition import build_partition_layout, mesh_pieces, partition_cells

settings.register_profile("ci", derandomize=True, max_examples=40)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

GRIDS = {"structured": structured_grid, "perturbed": perturbed_grid,
         "triangulated": triangulated_grid,
         "bricks": lambda shape: structured_grid((*shape, 3))}


def _row(rows, cell):
    indptr, indices, data = rows
    return indices[indptr[cell]:indptr[cell + 1]], data[indptr[cell]:indptr[cell + 1]]


@given(kind=st.sampled_from(sorted(GRIDS)),
       shape=st.tuples(st.integers(3, 8), st.integers(3, 8)),
       nparts=st.integers(2, 4), halo=st.integers(1, 2),
       method=st.sampled_from(["graph", "rcb"]))
@settings(deadline=None)
def test_a_piece_is_the_whole_mesh_where_an_owned_cell_looks(kind, shape, nparts, halo,
                                                             method):
    mesh = GRIDS[kind](shape)
    layout = build_partition_layout(
        mesh, partition_cells(mesh, nparts, method=method), halo_layers=halo)
    whole = FVGeometry(mesh)
    fresh = max(mesh.boundary_regions()) + 1
    for p, piece in enumerate(mesh_pieces(mesh, layout)):
        sub, cells = piece.mesh, piece.cells
        geom = FVGeometry(sub)
        assert np.array_equal(cells[piece.owned], layout.owned[p])
        assert np.array_equal(np.sort(cells), cells)
        # the faces with both cells in the piece: the same two global cells,
        # in order, with the same bits of geometry
        local = np.flatnonzero(sub.face_cells[:, 1] >= 0)
        pairs = cells[sub.face_cells[local]]
        at = {tuple(pair): f for f, pair in enumerate(mesh.face_cells.tolist())}
        glob = np.array([at[tuple(pair)] for pair in pairs.tolist()], dtype=np.int64)
        assert np.array_equal(np.sort(glob), glob)  # their relative order kept
        for a, b in ((geom.normal, whole.normal), (geom.area, whole.area),
                     (geom.center, whole.center), (geom.face_dist, whole.face_dist)):
            assert a[local].tobytes() == b[glob].tobytes()
        # every owned cell's divergence row: the same weights, in the same order
        sub_rows, rows = geom.divergence_rows(), whole.divergence_rows()
        for c in piece.owned.tolist():
            faces, weights = _row(sub_rows, c)
            want_faces, want_weights = _row(rows, int(cells[c]))
            assert weights.tobytes() == want_weights.tobytes()
            assert np.array_equal(sub.face_cells[faces, 0], np.searchsorted(
                cells, mesh.face_cells[want_faces, 0]))
            assert np.array_equal(sub.face_region[faces], mesh.face_region[want_faces])
        # the fresh region: every outer face of the halo, and no owned cell's
        outer = sub.face_region == fresh
        boundary = sub.face_cells[:, 1] < 0
        owners = cells[sub.face_cells[:, 0]]
        whole_boundary = {tuple(sorted(mesh.face_nodes(f).tolist()))
                          for f in mesh.boundary_faces()}
        for f in np.flatnonzero(boundary).tolist():
            on_whole = tuple(sorted(sub.face_nodes(f).tolist())) in whole_boundary
            assert outer[f] == (not on_whole)
        assert not np.isin(owners[outer], layout.owned[p]).any()
