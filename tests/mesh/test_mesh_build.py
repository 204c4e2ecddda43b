"""Mesh construction: connectivity, geometry, validation, error paths."""

import numpy as np
import pytest

from repro.mesh.grid import structured_grid
from repro.mesh.mesh import build_mesh
from repro.util.errors import MeshError


def two_quads():
    """Two unit quads sharing an edge."""
    nodes = np.array(
        [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float
    )
    cells = [[0, 1, 4, 3], [1, 2, 5, 4]]
    return nodes, cells


class TestBuild2D:
    def test_counts(self):
        mesh = build_mesh(*two_quads())
        assert mesh.ncells == 2
        assert mesh.nfaces == 7  # 8 edges, one shared

    def test_shared_face_connectivity(self):
        mesh = build_mesh(*two_quads())
        interior = mesh.interior_faces()
        assert len(interior) == 1
        owner, neigh = mesh.face_cells[interior[0]]
        assert {int(owner), int(neigh)} == {0, 1}

    def test_volumes_and_centroids(self):
        mesh = build_mesh(*two_quads())
        assert np.allclose(mesh.cell_volumes, 1.0)
        assert np.allclose(mesh.cell_centroids[0], [0.5, 0.5])
        assert np.allclose(mesh.cell_centroids[1], [1.5, 0.5])

    def test_cw_cells_are_fixed(self):
        nodes, cells = two_quads()
        cells[0] = cells[0][::-1]  # clockwise input
        mesh = build_mesh(nodes, cells)
        assert np.all(mesh.cell_volumes > 0)
        mesh.validate()

    def test_normals_unit_and_outward(self):
        mesh = build_mesh(*two_quads())
        norms = np.linalg.norm(mesh.face_normals, axis=1)
        assert np.allclose(norms, 1.0)
        owners = mesh.face_cells[:, 0]
        outward = np.einsum(
            "fd,fd->f",
            mesh.face_normals,
            mesh.face_centers - mesh.cell_centroids[owners],
        )
        assert np.all(outward > 0)

    def test_boundary_marker_applied(self):
        def marker(center, normal):
            return 1 if normal[0] < -0.5 else 2

        mesh = build_mesh(*two_quads(), boundary_marker=marker)
        left = mesh.boundary_faces(1)
        assert len(left) == 1
        assert mesh.face_centers[left[0], 0] == pytest.approx(0.0)

    def test_triangles(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        cells = [[0, 1, 2], [1, 3, 2]]
        mesh = build_mesh(nodes, cells)
        assert mesh.ncells == 2
        assert np.allclose(mesh.cell_volumes, 0.5)
        mesh.validate()


class TestBuild1D3D:
    def test_1d_chain(self):
        nodes = np.array([0.0, 0.5, 1.5, 3.0])[:, None]
        cells = [[0, 1], [1, 2], [2, 3]]
        mesh = build_mesh(nodes, cells)
        assert mesh.ncells == 3
        assert np.allclose(mesh.cell_volumes, [0.5, 1.0, 1.5])
        assert len(mesh.interior_faces()) == 2
        mesh.validate()

    def test_3d_brick_pair(self):
        nodes = []
        for z in (0.0, 1.0):
            for y in (0.0, 1.0):
                for x in (0.0, 1.0, 2.0):
                    nodes.append([x, y, z])
        nodes = np.array(nodes)

        def nid(i, j, k):
            return k * 6 + j * 3 + i

        cells = [
            [nid(0, 0, 0), nid(1, 0, 0), nid(1, 1, 0), nid(0, 1, 0),
             nid(0, 0, 1), nid(1, 0, 1), nid(1, 1, 1), nid(0, 1, 1)],
            [nid(1, 0, 0), nid(2, 0, 0), nid(2, 1, 0), nid(1, 1, 0),
             nid(1, 0, 1), nid(2, 0, 1), nid(2, 1, 1), nid(1, 1, 1)],
        ]
        mesh = build_mesh(nodes, cells)
        assert mesh.ncells == 2
        assert np.allclose(mesh.cell_volumes, 1.0)
        assert len(mesh.interior_faces()) == 1
        mesh.validate()


class TestConnectivityQueries:
    def test_cell_neighbors(self):
        mesh = build_mesh(*two_quads())
        adj = mesh.cell_neighbors()
        assert adj[0] == [1]
        assert adj[1] == [0]

    def test_cell_faces_and_signs(self):
        mesh = build_mesh(*two_quads())
        for c in range(mesh.ncells):
            assert len(mesh.cell_faces(c)) == 4

    def test_to_networkx(self):
        g = build_mesh(*two_quads()).to_networkx()
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 1

    def test_boundary_regions_listing(self):
        mesh = build_mesh(*two_quads())
        assert mesh.boundary_regions() == [1]  # default marker


class TestErrors:
    def test_empty_mesh(self):
        with pytest.raises(MeshError):
            build_mesh(np.zeros((2, 2)), [])

    def test_face_shared_three_times(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [0, 2]], dtype=float)
        cells = [[0, 1, 2, 3], [0, 1, 4, 2][:3], [0, 1, 5][:3]]
        # craft three cells sharing edge (0,1)
        cells = [[0, 1, 2, 3], [0, 1, 4], [1, 0, 5]]
        with pytest.raises(MeshError):
            build_mesh(nodes, cells)

    def test_bad_dimension(self):
        with pytest.raises(MeshError):
            build_mesh(np.zeros((3, 4)), [[0, 1, 2]], dim=4)

    def test_1d_cell_wrong_node_count(self):
        with pytest.raises(MeshError):
            build_mesh(np.array([[0.0], [1.0], [2.0]]), [[0, 1, 2]])

    def test_marker_returning_nonpositive_region(self):
        with pytest.raises(MeshError):
            build_mesh(*two_quads(), boundary_marker=lambda c, n: 0)


UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


class TestUntrustedInput:
    """``build_mesh`` checks ids and coordinates once, up front: numpy would
    wrap ``-1`` to the last node, truncate ``0.5`` to node 0 and raise a bare
    ``IndexError`` past the end, and a NaN coordinate used to sail through
    ``validate`` (``nan <= 0`` is False)."""

    @pytest.mark.parametrize("cells, culprit", [
        ([[0, 1, 2, 7]], "cell 0 references node 7"),
        ([[0, 1, 2, -1]], "cell 0 references node -1"),
        ([[0, 1, 2, 3], [0.5, 1, 2, 3]], "cell 1 references node 0.5"),
        ([[0, 1, 2], [1, 2, 3, float("nan")]], "cell 1 references node nan"),
        (np.array([[0, 1, 2, 4]]), "cell 0 references node 4"),
        ([["a", "b", "c"]], "must be integers"),
    ])
    def test_bad_node_ids(self, cells, culprit):
        with pytest.raises(MeshError, match="node ids must be integers") as ei:
            build_mesh(UNIT_SQUARE, cells)
        assert culprit in str(ei.value)
        assert ei.value.code == "RPR504"

    @pytest.mark.parametrize("cells", [[0, 1, 2, 3], [[0, 1, [2, 3]]], [[0, 1, 2], None]])
    def test_cells_that_are_not_lists_of_ids(self, cells):
        with pytest.raises(MeshError) as ei:
            build_mesh(UNIT_SQUARE, cells)
        assert ei.value.code == "RPR504"

    def test_integral_floats_are_ids(self):
        mesh = build_mesh(UNIT_SQUARE, [[0.0, 1.0, 2.0, 3.0]])
        assert mesh.cell_node_indices.dtype == np.int64
        assert mesh.cell_volumes.tolist() == [1.0]

    def test_caller_arrays_are_not_modified(self):
        cells = np.array([[3, 2, 1, 0]])  # clockwise: the builder reverses its copy
        mesh = build_mesh(UNIT_SQUARE, cells)
        assert cells.tolist() == [[3, 2, 1, 0]]
        assert mesh.cell_node_indices.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate(self, bad):
        nodes = UNIT_SQUARE.copy()
        nodes[2, 1] = bad
        with pytest.raises(MeshError, match="node 2 has a non-finite coordinate") as ei:
            build_mesh(nodes, [[0, 1, 2, 3]])
        assert ei.value.code == "RPR504"

    @pytest.mark.parametrize("field", ["cell_volumes", "face_areas", "face_normals"])
    def test_validate_never_passes_a_nan(self, field):
        mesh = build_mesh(*two_quads())
        getattr(mesh, field)[1] = np.nan
        with pytest.raises(MeshError, match="nan"):
            mesh.validate()


def mixed_mesh():
    """Quads 0, 1 and triangles 2, 3, 4: two size groups, interleaved."""
    nodes = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2], [2, 2]],
                     dtype=float)
    return build_mesh(nodes, [[3, 4, 7], [0, 1, 4, 3], [3, 7, 6], [1, 2, 5, 4], [4, 5, 8, 7]])


class TestClosureMessage:
    """The segmented closure check names the first open cell with the
    residual and tolerance of the per-cell loop it replaced."""

    @pytest.mark.parametrize("make, cell", [
        (lambda: structured_grid((5, 4)), 14),
        (lambda: structured_grid((3, 2, 2)), 7),
        (mixed_mesh, 4),   # a quad that is not the first of its group
        (mixed_mesh, 2),   # a triangle behind a quad
    ])
    def test_names_the_reference_cell_and_residual(self, make, cell):
        from tests.mesh.reference_build import closure_failure

        mesh = make()
        # corrupt a boundary face, so that only `cell` opens
        face = next(f for f in mesh.cell_faces(cell) if mesh.face_cells[f, 1] < 0)
        bent = mesh.face_normals[face] + 0.3 * np.roll(mesh.face_normals[face], 1)
        mesh.face_normals[face] = bent / np.linalg.norm(bent)  # still unit, still outward
        expected_cell, residual = closure_failure(mesh)
        assert expected_cell == cell
        with pytest.raises(MeshError) as ei:
            mesh.validate()
        assert str(ei.value) == f"cell {cell} is not closed: closure residual {residual}"

    def test_tolerance_scales_with_the_face_count(self):
        from tests.mesh.reference_build import closure_failure

        mesh = mixed_mesh()
        assert closure_failure(mesh, 1e-15) is None
        # open every cell a little, each by a different amount: which cell
        # fails first depends on the tolerance and on its face count
        mesh.face_areas[:] *= 1.0 + 1e-9 * np.arange(mesh.nfaces)
        for tol in (1e-12, 1e-10, 3e-10, 1e-9, 1e-8):
            expected = closure_failure(mesh, tol)
            try:
                # areas and normals are still valid; only closure can object
                mesh.validate(tol)
                got = None
            except MeshError as exc:
                got = str(exc)
            assert got == (None if expected is None else
                           f"cell {expected[0]} is not closed: closure residual {expected[1]}")
