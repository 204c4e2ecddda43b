"""FVGeometry: divergence operator and face gathers."""

import numpy as np
import pytest

from repro.fvm.geometry import FVGeometry
from repro.fvm import kernels
from repro.mesh.grid import structured_grid


@pytest.fixture
def geom():
    return FVGeometry(structured_grid((6, 5), [(0.0, 3.0), (0.0, 2.5)]))


class TestDivergence:
    def test_constant_flux_zero_divergence_interior(self, geom):
        """Discrete divergence theorem: a uniform vector field has zero
        divergence in every cell not touching the boundary."""
        vn = geom.normal @ np.array([1.0, 2.0])  # v.n per face
        div = geom.surface_divergence(vn)
        # interior cells = cells with no boundary face
        has_bdry = np.zeros(geom.ncells, dtype=bool)
        has_bdry[geom.owner[geom.bfaces]] = True
        assert np.allclose(div[~has_bdry], 0.0, atol=1e-12)

    def test_linear_field_unit_divergence(self, geom):
        """flux = (x, 0) evaluated at face centres: div == 1 exactly for
        uniform quads (the midpoint rule is exact for linear fields)."""
        vn = geom.center[:, 0] * geom.normal[:, 0]
        div = geom.surface_divergence(vn)
        assert np.allclose(div, 1.0, atol=1e-9)

    def test_multicomponent_shape(self, geom):
        flux = np.ones((7, geom.nfaces))
        div = geom.surface_divergence(flux)
        assert div.shape == (7, geom.ncells)

    def test_matches_manual_accumulation(self, geom):
        rng = np.random.default_rng(0)
        flux = rng.standard_normal(geom.nfaces)
        div = geom.surface_divergence(flux)
        manual = np.zeros(geom.ncells)
        np.add.at(manual, geom.owner, geom.area * flux)
        inter = geom.interior_mask
        np.add.at(manual, geom.neighbor[inter], -(geom.area * flux)[inter])
        manual *= geom.inv_volume
        assert np.allclose(div, manual)


class TestGathers:
    def test_sides_interior(self, geom):
        u = np.arange(geom.ncells, dtype=float)
        u1, u2 = geom.gather_sides(u)
        inter = geom.interior_mask
        assert np.allclose(u1[inter], u[geom.owner[inter]])
        assert np.allclose(u2[inter], u[geom.neighbor[inter]])

    def test_boundary_defaults_to_owner(self, geom):
        u = np.arange(geom.ncells, dtype=float)
        _, u2 = geom.gather_sides(u)
        b = geom.bfaces
        assert np.allclose(u2[b], u[geom.owner[b]])

    def test_ghost_override(self, geom):
        u = np.zeros(geom.ncells)
        ghost = np.full(geom.boundary_face_count(), 7.0)
        _, u2 = geom.gather_sides(u, ghost)
        assert np.allclose(u2[geom.bfaces], 7.0)
        assert np.allclose(u2[geom.interior_mask], 0.0)

    def test_multicomponent_gather(self, geom):
        u = np.tile(np.arange(geom.ncells, dtype=float), (3, 1))
        ghost = np.zeros((3, geom.boundary_face_count()))
        u1, u2 = geom.gather_sides(u, ghost)
        assert u1.shape == (3, geom.nfaces)
        assert np.allclose(u2[:, geom.bfaces], 0.0)

    def test_row_restricted_gather_into_scratch(self, geom):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((7, geom.ncells))
        ghost = rng.standard_normal((7, geom.boundary_face_count()))
        full1, full2 = geom.gather_sides(u, ghost)
        scratch = (np.empty((4, geom.nfaces)), np.empty((4, geom.nfaces)))
        for rows in (slice(2, 5), np.array([0, 3, 6]), slice(6, 7)):
            u1, u2 = geom.gather_sides(u, ghost, rows, out=scratch)
            # the leading rows of the scratch, not fresh arrays
            assert np.shares_memory(u1, scratch[0]) and np.shares_memory(u2, scratch[1])
            assert np.array_equal(u1, full1[rows]) and np.array_equal(u2, full2[rows])

    def test_row_restricted_gather_reads_no_other_row(self, geom):
        u = np.full((4, geom.ncells), np.nan)
        u[1] = 1.0
        u1, u2 = geom.gather_sides(u, None, slice(1, 2))
        assert np.isfinite(u1).all() and np.isfinite(u2).all()

    def test_region_slots_consistent(self, geom):
        for r, faces in geom.region_faces.items():
            slots = geom.region_slots[r]
            assert np.array_equal(geom.bfaces[slots], faces)


class TestKernels:
    @pytest.mark.parametrize("rows", [slice(None), slice(3, 17),
                                      np.array([0, 2, 3, 9, 10, 11, 19])])
    @pytest.mark.parametrize("height", [1, 4, 5, 20, 1000])
    def test_row_tiles_partition_the_rows_in_order(self, rows, height):
        ncomp = 20
        tiles = list(kernels.row_tiles(rows, ncomp, height))
        covered = np.concatenate([np.arange(ncomp)[t] for t in tiles])
        assert np.array_equal(covered, np.arange(ncomp)[rows])
        sizes = [len(np.arange(ncomp)[t]) for t in tiles]
        assert all(n == height for n in sizes[:-1]) and 0 < sizes[-1] <= height
        # a tile is the same kind of selector as the rows it splits
        assert all(isinstance(t, type(rows)) for t in tiles)

    def test_tile_rows_is_derived_from_the_face_count(self, monkeypatch):
        monkeypatch.setattr(kernels, "TILE_BYTES", 1024)
        assert kernels.tile_rows(16, 100) == 8       # 1024 / (8 * 16)
        assert kernels.tile_rows(16, 5) == 5         # never more than ncomp
        assert kernels.tile_rows(10_000, 100) == 1   # never less than a row
