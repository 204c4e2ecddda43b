"""FVGeometry: divergence operator and face gathers."""

import numpy as np
import pytest

from repro.fvm.geometry import FVGeometry
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

    def test_row_restricted_gather_equals_the_full_gathers_rows(self, geom):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((7, geom.ncells))
        ghost = rng.standard_normal((7, geom.boundary_face_count()))
        full1, full2 = geom.gather_sides(u, ghost)
        for rows in (slice(2, 5), np.array([0, 3, 6]), slice(6, 7)):
            u1, u2 = geom.gather_sides(u, ghost, rows)
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


def _sweeps():
    """Two 20-row host programs, their generated sweeps a loop over the faces
    (a central flux) and a loop over the cells (an upwind flux, folded)."""
    from tests.codegen.test_interpreter_oracle import build_indexed_problem

    central = "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * Sx[d] * average(I[d,b]))"
    return [build_indexed_problem(4, 5, seed=3, equation=central).generate(),
            build_indexed_problem(4, 5, seed=3).generate()]


class TestKernels:
    @pytest.mark.parametrize("rows", [slice(None), slice(3, 17),
                                      np.array([0, 2, 3, 9, 10, 11, 19])])
    @pytest.mark.parametrize("height", [1, 4, 5, 20, 1000])
    def test_row_tiles_partition_the_rows_in_order(self, rows, height):
        """A sweep over ``rows`` cut into tiles of ``height`` rows, each one
        C call in order, stores what one call over every one of them stores,
        and touches no other row: a row's store reads its own row alone."""
        for solver in _sweeps():
            state, compute_rhs = solver.state, solver.namespace["compute_rhs"]
            assert state.ncomp == 20
            selected = np.arange(20)[rows]
            u = state.u.copy()
            whole, tiled = u.copy(), u.copy()
            compute_rhs(state, whole, 0.0, selected)
            for lo in range(0, len(selected), height):
                compute_rhs(state, tiled, 0.0, selected[lo:lo + height])
            assert tiled.tobytes() == whole.tobytes()
            others = np.setdiff1d(np.arange(20), selected)
            assert tiled[others].tobytes() == u[others].tobytes()
            assert not np.array_equal(tiled[selected], u[selected])
