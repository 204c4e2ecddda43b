"""Workloads and the cost model."""

import pytest

from repro.perfmodel.costs import (
    BTEWorkload,
    CostModel,
    bands_per_rank,
    halo_cells_per_rank,
)
from repro.perfmodel.machines import (
    CASCADE_LAKE_FINCH,
    CASCADE_LAKE_FORTRAN,
    MachineRates,
)


class TestWorkload:
    def test_paper_configuration_counts(self):
        """Sec. III-A: 120x120 cells, 20 directions, 55 bands -> 1100
        intensity DOF per cell, ~1.6e7 overall."""
        w = BTEWorkload.paper_configuration()
        assert w.ncells == 14400
        assert w.ncomp == 1100
        assert w.ndof == pytest.approx(1.6e7, rel=0.02)

    def test_custom_workload(self):
        w = BTEWorkload(ncells=100, ndirs=4, nbands=3, nsteps=10)
        assert w.ncomp == 12
        assert w.ndof == 1200


class TestCostModel:
    def test_serial_step_decomposition(self):
        cost = CostModel(CASCADE_LAKE_FINCH)
        w = BTEWorkload.paper_configuration()
        total = cost.serial_step(w)
        parts = (
            cost.intensity_step(w.ncells, w.ncomp)
            + cost.temperature_step(w.ncells, w.nbands)
            + cost.boundary_step(w.n_boundary_faces, w.ncomp)
        )
        assert total == pytest.approx(parts)

    def test_paper_serial_shares(self):
        """Fig. 5 at 1 process: the intensity solve is ~97 % of the step."""
        cost = CostModel(CASCADE_LAKE_FINCH)
        w = BTEWorkload.paper_configuration()
        intensity = cost.intensity_step(w.ncells, w.ncomp)
        assert intensity / cost.serial_step(w) == pytest.approx(0.97, abs=0.01)

    def test_fortran_twice_as_fast_serially(self):
        """Sec. III-E: 'sequential execution of our code takes roughly twice
        as long as the Fortran code'."""
        w = BTEWorkload.paper_configuration()
        t_finch = CostModel(CASCADE_LAKE_FINCH).serial_step(w)
        t_fortran = CostModel(CASCADE_LAKE_FORTRAN).serial_step(w)
        assert t_finch / t_fortran == pytest.approx(2.0, rel=0.05)

    def test_scaled_rates(self):
        scaled = CASCADE_LAKE_FINCH.scaled(2.0)
        assert scaled.intensity_per_dof == 2 * CASCADE_LAKE_FINCH.intensity_per_dof
        assert scaled.newton_per_cell == 2 * CASCADE_LAKE_FINCH.newton_per_cell


class TestHelpers:
    def test_bands_per_rank(self):
        assert bands_per_rank(55, 1) == 55
        assert bands_per_rank(55, 55) == 1
        assert bands_per_rank(55, 10) == 6
        assert bands_per_rank(55, 40) == 2

    def test_halo_scaling(self):
        # halo shrinks like sqrt(n_local) in 2-D
        h4 = halo_cells_per_rank(14400, 4)
        h16 = halo_cells_per_rank(14400, 16)
        assert h16 == pytest.approx(h4 / 2, rel=1e-6)
        assert halo_cells_per_rank(14400, 1) == 0.0

    def test_halo_3d_exponent(self):
        h = halo_cells_per_rank(8000, 8, dim=3)
        assert h == pytest.approx(6 * 1000 ** (2 / 3), rel=1e-6)
