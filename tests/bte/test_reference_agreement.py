"""Generated DSL solver vs the hand-written reference (paper Sec. III-E:
"Our solutions matched theirs") plus physical invariants."""

import numpy as np
import pytest

from repro.bte.problem import BTEScenario, build_bte_problem, hotspot_scenario
from repro.bte.reference import ReferenceBTESolver
from tests.bte.test_model import band_energies


class TestAgreement:
    def test_intensity_and_temperature_agree(self, tiny_scenario):
        problem, model = build_bte_problem(tiny_scenario)
        solver = problem.solve()
        ref = ReferenceBTESolver(tiny_scenario, model)
        ref.run()
        scale = np.abs(ref.intensity_dsl_layout()).max()
        assert (
            np.abs(solver.solution() - ref.intensity_dsl_layout()).max()
            < 1e-12 * scale
        )
        assert np.allclose(solver.state.extra["T"], ref.T, atol=1e-10)

    def test_agreement_holds_over_longer_run(self):
        sc = hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=4, dt=1e-12, nsteps=40)
        problem, model = build_bte_problem(sc)
        solver = problem.solve()
        ref = ReferenceBTESolver(sc, model)
        ref.run()
        scale = np.abs(ref.intensity_dsl_layout()).max()
        assert (
            np.abs(solver.solution() - ref.intensity_dsl_layout()).max()
            < 1e-10 * scale
        )

    def test_agreement_on_corner_scenario(self):
        from repro.bte.problem import corner_source_scenario

        sc = corner_source_scenario(nx=12, ny=6, ndirs=8, n_freq_bands=4,
                                    dt=1e-12, nsteps=10)
        problem, model = build_bte_problem(sc)
        solver = problem.solve()
        ref = ReferenceBTESolver(sc, model)
        ref.run()
        scale = np.abs(ref.intensity_dsl_layout()).max()
        assert (
            np.abs(solver.solution() - ref.intensity_dsl_layout()).max()
            < 1e-10 * scale
        )


class TestPhysicalInvariants:
    def test_uniform_equilibrium_is_steady(self):
        """With every wall at T0 the equilibrium state must not drift."""
        sc = BTEScenario(
            name="steady", nx=6, ny=6, ndirs=8, n_freq_bands=4,
            dt=1e-12, nsteps=20, T_hot=300.0, T0=300.0,
        )
        problem, model = build_bte_problem(sc)
        solver = problem.solve()
        T = solver.state.extra["T"]
        assert np.allclose(T, 300.0, atol=1e-9)

    def test_hot_wall_heats_domain(self):
        # widen the hot spot so a coarse 8x8 grid actually samples it
        sc = hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=4, dt=1e-12, nsteps=30)
        sc.sigma = 150e-6
        problem, model = build_bte_problem(sc)
        solver = problem.solve()
        T = solver.state.extra["T"]
        assert T.max() > 300.0
        assert T.min() >= 300.0 - 1e-6

    def test_heat_enters_near_the_hot_spot(self):
        sc = hotspot_scenario(nx=16, ny=16, ndirs=8, n_freq_bands=4, dt=1e-12, nsteps=30)
        problem, model = build_bte_problem(sc)
        solver = problem.solve()
        T = solver.state.extra["T"]
        mesh = solver.state.mesh
        x, y = mesh.cell_centroids[:, 0], mesh.cell_centroids[:, 1]
        hottest = int(np.argmax(T))
        # hottest cell sits against the top wall, near the centre in x
        assert y[hottest] > 0.8 * sc.ly
        assert abs(x[hottest] - 0.5 * sc.lx) < 0.2 * sc.lx

    def test_interior_step_conserves_energy_without_walls(self):
        """Relaxation + transport conserve total energy when the domain has
        no energy exchange with the outside (all-symmetric box)."""
        sc = BTEScenario(
            name="closed", nx=6, ny=6, ndirs=8, n_freq_bands=4,
            dt=1e-12, nsteps=15, T0=300.0, T_hot=300.0,
            cold_regions=(), hot_regions=(),
            symmetry_regions=(1, 2, 3, 4),
        )
        problem, model = build_bte_problem(sc)
        # start from a perturbed (non-equilibrium) state; refresh the
        # closure fields (Io, beta) as the real loop would have
        solver = problem.generate()
        state = solver.state
        rng = np.random.default_rng(0)
        state.u = state.u * (1.0 + 0.05 * rng.random(state.u.shape))
        model.temperature_update(state, band_energies(model, state.u))
        V = state.geom.volume
        E0 = float((model.energy_from_intensity(state.u) * V).sum())
        solver.run()
        E1 = float((model.energy_from_intensity(state.u) * V).sum())
        assert E1 == pytest.approx(E0, rel=1e-9)

    def test_relaxation_drives_isotropy(self):
        """In a closed box an anisotropic perturbation relaxes toward the
        direction-independent equilibrium."""
        sc = BTEScenario(
            name="relax", nx=4, ny=4, ndirs=8, n_freq_bands=4,
            dt=1e-12, nsteps=1, T0=300.0, T_hot=300.0,
            cold_regions=(), hot_regions=(), symmetry_regions=(1, 2, 3, 4),
        )
        problem, model = build_bte_problem(sc)
        solver = problem.generate()
        state = solver.state

        def anisotropy():
            per_dir = state.u.reshape(model.dirs.ndirs, model.bands.nbands, -1)
            return float(np.std(per_dir, axis=0).max())

        # perturb one direction in the softest (longest-tau) band
        state.u[0] *= 1.01
        # refresh Io/beta from the perturbed field, as the real loop would
        model.temperature_update(state, band_energies(model, state.u))
        a0 = anisotropy()
        solver.run(200)
        assert anisotropy() < a0
