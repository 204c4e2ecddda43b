"""Transport-physics sanity checks on the full DSL-generated BTE solver."""

import numpy as np
import pytest

from repro.bte.angular import uniform_directions_2d
from repro.bte.dispersion import silicon_bands
from repro.bte.model import BTEModel
from repro.bte.problem import BTEScenario, build_bte_problem
from tests.bte.test_model import band_energies


class TestFrontPropagation:
    def test_thermal_front_travels_at_group_velocity(self):
        """Heat from a suddenly-hot wall cannot outrun the fastest phonons:
        after time t the disturbance must sit inside x < vg_max * t (plus a
        cell of numerical smear), and should reach a decent fraction of it."""
        model = BTEModel(bands=silicon_bands(4),
                         directions=uniform_directions_2d(12))
        L = 2e-6
        nx = 40
        vg_max = float(model.bands.vg.max())
        dt = 0.3 * (L / nx) / vg_max
        nsteps = 60
        scenario = BTEScenario(
            name="front", nx=nx, ny=2, lx=L, ly=L / 10,
            ndirs=12, n_freq_bands=4, dt=dt, nsteps=nsteps,
            T0=300.0, T_hot=330.0, sigma=1e3,
            hot_regions=(1,), cold_regions=(2,), symmetry_regions=(3, 4),
        )
        problem, _ = build_bte_problem(scenario, model=model)
        solver = problem.solve()
        T = solver.state.extra["T"].reshape(2, nx)[0]
        x = np.linspace(L / nx / 2, L - L / nx / 2, nx)
        # threshold well above the first-order scheme's exponential smear
        # tail but far below the ~20 K front amplitude
        reached = x[T > 300.0 + 0.05]
        front = reached.max() if len(reached) else 0.0
        ballistic_reach = vg_max * nsteps * dt
        assert front <= ballistic_reach + 3 * L / nx
        assert front >= 0.3 * min(ballistic_reach, L)

    def test_hot_wall_only_adds_energy(self):
        """With one hot wall and the rest symmetric, total energy is
        non-decreasing every step (flux can only enter)."""
        model = BTEModel(bands=silicon_bands(4),
                         directions=uniform_directions_2d(8))
        scenario = BTEScenario(
            name="input", nx=8, ny=8, ndirs=8, n_freq_bands=4,
            dt=1e-12, nsteps=1, T0=300.0, T_hot=320.0, sigma=1e3,
            hot_regions=(4,), cold_regions=(), symmetry_regions=(1, 2, 3),
        )
        problem, _ = build_bte_problem(scenario, model=model)
        solver = problem.generate()
        V = solver.state.geom.volume
        energies = [float(model.energy_from_intensity(solver.state.u) @ V)]
        for _ in range(25):
            solver.run(1)
            energies.append(float(model.energy_from_intensity(solver.state.u) @ V))
        diffs = np.diff(energies)
        assert np.all(diffs >= -1e-12 * abs(energies[0]))
        assert energies[-1] > energies[0]

    def test_cold_wall_only_removes_energy(self):
        """Mirror case: start hotter than the single cold wall."""
        model = BTEModel(bands=silicon_bands(4),
                         directions=uniform_directions_2d(8))
        scenario = BTEScenario(
            name="drain", nx=8, ny=8, ndirs=8, n_freq_bands=4,
            dt=1e-12, nsteps=1, T0=320.0, T_hot=320.0, sigma=1e3,
            hot_regions=(), cold_regions=(3,), symmetry_regions=(1, 2, 4),
        )
        # cold wall sits at scenario.T0? No: the cold wall uses T0 — so
        # bump the *initial* state above it instead
        problem, model = build_bte_problem(scenario, model=model)
        # cold wall at 320 but initial state hotter: override the initials
        hot_init = model.initial_intensity(340.0)
        problem.initial_values["I"] = hot_init
        problem.extra["T0"] = 340.0
        from repro.bte.equilibrium import equilibrium_intensity
        from repro.bte.scattering import relaxation_times

        problem.initial_values["Io"] = equilibrium_intensity(model.bands, 340.0)
        problem.initial_values["beta"] = relaxation_times(model.bands, 340.0)
        solver = problem.generate()
        V = solver.state.geom.volume
        e0 = float(model.energy_from_intensity(solver.state.u) @ V)
        solver.run(25)
        e1 = float(model.energy_from_intensity(solver.state.u) @ V)
        assert e1 < e0


class TestSpecularWalls:
    def test_tangential_flux_preserved_at_symmetry_wall(self):
        """A specular wall reverses only the normal flux component; a
        beam sliding along the wall keeps doing so."""
        model = BTEModel(bands=silicon_bands(2),
                         directions=uniform_directions_2d(8))
        scenario = BTEScenario(
            name="slide", nx=8, ny=8, ndirs=8, n_freq_bands=2,
            dt=1e-12, nsteps=10, T0=300.0, T_hot=300.0, sigma=1e3,
            hot_regions=(4,), cold_regions=(3,), symmetry_regions=(1, 2),
        )
        problem, _ = build_bte_problem(scenario, model=model)
        solver = problem.generate()
        state = solver.state
        # overload one direction with extra phonons moving in +y (sliding
        # along the left/right symmetry walls)
        d_up = int(np.argmax(model.dirs.sy))
        state.u[model.comp_dir == d_up] *= 1.1
        model.temperature_update(state, band_energies(model, state.u))
        q0 = model.heat_flux(state.u)
        solver.run(5)
        q1 = model.heat_flux(state.u)
        # the y-flux may decay by relaxation/outflow but must not flip
        assert np.sign(q1[1].mean()) == np.sign(q0[1].mean())

    def test_closed_symmetric_box_preserves_detailed_mirror_symmetry(self):
        """A field prepared mirror-symmetric in x stays mirror-symmetric
        under evolution in an all-specular box."""
        model = BTEModel(bands=silicon_bands(2),
                         directions=uniform_directions_2d(8))
        scenario = BTEScenario(
            name="mirror", nx=8, ny=4, ndirs=8, n_freq_bands=2,
            dt=1e-12, nsteps=1, T0=300.0, T_hot=300.0, sigma=1e3,
            hot_regions=(), cold_regions=(), symmetry_regions=(1, 2, 3, 4),
        )
        problem, _ = build_bte_problem(scenario, model=model)
        solver = problem.generate()
        state = solver.state
        # mirror-symmetric temperature bump in the middle
        x = state.mesh.cell_centroids[:, 0]
        bump = 1.0 + 0.01 * np.exp(-(((x - 0.5 * scenario.lx) / (0.2 * scenario.lx)) ** 2))
        state.u *= bump[None, :]
        model.temperature_update(state, band_energies(model, state.u))
        solver.run(20)
        T = state.extra["T"].reshape(4, 8)
        assert np.allclose(T, T[:, ::-1], rtol=1e-10)
