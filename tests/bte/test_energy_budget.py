"""Global energy budget: an exact discrete identity of the solver.

For forward Euler, one step changes the domain's total phonon energy by
exactly ``-dt * (net outward wall flux)``: interior face fluxes telescope
away in the volume-weighted sum (Gauss), and the 1/tau-weighted closure
makes the relaxation source vanish identically.  This test asserts the
identity against the *independently computed* wall fluxes of
:func:`repro.codegen.probes.wall_heat_flux` — boundary callbacks, ghost
construction and the divergence operator must all agree for it to hold.
"""

import pytest

from repro.bte.problem import BTEScenario, build_bte_problem, hotspot_scenario
from repro.codegen.probes import wall_heat_flux


def total_energy(state, model) -> float:
    return float(model.energy_from_intensity(state.u) @ state.geom.volume)


@pytest.mark.parametrize(
    "scenario_kwargs",
    [
        dict(nx=8, ny=8, ndirs=8, n_freq_bands=4),
        dict(nx=6, ny=10, ndirs=12, n_freq_bands=3),
    ],
)
def test_energy_change_equals_wall_flux(scenario_kwargs):
    scenario = hotspot_scenario(dt=1e-12, nsteps=1, **scenario_kwargs)
    scenario.sigma = 150e-6
    problem, model = build_bte_problem(scenario)
    solver = problem.generate()
    state = solver.state

    for _ in range(4):  # repeat along a transient: must hold at every step
        E0 = total_energy(state, model)
        flux_out = sum(
            wall_heat_flux(state, model, region)
            for region in state.mesh.boundary_regions()
        )
        solver.step()  # transport only
        E1 = total_energy(state, model)
        # the identity is exact up to the pseudo-temperature Newton
        # tolerance (the relaxation source vanishes only to that residual)
        assert (E1 - E0) / state.dt == pytest.approx(-flux_out, rel=1e-5)
        model.temperature_update(state)  # refresh the closure for next step


def test_budget_holds_with_gpu_target():
    scenario = hotspot_scenario(nx=10, ny=10, ndirs=8, n_freq_bands=5,
                                dt=1e-12, nsteps=1)
    scenario.sigma = 150e-6
    problem, model = build_bte_problem(scenario)
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True
    solver = problem.generate()
    state = solver.state
    E0 = total_energy(state, model)
    flux_out = sum(
        wall_heat_flux(state, model, r) for r in state.mesh.boundary_regions()
    )
    solver.step()
    E1 = total_energy(state, model)
    assert (E1 - E0) / state.dt == pytest.approx(-flux_out, rel=1e-9)
