"""DSL problem builders for the paper's BTE scenarios.

:func:`hotspot_scenario` is the configuration of Sections III-A/B and
Figures 1-2: a square domain with a cold isothermal bottom wall, an
isothermal top wall carrying a narrow Gaussian hot spot, and specular
symmetry on the left/right sides.  :func:`corner_source_scenario` is the
second demonstration (Fig. 10): an elongated domain with the heat source in
one corner.  Both default to the paper's full resolution; tests and examples
pass reduced sizes.

:func:`build_bte_problem` turns a scenario into a ready-to-generate
:class:`~repro.dsl.problem.Problem` — the Python equivalent of the appendix
input deck — plus the :class:`~repro.bte.model.BTEModel` behind its
callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bte import constants as C
from repro.bte.angular import uniform_directions_2d
from repro.bte.dispersion import silicon_bands
from repro.bte.model import BTEModel
from repro.dsl.entities import CELL, VAR_ARRAY
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.util.errors import ConfigError

#: The BTE conservation-form input (cf. the appendix listing; the surface
#: term enters with the minus sign of the general rule in Sec. II — see the
#: sign note in DESIGN.md).
BTE_EQUATION = (
    "(Io[b] - I[d,b]) / beta[b] - "
    "surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
)


@dataclass
class BTEScenario:
    """Geometry, discretisation and thermal configuration of one run."""

    name: str = "bte-hotspot"
    nx: int = 120
    ny: int = 120
    lx: float = C.DOMAIN_SIZE
    ly: float = C.DOMAIN_SIZE
    ndirs: int = 20
    n_freq_bands: int = 40
    dt: float = 1e-12
    nsteps: int = 100
    T0: float = C.T_COLD
    T_hot: float = C.T_HOT
    sigma: float = C.HOTSPOT_SIGMA
    hot_center_frac: float = 0.5  # hot-spot centre along the hot wall (0..1)
    # wall -> role; walls use the structured-grid region convention
    # (1=x-min, 2=x-max, 3=y-min, 4=y-max)
    cold_regions: tuple[int, ...] = (3,)
    hot_regions: tuple[int, ...] = (4,)
    symmetry_regions: tuple[int, ...] = (1, 2)
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        regions = set(self.cold_regions) | set(self.hot_regions) | set(self.symmetry_regions)
        if regions != {1, 2, 3, 4}:
            raise ConfigError(f"scenario must cover walls 1-4 exactly once, got {regions}")
        if len(self.cold_regions) + len(self.hot_regions) + len(self.symmetry_regions) != 4:
            raise ConfigError("scenario assigns a wall to two roles")

    def hot_wall_profile(self):
        """Gaussian temperature profile along the hot wall (1/e^2 radius sigma)."""
        xc = self.hot_center_frac * self.lx
        T0, dT, sigma = self.T0, self.T_hot - self.T0, self.sigma

        def profile(centers: np.ndarray) -> np.ndarray:
            x = centers[:, 0]
            return T0 + dT * np.exp(-2.0 * np.square((x - xc) / sigma))

        return profile


def hotspot_scenario(
    nx: int = 120,
    ny: int = 120,
    ndirs: int = 20,
    n_freq_bands: int = 40,
    dt: float = 1e-12,
    nsteps: int = 100,
) -> BTEScenario:
    """Figures 1-2: 525 um square, cold bottom, Gaussian hot spot on top."""
    return BTEScenario(
        name="bte-hotspot",
        nx=nx, ny=ny, ndirs=ndirs, n_freq_bands=n_freq_bands,
        dt=dt, nsteps=nsteps,
    )


def corner_source_scenario(
    nx: int = 160,
    ny: int = 40,
    ndirs: int = 20,
    n_freq_bands: int = 40,
    dt: float = 1e-12,
    nsteps: int = 100,
) -> BTEScenario:
    """Figure 10: smaller elongated material, heat source in one corner,
    isothermal bottom, symmetry left/right."""
    lx, ly = 200e-6, 50e-6
    return BTEScenario(
        name="bte-corner-source",
        nx=nx, ny=ny, lx=lx, ly=ly,
        ndirs=ndirs, n_freq_bands=n_freq_bands,
        dt=dt, nsteps=nsteps,
        T0=100.0, T_hot=150.0, sigma=8e-6,
        hot_center_frac=0.0,  # the corner
    )


def build_bte_problem(scenario: BTEScenario, model: BTEModel | None = None) -> tuple[Problem, BTEModel]:
    """Assemble the DSL problem for a scenario (the appendix deck in Python)."""
    scenario.validate()
    if model is None:
        model = BTEModel(
            bands=silicon_bands(scenario.n_freq_bands),
            directions=uniform_directions_2d(scenario.ndirs),
        )
    bands, dirs = model.bands, model.dirs

    problem = Problem(scenario.name)
    problem.set_domain(2)
    problem.set_solver_type("FV")
    problem.set_stepper("euler")
    problem.set_steps(scenario.dt, scenario.nsteps)
    problem.set_mesh(
        structured_grid(
            (scenario.nx, scenario.ny),
            [(0.0, scenario.lx), (0.0, scenario.ly)],
            name=scenario.name,
        )
    )

    # indices and entities (the appendix listing)
    d = problem.add_index("d", (1, dirs.ndirs))
    b = problem.add_index("b", (1, bands.nbands))
    problem.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    problem.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    problem.add_variable("beta", VAR_ARRAY, CELL, index=[b])
    problem.add_coefficient("Sx", dirs.sx, VAR_ARRAY, index=[d])
    problem.add_coefficient("Sy", dirs.sy, VAR_ARRAY, index=[d])
    problem.add_coefficient("vg", bands.vg, VAR_ARRAY, index=[b])

    # the isothermal callback is imported and used through the DSL string
    # (exercising the paper's automatic argument interpretation)
    problem.add_callback(model.isothermal, name="isothermal")

    for region in scenario.cold_regions:
        problem.add_boundary(
            "I", region, BCKind.FLUX,
            f"isothermal(I, vg, Sx, Sy, b, d, normal, {scenario.T0})",
        )
    hot_profile_bc = model.make_isothermal_profile_bc(scenario.hot_wall_profile())
    for region in scenario.hot_regions:
        problem.add_boundary("I", region, BCKind.FLUX, hot_profile_bc)
    for region in scenario.symmetry_regions:
        # wall outward normal from the structured-grid region convention
        normal = {
            1: np.array([-1.0, 0.0]),
            2: np.array([1.0, 0.0]),
            3: np.array([0.0, -1.0]),
            4: np.array([0.0, 1.0]),
        }[region]
        problem.add_boundary(
            "I", region, BCKind.SYMMETRY, reflection_map=model.symmetry_map(normal)
        )

    # initial thermal equilibrium at T0 (paper Sec. III-A)
    from repro.bte.equilibrium import equilibrium_intensity
    from repro.bte.scattering import relaxation_times

    Io0 = equilibrium_intensity(bands, scenario.T0)  # (nbands,)
    problem.set_initial("I", model.initial_intensity(scenario.T0))
    problem.set_initial("Io", Io0)
    problem.set_initial("beta", relaxation_times(bands, scenario.T0))
    problem.extra["T0"] = scenario.T0
    problem.extra["bte_model"] = model
    problem.extra["scenario"] = scenario

    # the per-step temperature evolution is a CPU post-step callback; the
    # reduction it reads of the intensity is declared, so a device may run it
    problem.add_post_step(model.temperature_update, name="temperature_update",
                          reduce=model.band_energy_reduction())

    problem.set_conservation_form("I", BTE_EQUATION)
    return problem, model


# ---------------------------------------------------------------------------
# 3-D (the paper: "Some very coarse-grained 3-dimensional runs were also
# performed successfully")
# ---------------------------------------------------------------------------

BTE_EQUATION_3D = (
    "(Io[b] - I[d,b]) / beta[b] - "
    "surface(vg[b] * upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))"
)


@dataclass
class BTEScenario3D:
    """Coarse 3-D configuration: hot spot on the z-max face, cold z-min,
    specular symmetry on the four sides."""

    name: str = "bte-hotspot-3d"
    nx: int = 12
    ny: int = 12
    nz: int = 12
    lx: float = 100e-6
    ly: float = 100e-6
    lz: float = 100e-6
    n_azimuthal: int = 8
    n_polar: int = 4
    n_freq_bands: int = 10
    dt: float = 1e-12
    nsteps: int = 50
    T0: float = C.T_COLD
    T_hot: float = C.T_HOT
    sigma: float = 30e-6

    def hot_wall_profile(self):
        xc, yc = 0.5 * self.lx, 0.5 * self.ly
        T0, dT, sigma = self.T0, self.T_hot - self.T0, self.sigma

        def profile(centers: np.ndarray) -> np.ndarray:
            r2 = np.square(centers[:, 0] - xc) + np.square(centers[:, 1] - yc)
            return T0 + dT * np.exp(-2.0 * r2 / sigma**2)

        return profile


def coarse_3d_scenario(**overrides) -> BTEScenario3D:
    """The coarse-grained 3-D run the paper mentions, at test-friendly size."""
    return BTEScenario3D(**overrides)


def build_bte_problem_3d(scenario: BTEScenario3D, model: BTEModel | None = None
                         ) -> tuple[Problem, BTEModel]:
    """Assemble the 3-D BTE problem (20x20-style product ordinates)."""
    from repro.bte.angular import product_directions_3d
    from repro.bte.equilibrium import equilibrium_intensity
    from repro.bte.scattering import relaxation_times

    if model is None:
        model = BTEModel(
            bands=silicon_bands(scenario.n_freq_bands),
            directions=product_directions_3d(scenario.n_azimuthal, scenario.n_polar),
        )
    bands, dirs = model.bands, model.dirs

    problem = Problem(scenario.name)
    problem.set_domain(3)
    problem.set_solver_type("FV")
    problem.set_stepper("euler")
    problem.set_steps(scenario.dt, scenario.nsteps)
    problem.set_mesh(
        structured_grid(
            (scenario.nx, scenario.ny, scenario.nz),
            [(0.0, scenario.lx), (0.0, scenario.ly), (0.0, scenario.lz)],
            name=scenario.name,
        )
    )

    d = problem.add_index("d", (1, dirs.ndirs))
    b = problem.add_index("b", (1, bands.nbands))
    problem.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    problem.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    problem.add_variable("beta", VAR_ARRAY, CELL, index=[b])
    problem.add_coefficient("Sx", dirs.sx, VAR_ARRAY, index=[d])
    problem.add_coefficient("Sy", dirs.sy, VAR_ARRAY, index=[d])
    problem.add_coefficient("Sz", dirs.sz, VAR_ARRAY, index=[d])
    problem.add_coefficient("vg", bands.vg, VAR_ARRAY, index=[b])

    problem.add_callback(model.isothermal, name="isothermal")
    # region convention: 1/2 = x walls, 3/4 = y walls, 5 = z-min, 6 = z-max
    problem.add_boundary(
        "I", 5, BCKind.FLUX,
        f"isothermal(I, vg, Sx, Sy, Sz, b, d, normal, {scenario.T0})",
    )
    problem.add_boundary(
        "I", 6, BCKind.FLUX, model.make_isothermal_profile_bc(scenario.hot_wall_profile())
    )
    normals = {
        1: np.array([-1.0, 0.0, 0.0]),
        2: np.array([1.0, 0.0, 0.0]),
        3: np.array([0.0, -1.0, 0.0]),
        4: np.array([0.0, 1.0, 0.0]),
    }
    for region, normal in normals.items():
        problem.add_boundary(
            "I", region, BCKind.SYMMETRY, reflection_map=model.symmetry_map(normal)
        )

    Io0 = equilibrium_intensity(bands, scenario.T0)
    problem.set_initial("I", model.initial_intensity(scenario.T0))
    problem.set_initial("Io", Io0)
    problem.set_initial("beta", relaxation_times(bands, scenario.T0))
    problem.extra["T0"] = scenario.T0
    problem.extra["bte_model"] = model
    problem.extra["scenario"] = scenario
    problem.add_post_step(model.temperature_update, name="temperature_update",
                          reduce=model.band_energy_reduction())
    problem.set_conservation_form("I", BTE_EQUATION_3D)
    return problem, model


__all__ = [
    "BTEScenario",
    "BTEScenario3D",
    "BTE_EQUATION",
    "BTE_EQUATION_3D",
    "hotspot_scenario",
    "corner_source_scenario",
    "coarse_3d_scenario",
    "build_bte_problem",
    "build_bte_problem_3d",
]
