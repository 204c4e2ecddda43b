"""DSL problem builders for the paper's BTE scenarios.

:func:`hotspot_scenario` is the configuration of Sections III-A/B and
Figures 1-2: a square domain with a cold isothermal bottom wall, an
isothermal top wall carrying a narrow Gaussian hot spot, and specular
symmetry on the left/right sides.  :func:`corner_source_scenario` is the
second demonstration (Fig. 10): an elongated domain with the heat source in
one corner.  Both default to the paper's full resolution; tests and examples
pass reduced sizes.

:func:`coarse_3d_scenario` is the coarse 3-D run the paper mentions.

:func:`build_bte_problem` turns a scenario, 2-D or 3-D, into a
ready-to-generate :class:`~repro.dsl.problem.Problem` — the Python
equivalent of the appendix input deck — plus the
:class:`~repro.bte.model.BTEModel` behind its callbacks.  What differs
between the dimensions (the grid, the ordinates, the walls' roles and the
equation string) the scenario says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.bte import constants as C
from repro.bte.angular import product_directions_3d, uniform_directions_2d
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
#: The same over 3-D ordinates (the paper: "Some very coarse-grained
#: 3-dimensional runs were also performed successfully").
BTE_EQUATION_3D = (
    "(Io[b] - I[d,b]) / beta[b] - "
    "surface(vg[b] * upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))"
)


class _Walls:
    """Wall roles on the structured-grid region convention: regions ``2k+1``
    and ``2k+2`` are the min and max faces of axis ``k`` (1=x-min, 2=x-max,
    3=y-min, ...); each is cold, hot or a symmetry plane."""

    def validate(self) -> None:
        walls = 2 * self.dimension
        regions = set(self.cold_regions) | set(self.hot_regions) | set(self.symmetry_regions)
        if regions != set(range(1, walls + 1)):
            raise ConfigError(f"scenario must cover walls 1-{walls} exactly once, got {regions}")
        if len(self.cold_regions) + len(self.hot_regions) + len(self.symmetry_regions) != walls:
            raise ConfigError("scenario assigns a wall to two roles")

    def wall_normal(self, region: int) -> np.ndarray:
        """Outward unit normal of wall ``region``."""
        normal = np.zeros(self.dimension)
        normal[(region - 1) // 2] = 1.0 if region % 2 == 0 else -1.0
        return normal


@dataclass
class BTEScenario(_Walls):
    """Geometry, discretisation and thermal configuration of one 2-D run."""

    dimension: ClassVar[int] = 2
    equation: ClassVar[str] = BTE_EQUATION

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
    # wall -> role (:class:`_Walls`)
    cold_regions: tuple[int, ...] = (3,)
    hot_regions: tuple[int, ...] = (4,)
    symmetry_regions: tuple[int, ...] = (1, 2)
    metadata: dict = field(default_factory=dict)

    def grid(self):
        return structured_grid((self.nx, self.ny), [(0.0, self.lx), (0.0, self.ly)],
                               name=self.name)

    def directions(self):
        return uniform_directions_2d(self.ndirs)

    def hot_wall_profile(self):
        """Gaussian temperature profile along the hot wall (1/e^2 radius sigma)."""
        xc = self.hot_center_frac * self.lx
        T0, dT, sigma = self.T0, self.T_hot - self.T0, self.sigma

        def profile(centers: np.ndarray) -> np.ndarray:
            x = centers[:, 0]
            return T0 + dT * np.exp(-2.0 * np.square((x - xc) / sigma))

        return profile


@dataclass
class BTEScenario3D(_Walls):
    """Coarse 3-D configuration: hot spot on the z-max face, cold z-min,
    specular symmetry on the four sides."""

    dimension: ClassVar[int] = 3
    equation: ClassVar[str] = BTE_EQUATION_3D

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
    cold_regions: tuple[int, ...] = (5,)
    hot_regions: tuple[int, ...] = (6,)
    symmetry_regions: tuple[int, ...] = (1, 2, 3, 4)

    def grid(self):
        return structured_grid((self.nx, self.ny, self.nz),
                               [(0.0, self.lx), (0.0, self.ly), (0.0, self.lz)],
                               name=self.name)

    def directions(self):
        """Product ordinates (the paper's "around 20 x 20" at full scale)."""
        return product_directions_3d(self.n_azimuthal, self.n_polar)

    def hot_wall_profile(self):
        xc, yc = 0.5 * self.lx, 0.5 * self.ly
        T0, dT, sigma = self.T0, self.T_hot - self.T0, self.sigma

        def profile(centers: np.ndarray) -> np.ndarray:
            r2 = np.square(centers[:, 0] - xc) + np.square(centers[:, 1] - yc)
            return T0 + dT * np.exp(-2.0 * r2 / sigma**2)

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


def coarse_3d_scenario(**overrides) -> BTEScenario3D:
    """The coarse-grained 3-D run the paper mentions, at test-friendly size."""
    return BTEScenario3D(**overrides)


def build_bte_problem(scenario: BTEScenario | BTEScenario3D, model: BTEModel | None = None
                      ) -> tuple[Problem, BTEModel]:
    """Assemble the DSL problem for a scenario (the appendix deck in Python)."""
    from repro.bte.equilibrium import equilibrium_intensity
    from repro.bte.scattering import relaxation_times

    scenario.validate()
    if model is None:
        model = BTEModel(bands=silicon_bands(scenario.n_freq_bands),
                         directions=scenario.directions())
    bands, dirs = model.bands, model.dirs

    problem = Problem(scenario.name)
    problem.set_domain(scenario.dimension)
    problem.set_solver_type("FV")
    problem.set_stepper("euler")
    problem.set_steps(scenario.dt, scenario.nsteps)
    problem.set_mesh(scenario.grid())

    # indices and entities (the appendix listing)
    d = problem.add_index("d", (1, dirs.ndirs))
    b = problem.add_index("b", (1, bands.nbands))
    problem.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    problem.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    problem.add_variable("beta", VAR_ARRAY, CELL, index=[b])
    ordinates = [f"S{axis}" for axis in "xyz"[:scenario.dimension]]
    for name in ordinates:
        problem.add_coefficient(name, getattr(dirs, name.lower()), VAR_ARRAY, index=[d])
    problem.add_coefficient("vg", bands.vg, VAR_ARRAY, index=[b])

    # the isothermal callback is imported and used through the DSL string
    # (exercising the paper's automatic argument interpretation)
    problem.add_callback(model.isothermal, name="isothermal")

    for region in scenario.cold_regions:
        problem.add_boundary(
            "I", region, BCKind.FLUX,
            f"isothermal(I, vg, {', '.join(ordinates)}, b, d, normal, {scenario.T0})",
        )
    hot_profile_bc = model.make_isothermal_profile_bc(scenario.hot_wall_profile())
    for region in scenario.hot_regions:
        problem.add_boundary("I", region, BCKind.FLUX, hot_profile_bc)
    for region in scenario.symmetry_regions:
        problem.add_boundary("I", region, BCKind.SYMMETRY,
                             reflection_map=model.symmetry_map(scenario.wall_normal(region)))

    # initial thermal equilibrium at T0 (paper Sec. III-A)
    problem.set_initial("I", model.initial_intensity(scenario.T0))
    problem.set_initial("Io", equilibrium_intensity(bands, scenario.T0))  # (nbands,)
    problem.set_initial("beta", relaxation_times(bands, scenario.T0))
    problem.extra["T0"] = scenario.T0
    problem.extra["bte_model"] = model
    problem.extra["scenario"] = scenario

    # the per-step temperature evolution is a CPU post-step callback; the
    # reduction it reads of the intensity is declared, so a device may run it
    problem.add_post_step(model.temperature_update, name="temperature_update",
                          reduce=model.band_energy_reduction())

    problem.set_conservation_form("I", scenario.equation)
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
]
