"""Phonon Boltzmann Transport Equation application (paper Section III).

Everything the paper's demonstration needs, built from scratch:

* :mod:`~repro.bte.dispersion` — silicon LA/TA quadratic dispersion and the
  spectral band discretisation (40 frequency bands -> 40 LA + 15 TA = 55
  polarised bands, exactly the paper's setup);
* :mod:`~repro.bte.scattering` — impurity + Umklapp/normal relaxation times
  (Matthiessen's rule), temperature dependent;
* :mod:`~repro.bte.angular` — discrete ordinates (uniform 2-D direction
  sets) with solid-angle weights and specular reflection maps;
* :mod:`~repro.bte.equilibrium` — Bose-Einstein statistics, per-band
  equilibrium intensity, and the vectorised Newton inversion of the
  nonlinear energy <-> temperature relation;
* :mod:`~repro.bte.model` — :class:`BTEModel`: the glue consumed by DSL
  callbacks (temperature post-step update, isothermal flux boundary,
  symmetry reflection maps);
* :mod:`~repro.bte.problem` — DSL problem builders for the paper's two
  scenarios (hot-spot, Fig. 1/2; corner source, Fig. 10);
* :mod:`~repro.bte.reference` — the hand-written band-parallel solver
  standing in for the authors' Fortran comparator (Fig. 9).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dispersion": ("Branch", "BandSet", "silicon_bands", "LA_BRANCH", "TA_BRANCH"),
    "angular": (
        "DirectionSet",
        "uniform_directions_2d",
        "product_directions_3d",
        "reflection_map",
    ),
    "scattering": ("relaxation_times",),
    "equilibrium": (
        "bose_einstein",
        "pseudo_temperature",
        "band_energy_density",
        "equilibrium_intensity",
        "energy_to_temperature",
        "total_energy_density",
    ),
    "model": ("BTEModel",),
    "problem": (
        "BTEScenario",
        "BTEScenario3D",
        "hotspot_scenario",
        "corner_source_scenario",
        "coarse_3d_scenario",
        "build_bte_problem",
        "build_bte_problem_3d",
    ),
    "reference": ("ReferenceBTESolver",),
    "conductivity": (
        "ConductivityResult",
        "bulk_conductivity",
        "mean_free_path",
        "majumdar_eprt",
        "effective_conductivity",
        "size_effect_curve",
    ),
})
