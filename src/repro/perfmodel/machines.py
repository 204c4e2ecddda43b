"""Machine descriptions: per-phase compute rates.

The rates below are chosen so the *serial* behaviour matches what the paper
reports for its testbed (two-socket Cascade Lake, one rank per core):

* the full 2-D BTE configuration (120x120 cells, 20 directions, 55 bands,
  1.58e7 DOF) costs ~20 s per step serially in the DSL-generated code,
  ~97 % of it in the intensity solve (Fig. 5, small p);
* the hand-written Fortran comparator is ~2x faster serially (Sec. III-E);
* the temperature update splits into a per-cell Newton inversion (which the
  band-parallel strategy executes redundantly on every rank — the paper's
  growing temperature-update share in Fig. 5) and per-(cell, band)
  equilibrium/relaxation refreshes (parallel over bands).

The figures in EXPERIMENTS.md use these defaults so they are
machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpu.spec import A6000, DeviceSpec


@dataclass(frozen=True)
class MachineRates:
    """Per-unit-work compute costs (seconds) of one implementation."""

    name: str
    #: intensity sweep: per DOF (cell x component) per step, including the
    #: face-flux reconstruction and the explicit update
    intensity_per_dof: float
    #: temperature update, part 1: Newton energy inversion, per cell
    newton_per_cell: float
    #: temperature update, part 2: Io/tau refresh, per (cell, band)
    iobeta_per_cell_band: float
    #: boundary handling, per (boundary face, component)
    boundary_per_face_comp: float

    def scaled(self, factor: float) -> "MachineRates":
        """All rates multiplied by ``factor``."""
        return replace(
            self,
            name=f"{self.name} (x{factor:.3g})",
            intensity_per_dof=self.intensity_per_dof * factor,
            newton_per_cell=self.newton_per_cell * factor,
            iobeta_per_cell_band=self.iobeta_per_cell_band * factor,
            boundary_per_face_comp=self.boundary_per_face_comp * factor,
        )


#: DSL-generated code on one Cascade Lake core.
CASCADE_LAKE_FINCH = MachineRates(
    name="CascadeLake/Finch-generated",
    intensity_per_dof=1.22e-6,
    newton_per_cell=8.3e-6,
    iobeta_per_cell_band=6.1e-7,
    boundary_per_face_comp=2.0e-7,
)

#: Hand-written Fortran comparator: ~2x faster serially (paper Sec. III-E).
CASCADE_LAKE_FORTRAN = MachineRates(
    name="CascadeLake/Fortran",
    intensity_per_dof=0.61e-6,
    newton_per_cell=4.2e-6,
    iobeta_per_cell_band=3.0e-7,
    boundary_per_face_comp=1.0e-7,
)


def default_gpu_spec() -> DeviceSpec:
    """The paper's primary accelerator (NVIDIA A6000)."""
    return A6000


__all__ = ["MachineRates", "CASCADE_LAKE_FINCH", "CASCADE_LAKE_FORTRAN", "default_gpu_spec"]
