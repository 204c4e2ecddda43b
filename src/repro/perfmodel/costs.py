"""Workload descriptions and the cost model.

:class:`BTEWorkload` counts the work of one configuration;
:class:`CostModel` converts counted work into seconds on a
:class:`~repro.perfmodel.machines.MachineRates` machine.  The distributed
and GPU targets charge these times onto their virtual clocks while the real
numerics run, so virtual timelines and the analytic scaling evaluators agree
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel.machines import MachineRates


@dataclass(frozen=True)
class BTEWorkload:
    """Problem-size counts of one BTE configuration."""

    ncells: int
    ndirs: int
    nbands: int
    nsteps: int = 100
    n_boundary_faces: int = 0

    @property
    def ncomp(self) -> int:
        return self.ndirs * self.nbands

    @property
    def ndof(self) -> int:
        return self.ncomp * self.ncells

    @classmethod
    def paper_configuration(cls) -> "BTEWorkload":
        """The paper's Sec. III-A setup: 120x120 cells, 20 dirs, 55 bands,
        100 steps (~1.6e7 intensity DOF)."""
        return cls(
            ncells=120 * 120,
            ndirs=20,
            nbands=55,
            nsteps=100,
            n_boundary_faces=4 * 120,
        )


@dataclass(frozen=True)
class CostModel:
    """Seconds-per-phase for a workload on a machine."""

    machine: MachineRates

    # ---------------------------------------------------------------- per step
    def intensity_step(self, ncells: int, ncomp: int) -> float:
        """Intensity sweep over ``ncells`` cells x ``ncomp`` components."""
        return self.machine.intensity_per_dof * ncells * ncomp

    def newton_step(self, ncells: int) -> float:
        """Energy -> temperature Newton inversion over ``ncells`` cells."""
        return self.machine.newton_per_cell * ncells

    def iobeta_step(self, ncells: int, nbands: int) -> float:
        """Io/tau refresh over ``ncells`` x ``nbands``."""
        return self.machine.iobeta_per_cell_band * ncells * nbands

    def temperature_step(self, ncells: int, nbands: int) -> float:
        """Full temperature update (Newton + refresh)."""
        return self.newton_step(ncells) + self.iobeta_step(ncells, nbands)

    def boundary_step(self, n_boundary_faces: int, ncomp: int) -> float:
        """CPU boundary-callback work."""
        return self.machine.boundary_per_face_comp * n_boundary_faces * ncomp

    # --------------------------------------------------------------- aggregates
    def serial_step(self, w: BTEWorkload) -> float:
        """One full serial step (the paper's 1-process reference point)."""
        return (
            self.intensity_step(w.ncells, w.ncomp)
            + self.temperature_step(w.ncells, w.nbands)
            + self.boundary_step(w.n_boundary_faces, w.ncomp)
        )


def predicted_phase_costs(cost: CostModel, *, ncells: float, ncomp: float,
                          nbands: float, n_boundary_faces: float
                          ) -> dict[str, float]:
    """Per-step seconds the model predicts for each *timed phase* of the
    generated run loops, keyed by the timer names the targets use.

    This is the prediction side of the profile's drift column
    (:mod:`repro.obs.profile`): ``solve`` is the intensity sweep,
    ``boundary`` the boundary callbacks, ``post_step`` the temperature
    update that rides the post-step callbacks.
    """
    return {
        "solve": cost.intensity_step(int(ncells), int(ncomp)),
        "boundary": cost.boundary_step(int(n_boundary_faces), int(ncomp)),
        "post_step": cost.temperature_step(int(ncells), int(nbands)),
    }


def bands_per_rank(nbands: int, nranks: int) -> int:
    """Largest band count any rank owns under a contiguous band split —
    the quantity that gates band-parallel scaling (max 55 useful ranks)."""
    return math.ceil(nbands / nranks)


def halo_cells_per_rank(ncells: int, nranks: int, dim: int = 2) -> float:
    """Ghost-layer size estimate for a balanced cell partition.

    For a compact 2-D part of ``ncells/nranks`` cells the interface is
    ~``4 sqrt(n_local)`` cells (perimeter of a square patch); 3-D analog is
    ~``6 n_local^(2/3)``.
    """
    n_local = ncells / nranks
    if nranks == 1:
        return 0.0
    if dim == 2:
        return 4.0 * math.sqrt(n_local)
    if dim == 3:
        return 6.0 * n_local ** (2.0 / 3.0)
    return 2.0


__all__ = [
    "BTEWorkload",
    "CostModel",
    "bands_per_rank",
    "halo_cells_per_rank",
    "predicted_phase_costs",
]
