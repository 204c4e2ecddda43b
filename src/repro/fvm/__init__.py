"""Finite-volume machinery shared by generated solvers and the reference code.

* :class:`~repro.fvm.geometry.FVGeometry` — flat arrays + the surface-divergence
  operator in gather form (per-row face and weight lists built straight from
  the owner/neighbour arrays of a :class:`~repro.mesh.Mesh`; the scipy CSR
  matrix of the same operator exists on first use, for oracles and
  second-order reconstructions);
* :mod:`~repro.fvm.fields` — multi-component cell fields with index-space
  (direction x band) component bookkeeping;
* :mod:`~repro.fvm.kernels` — the vectorised face/cell kernels generated code
  calls into (tile plans, the folded upwind operator, MUSCL reconstruction);
* :mod:`~repro.fvm.boundary` — boundary-condition bookkeeping (ghost values,
  flux overrides, callback dispatch);
* :mod:`~repro.fvm.timesteppers` — explicit schemes (forward Euler, RK2, RK4).
"""

from repro.fvm.geometry import FVGeometry
from repro.fvm.fields import CellField, IndexSpace
from repro.fvm.boundary import BoundaryCondition, BoundarySet, BCKind
from repro.fvm.timesteppers import (
    TimeStepper,
    ForwardEuler,
    RK2,
    RK4,
    make_stepper,
)
from repro.fvm import kernels

__all__ = [
    "FVGeometry",
    "CellField",
    "IndexSpace",
    "BoundaryCondition",
    "BoundarySet",
    "BCKind",
    "TimeStepper",
    "ForwardEuler",
    "RK2",
    "RK4",
    "make_stepper",
    "kernels",
]
