"""Finite-volume machinery shared by generated solvers and the reference code.

* :class:`~repro.fvm.geometry.FVGeometry` — flat arrays + the surface-divergence
  operator as CSR rows (built straight from the owner/neighbour arrays of a
  :class:`~repro.mesh.Mesh`; the scipy CSR matrix of the same operator
  exists on first use, for oracles and second-order reconstructions);
* :mod:`~repro.fvm.fields` — multi-component cell fields with index-space
  (direction x band) component bookkeeping;
* :mod:`~repro.fvm.kernels` — what generated sweeps read and the NumPy forms
  kept beside them (the folded upwind operator, MUSCL reconstruction);
* :mod:`~repro.fvm.boundary` — boundary-condition bookkeeping (ghost values,
  flux overrides, callback dispatch);
* :mod:`~repro.fvm.timesteppers` — explicit schemes (forward Euler, RK2, RK4)
  as Butcher tableaux, and their step in NumPy (the tests' reference).
"""

from repro.fvm.geometry import FVGeometry
from repro.fvm.fields import CellField, IndexSpace
from repro.fvm.boundary import BoundaryCondition, BoundarySet, BCKind
from repro.fvm.timesteppers import TABLEAUX, Tableau, advance, tableau
from repro.fvm import kernels

__all__ = [
    "FVGeometry",
    "CellField",
    "IndexSpace",
    "BoundaryCondition",
    "BoundarySet",
    "BCKind",
    "TABLEAUX",
    "Tableau",
    "advance",
    "tableau",
    "kernels",
]
