"""CPU serial code-generation target: the all-host plan.

The finite-volume program (:class:`~repro.codegen.target_base.FVTarget`)
with every task of the step on the host — the constant
:data:`~repro.codegen.target_base.HOST_PLAN`, no device, no placement
optimiser — and no partition: the paper's Section II-B nested-loop solver,
a sequential time loop around ``compute_rhs``, one generated C sweep of
the component rows (:mod:`repro.codegen.ctile`) per stage of the scheme.  The emitted source is
plain, readable Python over NumPy + :mod:`repro.fvm.kernels` around it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codegen.state import SolverState
from repro.codegen.target_base import FVTarget, GeneratedSolver
from repro.ir.build import build_ir  # noqa: F401  (the build's stages, named here)
from repro.ir.lowering import lower_conservation_form  # noqa: F401

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


class CPUSerialTarget(FVTarget):
    """Serial CPU generation (the baseline the paper's Fig. 9 starts from)."""

    name = "cpu"
    euler_only = False

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        return self.bind_host(problem, artifact, SolverState(problem))


__all__ = ["CPUSerialTarget"]
