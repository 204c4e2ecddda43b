"""Script-style DSL commands (the Finch surface syntax).

These module-level functions operate on a *current problem* — the run
context's (:mod:`repro.util.context`), so it is per thread — mirroring the
paper's Julia input decks.  Each maps 1:1 onto a :class:`~repro.dsl.problem.
Problem` method; scripts that prefer explicit objects can use that class
directly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.dsl.entities import (
    CELL, VAR_ARRAY, VAR_SCALAR, Coefficient, Index, Reduction, Variable)
from repro.dsl.problem import FV_ONLY, Problem
from repro.fvm.boundary import BCKind
from repro.mesh.mesh import Mesh
from repro.util.context import current, update
from repro.util.errors import ConfigError

# solver / scheme constants, named as in the paper's listings (``FEM`` is
# kept so that ``solver_type(FEM)`` ends in a ConfigError, not a NameError)
FV = "FV"
FEM = "FEM"
EULER_EXPLICIT = "euler"
RK2 = "rk2"
RK4 = "rk4"

# boundary kinds
FLUX = BCKind.FLUX
DIRICHLET = BCKind.DIRICHLET
NEUMANN0 = BCKind.NEUMANN0
SYMMETRY = BCKind.SYMMETRY

def init_problem(name: str = "problem") -> Problem:
    """``initFinch("name")`` — start a fresh problem context."""
    return update(problem=Problem(name)).problem


def current_problem() -> Problem:
    """The active problem context (raises if :func:`init_problem` not called)."""
    problem = current().problem
    if problem is None:
        raise ConfigError("no problem initialised; call init_problem(...) first")
    return problem


def finalize() -> None:
    """Drop the current problem context (``finalizeFinch`` analogue)."""
    update(problem=None)


# ------------------------------------------------------------- configuration
def domain(dimension: int) -> None:
    """``domain(2)`` — spatial dimension."""
    current_problem().set_domain(dimension)


def solver_type(kind: str) -> None:
    """``solverType(FV)`` — discretisation family: ``FV``, the only one."""
    current_problem().set_solver_type(kind)


def time_stepper(name: str) -> None:
    """``timeStepper(EULER_EXPLICIT)`` — explicit scheme selection."""
    current_problem().set_stepper(name)


def set_steps(dt: float, nsteps: int) -> None:
    """``setSteps(dt, nsteps)`` — step size and count."""
    current_problem().set_steps(dt, nsteps)


def use_gpu(spec: Any = None) -> None:
    """``useCUDA()`` analogue — generate for the hybrid CPU/GPU target.

    ``spec`` selects a device model (default: the paper's A6000); the
    simulated device stands in for CUDA hardware (see DESIGN.md).
    """
    current_problem().enable_gpu(spec)


#: alias matching the paper's spelling
use_cuda = use_gpu


def partitioning(strategy: str, nparts: int = 1, index: str | Index | None = None) -> None:
    """Choose the parallel strategy: ``'cells'`` (mesh partitioning, the
    Metis path) or ``'bands'`` (equation partitioning over ``index``)."""
    current_problem().set_partitioning(strategy, nparts, index)


def mesh(source: Mesh | str) -> Mesh:
    """``mesh(...)`` — attach a mesh object or import a mesh file.

    File paths are dispatched by suffix: ``.msh`` -> Gmsh 2.2 ASCII,
    ``.mesh`` -> MEDIT ASCII (the paper's two import formats).
    """
    if isinstance(source, str):
        if source.endswith(".mesh"):
            from repro.mesh.medit_io import read_medit

            m = read_medit(source)
        else:
            from repro.mesh.gmsh_io import read_gmsh

            m = read_gmsh(source)
    else:
        m = source
    current_problem().set_mesh(m)
    return m


# ------------------------------------------------------------------ entities
def index(name: str, range: tuple[int, int]) -> Index:  # noqa: A002
    """``index("d", range=[1, ndirs])``."""
    return current_problem().add_index(name, range)


def variable(
    name: str,
    type: str = VAR_SCALAR,  # noqa: A002
    location: str = CELL,
    index: Sequence[Index] | None = None,  # noqa: A002
) -> Variable:
    """``variable("I", type=VAR_ARRAY, location=CELL, index=[d, b])``."""
    return current_problem().add_variable(name, type, location, index)


def coefficient(
    name: str,
    value: Any,
    type: str = VAR_SCALAR,  # noqa: A002
    index: Sequence[Index] | None = None,  # noqa: A002
) -> Coefficient:
    """``coefficient("vg", values, type=VAR_ARRAY, index=[b])``."""
    return current_problem().add_coefficient(name, value, type, index)


def callback_function(fn: Callable | None = None, name: str | None = None):
    """``@callbackFunction`` — import a user function into the DSL.

    Usable as a decorator or a plain call::

        @finch.callback_function
        def isothermal(ctx, I, vg, Sx, Sy, b, d, normal, T):
            ...
    """
    if fn is None:
        return lambda f: callback_function(f, name)
    current_problem().add_callback(fn, name)
    return fn


def custom_operator(name: str, expand: Callable, arity: int | None = None) -> None:
    """Register a custom symbolic operator usable in equation input."""
    current_problem().add_custom_operator(name, expand, arity)


def register_function(name: str, fn: Callable, code: str | None = None) -> None:
    """Register a named numeric function callable from equation terms.

    Unlike :func:`custom_operator` (a symbolic macro expanded at parse
    time), this binds a numeric implementation for ``Call(name, ...)``
    nodes in the unified function registry, making it available to the
    interpreter and — when ``code`` names it inside a generated module
    (e.g. ``"np.hypot"``) — emitted source.
    """
    from repro.symbolic.functions import register_function as _register

    _register(name, fn, code)


# ----------------------------------------------------------- equations / BCs
def conservation_form(variable: Variable | str, source: str) -> None:  # noqa: A002
    """``conservationForm(u, "s(u) - surface(f(u))")`` — declare the PDE."""
    current_problem().set_conservation_form(variable, source)


def weak_form(variable: Variable | str, source: str) -> None:  # noqa: A002
    """``weakForm(u, "...")`` — not supported: always a ConfigError (RPR001)."""
    raise ConfigError(f"weak_form: {FV_ONLY}")


def boundary(
    variable: Variable | str,  # noqa: A002
    region: int,
    kind: BCKind | str,
    spec: Any = None,
    reflection_map: np.ndarray | None = None,
) -> None:
    """``boundary(I, 1, FLUX, "isothermal(I, vg, Sx, Sy, b, d, normal, 300)")``."""
    current_problem().add_boundary(variable, region, kind, spec, reflection_map)


def initial(variable: Variable | str, values: Any) -> None:  # noqa: A002
    """``initial(I, values)`` — scalar, per-component, full array or f(x)."""
    current_problem().set_initial(variable, values)


def assembly_loops(order: Sequence[str | Index]) -> None:
    """``assemblyLoops([band, "cells", direction])`` — loop-nest order."""
    current_problem().set_assembly_loops(order)


def flux_order(order: int) -> None:
    """Flux-reconstruction order for ``upwind`` (1 = paper default, 2 = MUSCL)."""
    current_problem().set_flux_order(order)


def pre_step(fn: Callable, name: str | None = None) -> None:
    """``preStepFunction(fn)`` — host callback before every step."""
    current_problem().add_pre_step(fn, name)


def post_step(fn: Callable, name: str | None = None,
              reduce: Reduction | None = None) -> None:
    """``postStepFunction(fn)`` — host callback after every step (the BTE
    temperature update hangs here).  ``reduce`` declares the one
    :class:`Reduction` of the unknown the callback reads, see
    :meth:`Problem.add_post_step`."""
    current_problem().add_post_step(fn, name, reduce)


# -------------------------------------------------------------------- actions
def generate(target: str | None = None):
    """Generate a solver for the configured target without running it."""
    return current_problem().generate(target)


def solve(variable: Variable | str | None = None, target: str | None = None):
    """``solve(I)`` — generate code and run all time steps."""
    return current_problem().solve(variable, target)


__all__ = [name for name in dir() if not name.startswith("_")]
