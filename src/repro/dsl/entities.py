"""DSL entities: indices, variables, coefficients, callbacks.

Mirrors the paper's entity model: "Variables and coefficients are
represented by entities that have a label, a symbolic representation,
values, and other metadata."

* :class:`Index` — a named discrete range (``d`` over directions, ``b`` over
  bands);
* :class:`Variable` — a mutable per-cell field; the *unknown* is the one
  named in ``conservation_form``; other variables (``Io``, ``beta``) are
  known data updated by callbacks between steps;
* :class:`Coefficient` — immutable data: a constant, a per-index array, or a
  function of space(+time) evaluated on cell/face centres;
* :class:`CallbackFunction` — user Python functions kept as opaque host-side
  calls (the ``@callbackFunction`` macro of the paper).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fvm.fields import IndexSpace
from repro.util.errors import DSLError

# entity type / location tags (named after the Finch constants)
VAR_ARRAY = "VAR_ARRAY"
VAR_SCALAR = "VAR_SCALAR"
CELL = "CELL"
NODE = "NODE"


@dataclass(frozen=True)
class Index:
    """A named index range.  DSL ranges are inclusive and 1-based, like the
    paper's ``index("d", range=[1, ndirs])``; ``size`` is the count."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise DSLError(f"index name {self.name!r} is not a valid identifier")
        if self.hi < self.lo:
            raise DSLError(f"index {self.name}: empty range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return self.name


@dataclass
class Variable:
    """A per-cell field declared with ``variable(...)``.

    ``indices`` defines the component space; an empty list is a scalar
    field.  ``values`` (ncomp, ncells) is attached when the mesh is known.
    """

    name: str
    var_type: str = VAR_SCALAR
    location: str = CELL
    indices: tuple[Index, ...] = ()
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise DSLError(f"variable name {self.name!r} is not a valid identifier")
        if self.location not in (CELL, NODE):
            raise DSLError(f"variable {self.name}: unknown location {self.location!r}")
        if self.var_type not in (VAR_ARRAY, VAR_SCALAR):
            raise DSLError(f"variable {self.name}: unknown type {self.var_type!r}")
        if self.var_type == VAR_SCALAR and self.indices:
            raise DSLError(f"scalar variable {self.name} cannot carry indices")
        if self.var_type == VAR_ARRAY and not self.indices:
            raise DSLError(f"array variable {self.name} needs at least one index")

    @property
    def space(self) -> IndexSpace:
        return IndexSpace(
            names=tuple(i.name for i in self.indices),
            sizes=tuple(i.size for i in self.indices),
        )

    @property
    def ncomp(self) -> int:
        return max(self.space.ncomp, 1)

    def index_names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.indices)


@dataclass
class Coefficient:
    """Known data declared with ``coefficient(...)``.

    ``value`` is one of:

    * a scalar — constant in space and components;
    * a 1-D/2-D array — per-component values (constant in space), matching
      the coefficient's declared ``indices``;
    * a callable ``f(x) -> value`` or ``f(x, t) -> value`` — evaluated on
      cell centroids (volume terms) and face centres (surface terms).
    """

    name: str
    value: Any
    var_type: str = VAR_SCALAR
    indices: tuple[Index, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise DSLError(f"coefficient name {self.name!r} is not a valid identifier")
        if callable(self.value):
            # f(x) or f(x, t): read off the signature once, here.  Calling
            # with two arguments and catching TypeError would call an
            # f(x, t) again, with one, when its own body raised one.
            try:
                kinds = [p.kind for p in inspect.signature(self.value).parameters.values()]
            except (TypeError, ValueError):  # a builtin without one: f(x)
                kinds = []
            Parameter = inspect.Parameter
            self.takes_time = Parameter.VAR_POSITIONAL in kinds or sum(
                k in (Parameter.POSITIONAL_ONLY, Parameter.POSITIONAL_OR_KEYWORD)
                for k in kinds) >= 2
            return
        arr = np.asarray(self.value, dtype=np.float64)
        if self.indices:
            expected = tuple(i.size for i in self.indices)
            if arr.shape != expected:
                raise DSLError(
                    f"coefficient {self.name}: value shape {arr.shape} does not "
                    f"match index sizes {expected}"
                )
        elif arr.ndim != 0:
            raise DSLError(
                f"coefficient {self.name}: non-scalar value needs declared indices"
            )
        object.__setattr__(self, "value", arr)

    @property
    def is_function(self) -> bool:
        return callable(self.value)

    def at(self, points: np.ndarray, t: float) -> np.ndarray:
        """A function coefficient's values on ``points`` at time ``t``."""
        args = (points, t) if self.takes_time else (points,)
        return np.asarray(self.value(*args), dtype=np.float64)

    @property
    def space(self) -> IndexSpace:
        return IndexSpace(
            names=tuple(i.name for i in self.indices),
            sizes=tuple(i.size for i in self.indices),
        )

    def index_names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.indices)


@dataclass(frozen=True)
class Reduction:
    """What a post-step callback reads of the unknown, as a pure array
    function a device can run ("intentionally written for GPU processing").

    ``fn(u, comps, out, work)`` fills and returns ``out``, shape
    ``(rows, ncells)``, from the unknown ``u`` of shape ``(ncomp, ncells)``;
    ``work`` is scratch of ``out``'s shape and ``comps`` the component rows a
    band-partitioned rank owns (``None``: all).  ``name`` names the array in
    the transfer plan.  Same bits wherever it runs.
    """

    name: str
    fn: Callable[..., Any]
    rows: int


@dataclass
class CallbackFunction:
    """A user Python function imported into the DSL.

    Callbacks stay host-side code: the hybrid code generator pins them to
    the CPU and plans data movement around them (the paper's central
    constraint).  ``fn`` signature depends on the role: boundary callbacks
    receive a :class:`repro.fvm.boundary.BoundaryContext`; step hooks receive
    the solver state object.  A post-step hook that declares a
    :class:`Reduction` is called as ``fn(state, reduced)`` by the device
    targets, which then move the reduced array instead of the unknown.
    """

    name: str
    fn: Callable[..., Any]
    doc: str = ""
    reduce: Reduction | None = None

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise DSLError(f"callback {self.name!r} is not callable")


class EntityTable:
    """All entities of one problem, with name-collision checking."""

    def __init__(self) -> None:
        self.indices: dict[str, Index] = {}
        self.variables: dict[str, Variable] = {}
        self.coefficients: dict[str, Coefficient] = {}
        self.callbacks: dict[str, CallbackFunction] = {}

    def _check_fresh(self, name: str) -> None:
        for kind, table in (
            ("index", self.indices),
            ("variable", self.variables),
            ("coefficient", self.coefficients),
            ("callback", self.callbacks),
        ):
            if name in table:
                raise DSLError(f"name {name!r} is already used by a {kind}")

    def add_index(self, ix: Index) -> Index:
        self._check_fresh(ix.name)
        self.indices[ix.name] = ix
        return ix

    def add_variable(self, v: Variable) -> Variable:
        self._check_fresh(v.name)
        for ix in v.indices:
            if ix.name not in self.indices:
                raise DSLError(
                    f"variable {v.name}: index {ix.name!r} was not declared"
                )
        self.variables[v.name] = v
        return v

    def add_coefficient(self, c: Coefficient) -> Coefficient:
        self._check_fresh(c.name)
        for ix in c.indices:
            if ix.name not in self.indices:
                raise DSLError(
                    f"coefficient {c.name}: index {ix.name!r} was not declared"
                )
        self.coefficients[c.name] = c
        return c

    def add_callback(self, cb: CallbackFunction) -> CallbackFunction:
        self._check_fresh(cb.name)
        self.callbacks[cb.name] = cb
        return cb

    def kind_of(self, name: str) -> str | None:
        """'index' | 'variable' | 'coefficient' | 'callback' | None."""
        if name in self.indices:
            return "index"
        if name in self.variables:
            return "variable"
        if name in self.coefficients:
            return "coefficient"
        if name in self.callbacks:
            return "callback"
        return None


__all__ = [
    "Index",
    "Variable",
    "Coefficient",
    "CallbackFunction",
    "Reduction",
    "EntityTable",
    "VAR_ARRAY",
    "VAR_SCALAR",
    "CELL",
    "NODE",
]
