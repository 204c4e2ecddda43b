"""Registry of symbolic operators used in DSL input.

The paper highlights that "a powerful feature of the DSL is the ability to
define and import any custom symbolic operator".  That is modelled here: an
:class:`OperatorRegistry` maps names appearing as :class:`Call` nodes in the
parsed input onto expansion functions that rewrite them into core expression
nodes.  The built-ins are the ones the paper uses:

``surface(f)``
    wraps its argument as a surface-integral term;
``upwind(v, u)``
    first-order upwind flux reconstruction, expanded into the
    ``conditional(v.n > 0, (v.n)*CELL1_u, (v.n)*CELL2_u)`` form shown in the
    paper's expanded representation;
``conditional(cond, a, b)``
    explicit two-way switch;
``dot(a, b)``
    vector dot product;
``average(u)``
    central (arithmetic mean) face reconstruction — the order-2 alternative
    to ``upwind``;
``burgers_flux`` style operators can be registered by users the same way.

Unregistered call names are treated as *callback functions* and survive to
code generation as host-side calls (see :mod:`repro.dsl.callbacks`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.symbolic.expr import (
    Add,
    Call,
    Cmp,
    Conditional,
    Expr,
    FaceDistance,
    FaceNormal,
    Mul,
    Num,
    Pow,
    SideValue,
    Surface,
    Vector,
)
from repro.util.errors import DSLError


@dataclass(frozen=True)
class SymbolicOperator:
    """A named symbolic operator.

    ``arity`` of ``None`` means variadic.  ``expand`` receives the (already
    parsed) argument expressions and returns the rewritten expression.
    """

    name: str
    arity: int | None
    expand: Callable[..., Expr]
    doc: str = ""


class OperatorRegistry:
    """Name → :class:`SymbolicOperator` lookup with user registration."""

    def __init__(self) -> None:
        self._ops: dict[str, SymbolicOperator] = {}

    def register(self, op: SymbolicOperator, replace: bool = False) -> None:
        if op.name in self._ops and not replace:
            raise DSLError(f"operator {op.name!r} is already registered")
        self._ops[op.name] = op

    def define(
        self, name: str, expand: Callable[..., Expr], arity: int | None = None, doc: str = ""
    ) -> SymbolicOperator:
        """Shorthand to build + register a custom operator."""
        op = SymbolicOperator(name=name, arity=arity, expand=expand, doc=doc)
        self.register(op)
        return op

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> list[str]:
        return sorted(self._ops)

    def expand_call(self, call: Call) -> Expr:
        """Expand one registered :class:`Call`; raises if the name is unknown."""
        op = self._ops.get(call.func)
        if op is None:
            raise DSLError(f"unknown symbolic operator {call.func!r}")
        if op.arity is not None and len(call.args) != op.arity:
            raise DSLError(
                f"operator {call.func!r} expects {op.arity} argument(s), "
                f"got {len(call.args)}"
            )
        return op.expand(*call.args)

    def copy(self) -> "OperatorRegistry":
        new = OperatorRegistry()
        new._ops = dict(self._ops)
        return new


# ---------------------------------------------------------------------------
# built-in expansions
# ---------------------------------------------------------------------------

def _vector_components(v: Expr) -> tuple[Expr, ...]:
    if isinstance(v, Vector):
        return v.components
    return (v,)  # scalar velocity == 1-D problem


def dot_with_normal(velocity: Expr) -> Expr:
    """``v . n`` where ``n`` is the outward face normal."""
    comps = _vector_components(velocity)
    terms = [Mul(c, FaceNormal(i + 1)) for i, c in enumerate(comps)]
    return terms[0] if len(terms) == 1 else Add(*terms)


def expand_upwind(velocity: Expr, quantity: Expr) -> Expr:
    """First-order upwind reconstruction of an advective face flux.

    Produces exactly the structure of the paper's expanded representation::

        conditional(v.n > 0, (v.n)*CELL1_u, (v.n)*CELL2_u)

    i.e. when the advection velocity points out of the owning cell the
    upstream value is the owner's (``CELL1``); otherwise it is the
    neighbour's (``CELL2``).
    """
    vn = dot_with_normal(velocity)
    return Conditional(
        Cmp(">", vn, Num(0)),
        Mul(vn, SideValue(quantity, 1)),
        Mul(vn, SideValue(quantity, 2)),
    )


def expand_average(quantity: Expr) -> Expr:
    """Central face reconstruction: mean of the two side values."""
    return Mul(Num(0.5), Add(SideValue(quantity, 1), SideValue(quantity, 2)))


def expand_jump(quantity: Expr) -> Expr:
    """Face jump ``CELL2_u - CELL1_u`` (used e.g. by diffusive fluxes)."""
    return Add(SideValue(quantity, 2), Mul(Num(-1), SideValue(quantity, 1)))


def expand_upwind2(velocity: Expr, quantity: Expr) -> Expr:
    """Second-order MUSCL upwind reconstruction (limited linear).

    Expands to an opaque :class:`~repro.symbolic.expr.Reconstruction` node —
    gradients and limiters have no compact symbolic form — that a generated
    sweep evaluates over its rows before the call, with
    ``kernels.muscl_flux``.  Selected by
    ``flux_order(2)``; the paper notes order one is "the default flux
    reconstruction order", implying exactly this knob.
    """
    from repro.symbolic.expr import Reconstruction

    return Reconstruction("muscl", dot_with_normal(velocity), quantity)


def expand_diffuse(diffusivity: Expr, quantity: Expr) -> Expr:
    """Two-point diffusive flux: ``D * (CELL2_u - CELL1_u) / FACEDIST``.

    This is the compact finite-volume approximation of ``D * grad(u) . n``
    on orthogonal meshes; ``surface(diffuse(D, u))`` therefore contributes
    ``div(D grad u)`` to the equation.
    """
    return Mul(
        diffusivity,
        Add(SideValue(quantity, 2), Mul(Num(-1), SideValue(quantity, 1))),
        Pow(FaceDistance(), Num(-1)),
    )


def expand_surface(expr: Expr) -> Expr:
    return Surface(expr)


def expand_conditional(cond: Expr, then: Expr, otherwise: Expr) -> Expr:
    if not isinstance(cond, Cmp):
        raise DSLError("conditional(...) requires a comparison as first argument")
    return Conditional(cond, then, otherwise)


def expand_dot(a: Expr, b: Expr) -> Expr:
    ca, cb = _vector_components(a), _vector_components(b)
    if len(ca) != len(cb):
        raise DSLError(f"dot(): dimension mismatch {len(ca)} vs {len(cb)}")
    terms = [Mul(x, y) for x, y in zip(ca, cb)]
    return terms[0] if len(terms) == 1 else Add(*terms)


def default_registry() -> OperatorRegistry:
    """The registry pre-loaded with the paper's built-in operators."""
    reg = OperatorRegistry()
    reg.register(
        SymbolicOperator(
            "surface", 1, expand_surface, "marks a surface-integral flux term"
        )
    )
    reg.register(
        SymbolicOperator(
            "upwind", 2, expand_upwind, "first-order upwind flux reconstruction"
        )
    )
    reg.register(
        SymbolicOperator(
            "average", 1, expand_average, "central (mean) face reconstruction"
        )
    )
    reg.register(SymbolicOperator("jump", 1, expand_jump, "face jump CELL2 - CELL1"))
    reg.register(
        SymbolicOperator(
            "diffuse", 2, expand_diffuse, "two-point diffusive flux D*grad(u).n"
        )
    )
    reg.register(
        SymbolicOperator(
            "upwind2", 2, expand_upwind2,
            "second-order MUSCL upwind flux reconstruction",
        )
    )
    reg.register(
        SymbolicOperator("conditional", 3, expand_conditional, "two-way switch")
    )
    reg.register(SymbolicOperator("dot", 2, expand_dot, "vector dot product"))
    return reg


__all__ = [
    "SymbolicOperator",
    "OperatorRegistry",
    "default_registry",
    "expand_upwind",
    "expand_average",
    "expand_jump",
    "expand_diffuse",
    "dot_with_normal",
]
