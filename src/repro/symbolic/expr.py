"""Immutable expression-tree nodes.

Design notes
------------
* Nodes are immutable and structurally hashable, so they can be used as dict
  keys during collection/classification and memoised safely.
* ``Add``/``Mul`` are n-ary and kept flat; construction through the
  ``+ - * /`` operators does **not** simplify (that is
  :func:`repro.symbolic.simplify.simplify`'s job) but does flatten
  same-class children so trees stay shallow.
* Subtraction and division are sugar: ``a - b == Add(a, Mul(-1, b))`` and
  ``a / b == Mul(a, Pow(b, -1))`` — the same canonical form SymEngine uses.
* The lowering markers :class:`Surface`, :class:`TimeDerivative`,
  :class:`SideValue` and :class:`FaceNormal` give the "expanded symbolic
  representation" of the paper its structure (``SURFACE*...``,
  ``TIMEDERIVATIVE*...``, ``CELL1_u_1``, ``NORMAL_1``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

from repro.util.errors import ExprError

_NUMERIC = (int, float)


def as_expr(value: "Expr | int | float") -> "Expr":
    """Coerce a Python number to :class:`Num`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("booleans are not valid expression leaves")
    if isinstance(value, _NUMERIC):
        return Num(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


class Expr:
    """Base class for all symbolic nodes.

    Subclasses define ``args`` (a tuple of children / payload) and the class
    identity; equality and hashing are structural over
    ``(type, identity_key)``.
    """

    __slots__ = ("_hash",)

    # ---- identity ---------------------------------------------------------
    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[union-attr]

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", h)
        return h

    # ---- tree protocol ----------------------------------------------------
    @property
    def children(self) -> tuple["Expr", ...]:
        """Sub-expressions (empty for leaves)."""
        return ()

    def rebuild(self, *children: "Expr") -> "Expr":
        """Reconstruct this node with replaced children (same arity)."""
        if children:
            raise TypeError(f"{type(self).__name__} is a leaf; cannot rebuild with children")
        return self

    # ---- ordering (canonical arg sort in Add/Mul) --------------------------
    def sort_key(self) -> tuple:
        """Total order used to canonicalise Add/Mul argument order."""
        return (_CLASS_RANK.get(type(self).__name__, 99), str(self))

    # ---- arithmetic sugar ---------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: Any) -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Add(self, Mul(Num(-1), as_expr(other)))

    def __rsub__(self, other: Any) -> "Expr":
        return Add(as_expr(other), Mul(Num(-1), self))

    def __mul__(self, other: Any) -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Mul(self, Pow(as_expr(other), Num(-1)))

    def __rtruediv__(self, other: Any) -> "Expr":
        return Mul(as_expr(other), Pow(self, Num(-1)))

    def __pow__(self, other: Any) -> "Expr":
        return Pow(self, as_expr(other))

    def __neg__(self) -> "Expr":
        return Mul(Num(-1), self)

    def __pos__(self) -> "Expr":
        return self

    # comparisons build Cmp nodes (used in conditionals), they do NOT compare
    def __gt__(self, other: Any) -> "Cmp":
        return Cmp(">", self, as_expr(other))

    def __lt__(self, other: Any) -> "Cmp":
        return Cmp("<", self, as_expr(other))

    def __ge__(self, other: Any) -> "Cmp":
        return Cmp(">=", self, as_expr(other))

    def __le__(self, other: Any) -> "Cmp":
        return Cmp("<=", self, as_expr(other))

    def __repr__(self) -> str:
        return str(self)


# Rank drives canonical ordering: numbers first in products, symbols before
# compound nodes, markers last.
_CLASS_RANK = {
    "Num": 0,
    "Sym": 1,
    "FaceNormal": 2,
    "FaceDistance": 2,
    "Indexed": 3,
    "SideValue": 4,
    "Pow": 5,
    "Mul": 6,
    "Add": 7,
    "Call": 8,
    "Cmp": 9,
    "Conditional": 10,
    "Vector": 11,
    "Surface": 12,
    "TimeDerivative": 13,
}


class Num(Expr):
    """Numeric literal (int or float)."""

    __slots__ = ("value",)

    def __init__(self, value: int | float):
        if isinstance(value, bool) or not isinstance(value, _NUMERIC):
            raise TypeError(f"Num expects int/float, got {type(value).__name__}")
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            value = int(value)
        object.__setattr__(self, "value", value)

    def _key(self) -> tuple:
        return (self.value,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def sort_key(self) -> tuple:
        return (0, float(self.value))

    def __str__(self) -> str:
        return str(self.value)


class _Leaf(Expr):
    """Shared immutability plumbing for payload-only leaves."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")


class Sym(_Leaf):
    """A named scalar symbol, e.g. ``dt`` or the flattened ``_u_1``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ExprError("symbol name must be non-empty")
        object.__setattr__(self, "name", name)

    def _key(self) -> tuple:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


class Indexed(_Leaf):
    """Reference to an indexed entity component, e.g. ``I[d,b]``.

    ``base`` is the entity name, ``indices`` a tuple of index labels (strings
    for symbolic index names like ``d``, ints for literal positions).
    """

    __slots__ = ("base", "indices")

    def __init__(self, base: str, indices: tuple[str | int, ...]):
        if not indices:
            raise ExprError(f"Indexed('{base}') needs at least one index")
        for ix in indices:
            if not isinstance(ix, (str, int)) or isinstance(ix, bool):
                raise TypeError(f"index must be str or int, got {ix!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "indices", tuple(indices))

    def _key(self) -> tuple:
        return (self.base, self.indices)

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.indices)
        return f"{self.base}[{inner}]"


class FaceNormal(_Leaf):
    """Component of the outward face normal: prints as ``NORMAL_i``."""

    __slots__ = ("component",)

    def __init__(self, component: int):
        if component < 1 or component > 3:
            raise ExprError("face-normal component must be 1, 2 or 3")
        object.__setattr__(self, "component", int(component))

    def _key(self) -> tuple:
        return (self.component,)

    def __str__(self) -> str:
        return f"NORMAL_{self.component}"


class FaceDistance(_Leaf):
    """Gradient distance across a face: prints as ``FACEDIST``.

    For interior faces this is the owner-to-neighbour centroid distance
    projected on the face normal; on boundary faces, the owner-to-face
    distance (ghost values live *at the face* under the Dirichlet
    face-value convention).  Used by two-point diffusive flux
    reconstructions (the ``diffuse`` operator).
    """

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "FACEDIST"


class SideValue(Expr):
    """A quantity evaluated on one side of a face.

    ``side=1`` is the cell that owns the face ("CELL1"), ``side=2`` the
    neighbour across it ("CELL2") — matching the paper's
    ``CELL1_u_1``/``CELL2_u_1`` notation in the expanded form.
    """

    __slots__ = ("expr", "side")

    def __init__(self, expr: Expr, side: int):
        if side not in (1, 2):
            raise ExprError("side must be 1 (owner) or 2 (neighbour)")
        object.__setattr__(self, "expr", as_expr(expr))
        object.__setattr__(self, "side", int(side))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.expr, self.side)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, *children: Expr) -> "SideValue":
        (expr,) = children
        return SideValue(expr, self.side)

    def __str__(self) -> str:
        inner = str(self.expr)
        # flattened component names already start with '_': CELL1_u_1, not CELL1__u_1
        if inner.startswith("_"):
            inner = inner[1:]
        return f"CELL{self.side}_{inner}"


class _Nary(Expr):
    __slots__ = ("args",)

    def __init__(self, *args: Expr | int | float):
        coerced: list[Expr] = []
        for a in args:
            a = as_expr(a)
            # flatten same-class children so trees stay shallow
            if type(a) is type(self):
                coerced.extend(a.args)  # type: ignore[attr-defined]
            else:
                coerced.append(a)
        if len(coerced) < 1:
            raise ExprError(f"{type(self).__name__} needs at least one argument")
        object.__setattr__(self, "args", tuple(coerced))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.args,)

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.args

    def rebuild(self, *children: Expr) -> "Expr":
        return type(self)(*children)


def _needs_parens_in_product(e: Expr) -> bool:
    return isinstance(e, (Add, Cmp)) or (isinstance(e, Num) and e.value < 0)


class Add(_Nary):
    """n-ary sum."""

    __slots__ = ()

    def __str__(self) -> str:
        parts: list[str] = []
        for a in self.args:
            # a comparison binds looser than arithmetic: one nested in a sum
            # (or a product, a power, a negation) keeps its parentheses
            s = f"({a})" if isinstance(a, Cmp) else str(a)
            if parts:
                if s.startswith("-"):
                    parts.append(s)
                else:
                    parts.append(f"+{s}")
            else:
                parts.append(s)
        return "".join(parts)


class Mul(_Nary):
    """n-ary product.  ``Mul(-1, x)`` prints as ``-x``."""

    __slots__ = ()

    def __str__(self) -> str:
        args = list(self.args)
        sign = ""
        if args and isinstance(args[0], Num) and args[0].value == -1 and len(args) > 1:
            sign = "-"
            args = args[1:]
        parts = []
        for a in args:
            s = str(a)
            if _needs_parens_in_product(a):
                s = f"({s})"
            parts.append(s)
        return sign + "*".join(parts)


class Pow(Expr):
    """``base ** exponent``.  Division is ``Pow(x, -1)``."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr | int | float, exponent: Expr | int | float):
        object.__setattr__(self, "base", as_expr(base))
        object.__setattr__(self, "exponent", as_expr(exponent))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.base, self.exponent)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.base, self.exponent)

    def rebuild(self, *children: Expr) -> "Pow":
        base, exponent = children
        return Pow(base, exponent)

    def __str__(self) -> str:
        b = str(self.base)
        if isinstance(self.base, (Add, Mul, Pow, Cmp)) or (
            isinstance(self.base, Num) and self.base.value < 0
        ):
            b = f"({b})"
        e = str(self.exponent)
        if isinstance(self.exponent, (Add, Mul, Pow, Cmp)) or (
            isinstance(self.exponent, Num) and self.exponent.value < 0
        ):
            e = f"({e})"
        return f"{b}^{e}"


class Call(Expr):
    """Application of a named function/operator: ``name(args...)``.

    Used both for registered symbolic operators awaiting expansion
    (``upwind``, ``surface``) and for user callback functions that survive
    all the way into generated code as host-side calls.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: str, *args: Expr | int | float):
        if not func:
            raise ExprError("function name must be non-empty")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(as_expr(a) for a in args))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.func, self.args)

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.args

    def rebuild(self, *children: Expr) -> "Call":
        return Call(self.func, *children)

    def __str__(self) -> str:
        return f"{self.func}({','.join(str(a) for a in self.args)})"


_CMP_OPS = (">", "<", ">=", "<=", "==", "!=")


class Cmp(Expr):
    """Binary comparison producing a boolean — only valid inside conditionals."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr | int | float, rhs: Expr | int | float):
        if op not in _CMP_OPS:
            raise ExprError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", as_expr(lhs))
        object.__setattr__(self, "rhs", as_expr(rhs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.op, self.lhs, self.rhs)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def rebuild(self, *children: Expr) -> "Cmp":
        lhs, rhs = children
        return Cmp(self.op, lhs, rhs)

    # Cmp deliberately does not override __bool__ usefully: symbolic
    # comparisons must not be used in Python `if`s.
    def __bool__(self) -> bool:
        raise TypeError("symbolic comparison has no truth value; use Conditional")

    def __str__(self) -> str:
        # comparisons do not chain in the grammar: a nested one keeps its parentheses
        lhs, rhs = (f"({e})" if isinstance(e, Cmp) else str(e) for e in (self.lhs, self.rhs))
        return f"{lhs} {self.op} {rhs}"


class Conditional(Expr):
    """``conditional(cond, then, otherwise)`` — the paper's upwind switch."""

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Expr | int | float, otherwise: Expr | int | float):
        if not isinstance(cond, Cmp):
            raise TypeError("Conditional condition must be a comparison (Cmp)")
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", as_expr(then))
        object.__setattr__(self, "otherwise", as_expr(otherwise))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.cond, self.then, self.otherwise)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def rebuild(self, *children: Expr) -> "Conditional":
        cond, then, otherwise = children
        if not isinstance(cond, Cmp):
            raise TypeError("Conditional condition must remain a comparison")
        return Conditional(cond, then, otherwise)

    def __str__(self) -> str:
        return f"conditional({self.cond}, {self.then}, {self.otherwise})"


class Vector(Expr):
    """Column vector literal ``[a; b; c]`` (used for e.g. ``[Sx[d];Sy[d]]``)."""

    __slots__ = ("components",)

    def __init__(self, *components: Expr | int | float):
        if len(components) < 1:
            raise ExprError("Vector needs at least one component")
        object.__setattr__(self, "components", tuple(as_expr(c) for c in components))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.components,)

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.components

    def rebuild(self, *children: Expr) -> "Vector":
        return Vector(*children)

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return "[" + ";".join(str(c) for c in self.components) + "]"


class Reconstruction(Expr):
    """A named higher-order face reconstruction of an advective flux.

    First-order upwinding expands into explicit ``conditional`` trees (the
    paper's listings); higher orders need cell gradients and limiters that
    have no compact closed form, so they stay opaque nodes that a generated
    sweep evaluates before the call with the one library kernel
    (``kernels.muscl_flux``).  Prints as ``RECONSTRUCT<scheme>(v.n, u)``.
    """

    __slots__ = ("scheme", "velocity_normal", "quantity")

    def __init__(self, scheme: str, velocity_normal: "Expr", quantity: "Expr"):
        if not scheme:
            raise ExprError("reconstruction scheme name must be non-empty")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "velocity_normal", as_expr(velocity_normal))
        object.__setattr__(self, "quantity", as_expr(quantity))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.scheme, self.velocity_normal, self.quantity)

    @property
    def children(self) -> tuple["Expr", ...]:
        return (self.velocity_normal, self.quantity)

    def rebuild(self, *children: "Expr") -> "Reconstruction":
        vn, qty = children
        return Reconstruction(self.scheme, vn, qty)

    def __str__(self) -> str:
        return f"RECONSTRUCT{self.scheme}({self.velocity_normal}, {self.quantity})"


class Surface(Expr):
    """Marks a term as a *surface integral* contribution.

    Prints in the paper's expanded style: ``SURFACE*<expr>``.
    """

    __slots__ = ("expr",)

    def __init__(self, expr: Expr | int | float):
        object.__setattr__(self, "expr", as_expr(expr))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.expr,)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, *children: Expr) -> "Surface":
        (expr,) = children
        return Surface(expr)

    def __str__(self) -> str:
        return f"SURFACE*{self.expr}"


class TimeDerivative(Expr):
    """Marks the implicit time-derivative term: prints ``TIMEDERIVATIVE*<expr>``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr | int | float):
        object.__setattr__(self, "expr", as_expr(expr))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Expr nodes are immutable")

    def _key(self) -> tuple:
        return (self.expr,)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, *children: Expr) -> "TimeDerivative":
        (expr,) = children
        return TimeDerivative(expr)

    def __str__(self) -> str:
        return f"TIMEDERIVATIVE*{self.expr}"


# ---------------------------------------------------------------------------
# tree utilities
# ---------------------------------------------------------------------------

def preorder(expr: Expr) -> Iterator[Expr]:
    """Depth-first pre-order traversal of all nodes (including ``expr``)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def free_symbols(expr: Expr) -> set[str]:
    """Names of all :class:`Sym` leaves in the tree."""
    return {n.name for n in preorder(expr) if isinstance(n, Sym)}


def free_indices(expr: Expr) -> set[str]:
    """Symbolic index labels used by :class:`Indexed` leaves (e.g. {'d','b'})."""
    out: set[str] = set()
    for n in preorder(expr):
        if isinstance(n, Indexed):
            out.update(i for i in n.indices if isinstance(i, str))
    return out


def substitute(expr: Expr, mapping: dict[Expr, Expr] | Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up substitution.

    ``mapping`` is either a dict of exact-node replacements or a callable
    returning a replacement (or ``None`` to keep the node).  Children are
    rewritten before the node itself is looked up, so rules can match the
    rewritten form.
    """
    if callable(mapping) and not isinstance(mapping, dict):
        lookup = mapping
    else:
        table: dict[Expr, Expr] = dict(mapping)  # type: ignore[arg-type]

        def lookup(node: Expr) -> Expr | None:
            return table.get(node)

    def rec(node: Expr) -> Expr:
        kids = node.children
        if kids:
            new_kids = tuple(rec(k) for k in kids)
            if new_kids != kids:
                node = node.rebuild(*new_kids)
        repl = lookup(node)
        return node if repl is None else repl

    return rec(expr)
