"""The single registry of named numeric functions usable from expressions.

Historically :data:`repro.symbolic.evaluate.DEFAULT_FUNCTIONS` (numpy
callables for the interpreter) and ``repro.codegen.emit._MATH_FUNCS``
(numpy source strings for the code generators) were two hand-maintained
copies of the same table.  This module is now the one source of truth:
both views are derived from it, so a function registered here is
automatically usable by ``evaluate()`` and by emitted source (when it has
a ``code`` string).

Registered functions must be *pure* and elementwise-broadcasting over
scalars and numpy arrays — the differential tests rely on a function
returning bit-identical values wherever it is evaluated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.errors import DSLError


@dataclass(frozen=True)
class RegisteredFunction:
    """One named function: the callable plus (optionally) its numpy source.

    ``code`` is a Python expression string naming the callable inside a
    generated module's namespace (e.g. ``"np.abs"``).  Functions without a
    ``code`` string cannot appear in emitted source, but still work in the
    interpreter, which calls ``fn`` directly.
    """

    name: str
    fn: Callable[..., Any]
    code: str | None = None


_BUILTINS: dict[str, RegisteredFunction] = {
    name: RegisteredFunction(name, fn, code)
    for name, fn, code in (
        ("abs", np.abs, "np.abs"),
        ("min", np.minimum, "np.minimum"),
        ("max", np.maximum, "np.maximum"),
        ("sqrt", np.sqrt, "np.sqrt"),
        ("exp", np.exp, "np.exp"),
        ("log", np.log, "np.log"),
        ("sin", np.sin, "np.sin"),
        ("cos", np.cos, "np.cos"),
        ("tanh", np.tanh, "np.tanh"),
    )
}

_REGISTRY: dict[str, RegisteredFunction] = dict(_BUILTINS)


def register_function(name: str, fn: Callable[..., Any], code: str | None = None) -> None:
    """Register (or override) a named function for use in expressions.

    ``fn`` must accept scalars and numpy arrays and broadcast elementwise.
    Pass ``code`` (a source expression such as ``"np.hypot"``) only when the
    callable is importable from a generated module's namespace; without it
    the function is interpreter only.
    """
    if not name or not isinstance(name, str):
        raise DSLError(f"function name must be a non-empty string, got {name!r}")
    if not callable(fn):
        raise DSLError(f"function {name!r} must be callable, got {type(fn).__name__}")
    _REGISTRY[name] = RegisteredFunction(name, fn, code)


def unregister_function(name: str) -> None:
    """Remove a registered function (builtins are restored, not removed)."""
    if name in _BUILTINS:
        _REGISTRY[name] = _BUILTINS[name]
    else:
        _REGISTRY.pop(name, None)


def get_function(name: str) -> RegisteredFunction | None:
    """The registry entry for ``name``, or None."""
    return _REGISTRY.get(name)


def function_callables(extra: Mapping[str, Callable[..., Any]] | None = None) -> dict[str, Callable[..., Any]]:
    """Name → callable snapshot (registry plus per-call ``extra`` overrides)."""
    table = {name: entry.fn for name, entry in _REGISTRY.items()}
    if extra:
        table.update(extra)
    return table


class _LiveView(Mapping):
    """Read-through mapping over the registry, projecting one field.

    Keeps the legacy module-level tables (``DEFAULT_FUNCTIONS``,
    ``_MATH_FUNCS``) live: functions registered after import are visible
    without re-importing.
    """

    def __init__(self, project: Callable[[RegisteredFunction], Any], keep: Callable[[RegisteredFunction], bool]):
        self._project = project
        self._keep = keep

    def _table(self) -> dict[str, Any]:
        return {
            name: self._project(entry)
            for name, entry in _REGISTRY.items()
            if self._keep(entry)
        }

    def __getitem__(self, name: str) -> Any:
        entry = _REGISTRY.get(name)
        if entry is None or not self._keep(entry):
            raise KeyError(name)
        return self._project(entry)

    def __iter__(self) -> Iterator[str]:
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self._table())


#: live name → numpy-callable view (the interpreter's function table)
FUNCTION_CALLABLES: Mapping[str, Callable[..., Any]] = _LiveView(
    lambda entry: entry.fn, lambda entry: True
)

#: live name → source-string view (the code generators' function table);
#: only functions with a ``code`` string appear here
FUNCTION_CODES: Mapping[str, str] = _LiveView(
    lambda entry: entry.code, lambda entry: entry.code is not None
)


__all__ = [
    "RegisteredFunction",
    "register_function",
    "unregister_function",
    "get_function",
    "function_callables",
    "FUNCTION_CALLABLES",
    "FUNCTION_CODES",
]
