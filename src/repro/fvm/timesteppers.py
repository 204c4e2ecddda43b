"""Explicit time-integration schemes, as Butcher tableaux.

The paper uses forward Euler ("a simple explicit scheme such as forward
Euler is reasonable" for the small steps the BTE transient needs); RK2/RK4
are the DSL's other explicit options.  Each is a :class:`Tableau` of the one
table every target reads, :data:`TABLEAUX`: the cpu target prints its stages
into C (:func:`repro.codegen.ctile.lower`); :func:`advance` is its step in
NumPy, the tests' reference."""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.util.errors import ConfigError


class Tableau(NamedTuple):
    """An explicit scheme whose stage ``s + 1`` reads ``u + (a[s] * dt) *
    k_s`` at ``t + c[s + 1] * dt`` and whose step is ``u + (dt / div) *
    sum(b * k)``, the sum from its first weighted ``k`` itself, left to
    right (NumPy's association, which the generated stages print)."""

    name: str
    a: tuple[float, ...]  # per stage after the first: the weight of the last ``k``
    c: tuple[float, ...]  # per stage: its time
    b: tuple[float, ...]  # per stage: its ``k``'s combination weight
    div: float = 1.0

    @property
    def stages(self) -> int:
        return len(self.c)


_EULER = Tableau("euler", (), (0.0,), (1.0,))
_RK2 = Tableau("rk2", (0.5,), (0.0, 0.5), (0.0, 1.0))  # the explicit midpoint method
_RK4 = Tableau("rk4", (0.5, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0)
#: every scheme by name, with its aliases
TABLEAUX = {"euler": _EULER, "euler_explicit": _EULER, "rk2": _RK2, "midpoint": _RK2,
            "rk4": _RK4}


def tableau(name: str) -> Tableau:
    """The scheme called ``name`` (any case); :class:`ConfigError` else."""
    found = TABLEAUX.get(name.lower())
    if found is None:
        raise ConfigError(f"unknown time stepper {name!r}; available: {sorted(TABLEAUX)}")
    return found


def advance(scheme: Tableau, u: np.ndarray, t: float, dt: float,
            rhs: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """One step of ``scheme`` from ``u`` at ``t``, ``rhs(u, t) -> du/dt``."""
    total, y = None, u
    for s, (c, w) in enumerate(zip(scheme.c, scheme.b)):
        k = rhs(y, t + c * dt if s else t)
        if w:  # (``1.0 * k`` is ``k``, bit for bit)
            total = w * k if total is None else total + w * k
        if s + 1 < scheme.stages:
            y = u + (scheme.a[s] * dt) * k
    return u + (dt / scheme.div) * total


__all__ = ["TABLEAUX", "Tableau", "advance", "tableau"]
