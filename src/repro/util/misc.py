"""Assorted helpers shared across the package."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

import numpy as np

from repro.util.errors import SolverError

T = TypeVar("T")


def ordered_unique(items: Iterable[T]) -> list[T]:
    """Unique items preserving first-seen order (hashable items)."""
    seen: set[T] = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def pairwise(items: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Consecutive pairs ``(items[i], items[i+1])``."""
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


def human_bytes(n: float) -> str:
    """``human_bytes(3.2e9) == '3.20 GB'`` (decimal units, as vendors do)."""
    for unit in ("B", "kB", "MB", "GB", "TB"):
        if abs(n) < 1000.0 or unit == "TB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1000.0
    raise AssertionError("unreachable")


def sum_is_finite(array: np.ndarray) -> bool:
    """The health check's flag, host and device: false for any NaN/Inf, at
    worst false for an overflowing sum of finite values: it means "look"."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(array.sum()))


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Raise :class:`SolverError` if ``array`` contains NaN/Inf.

    ``SolverState.check_health`` calls this once at the end of a ``run()``
    (unless the last sweep proved the unknown finite), so a blow-up is
    reported with the variable name and first offending index instead of
    silently propagating NaNs.  One reduction when all is well
    (:func:`sum_is_finite`); the index is searched for only when not.
    """
    if not sum_is_finite(array):
        bad = ~np.isfinite(array)
        if bad.any():
            idx = np.unravel_index(int(np.argmax(bad)), array.shape)
            raise SolverError(
                f"non-finite value in '{name}' at index {tuple(int(i) for i in idx)}: "
                f"{array[idx]!r}"
            )
    return array
