"""Multi-component cell fields and index-space bookkeeping.

The BTE unknown ``I[d, b]`` is, per cell, a 2-D array of components indexed
by direction ``d`` and band ``b``.  :class:`IndexSpace` owns the mapping
between symbolic index labels and flattened component positions (row-major
over the declared index order), and :class:`CellField` stores the data as a
contiguous ``(ncomp, ncells)`` array — components outermost, cells innermost,
so the per-component cell sweep touches contiguous memory.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.util.errors import DSLError


@dataclass(frozen=True)
class IndexSpace:
    """An ordered set of named index ranges, e.g. ``(d: 20, b: 55)``.

    Ranges are 1-based on the DSL side (matching the paper's Julia input)
    and 0-based internally; all methods here take/return 0-based values.
    """

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.sizes):
            raise DSLError("index names and sizes differ in length")
        if len(set(self.names)) != len(self.names):
            raise DSLError(f"duplicate index names in {self.names}")
        if any(s < 1 for s in self.sizes):
            raise DSLError(f"index sizes must be positive: {self.sizes}")

    @property
    def ncomp(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DSLError(f"unknown index {name!r} (have {self.names})") from None

    def size(self, name: str) -> int:
        return self.sizes[self.position(name)]

    def flatten(self, values: Sequence[int]) -> int:
        """Row-major flattening of a full 0-based index tuple."""
        if len(values) != len(self.sizes):
            raise DSLError(
                f"expected {len(self.sizes)} indices, got {len(values)}"
            )
        flat = 0
        for v, s in zip(values, self.sizes):
            if not (0 <= v < s):
                raise DSLError(f"index value {v} out of range [0, {s})")
            flat = flat * s + v
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not (0 <= flat < self.ncomp):
            raise DSLError(f"component {flat} out of range [0, {self.ncomp})")
        out = []
        for s in reversed(self.sizes):
            out.append(flat % s)
            flat //= s
        return tuple(reversed(out))

    def axis_values(self, name: str) -> np.ndarray:
        """For every flat component, the value of index ``name`` (0-based).

        This is how the generated code broadcasts per-band coefficients like
        ``vg[b]`` over the flattened (direction x band) component axis:
        ``vg_per_component = vg[space.axis_values('b')]``.
        """
        pos = self.position(name)
        comps = np.arange(self.ncomp)
        # strip trailing dimensions, then take modulo
        stride = 1
        for s in self.sizes[pos + 1 :]:
            stride *= s
        return (comps // stride) % self.sizes[pos]

    @staticmethod
    def scalar() -> "IndexSpace":
        """The space of a plain scalar variable (one component)."""
        return IndexSpace(names=(), sizes=())


# a scalar IndexSpace has ncomp == 1 via the empty product
class CellField:
    """A named per-cell field with ``space.ncomp`` components.

    Data layout is ``(ncomp, ncells)`` float64 C-order.  Scalar fields still
    carry a leading axis of length 1, so generated code is shape-uniform.
    """

    def __init__(
        self,
        name: str,
        space: IndexSpace,
        ncells: int,
        data: np.ndarray | None = None,
    ):
        self.name = name
        self.space = space
        self.ncells = int(ncells)
        shape = (max(space.ncomp, 1), self.ncells)
        if data is None:
            self.data = np.zeros(shape, dtype=np.float64)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != shape:
                raise DSLError(
                    f"field {name!r}: data shape {data.shape} != expected {shape}"
                )
            self.data = np.ascontiguousarray(data)

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    def component(self, *indices: int) -> np.ndarray:
        """View of one component's cell array (0-based indices)."""
        if not indices:
            return self.data[0]
        return self.data[self.space.flatten(indices)]

    def fill(self, value: float) -> None:
        self.data.fill(value)

    def copy(self) -> "CellField":
        return CellField(self.name, self.space, self.ncells, self.data.copy())

    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:
        return f"CellField({self.name!r}, ncomp={self.ncomp}, ncells={self.ncells})"


__all__ = ["IndexSpace", "CellField"]
