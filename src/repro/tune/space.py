"""The tunable configuration space.

A :class:`TuneConfig` is a sparse override of the declarative knobs that
change *performance but not answers*: the assembly loop-nest order (the
paper's ``assemblyLoops``), the cell-vs-band partitioning strategy, the
placement optimiser's forced-offload override, and the hybrid GPU
target's kernel chunking.  ``None`` fields mean "leave the problem's own
choice alone", so ``TuneConfig()`` is the identity — the default
configuration every search starts from and is compared against.

:func:`build_space` enumerates the candidates that make sense for one
problem (no GPU knobs for CPU problems, no partition strategies for
single-rank runs); :func:`apply_config` imposes a configuration on a
freshly built problem before generation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


@dataclass(frozen=True)
class TuneConfig:
    """One point of the tuning space (``None`` = keep the problem's value)."""

    #: assembly loop-nest order, e.g. ``("b", "cells", "d")``
    assembly_order: tuple[str, ...] | None = None
    #: ``"cells"`` or ``"bands"`` (multi-rank problems only)
    partition_strategy: str | None = None
    #: index to split over when ``partition_strategy == "bands"``
    partition_index: str | None = None
    #: placement override: force every placeable task onto the device
    placement_force_offload: bool | None = None
    #: hybrid GPU target: split the interior kernel into N launches
    gpu_kernel_chunks: int | None = None

    @property
    def is_default(self) -> bool:
        return all(getattr(self, f.name) is None for f in fields(self))

    def as_dict(self) -> dict[str, Any]:
        """Sparse JSON form (``None`` fields omitted) for the tuning DB."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TuneConfig":
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for name, value in data.items():
            if name not in known:
                continue  # forward-compatible: ignore knobs we don't know
            if name == "assembly_order" and value is not None:
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def describe(self) -> str:
        items = self.as_dict()
        if not items:
            return "default"
        return ", ".join(f"{k}={v}" for k, v in sorted(items.items()))


def apply_config(problem: "Problem", config: TuneConfig) -> "Problem":
    """Impose ``config`` on ``problem`` (mutates and returns it)."""
    if config.assembly_order is not None:
        problem.set_assembly_loops(list(config.assembly_order))
    if config.partition_strategy is not None:
        if config.partition_strategy == "bands" and not (
            config.partition_index or problem.config.partition_index
        ):
            raise ConfigError("band partitioning needs partition_index")
        problem.set_partitioning(
            config.partition_strategy,
            nparts=problem.config.nparts,
            index=config.partition_index or problem.config.partition_index,
        )
    if config.placement_force_offload is not None:
        problem.extra["gpu_force_offload"] = config.placement_force_offload
    if config.gpu_kernel_chunks is not None:
        problem.extra["gpu_kernel_chunks"] = int(config.gpu_kernel_chunks)
    return problem


def assembly_orders(problem: "Problem") -> list[tuple[str, ...]]:
    """The natural loop-nest orders: fused cell-outer plus each component
    index outermost (the ablation suite's ORDERS, generalised)."""
    names = list(problem.unknown.space.names)
    orders: list[tuple[str, ...]] = [("cells",)]
    for outer in names:
        rest = [n for n in names if n != outer]
        orders.append((outer, "cells", *rest))
    return orders


def build_space(problem: "Problem") -> list[TuneConfig]:
    """Enumerate the candidate configurations for one problem.

    The identity configuration comes first; the rest vary one knob axis at
    a time (the greedy searcher composes axes; the grid searcher takes the
    list as-is).
    """
    cfg = problem.config
    space: list[TuneConfig] = [TuneConfig()]

    for order in assembly_orders(problem):
        if list(order) != list(cfg.assembly_order):
            space.append(TuneConfig(assembly_order=order))

    if cfg.nparts > 1:
        index_names = list(problem.unknown.space.names)
        if cfg.partition_strategy != "cells":
            space.append(TuneConfig(partition_strategy="cells"))
        for name in index_names:
            if not (cfg.partition_strategy == "bands"
                    and cfg.partition_index == name):
                space.append(
                    TuneConfig(partition_strategy="bands", partition_index=name)
                )

    if cfg.use_gpu:
        space.append(TuneConfig(placement_force_offload=True))
        for chunks in (2, 4):
            space.append(TuneConfig(gpu_kernel_chunks=chunks))

    return space


#: The knob axes the greedy searcher walks, in the order it walks them
#: (biggest expected effect first).
AXES = (
    "assembly_order",
    "partition",
    "placement_force_offload",
    "gpu_kernel_chunks",
)


def axis_of(config: TuneConfig) -> str | None:
    """Which single axis a one-knob candidate varies (None for default)."""
    if config.partition_strategy is not None:
        return "partition"
    if config.assembly_order is not None:
        return "assembly_order"
    if config.placement_force_offload is not None:
        return "placement_force_offload"
    if config.gpu_kernel_chunks is not None:
        return "gpu_kernel_chunks"
    return None


def merge_configs(base: TuneConfig, layer: TuneConfig) -> TuneConfig:
    """Overlay ``layer``'s set fields on ``base`` (greedy composition)."""
    kwargs = {f.name: getattr(base, f.name) for f in fields(TuneConfig)}
    for f in fields(TuneConfig):
        value = getattr(layer, f.name)
        if value is not None:
            kwargs[f.name] = value
    return TuneConfig(**kwargs)


__all__ = [
    "AXES",
    "TuneConfig",
    "apply_config",
    "assembly_orders",
    "axis_of",
    "build_space",
    "merge_configs",
]
