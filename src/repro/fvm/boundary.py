"""Boundary-condition bookkeeping for FV solvers.

The paper handles boundaries in two ways, both supported here:

* simple conditions expressible as *ghost values* — Dirichlet value, zero
  gradient, or specular symmetry — which feed the same upwind flux kernel as
  interior faces;
* complex conditions as *user callback functions* (e.g. the BTE's
  ``isothermal`` flux), which are pinned to the CPU by the hybrid codegen and
  may either provide ghost values or directly override the face flux.

Callbacks receive a :class:`BoundaryContext` carrying the region's face
geometry and the owner-side solution, and return an array of shape
``(ncomp, nfaces_in_region)``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fvm.geometry import FVGeometry
from repro.util.errors import ConfigError


class BCKind(enum.Enum):
    """How a boundary region is treated."""

    DIRICHLET = "dirichlet"  # prescribed ghost value
    NEUMANN0 = "neumann0"  # zero gradient: ghost = owner
    SYMMETRY = "symmetry"  # specular reflection (needs a reflection map)
    FLUX = "flux"  # callback returns the face flux directly
    GHOST_CALLBACK = "ghost_callback"  # callback returns ghost values


@dataclass
class BoundaryContext:
    """Everything a boundary callback may need, prepacked as arrays."""

    region: int
    faces: np.ndarray  # global face ids in this region
    normals: np.ndarray  # (nf, dim) outward
    centers: np.ndarray  # (nf, dim)
    areas: np.ndarray  # (nf,)
    owner_cells: np.ndarray  # (nf,)
    owner_values: np.ndarray  # (ncomp, nf) current solution on the inside
    time: float
    dt: float
    extra: dict[str, Any] = field(default_factory=dict)  # problem-specific data
    slots: np.ndarray | None = None  # the faces' columns of the ghost array
    #: :meth:`remember`'s ``key -> (arguments, derived)``, owned by the context's set
    memo: dict[str, Any] = field(default_factory=dict)

    @property
    def nfaces(self) -> int:
        return len(self.faces)

    def remember(self, key: str, args: tuple, build: Callable[[], Any]) -> Any:
        """``build()``, evaluated again only when ``args`` are not the very
        objects of the last call under ``key`` (which it keeps alive; a
        function coefficient, a fresh array each step, recomputes)."""
        held = self.memo.get(key)
        if held is not None and len(held[0]) == len(args):
            for a, b in zip(held[0], args):
                if a is not b:
                    break
            else:
                return held[1]
        self.memo[key] = (args, derived := build())
        return derived


#: callback signature: (BoundaryContext) -> (ncomp, nfaces) array
BoundaryCallback = Callable[[BoundaryContext], np.ndarray]


@dataclass
class BoundaryCondition:
    """One region's condition for one variable."""

    region: int
    kind: BCKind
    value: float | np.ndarray | None = None  # DIRICHLET constant(s)
    callback: BoundaryCallback | None = None  # FLUX / GHOST_CALLBACK
    reflection_map: np.ndarray | None = None  # SYMMETRY: comp -> reflected comp
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind == BCKind.DIRICHLET and self.value is None:
            raise ConfigError(
                f"{self.kind.value} BC on region {self.region} needs a value"
            )
        if self.kind in (BCKind.FLUX, BCKind.GHOST_CALLBACK) and self.callback is None:
            raise ConfigError(
                f"{self.kind.value} BC on region {self.region} needs a callback"
            )
        if self.kind == BCKind.SYMMETRY and self.reflection_map is None:
            raise ConfigError(
                f"symmetry BC on region {self.region} needs a reflection map "
                "(component -> mirrored component)"
            )


class BoundarySet:
    """All boundary conditions of one variable on one mesh.

    ``ghost_values`` fills the ghost array consumed by
    :meth:`repro.fvm.geometry.FVGeometry.gather_sides`; ``flux_overrides``
    yields ``(boundary_slot_ids, flux_values)`` pairs applied after the bulk
    flux computation.  Symmetry regions may carry *per-region* reflection
    maps because the mirrored direction depends on the wall's orientation.

    Both read ``u`` only at the owner cells of the boundary faces; a caller
    that holds just those values — ``u[..., geom.bowner]``, shape
    ``(ncomp, n_boundary_faces)``: all of the unknown a device-resident
    step sends back — passes them as ``owner_values`` (and ``u=None``).

    A region's :class:`BoundaryContext` is built once, on first use, and
    handed to the callback every step with only ``owner_values``, ``time``,
    ``dt`` and ``extra`` (the caller's dict) set anew; :meth:`add` drops all.
    """

    def __init__(self, geom: FVGeometry, ncomp: int):
        self.geom = geom
        self.ncomp = ncomp
        self.conditions: dict[int, BoundaryCondition] = {}
        self._contexts: dict[int, BoundaryContext] = {}

    def add(self, bc: BoundaryCondition) -> None:
        if bc.region not in self.geom.region_faces:
            raise ConfigError(
                f"mesh has no boundary region {bc.region} "
                f"(regions: {sorted(self.geom.region_faces)})"
            )
        if bc.region in self.conditions:
            raise ConfigError(f"region {bc.region} already has a boundary condition")
        if bc.reflection_map is not None and len(bc.reflection_map) != self.ncomp:
            raise ConfigError(
                f"reflection map length {len(bc.reflection_map)} != ncomp {self.ncomp}"
            )
        self.conditions[bc.region] = bc
        self._contexts.clear()

    def _static(self, bc: BoundaryCondition) -> BoundaryContext:
        """The region's context, its geometry gathered on first use."""
        ctx = self._contexts.get(bc.region)
        if ctx is None:
            g = self.geom
            faces = g.region_faces[bc.region]
            ctx = self._contexts[bc.region] = BoundaryContext(
                bc.region, faces, g.normal[faces], g.center[faces], g.area[faces],
                g.owner[faces], None, 0.0, 0.0, slots=g.region_slots[bc.region])
        return ctx

    def _context(
        self, bc: BoundaryCondition, u: np.ndarray | None, time: float, dt: float,
        extra: dict[str, Any] | None, owner_values: np.ndarray | None = None,
    ) -> BoundaryContext:
        ctx = self._static(bc)
        ctx.owner_values = (u[..., ctx.owner_cells] if owner_values is None
                            else owner_values[..., ctx.slots])
        ctx.time, ctx.dt, ctx.extra = time, dt, {} if extra is None else extra
        return ctx

    def ghost_values(
        self,
        u: np.ndarray | None,
        time: float = 0.0,
        dt: float = 0.0,
        extra: dict[str, Any] | None = None,
        out: np.ndarray | None = None,
        owner_values: np.ndarray | None = None,
        where: np.ndarray | None = None,
    ) -> np.ndarray:
        """Ghost array of shape ``(ncomp, n_boundary_faces)``, filled into
        ``out`` when given (a copy of the boundary values either way, never
        a view of ``u``).

        FLUX regions get zero-gradient ghosts here (their flux is replaced
        afterwards by :meth:`flux_overrides`, so the ghost value is unused
        except for keeping shapes uniform).

        ``where`` (boolean, of the ghost array's shape) asks for the ghost
        value at those entries only; the others hold the owner value.  With
        the entries where the flow enters that is the upwinded side of every
        boundary face — and ``out`` may be ``owner_values`` itself.  Each
        region keeps its columns of the mask while the same array is passed
        (a step-invariant table: it may not change in place).
        """
        g = self.geom
        nb = g.boundary_face_count()
        ghost = np.empty((self.ncomp, nb), dtype=np.float64) if out is None else out

        def put(ctx: BoundaryContext, values) -> None:
            if where is not None:  # the other entries keep what they hold
                held = ghost[:, ctx.slots]
                np.copyto(held, values, where=ctx.remember(
                    "where", (where,), lambda: where[:, ctx.slots]))
                values = held
            ghost[:, ctx.slots] = values

        # default: zero gradient everywhere (also covers FLUX regions)
        if owner_values is None:
            np.take(u.reshape(self.ncomp, -1), g.bowner, axis=1, out=ghost, mode="clip")
        elif ghost is not owner_values:
            ghost[...] = owner_values
        for region, bc in self.conditions.items():
            if bc.kind == BCKind.DIRICHLET:
                val = np.asarray(bc.value, dtype=np.float64)
                if val.ndim and val.shape != (self.ncomp,):
                    raise ConfigError(
                        f"Dirichlet value shape {val.shape} != ({self.ncomp},)"
                    )
                put(self._static(bc), val[:, None] if val.ndim else float(val))
            elif bc.kind == BCKind.SYMMETRY:
                # the owner values are in place: read them at the mirrored rows
                ctx = self._static(bc)
                put(ctx, ghost[ctx.remember("mirror", (bc.reflection_map,), lambda: (
                    np.asarray(bc.reflection_map)[:, None], ctx.slots))])
            elif bc.kind == BCKind.GHOST_CALLBACK:
                ctx = self._context(bc, u, time, dt, extra, owner_values)
                vals = np.asarray(bc.callback(ctx), dtype=np.float64)
                if vals.shape != (self.ncomp, ctx.nfaces):
                    raise ConfigError(
                        f"ghost callback on region {region} returned shape "
                        f"{vals.shape}, expected {(self.ncomp, ctx.nfaces)}"
                    )
                put(ctx, vals)
            # NEUMANN0, FLUX: zero gradient already in place
        return ghost

    def flux_overrides(
        self,
        u: np.ndarray | None,
        time: float = 0.0,
        dt: float = 0.0,
        extra: dict[str, Any] | None = None,
        owner_values: np.ndarray | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(face_ids, flux_values)`` for every FLUX-callback region.

        ``flux_values`` has shape ``(ncomp, nfaces_in_region)`` and is the
        flux *per unit area* signed with the owner-outward normal.
        """
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for region, bc in self.conditions.items():
            if bc.kind != BCKind.FLUX:
                continue
            ctx = self._context(bc, u, time, dt, extra, owner_values)
            vals = np.asarray(bc.callback(ctx), dtype=np.float64)
            if vals.shape != (self.ncomp, ctx.nfaces):
                raise ConfigError(
                    f"flux callback on region {region} returned shape "
                    f"{vals.shape}, expected {(self.ncomp, ctx.nfaces)}"
                )
            out.append((ctx.faces, vals))
        return out

    def has_callbacks(self) -> bool:
        return any(
            bc.kind in (BCKind.FLUX, BCKind.GHOST_CALLBACK)
            for bc in self.conditions.values()
        )


__all__ = [
    "BCKind",
    "BoundaryContext",
    "BoundaryCallback",
    "BoundaryCondition",
    "BoundarySet",
]
