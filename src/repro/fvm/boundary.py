"""Boundary-condition bookkeeping for FV solvers.

The paper handles boundaries in two ways, both supported here:

* simple conditions expressible as *ghost values* — Dirichlet value, zero
  gradient, or specular symmetry — which feed the same upwind flux kernel as
  interior faces;
* complex conditions as *user callback functions* (e.g. the BTE's
  ``isothermal`` flux), which are pinned to the CPU by the hybrid codegen and
  may either provide ghost values or directly override the face flux.

Both are evaluated from the owner values of the boundary faces alone.
Callbacks receive a :class:`BoundaryContext` carrying the region's face
geometry and those values, and return an array of shape
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


@dataclass
class _Gather:
    """:meth:`BoundarySet.ghost_values`' plan for one ``where``: the flat
    positions of the ghost array every SYMMETRY entry reads (``src``) and
    every SYMMETRY, then DIRICHLET entry writes (``dst``), in the narrowest
    type that holds them (NumPy's indexing casts them in small blocks); the
    Dirichlet ``values``; each GHOST_CALLBACK region and its columns of the
    mask."""

    where: np.ndarray | None
    shape: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    values: np.ndarray
    callbacks: list[tuple[int, np.ndarray | None]]


class BoundarySet:
    """All boundary conditions of one variable on one mesh.

    Its one input is the owner values of the boundary faces, ``u[:,
    geom.bowner]``, shape ``(ncomp, n_boundary_faces)`` (one column per
    ghost slot): all either method reads of the unknown, and all of it a
    device-resident step sends back.  ``ghost_values`` forms from them the
    ghost array consumed by
    :meth:`repro.fvm.geometry.FVGeometry.gather_sides`; ``flux_overrides``
    the FLUX regions' face values, one ``(faces, values)`` pair that replaces
    the bulk flux on those faces.  Symmetry regions may carry *per-region*
    reflection maps because the mirrored direction depends on the wall's
    orientation.

    A callback region's :class:`BoundaryContext` is built once, on first
    use, and handed to the callback every step with only ``owner_values``,
    ``time``, ``dt`` and ``extra`` (the caller's dict) set anew; the FLUX
    pair's two arrays are allocated once too.  The built-in ghosts — every
    SYMMETRY and DIRICHLET region — are one flat gather and its scatter of a
    plan built once per ``where`` object (the mirrored values taken before
    any write).  :meth:`add` drops all.
    """

    def __init__(self, geom: FVGeometry, ncomp: int):
        self.geom = geom
        self.ncomp = ncomp
        self.conditions: dict[int, BoundaryCondition] = {}
        self._contexts: dict[int, BoundaryContext] = {}
        self._gathers: dict[bool, _Gather] = {}  # ghost_values' plans, by ``where is None``
        self._flux: dict[bool, tuple] = {}  # flux_overrides' pair, by ``slots``

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
        if bc.kind == BCKind.DIRICHLET:
            val = np.asarray(bc.value, dtype=np.float64)
            if val.ndim and val.shape != (self.ncomp,):
                raise ConfigError(f"Dirichlet value shape {val.shape} != ({self.ncomp},)")
        self.conditions[bc.region] = bc
        self._contexts.clear()
        self._gathers.clear()
        self._flux.clear()

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

    def _context(self, bc: BoundaryCondition, owner_values: np.ndarray, time: float,
                 dt: float, extra: dict[str, Any] | None) -> tuple[BoundaryContext, np.ndarray]:
        """The region's context, set for this call, and what its callback
        returned for it."""
        ctx = self._static(bc)
        ctx.owner_values = owner_values[..., ctx.slots]
        ctx.time, ctx.dt, ctx.extra = time, dt, {} if extra is None else extra
        vals = np.asarray(bc.callback(ctx), dtype=np.float64)
        if vals.shape != (self.ncomp, ctx.nfaces):
            raise ConfigError(
                f"{'flux' if bc.kind == BCKind.FLUX else 'ghost'} callback on region "
                f"{bc.region} returned shape {vals.shape}, expected {(self.ncomp, ctx.nfaces)}"
            )
        return ctx, vals

    def ghost_values(self, owner_values: np.ndarray, time: float, dt: float,
                     extra: dict[str, Any] | None, out: np.ndarray | None = None,
                     where: np.ndarray | None = None) -> np.ndarray:
        """Ghost array of shape ``(ncomp, n_boundary_faces)`` from the owner
        values, filled into ``out`` when given (a fresh array otherwise);
        ``out`` may be ``owner_values`` itself.

        NEUMANN0 and FLUX regions keep the owner values (zero gradient; a
        FLUX region's flux is replaced by :meth:`flux_overrides`, so its
        ghost is unused except for keeping shapes uniform).  Every SYMMETRY
        and DIRICHLET entry is one gather and one scatter of the set's plan
        for ``where`` (:meth:`_gather`): the mirrored owner values are taken
        before anything is written.

        ``where`` (boolean, of the ghost array's shape) asks for the ghost
        value at those entries only; the others hold the owner value.  With
        the entries where the flow enters that is the upwinded side of every
        boundary face, formed in place.  The plan is kept while the same
        array is passed (a step-invariant table: it may not change in place).
        """
        ghost = owner_values.copy() if out is None else out
        if out is not None and out is not owner_values:
            ghost[...] = owner_values
        plan = self._gather(ghost.shape, where)
        if len(plan.dst):
            flat, mirrored = ghost.reshape(-1), len(plan.src)  # (a view if C-contiguous)
            flat[plan.dst[:mirrored]] = flat[plan.src]  # all taken before any is written
            flat[plan.dst[mirrored:]] = plan.values
            if not ghost.flags.c_contiguous:  # (``flat`` is a copy)
                ghost[...] = flat.reshape(ghost.shape)
        for region, mask in plan.callbacks:
            ctx, values = self._context(self.conditions[region], owner_values, time, dt,
                                        extra)
            if mask is not None:  # the other entries keep what they hold
                held = ghost[:, ctx.slots]
                np.copyto(held, values, where=mask)
                values = held
            ghost[:, ctx.slots] = values
        return ghost

    def _gather(self, shape: tuple[int, ...], where: np.ndarray | None) -> "_Gather":
        """:meth:`ghost_values`' plan for a ghost array of ``shape`` and
        ``where``, built on first use and again for another mask object (one
        mask and the unmasked plan are kept); :meth:`add` drops both."""
        held = self._gathers.get(where is None)
        if held is not None and held.where is where and held.shape == shape:
            return held
        nrows, nslots = shape
        index = np.min_scalar_type(max(nrows * nslots - 1, 0))
        flat = np.arange(nrows)[:, None] * nslots
        mirrored, fixed, callbacks = [], [], []  # (dst, src), (dst, value), (region, mask)
        for region, bc in self.conditions.items():
            slots = self.geom.region_slots[region]
            keep = np.ones((nrows, len(slots)), bool) if where is None else where[:, slots]
            if bc.kind == BCKind.SYMMETRY:
                rows = np.asarray(bc.reflection_map)[:, None] * nslots
                mirrored.append(((flat + slots)[keep].astype(index),
                                 (rows + slots)[keep].astype(index)))
            elif bc.kind == BCKind.DIRICHLET:
                value = np.asarray(bc.value, dtype=np.float64)
                fixed.append(((flat + slots)[keep].astype(index), np.broadcast_to(
                    value[:, None] if value.ndim else value, keep.shape)[keep]))
            elif bc.kind == BCKind.GHOST_CALLBACK:
                callbacks.append((region, None if where is None else keep))
        none = [np.zeros(0, index)]
        src = np.concatenate(none + [s for _, s in mirrored])
        dst = np.concatenate(none + [d for d, _ in mirrored + fixed])
        values = np.concatenate([np.zeros(0), *(v for _, v in fixed)])
        plan = self._gathers[where is None] = _Gather(where, shape, src, dst, values, callbacks)
        return plan

    def flux_overrides(self, owner_values: np.ndarray, time: float, dt: float,
                       extra: dict[str, Any] | None,
                       slots: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``(faces, values)`` of every FLUX-callback region, region after
        region: the faces' ids (with ``slots``, their positions among the
        boundary faces) and ``(ncomp, len(faces))`` values, the flux *per
        unit area* signed with the owner-outward normal.  Both arrays are
        the set's, the same pair on every call (what a generated sweep
        resolves once); the values are written anew.
        """
        if not self._flux:
            ids = np.concatenate([np.zeros(0, np.int64), *(
                self.geom.region_faces[r] for r, bc in self.conditions.items()
                if bc.kind == BCKind.FLUX)]).astype(np.int64)
            values = np.empty((self.ncomp, len(ids)))
            self._flux.update({False: (ids, values), True: (self.geom.bface_slot[ids], values)})
        pair = self._flux[slots]
        values, at = pair[1], 0
        for bc in self.conditions.values():
            if bc.kind == BCKind.FLUX:
                vals = self._context(bc, owner_values, time, dt, extra)[1]
                values[:, at:at + vals.shape[1]] = vals
                at += vals.shape[1]
        return pair


__all__ = [
    "BCKind",
    "BoundaryContext",
    "BoundaryCallback",
    "BoundaryCondition",
    "BoundarySet",
]
