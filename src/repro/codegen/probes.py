"""In-situ diagnostics: probes and transient recorders.

Recorders are ordinary pre/post-step callbacks (the paper's hook
mechanism), so they work with every execution target that runs hooks.
Attach with ``problem.add_post_step(recorder)`` and read
``recorder.times`` / ``recorder.values`` afterwards.

>>> rec = TransientRecorder(lambda s: float(s.extra["T"].max()), every=5)
>>> problem.add_post_step(rec, name="record_Tmax")
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.util.errors import ConfigError


class TransientRecorder:
    """Record a scalar (or small array) diagnostic every ``every`` steps.

    ``probe(state)`` may return anything ``np.asarray`` accepts; values are
    stored per sample together with the simulation time.
    """

    def __init__(self, probe: Callable[[Any], Any], every: int = 1, name: str = "probe"):
        if every < 1:
            raise ConfigError(f"recorder interval must be >= 1, got {every}")
        self.probe = probe
        self.every = int(every)
        self.__name__ = name
        self.times: list[float] = []
        self.values: list[Any] = []

    def __call__(self, state) -> None:
        if state.step_index % self.every == 0:
            self.times.append(float(state.time))
            self.values.append(self.probe(state))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` stacked as arrays."""
        return np.asarray(self.times), np.asarray(self.values)

    def reset(self) -> None:
        self.times.clear()
        self.values.clear()


class LineProbe:
    """Sample a cell field along a straight line through the domain.

    The probe snaps each requested point to its nearest cell centroid once
    (at first use) and then gathers values by index — cheap enough to run
    every step inside a :class:`TransientRecorder`.
    """

    def __init__(self, start, end, npoints: int = 32,
                 field: Callable[[Any], np.ndarray] | None = None):
        if npoints < 2:
            raise ConfigError("a line probe needs at least 2 points")
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.npoints = int(npoints)
        self.field = field or (lambda state: state.extra["T"])
        self._cells: np.ndarray | None = None

    def _bind(self, state) -> np.ndarray:
        if self._cells is None:
            pts = np.linspace(self.start, self.end, self.npoints)
            centroids = state.mesh.cell_centroids
            if pts.shape[1] != centroids.shape[1]:
                raise ConfigError(
                    f"probe points are {pts.shape[1]}-D but the mesh is "
                    f"{centroids.shape[1]}-D"
                )
            d2 = ((centroids[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2)
            self._cells = np.argmin(d2, axis=1)
        return self._cells

    def __call__(self, state) -> np.ndarray:
        cells = self._bind(state)
        values = np.asarray(self.field(state))
        return values[..., cells].copy()


def wall_heat_flux(state, model, region: int) -> float:
    """Net phonon energy flux through a boundary region [W per unit depth].

    Positive = energy leaving the domain.  Uses exactly what the solver
    applies on those faces: for FLUX-callback regions the callback's values
    (which, per the library convention, are the *classified signed
    integrand* ``-vg (s.n) I_upwind`` — the physical outward flux with the
    equation's minus sign), otherwise the ghost + upwind reconstruction.
    Because it mirrors the solver, the global energy budget
    ``dE/dt = -sum(wall_heat_flux)`` holds as an exact discrete identity
    (tested).
    """
    from repro.fvm.boundary import BCKind

    geom = state.geom
    if region not in geom.region_faces:
        raise ConfigError(f"mesh has no boundary region {region}")
    faces = geom.region_faces[region]
    u = state.u
    owner_values = u[:, geom.bowner]

    bc = state.bset.conditions.get(region)
    if bc is not None and bc.kind == BCKind.FLUX:
        ids, values = state.bset.flux_overrides(owner_values, state.time, state.dt, state.extra)
        # values are the signed integrand: physical outward density is its
        # negation, reduced over the solid angle
        density = -(model.weight_comp @ values[:, np.isin(ids, faces)])
        return float((density * geom.area[faces]).sum())

    ghost = state.bset.ghost_values(owner_values, state.time, state.dt, state.extra)
    u1, u2 = geom.gather_sides(u, ghost)
    sdotn = (model.dirs.vectors @ geom.normal[faces].T)[model.comp_dir]
    vg = model.vg_comp[:, None]
    upwound = np.where(sdotn > 0.0, u1[:, faces], u2[:, faces])
    # physical outward energy flux density per face: sum_d w vg (s.n) I
    density = (model.weight_comp[:, None] * vg * sdotn * upwound).sum(axis=0)
    return float((density * geom.area[faces]).sum())


__all__ = ["TransientRecorder", "LineProbe", "wall_heat_flux"]
