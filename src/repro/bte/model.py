"""BTEModel: the glue between the physics and the DSL callbacks.

Owns the spectral bands, the direction set and the component flattening
(components are (direction, band) row-major, matching the DSL's
``index=[d, b]`` declaration order) and provides:

* the post-step temperature update ("the BTE also involves an additional
  processing step to evolve the temperature in each cell", Sec. II-B) —
  intensity -> energy reduction, Newton temperature inversion, refresh of
  the ``Io`` and ``beta`` (=tau) variables;
* the isothermal flux boundary callback of the paper's
  ``boundary(I, 1, FLUX, "isothermal(I,vg,Sx,Sy,b,d,normal,300)")``;
* specular-symmetry reflection maps for Eq. (6);
* initial equilibrium intensities.

Flux-callback sign convention: FLUX callbacks return the *classified signed
face integrand*, i.e. exactly what the interior expression
``-vg[b] * (s_d . n) * I_upwind`` would produce on those faces, with ghost
intensities substituted per Eq. (6).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.bte.angular import (
    DirectionSet,
    component_reflection_map,
    reflection_map,
    uniform_directions_2d,
)
from repro.bte.dispersion import BandSet, silicon_bands
from repro.bte.equilibrium import (
    equilibrium_intensity,
    pseudo_temperature_closure,
)
from repro.dsl.entities import Reduction
from repro.fvm.boundary import BoundaryContext
from repro.util.errors import ConfigError


class BTEModel:
    """Bands x directions bundle with the BTE's coupling operations."""

    def __init__(self, bands: BandSet | None = None, directions: DirectionSet | None = None):
        self.bands = bands if bands is not None else silicon_bands(40)
        self.dirs = directions if directions is not None else uniform_directions_2d(20)
        nb, nd = self.bands.nbands, self.dirs.ndirs
        self.ncomp = nd * nb
        # flattened (d, b) component axis, row-major over (direction, band)
        comp = np.arange(self.ncomp)
        self.comp_dir = comp // nb
        self.comp_band = comp % nb
        self.weight_comp = self.dirs.weights[self.comp_dir]
        self.vg_comp = self.bands.vg[self.comp_band]

    # ------------------------------------------------------------- reductions
    def energy_from_intensity(self, I: np.ndarray) -> np.ndarray:
        """Per-cell energy density: ``E = sum_d w_d sum_b I_{d,b}``.

        ``I`` has shape ``(ncomp, ncells)``; the result ``(ncells,)``.
        """
        if I.shape[0] != self.ncomp:
            raise ConfigError(
                f"intensity has {I.shape[0]} components, model expects {self.ncomp}"
            )
        return self.weight_comp @ I

    def band_energies(self, I: np.ndarray, comps: np.ndarray | None = None,
                      out: np.ndarray | None = None, work: np.ndarray | None = None
                      ) -> np.ndarray:
        """Per-band direction-integrated energy, ``(nbands, ncells)`` (into
        ``out`` when given, with ``work`` of the same shape as scratch).

        With ``comps`` given, only those components contribute (band
        partitioning: each rank sums its own bands, zeros elsewhere, and the
        allreduce completes the picture).

        Components are ``(d, b)`` row-major, so each direction's bands are
        one slab of rows: the sum is accumulated a slab at a time, in
        direction order — the order (and so the bits) of an ``np.add.at``
        scatter over the components, without its per-element dispatch — the
        weighted slab going through one reused scratch array.  The scatter
        remains for ``comps`` that are not the same block of consecutive
        bands for every direction they touch.
        """
        nb, ncells = self.bands.nbands, I.shape[1]
        out = np.empty((nb, ncells)) if out is None else out
        out.fill(0.0)
        first, count = 0, nb  # the band block, and per direction (weight, first row)
        slabs = [(w, d * nb) for d, w in enumerate(self.dirs.weights)]
        if comps is not None:
            comps = np.asarray(comps)
            ndirs = max(1, np.count_nonzero(np.bincount(self.comp_dir[comps])))
            rows = comps.reshape(ndirs, -1) if len(comps) and len(comps) % ndirs == 0 else None
            if rows is not None:
                first, count = self.comp_band[rows[0, 0]], rows.shape[1]
            if (rows is None or first + count > nb
                    or (rows != rows[:, :1] + np.arange(count)).any()
                    or (self.comp_band[rows[:, 0]] != first).any()):
                np.add.at(out, self.comp_band[comps],
                          self.weight_comp[comps][:, None] * I[comps])
                return out
            slabs = [(self.weight_comp[r], r) for r in rows[:, 0]]
        acc = out[first:first + count]
        weighted = np.empty((count, ncells)) if work is None else work[:count]
        for w, row in slabs:
            np.add(acc, np.multiply(I[row:row + count], w, out=weighted), out=acc)
        return out

    def band_energy_reduction(self) -> Reduction:
        """:meth:`band_energies` as the post-step record declares it."""
        return Reduction("band_energy", self.band_energies, self.bands.nbands)

    def heat_flux(self, I: np.ndarray) -> np.ndarray:
        """Per-cell heat-flux vector ``q = sum w_d vg_b s_d I`` , (dim, ncells)."""
        s = self.dirs.vectors[self.comp_dir]  # (ncomp, dim)
        wv = (self.weight_comp * self.vg_comp)[:, None] * s  # (ncomp, dim)
        return wv.T @ I

    # --------------------------------------------------------------- post-step
    def temperature_update(self, state, e_act: np.ndarray | None = None) -> None:
        """The paper's ``postStepFunction``: E -> T -> (Io, beta).

        All it reads of the intensity is :meth:`band_energies`, declared on
        the post-step record (:meth:`band_energy_reduction`): a device
        target computes them where the unknown lives and hands them in as
        ``e_act`` (this rank's partial sums, over all of the state's cells);
        called without, the update reads ``state.u`` and reduces itself.
        Keeps the per-cell temperature in ``state.extra['T']`` (also the
        Newton starting guess) and the closure's whole result in
        ``state.extra['closure']``, the next step's warm start (a restored
        or edited ``T`` takes the closure's cold path).
        Every ``(nbands, ncells)`` array lives in ``state.buffer`` scratch,
        and ``T``, ``Io`` and ``beta`` are published only once the closure
        has converged: a ``SolverError`` leaves them as they were.
        """
        nb = self.bands.nbands
        T_prev = state.extra.get("T")
        if T_prev is None:
            T_prev = np.full(state.ncells, float(state.extra.get("T0", 300.0)))
        cells = getattr(state, "owned_cells", None)
        comps = getattr(state, "owned_comps", None)
        if cells is not None:
            T_prev, T_all = T_prev[cells], T_prev.copy()
        if e_act is None:
            I = state.u
            if cells is not None:
                # cell partitioning: bands are all local, the update restricts
                # to owned cells (ghost columns never feed volume terms)
                I = I.take(cells, axis=1, mode="clip",
                           out=state.buffer("owned_intensity", (len(I), len(cells))))
            e_act = self.band_energies(
                I, comps, state.buffer("band_energy", (nb, I.shape[1])),
                state.buffer("band_work", (nb, I.shape[1])))
        if comps is not None:
            # band partitioning: each rank holds only its components' valid
            # intensities; the closure needs all bands -> allreduce of the
            # partial per-band, per-cell sums (the paper's only band-strategy
            # communication, Sec. III-C)
            e_act = state.comm.allreduce(e_act)
        # the converged iterate already holds tau(T) and e(T); Io is e / 4 pi
        # exactly as equilibrium_intensity forms it
        # (popped: a closure that raises has half overwritten it; kept with
        # a ``T`` of its own: the published one may be edited in place)
        T, tau, e_T = pseudo_temperature_closure(
            self.bands, e_act, T_prev, buffer=state.buffer,
            warm=state.extra.pop("closure", None))
        state.extra["closure"] = (T.copy(), tau, e_T)
        Io, beta = state.fields["Io"].data, state.fields["beta"].data
        if cells is None:
            state.extra["T"] = T
            np.divide(e_T, 4.0 * math.pi, out=Io)
            beta[...] = tau
        else:
            T_all[cells] = T
            state.extra["T"] = T_all
            Io[:, cells] = np.divide(e_T, 4.0 * math.pi,
                                     out=state.buffer("band_work", e_T.shape))
            beta[:, cells] = tau

    def initial_intensity(self, T0: float) -> np.ndarray:
        """Per-component equilibrium intensity at uniform ``T0``, (ncomp,)."""
        Io = equilibrium_intensity(self.bands, float(T0))  # (nbands,)
        return Io[self.comp_band]

    # ---------------------------------------------------------------- boundary
    def _wall_flux(self, ctx: BoundaryContext, I_owner, args: tuple, wall) -> np.ndarray:
        """``-(vg s.n) * I_upwind`` on an isothermal wall, finished in place.
        ``wall() -> (s.n, vg, ghost)`` (``vg`` and the wall-equilibrium ghost
        intensity per component) is evaluated once per region while ``args``,
        all it depends on, are the same objects
        (:meth:`BoundaryContext.remember`): a step selects, multiplies, negates."""
        def invariants():
            sdotn, vg, ghost = wall()
            return sdotn > 0.0, vg[:, None] * sdotn, ghost

        outflow, vn, ghost = (invariants() if ctx is None
                              else ctx.remember("wall_flux", args, invariants))
        upwound = np.where(outflow, I_owner, ghost)
        return np.negative(np.multiply(vn, upwound, out=upwound), out=upwound)

    def isothermal(self, ctx: BoundaryContext, I_owner, vg, *args):
        """The paper's isothermal flux callback (DSL-string signature).

        2-D deck: ``isothermal(I, vg, Sx, Sy, b, d, normal, 300)``;
        3-D deck: ``isothermal(I, vg, Sx, Sy, Sz, b, d, normal, 300)``.

        Ghost intensities are the wall-equilibrium ``Io(T_wall)`` for
        incoming directions (Eq. 6, isothermal row); outgoing directions
        upwind the interior value.  Returns the signed integrand
        ``-vg * (s.n) * I_upwind``.
        """
        *s_components, _b, _d, normals, T_wall = args
        if len(s_components) != self.dirs.dim:
            raise ConfigError(
                f"isothermal callback received {len(s_components)} direction "
                f"components for a {self.dirs.dim}-D ordinate set"
            )

        def wall():
            sdotn = np.zeros((self.ncomp, normals.shape[0]))
            for axis, s in enumerate(s_components):
                sdotn += s[self.comp_dir][:, None] * normals[:, axis][None, :]
            ghost = equilibrium_intensity(self.bands, float(T_wall))[self.comp_band]
            return sdotn, vg[self.comp_band], ghost[:, None]

        return self._wall_flux(ctx, I_owner, (vg, *args), wall)

    #: in the tuning key in place of the bytecode (``signature._hash_callable``):
    #: bumped when an edit changes what the callbacks return, not how fast
    isothermal.callback_version = 1

    def make_isothermal_profile_bc(
        self, T_profile: Callable[[np.ndarray], np.ndarray]
    ) -> Callable[[BoundaryContext], np.ndarray]:
        """Isothermal wall with a position-dependent temperature.

        ``T_profile(face_centers) -> (nfaces,)`` — this is how the hot wall's
        Gaussian hot spot enters (Fig. 1).  Returns a FLUX callback.
        """

        def hot_wall(ctx: BoundaryContext) -> np.ndarray:
            def wall():
                T_face = np.asarray(T_profile(ctx.centers), dtype=np.float64)
                if T_face.shape != (ctx.nfaces,):
                    raise ConfigError(
                        f"temperature profile returned shape {T_face.shape}, "
                        f"expected ({ctx.nfaces},)"
                    )
                sdotn = (self.dirs.vectors @ ctx.normals.T)[self.comp_dir]
                # (nbands, nfaces) wall equilibrium, lifted to components
                ghost = equilibrium_intensity(self.bands, T_face)[self.comp_band, :]
                return sdotn, self.vg_comp, ghost

            return self._wall_flux(ctx, ctx.owner_values, (ctx.centers, ctx.normals), wall)

        hot_wall.__name__ = "isothermal_profile"
        hot_wall.callback_version = 1
        return hot_wall

    def symmetry_map(self, normal: np.ndarray) -> np.ndarray:
        """Component permutation for a specular symmetry wall (Eq. 6)."""
        dmap = reflection_map(self.dirs, normal)
        return component_reflection_map(dmap, self.bands.nbands)

    def __repr__(self) -> str:
        return (
            f"BTEModel({self.bands!r}, ndirs={self.dirs.ndirs}, "
            f"ncomp={self.ncomp})"
        )


__all__ = ["BTEModel"]
