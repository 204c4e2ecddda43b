"""Bose-Einstein statistics and the energy <-> temperature relation.

The per-band equilibrium energy density (J/m^3) is

    e_b(T) = hbar * omega_b * n_BE(omega_b, T) * D_b * domega_b

and the *equilibrium intensity* (the BTE's ``Io``) is its isotropic
per-solid-angle share ``Io_b = e_b / (4 pi)``.

The post-step temperature update inverts, per cell, the nonlinear relation
between the band energies obtained by integrating the intensity over
directions and the temperature — "the relationship between the non-linear
phonon energy distribution and temperature is highly non-linear" (paper
Sec. II-B).  :func:`pseudo_temperature_closure` does this with a
vectorised, safeguarded quasi-Newton iteration over all cells at once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bte import constants as C
from repro.bte.dispersion import BandSet
from repro.util.errors import SolverError

#: Working-set budget of one cell block of the closure's first pass: one
#: ``(nbands, block)`` float64 array per budget, about six live, so a block
#: stays inside a 4 MiB L2.  Measured, not configured — EXPERIMENTS.md ("No
#: allocation in steady state", re-run under "Hoist through the divergence"):
#: the closure's time is flat from ~128 KiB, and 0.45 ms better unblocked.
TILE_BYTES = 512 * 1024


def bose_einstein(omega: np.ndarray, T: np.ndarray | float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Equilibrium occupancy ``1 / (exp(hbar w / kB T) - 1)``."""
    x = np.divide(C.HBAR * np.asarray(omega), C.KB * np.asarray(T, dtype=np.float64),
                  out=out)
    x = np.expm1(x.clip(1e-12, 700.0, out=out), out=out)
    return np.divide(1.0, x, out=out)


def _dn_dT(omega: np.ndarray, T: np.ndarray, out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """d n_BE / d T (used by the Newton step); ``work`` is scratch of the
    result's shape."""
    x = np.divide(C.HBAR * np.asarray(omega), C.KB * T, out=out)
    x = x.clip(1e-12, 350.0, out=out)
    ex = np.exp(x, out=work)
    x = np.multiply(np.divide(x, T, out=out), ex, out=out)
    ex = np.square(np.subtract(ex, 1.0, out=work), out=work)
    return np.divide(x, ex, out=out)


def _per_band(bands: BandSet, T: np.ndarray | float, occupancy, **scratch) -> np.ndarray:
    """``hbar omega_b * occupancy(omega_b, T) * D_b * domega_b``: ``T`` scalar
    -> ``(nbands,)``; ``T`` of shape ``(ncells,)`` -> ``(nbands, ncells)``."""
    T = np.asarray(T, dtype=np.float64)
    omega = bands.omega[:, None]
    e = occupancy(omega, T.reshape(1, -1), **scratch)
    out = scratch.get("out")
    e = np.multiply(C.HBAR * omega, e, out=out)
    e = np.multiply(np.multiply(e, bands.dos[:, None], out=out), bands.domega[:, None],
                    out=out)
    return e[:, 0] if T.ndim == 0 else e


def band_energy_density(bands: BandSet, T: np.ndarray | float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """``e_b(T)``: per-band equilibrium energy density (into ``out`` when given)."""
    return _per_band(bands, T, bose_einstein, out=out)


def equilibrium_intensity(bands: BandSet, T: np.ndarray | float) -> np.ndarray:
    """``Io_b(T) = e_b(T) / (4 pi)`` — the DSL variable ``Io``."""
    return band_energy_density(bands, T) / (4.0 * math.pi)


def total_energy_density(bands: BandSet, T: np.ndarray | float) -> np.ndarray | float:
    """``E(T) = sum_b e_b(T)`` (the function Newton inverts)."""
    e = band_energy_density(bands, T)
    total = e.sum(axis=0)
    return float(total[()]) if np.ndim(T) == 0 else total


def _band_heat_capacity(bands: BandSet, T: np.ndarray, out: np.ndarray | None = None,
                        work: np.ndarray | None = None) -> np.ndarray:
    """Per-band ``d e_b / d T`` at ``T``, shape (nbands, ncells)."""
    return _per_band(bands, T, _dn_dT, out=out, work=work)


def _first_non_finite(resid: np.ndarray) -> int:
    return int(np.flatnonzero(~np.isfinite(resid))[0])


def _sum_bands(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of an ``(nbands, n)`` array with the rows always
    added in band order: a one-column array would coalesce to a *pairwise*
    1-D sum, and a cell's bits may not depend on the width of its batch."""
    if a.shape[1] != 1:
        return np.add.reduce(a, axis=0)
    total = a[0].copy()
    for row in a[1:]:
        np.add(total, row, out=total)
    return total


def pseudo_temperature(
    bands: BandSet,
    band_energy: np.ndarray,
    T_guess: np.ndarray | float = 300.0,
    tol: float = 1e-10,
    max_iter: int = 60,
    T_floor: float = 1.0,
    T_ceil: float = 5000.0,
) -> np.ndarray:
    """The energy-conserving SMRT closure temperature.

    Solves, per cell, the 1/tau-weighted balance used by the non-gray BTE
    literature the paper builds on (refs [4], [14]):

        sum_b [ e_b(T) - e_b^actual ] / tau_b(T)  =  0

    so that the net relaxation source ``sum_b (4 pi Io_b - e_b)/tau_b``
    vanishes identically and the scattering step conserves energy exactly.
    ``band_energy`` is the direction-integrated actual energy per band,
    shape ``(nbands, ncells)``.

    Quasi-Newton iteration (the weak dtau/dT dependence is dropped from the
    Jacobian) with safeguarded steps; converges in 2-4 iterations from the
    previous step's temperature.
    """
    return pseudo_temperature_closure(
        bands, band_energy, T_guess, tol, max_iter, T_floor, T_ceil)[0]


def pseudo_temperature_closure(
    bands: BandSet,
    band_energy: np.ndarray,
    T_guess: np.ndarray | float = 300.0,
    tol: float = 1e-10,
    max_iter: int = 60,
    T_floor: float = 1.0,
    T_ceil: float = 5000.0,
    buffer=None,
    warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pseudo_temperature` together with what its converged iterate
    already evaluated at the returned ``T``: ``(T, tau, e)`` with ``tau =
    relaxation_times(bands, T)`` and ``e = band_energy_density(bands, T)``,
    both ``(nbands, ncells)`` — the temperature update's ``beta`` and
    ``4 pi Io`` without a second pass.

    The first pass evaluates every cell, in blocks of ``TILE_BYTES`` per
    ``(nbands, block)`` array with every operator writing into scratch from
    ``buffer(name, shape)`` (a solver state's; fresh arrays by default,
    ``tau`` and ``e`` included).  Only the cells it leaves unconverged
    iterate further, on compacted copies (fresh, and as small as the active
    set; in chunks of a block when that is large); a converged cell keeps
    the ``tau``/``e`` of the pass that froze it.  All operations are per
    cell, so a cell's result does not depend on which other cells share its
    batch, block or pass — required for the distributed solvers to agree
    bitwise with the serial one.  For the same reason the first pass
    evaluates nothing when it starts where the last call ended: handed that
    call's result as ``warm`` and a ``T_guess`` equal to its ``T`` it reads
    ``tau`` and ``e`` from there (and returns those arrays, updated); any
    other ``T_guess`` takes the cold path.
    """
    from repro.bte.scattering import relaxation_times  # local: no cycle at import

    band_energy = np.asarray(band_energy, dtype=np.float64)
    if band_energy.ndim != 2 or band_energy.shape[0] != bands.nbands:
        raise SolverError(
            f"band_energy must be (nbands, ncells); got {band_energy.shape}"
        )
    nb, ncells = band_energy.shape
    T = (np.full(ncells, float(T_guess)) if np.ndim(T_guess) == 0
         else np.asarray(T_guess, dtype=np.float64)).clip(T_floor, T_ceil)
    if buffer is None:
        def buffer(name, shape):
            return np.empty(shape)
    known = (warm is not None and warm[1].shape == (nb, ncells)
             and np.array_equal(T, warm[0]))  # the first pass starts where warm ended
    tau, e_T = warm[1:] if known else buffer("closure", (2, nb, ncells))
    width = min(max(1, TILE_BYTES // (8 * nb)), max(1, ncells))
    work = buffer("closure_work", (3, nb * width))

    def evaluate(cols, T_at, energy, tau_at, e_at, known=False):
        """``tau``, ``e`` (unless ``known``: they hold them) and the residual
        at ``T_at``; which cells miss the tolerance.  ``cols``: the cells'
        ids, for the error message."""
        if not known:
            relaxation_times(bands, T_at, out=tau_at)
            band_energy_density(bands, T_at, out=e_at)
        w = work[2, :e_at.size].reshape(e_at.shape)
        resid = _sum_bands(np.divide(np.subtract(e_at, energy, out=w), tau_at, out=w))
        scale = np.maximum(_sum_bands(np.divide(np.abs(energy, out=w), tau_at, out=w)), 1e-300)
        if not np.isfinite(resid).all():
            raise SolverError("non-finite band energy in the temperature closure "
                              f"at cell {cols[_first_non_finite(resid)]}")
        return resid, scale, np.abs(resid) > tol * scale

    pending = []  # (cells, residuals) the first pass left unconverged
    for lo in range(0, ncells, width):
        block = slice(lo, min(lo + width, ncells))
        n = block.stop - lo
        # contiguous: ufuncs pay per row of a strided (nbands, block) view
        tau_b, e_b = (tau, e_T) if n == ncells else (
            w[:nb * n].reshape(nb, n) for w in work[:2])
        if known and n != ncells:
            tau_b[...], e_b[...] = tau[:, block], e_T[:, block]
        resid, _, active = evaluate(range(lo, block.stop), T[block], band_energy[:, block],
                                    tau_b, e_b, known)
        if n != ncells and not known:
            tau[:, block], e_T[:, block] = tau_b, e_b
        pending.append((lo + np.flatnonzero(active), resid[active]))
    cells, resid = (np.concatenate(part) for part in zip(*pending)) if pending else ((), ())

    for lo in range(0, len(cells), width):
        cols, res = cells[lo:lo + width], resid[lo:lo + width]
        T_act = T[cols]
        energy, tau_act, e_act = np.empty((3, nb, len(cols)))  # the few still active
        band_energy.take(cols, axis=1, out=energy, mode="clip")
        tau.take(cols, axis=1, out=tau_act, mode="clip")
        for _ in range(1, max_iter):
            w1, w2 = (w[:tau_act.size].reshape(tau_act.shape) for w in work[:2])
            slope = _sum_bands(np.divide(
                _band_heat_capacity(bands, T_act, out=w1, work=w2), tau_act, out=w1))
            step = (res / np.maximum(slope, 1e-300)).clip(-100.0, 100.0)
            T[cols] = T_act = (T_act - step).clip(T_floor, T_ceil)
            res, scale, active = evaluate(cols, T_act, energy, tau_act, e_act)
            tau[:, cols], e_T[:, cols] = tau_act, e_act
            if not active.any():
                break
            cols, T_act, res = cols[active], T_act[active], res[active]
            energy, tau_act, e_act = (a[:, active] for a in (energy, tau_act, e_act))
        else:
            worst = float(np.max(np.abs(res) / scale))
            raise SolverError(
                f"pseudo-temperature iteration did not converge (worst residual {worst:.2e})"
            )
    return T, tau, e_T


__all__ = [
    "bose_einstein",
    "band_energy_density",
    "equilibrium_intensity",
    "total_energy_density",
]
