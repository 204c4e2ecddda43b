"""Bose-Einstein statistics and the energy <-> temperature relation.

The per-band equilibrium energy density (J/m^3) is

    e_b(T) = hbar * omega_b * n_BE(omega_b, T) * D_b * domega_b

and the *equilibrium intensity* (the BTE's ``Io``) is its isotropic
per-solid-angle share ``Io_b = e_b / (4 pi)``.

The post-step temperature update inverts the nonlinear relation
``sum_b e_b(T) = E`` for the per-cell energy ``E`` obtained by integrating
the intensity over directions and bands — "the relationship between the
non-linear phonon energy distribution and temperature is highly non-linear"
(paper Sec. II-B).  :func:`energy_to_temperature` does this with a
vectorised, safeguarded Newton iteration over all cells simultaneously.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bte import constants as C
from repro.bte.dispersion import BandSet
from repro.util.errors import SolverError


def bose_einstein(omega: np.ndarray, T: np.ndarray | float) -> np.ndarray:
    """Equilibrium occupancy ``1 / (exp(hbar w / kB T) - 1)``."""
    x = C.HBAR * np.asarray(omega) / (C.KB * np.asarray(T, dtype=np.float64))
    return 1.0 / np.expm1(np.clip(x, 1e-12, 700.0))


def _dn_dT(omega: np.ndarray, T: np.ndarray) -> np.ndarray:
    """d n_BE / d T (used by the Newton step)."""
    x = C.HBAR * np.asarray(omega) / (C.KB * T)
    x = np.clip(x, 1e-12, 350.0)
    ex = np.exp(x)
    return (x / T) * ex / np.square(ex - 1.0)


def band_energy_density(bands: BandSet, T: np.ndarray | float) -> np.ndarray:
    """``e_b(T)``: per-band equilibrium energy density.

    ``T`` scalar -> ``(nbands,)``; ``T`` of shape ``(ncells,)`` ->
    ``(nbands, ncells)``.
    """
    T = np.asarray(T, dtype=np.float64)
    scalar = T.ndim == 0
    Tc = T.reshape(1, -1)
    omega = bands.omega[:, None]
    e = (
        C.HBAR
        * omega
        * bose_einstein(omega, Tc)
        * bands.dos[:, None]
        * bands.domega[:, None]
    )
    return e[:, 0] if scalar else e


def equilibrium_intensity(bands: BandSet, T: np.ndarray | float) -> np.ndarray:
    """``Io_b(T) = e_b(T) / (4 pi)`` — the DSL variable ``Io``."""
    return band_energy_density(bands, T) / (4.0 * math.pi)


def total_energy_density(bands: BandSet, T: np.ndarray | float) -> np.ndarray | float:
    """``E(T) = sum_b e_b(T)`` (the function Newton inverts)."""
    e = band_energy_density(bands, T)
    total = e.sum(axis=0)
    return float(total[()]) if np.ndim(T) == 0 else total


def _dE_dT(bands: BandSet, T: np.ndarray) -> np.ndarray:
    """Volumetric heat capacity ``dE/dT`` at ``T`` (per cell)."""
    Tc = T.reshape(1, -1)
    omega = bands.omega[:, None]
    de = (
        C.HBAR
        * omega
        * _dn_dT(omega, Tc)
        * bands.dos[:, None]
        * bands.domega[:, None]
    )
    return de.sum(axis=0)


def _band_heat_capacity(bands: BandSet, T: np.ndarray) -> np.ndarray:
    """Per-band ``d e_b / d T`` at ``T``, shape (nbands, ncells)."""
    Tc = T.reshape(1, -1)
    omega = bands.omega[:, None]
    return (
        C.HBAR
        * omega
        * _dn_dT(omega, Tc)
        * bands.dos[:, None]
        * bands.domega[:, None]
    )


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pseudo_temperature` together with what its converged iterate
    already evaluated at the returned ``T``: ``(T, tau, e)`` with ``tau =
    relaxation_times(bands, T)`` and ``e = band_energy_density(bands, T)``,
    both ``(nbands, ncells)`` — the temperature update's ``beta`` and
    ``4 pi Io`` without a second pass."""
    from repro.bte.scattering import relaxation_times  # local: no cycle at import

    band_energy = np.asarray(band_energy, dtype=np.float64)
    if band_energy.ndim != 2 or band_energy.shape[0] != bands.nbands:
        raise SolverError(
            f"band_energy must be (nbands, ncells); got {band_energy.shape}"
        )
    ncells = band_energy.shape[1]
    if np.ndim(T_guess) == 0:
        T = np.full(ncells, float(T_guess))
    else:
        T = np.array(T_guess, dtype=np.float64, copy=True)
    T = np.clip(T, T_floor, T_ceil)

    # converged cells are frozen so a cell's result does not depend on
    # which other cells share its batch — required for the distributed
    # solvers to agree bitwise with the serial one
    active = np.ones(ncells, dtype=bool)
    for _ in range(max_iter):
        tau = relaxation_times(bands, T)  # (nbands, ncells)
        e_T = band_energy_density(bands, T)
        resid = ((e_T - band_energy) / tau).sum(axis=0)
        scale = (np.abs(band_energy) / tau).sum(axis=0)
        active &= np.abs(resid) > tol * np.maximum(scale, 1e-300)
        if not active.any():
            return T, tau, e_T
        slope = (_band_heat_capacity(bands, T) / tau).sum(axis=0)
        step = np.clip(resid / np.maximum(slope, 1e-300), -100.0, 100.0)
        T = np.where(active, np.clip(T - step, T_floor, T_ceil), T)

    tau = relaxation_times(bands, T)
    resid = ((band_energy_density(bands, T) - band_energy) / tau).sum(axis=0)
    scale = (np.abs(band_energy) / tau).sum(axis=0)
    worst = float(np.max(np.abs(resid) / np.maximum(scale, 1e-300)))
    raise SolverError(
        f"pseudo-temperature iteration did not converge (worst residual {worst:.2e})"
    )


def energy_to_temperature(
    bands: BandSet,
    energy: np.ndarray,
    T_guess: np.ndarray | float = 300.0,
    tol: float = 1e-10,
    max_iter: int = 50,
    T_floor: float = 1.0,
    T_ceil: float = 5000.0,
) -> np.ndarray:
    """Invert ``E(T) = energy`` per cell (vectorised safeguarded Newton).

    Converges in 2-4 iterations from the previous step's temperature (the
    solver always passes that as ``T_guess``), relative tolerance ``tol``
    on the energy residual.
    """
    energy = np.asarray(energy, dtype=np.float64)
    if np.any(energy <= 0):
        raise SolverError("non-positive phonon energy density in temperature solve")
    T = np.full_like(energy, float(np.mean(T_guess))) if np.ndim(T_guess) == 0 else (
        np.array(T_guess, dtype=np.float64, copy=True)
    )
    T = np.clip(T, T_floor, T_ceil)
    scale = np.abs(energy)
    active = np.ones(energy.shape, dtype=bool)
    for _ in range(max_iter):
        resid = total_energy_density(bands, T) - energy
        active &= np.abs(resid) > tol * scale
        if not active.any():
            return T
        slope = _dE_dT(bands, T)
        # safeguard: cap the Newton step to keep T physical; frozen once
        # converged (batch-independent results)
        step = np.clip(resid / np.maximum(slope, 1e-300), -100.0, 100.0)
        T = np.where(active, np.clip(T - step, T_floor, T_ceil), T)
    resid = total_energy_density(bands, T) - energy
    worst = float(np.max(np.abs(resid) / scale))
    raise SolverError(
        f"temperature inversion did not converge (worst residual {worst:.2e})"
    )


__all__ = [
    "bose_einstein",
    "band_energy_density",
    "equilibrium_intensity",
    "total_energy_density",
    "energy_to_temperature",
]
