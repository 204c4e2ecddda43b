"""Phonon relaxation times (single-mode relaxation-time approximation).

Matthiessen's rule over the standard silicon channels (constants in
:mod:`repro.bte.constants`, after Terris et al. as used by the paper's
reference solver [14]):

* impurity scattering  ``1/tau_i  = A * omega^4``  (all branches);
* LA normal+Umklapp    ``1/tau_NL = B_L * omega^2 * T^3``;
* TA normal            ``1/tau_NT = B_TN * omega * T^4``     (omega < omega_12);
* TA Umklapp           ``1/tau_UT = B_TU * omega^2 / sinh(hbar*omega/(kB*T))``
  (omega >= omega_12).

The rates are temperature dependent, which is why the BTE must refresh
``tau`` (the ``beta`` variable of the input deck) from the new temperature
field after every step — the coupling that forces the paper's CPU post-step.
"""

from __future__ import annotations

import numpy as np

from repro.bte import constants as C
from repro.bte.dispersion import BandSet
from repro.fvm.kernels import table_runs


def impurity_rate(omega: np.ndarray) -> np.ndarray:
    """Impurity (Rayleigh) scattering rate, 1/s."""
    return C.A_IMP * omega**4


def la_phonon_rate(omega: np.ndarray, T: np.ndarray | float) -> np.ndarray:
    """Combined normal+Umklapp rate for the LA branch."""
    return C.B_L * omega**2 * np.asarray(T, dtype=np.float64) ** 3


def ta_phonon_rate(omega: np.ndarray, T: np.ndarray | float) -> np.ndarray:
    """Normal/Umklapp rate for the TA branch (piecewise in frequency)."""
    omega = np.asarray(omega, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    normal = C.B_TN * omega * T**4
    x = C.HBAR * omega / (C.KB * np.maximum(T, 1.0))
    umklapp = C.B_TU * omega**2 / np.sinh(np.clip(x, 1e-12, 50.0))
    return np.where(omega < C.OMEGA_12, normal, umklapp)


def _rate_tables(bands: BandSet):
    """``(nbands, 1)`` prefactors of every channel and the runs of
    consecutive bands sharing one (LA / TA normal / TA Umklapp), built once
    per band set (whose arrays are not mutated after construction)."""
    tables = getattr(bands, "_rate_tables", None)
    if tables is None:
        omega = bands.omega[:, None]
        channel = np.where(np.array(bands.branch) == "LA", 0,
                           np.where(bands.omega < C.OMEGA_12, 1, 2))
        runs = table_runs(channel)
        prefactor = (C.B_L * omega**2, C.B_TN * omega, C.B_TU * omega**2)
        tables = bands._rate_tables = (
            impurity_rate(omega), C.HBAR * omega, prefactor, runs)
    return tables


def relaxation_times(bands: BandSet, T: np.ndarray | float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Per-band relaxation time ``tau`` at temperature ``T``.

    ``T`` is a scalar or an ``(ncells,)`` array; the result has shape
    ``(nbands,)`` or ``(nbands, ncells)`` accordingly (written into ``out``
    when given).  Each channel of :func:`la_phonon_rate` /
    :func:`ta_phonon_rate` is evaluated on its own bands only, with the same
    operations in the same order.
    """
    T = np.asarray(T, dtype=np.float64)
    Tc = T.reshape(-1)
    impurity, hw, prefactor, runs = _rate_tables(bands)
    tau = np.empty((bands.nbands, len(Tc))) if out is None else out
    for lo, hi, channel in runs:
        rows = tau[lo:hi]
        if channel < 2:  # LA: ~T^3, TA normal: ~T^4
            np.multiply(prefactor[channel][lo:hi], Tc ** (3 + channel), out=rows)
        else:  # TA Umklapp: ~1/sinh(hbar omega / kB T)
            np.divide(hw[lo:hi], C.KB * np.maximum(Tc, 1.0), out=rows)
            np.sinh(rows.clip(1e-12, 50.0, out=rows), out=rows)
            np.divide(prefactor[2][lo:hi], rows, out=rows)
    np.add(impurity, tau, out=tau)  # Matthiessen
    np.divide(1.0, tau, out=tau)
    return tau[:, 0] if T.ndim == 0 else tau


__all__ = ["impurity_rate", "la_phonon_rate", "ta_phonon_rate", "relaxation_times"]
