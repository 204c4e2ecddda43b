"""Bose-Einstein statistics and the temperature inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte import constants as C
from repro.bte.dispersion import silicon_bands
from repro.bte.equilibrium import (
    band_energy_density,
    bose_einstein,
    equilibrium_intensity,
    pseudo_temperature,
    total_energy_density,
)
from repro.util.errors import SolverError
from tests.bte.test_model import band_energies


class TestBoseEinstein:
    def test_low_frequency_classical_limit(self):
        """hbar w << kB T: n ~ kB T / (hbar w)."""
        w = 1e10
        n = bose_einstein(np.array([w]), 300.0)[0]
        assert n == pytest.approx(C.KB * 300.0 / (C.HBAR * w), rel=1e-3)

    def test_high_frequency_exponential_suppression(self):
        w = 5e14
        n = bose_einstein(np.array([w]), 300.0)[0]
        assert n < 1e-5

    def test_monotone_in_temperature(self):
        w = np.array([2e13])
        assert bose_einstein(w, 400.0) > bose_einstein(w, 200.0)


class TestEnergyDensity:
    def test_total_energy_increases_with_temperature(self):
        bands = silicon_bands(20)
        Ts = np.array([200.0, 250.0, 300.0, 350.0, 400.0])
        E = np.array([total_energy_density(bands, float(t)) for t in Ts])
        assert np.all(np.diff(E) > 0)

    def test_room_temperature_magnitude(self):
        """Phonon energy density of silicon at 300 K is O(1e5..1e6) J/m^3
        above the zero-point (occupancy-only) level."""
        bands = silicon_bands(40)
        E = total_energy_density(bands, 300.0)
        assert 1e7 < E < 1e9

    def test_band_resolved_shapes(self):
        bands = silicon_bands(10)
        e_scalar = band_energy_density(bands, 300.0)
        assert e_scalar.shape == (bands.nbands,)
        e_field = band_energy_density(bands, np.array([300.0, 310.0]))
        assert e_field.shape == (bands.nbands, 2)

    def test_intensity_is_energy_over_4pi(self):
        bands = silicon_bands(10)
        e = band_energy_density(bands, 300.0)
        Io = equilibrium_intensity(bands, 300.0)
        assert np.allclose(Io * 4 * np.pi, e)


class TestTemperatureInversion:
    """The closure the temperature update solves inverts the band energies:
    an equilibrium distribution's pseudo-temperature is its temperature."""

    def test_roundtrip_scalar_grid(self):
        bands = silicon_bands(20)
        T_true = np.array([250.0, 300.0, 333.3, 400.0])
        T = pseudo_temperature(bands, band_energy_density(bands, T_true), T_guess=300.0)
        assert np.allclose(T, T_true, rtol=1e-8)

    def test_warm_start_converges_fast(self):
        bands = silicon_bands(20)
        e = band_energy_density(bands, np.full(100, 305.0))
        T = pseudo_temperature(bands, e, T_guess=np.full(100, 300.0), max_iter=6)
        assert np.allclose(T, 305.0, rtol=1e-8)

    def test_nonpositive_energy_rejected(self):
        bands = silicon_bands(5)
        for energy in (0.0, -1.0):
            with pytest.raises(SolverError):
                pseudo_temperature(bands, np.full((bands.nbands, 1), energy))

    @given(temp=st.floats(min_value=150.0, max_value=800.0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, temp):
        bands = silicon_bands(8)
        T = pseudo_temperature(bands, band_energy_density(bands, np.array([temp])),
                               T_guess=300.0)
        assert T[0] == pytest.approx(temp, rel=1e-7)

    def test_vector_of_mixed_temperatures(self):
        bands = silicon_bands(12)
        rng = np.random.default_rng(1)
        T_true = rng.uniform(250, 420, size=500)
        T = pseudo_temperature(bands, band_energy_density(bands, T_true),
                               T_guess=np.full(500, 300.0))
        assert np.allclose(T, T_true, rtol=1e-8)


class TestPseudoTemperatureClosure:
    """The converged iterate already holds ``tau(T)`` and ``e(T)``: the
    temperature update takes ``beta`` and ``Io`` from it instead of
    evaluating both a second time — the same bits."""

    def _band_energy(self, bands, ncells=40):
        rng = np.random.default_rng(3)
        T_true = rng.uniform(280, 380, size=ncells)
        return band_energy_density(bands, T_true) * rng.uniform(0.9, 1.1, (bands.nbands, 1))

    def test_returns_what_a_second_pass_would_compute(self):
        from repro.bte.equilibrium import pseudo_temperature, pseudo_temperature_closure
        from repro.bte.scattering import relaxation_times

        bands = silicon_bands(6)
        e_act = self._band_energy(bands)
        T, tau, e_T = pseudo_temperature_closure(bands, e_act, 300.0)
        assert T.tobytes() == pseudo_temperature(bands, e_act, 300.0).tobytes()
        assert tau.tobytes() == relaxation_times(bands, T).tobytes()
        assert e_T.tobytes() == band_energy_density(bands, T).tobytes()

    @pytest.mark.parametrize("partition", [None, "bands"])
    def test_temperature_update_sets_the_fields_a_second_pass_would(self, partition):
        from types import SimpleNamespace

        from repro.bte.angular import uniform_directions_2d
        from repro.bte.model import BTEModel
        from repro.bte.scattering import relaxation_times

        model = BTEModel(bands=silicon_bands(5), directions=uniform_directions_2d(4))
        nb, ncells = model.bands.nbands, 12
        rng = np.random.default_rng(9)
        Io0 = equilibrium_intensity(model.bands, np.full(ncells, 300.0))
        state = SimpleNamespace(
            u=Io0[model.comp_band] * rng.uniform(0.9, 1.2, (model.ncomp, ncells)),
            extra={"T": np.full(ncells, 300.0)},
            fields={"Io": SimpleNamespace(data=np.zeros((nb, ncells))),
                    "beta": SimpleNamespace(data=np.ones((nb, ncells)))},
            owned_comps=np.arange(model.ncomp) if partition == "bands" else None,
            comm=SimpleNamespace(allreduce=lambda x: x),
            buffer=lambda name, shape: np.empty(shape),
        )
        model.temperature_update(state, band_energies(model, state.u))
        T = state.extra["T"]
        assert not np.array_equal(T, np.full(len(T), 300.0))
        assert (state.fields["Io"].data.tobytes()
                == equilibrium_intensity(model.bands, T).tobytes())
        assert (state.fields["beta"].data.tobytes()
                == relaxation_times(model.bands, T).tobytes())
