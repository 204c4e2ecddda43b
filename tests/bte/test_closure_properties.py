"""The blocked, active-set Newton closure against the whole-batch loop.

``pseudo_temperature_closure`` solves the cells in blocks of ``TILE_BYTES``
and, after a block's first pass, iterates only the cells that have not
converged, on compacted copies.  Every operation is per cell, so ``T``,
``tau`` and ``e`` must equal — bit for bit — what the loop it replaced
computes over the whole batch at once: every cell evaluated on every pass,
converged ones frozen by a mask.  That loop is kept here as the reference.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte import equilibrium
from repro.bte.dispersion import BandSet, silicon_bands
from repro.bte.equilibrium import (
    _band_heat_capacity,
    band_energy_density,
    energy_to_temperature,
    pseudo_temperature_closure,
)
from repro.bte.scattering import relaxation_times
from repro.util.errors import SolverError

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

BANDS = silicon_bands(6)  # 6 LA + 2 TA: all three scattering channels


def reference_closure(bands, band_energy, T_guess, tol=1e-10, max_iter=60,
                      T_floor=1.0, T_ceil=5000.0):
    """The whole-batch loop (two or more cells: a single column would sum
    its bands pairwise).  Returns ``(T, tau, e, passes)``."""
    T = np.clip(np.array(T_guess, dtype=np.float64), T_floor, T_ceil)
    active = np.ones(len(T), dtype=bool)
    for passes in range(1, max_iter + 1):
        tau = relaxation_times(bands, T)
        e_T = band_energy_density(bands, T)
        resid = ((e_T - band_energy) / tau).sum(axis=0)
        scale = (np.abs(band_energy) / tau).sum(axis=0)
        active &= np.abs(resid) > tol * np.maximum(scale, 1e-300)
        if not active.any():
            return T, tau, e_T, passes
        slope = (_band_heat_capacity(bands, T) / tau).sum(axis=0)
        step = np.clip(resid / np.maximum(slope, 1e-300), -100.0, 100.0)
        T = np.where(active, np.clip(T - step, T_floor, T_ceil), T)
    raise SolverError("reference did not converge")


def problem(ncells, active, seed, offset=3.0):
    """Band energies of a temperature field, and a guess that is already
    converged everywhere but on the ``active`` cells."""
    rng = np.random.default_rng(seed)
    T_true = rng.uniform(250.0, 420.0, ncells)
    energy = band_energy_density(BANDS, T_true)
    guess = reference_closure(BANDS, energy, T_true)[0]  # passes its own check
    guess[active] += offset * rng.uniform(0.5, 1.0, len(active)) * rng.choice([-1, 1], len(active))
    return energy, guess


def assert_same(got, expected):
    for name, a, b in zip(("T", "tau", "e"), got, expected):
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(ncells=st.integers(2, 40), block=st.integers(1, 45), seed=st.integers(0, 10_000),
       data=st.data())
def test_blocked_active_set_closure_equals_the_whole_batch_loop(ncells, block, seed, data):
    active = np.flatnonzero(data.draw(
        st.lists(st.booleans(), min_size=ncells, max_size=ncells), label="active"))
    energy, guess = problem(ncells, active, seed)
    expected = reference_closure(BANDS, energy, guess)[:3]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "TILE_BYTES", 8 * BANDS.nbands * block)
        assert_same(pseudo_temperature_closure(BANDS, energy, guess), expected)
        # batch independence: any order of the same cells, the same bits per cell
        order = np.random.default_rng(seed).permutation(ncells)
        shuffled = pseudo_temperature_closure(BANDS, energy[:, order], guess[order])
        assert_same([a[..., np.argsort(order)] for a in shuffled], expected)


def counting_evaluations(patch):
    """Calls of ``band_energy_density`` inside the closure, by batch width."""
    widths = []
    patch.setattr(equilibrium, "band_energy_density", lambda bands, T, out=None: (
        widths.append(np.size(T)), band_energy_density(bands, T, out=out))[-1])
    return widths


@settings(max_examples=40, deadline=None)
@given(ncells=st.integers(2, 40), block=st.integers(1, 45), seed=st.integers(0, 10_000),
       data=st.data())
def test_warm_closure_equals_the_cold_call_and_skips_its_first_pass(ncells, block, seed, data):
    """The next step's closure, handed the last result and a guess equal to
    its ``T``: the same bits as the cold call (every operation is per cell,
    so ``tau`` and ``e`` at an unchanged ``T`` are the ones it holds),
    without the first pass's evaluations; one cell of the guess changed in
    its last bit takes the cold path."""
    active = np.flatnonzero(data.draw(
        st.lists(st.booleans(), min_size=ncells, max_size=ncells), label="active"))
    energy, guess = problem(ncells, active, seed)
    moved = energy * (1.0 + 1e-3 * np.random.default_rng(seed).uniform(-1, 1, energy.shape))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "TILE_BYTES", 8 * BANDS.nbands * block)
        last = pseudo_temperature_closure(BANDS, energy, guess)
        widths = counting_evaluations(patch)
        cold = [a.copy() for a in pseudo_temperature_closure(BANDS, moved, last[0])]
        first_pass, cold_calls = -(-ncells // min(block, ncells)), len(widths)
        held = tuple(a.copy() for a in last)
        warm = pseudo_temperature_closure(BANDS, moved, last[0].copy(), warm=held)
        assert_same(warm, cold)
        assert warm[1] is held[1] and warm[2] is held[2]  # updated where they live
        assert len(widths) - cold_calls == cold_calls - first_pass
        # a guess that is not the last T: cold, whatever it is handed
        nudged = last[0].copy()
        nudged[seed % ncells] = np.nextafter(nudged[seed % ncells], np.inf)
        before = len(widths)
        held = tuple(a.copy() for a in last)
        other = pseudo_temperature_closure(BANDS, moved, nudged, warm=held)
        assert len(widths) - before >= first_pass and other[1] is not held[1]
        patch.undo()
        assert_same(other, pseudo_temperature_closure(BANDS, moved, nudged))


def test_warm_start_of_another_shape_is_ignored():
    energy, guess = problem(6, np.array([1]), seed=3)
    last = pseudo_temperature_closure(BANDS, energy, guess)
    wider = np.concatenate([energy, energy], axis=1)
    twice = np.concatenate([last[0], last[0]])
    assert_same(pseudo_temperature_closure(BANDS, wider, twice, warm=last),
                pseudo_temperature_closure(BANDS, wider, twice))


@pytest.mark.parametrize("block", [1, 3, 100])
def test_exactly_one_active_cell(block, monkeypatch):
    """A compacted batch of one column must sum its bands in band order, as
    the cell's column does inside any wider batch (a 1-D sum is pairwise)."""
    energy, guess = problem(7, np.array([4]), seed=11)
    expected = reference_closure(BANDS, energy, guess)
    assert expected[3] > 1  # the one cell really iterates
    monkeypatch.setattr(equilibrium, "TILE_BYTES", 8 * BANDS.nbands * block)
    assert_same(pseudo_temperature_closure(BANDS, energy, guess), expected[:3])
    # ... and a batch that *is* one cell equals that cell in company
    alone = pseudo_temperature_closure(BANDS, energy[:, 4:5], guess[4:5])
    assert_same(alone, [a[..., 4:5] for a in expected[:3]])


def test_a_cell_converging_on_the_last_allowed_pass():
    energy, guess = problem(9, np.array([2, 6]), seed=5, offset=40.0)
    *expected, passes = reference_closure(BANDS, energy, guess)
    assert passes >= 3
    assert_same(pseudo_temperature_closure(BANDS, energy, guess, max_iter=passes), expected)
    with pytest.raises(SolverError, match="did not converge"):
        pseudo_temperature_closure(BANDS, energy, guess, max_iter=passes - 1)


def test_scratch_is_reused_and_the_result_does_not_depend_on_it():
    energy, guess = problem(30, np.arange(0, 30, 4), seed=2)
    pool: dict = {}

    def buffer(name, shape):
        if name not in pool or pool[name].shape != shape:
            pool[name] = np.full(shape, np.nan)
        return pool[name]

    first = [a.copy() for a in pseudo_temperature_closure(BANDS, energy, guess, buffer=buffer)]
    again = pseudo_temperature_closure(BANDS, energy, guess, buffer=buffer)
    assert again[1].base is pool["closure"] and again[2].base is pool["closure"]
    assert_same(again, first)
    assert_same(first, pseudo_temperature_closure(BANDS, energy, guess))


def test_relaxation_times_by_channel_equal_the_masked_evaluation():
    """Each channel on its own bands only — for any band order, with
    ``out=`` or without — equals evaluating all of them and selecting."""
    from repro.bte.scattering import impurity_rate, la_phonon_rate, ta_phonon_rate

    rng = np.random.default_rng(8)
    order = rng.permutation(BANDS.nbands)  # channels interleaved
    bands = BandSet(BANDS.n_freq_bands, BANDS.omega[order], BANDS.domega[order],
                    BANDS.vg[order], BANDS.dos[order],
                    [BANDS.branch[i] for i in order], BANDS.freq_band[order])
    T = rng.uniform(1.0, 900.0, 13)
    omega = bands.omega[:, None]
    is_la = np.array([b == "LA" for b in bands.branch])[:, None]
    rate = impurity_rate(omega) + np.where(
        is_la, la_phonon_rate(omega, T[None, :]), ta_phonon_rate(omega, T[None, :]))
    assert relaxation_times(bands, T).tobytes() == (1.0 / rate).tobytes()
    out = np.full((bands.nbands, 13), np.nan)
    assert relaxation_times(bands, T, out=out) is out and out.tobytes() == (1.0 / rate).tobytes()
    assert relaxation_times(bands, 300.0).tobytes() == relaxation_times(
        bands, np.array([300.0]))[:, 0].tobytes()


# --------------------------------------------------------------------------
# a non-finite energy is a failure, not a converged cell
# --------------------------------------------------------------------------

@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_closure_rejects_a_non_finite_band_energy(poison):
    energy, guess = problem(12, np.array([3]), seed=1)
    energy[2, 7] = poison
    with pytest.raises(SolverError, match="cell 7") as err:
        pseudo_temperature_closure(BANDS, energy, guess)
    assert err.value.code == "RPR301"


def test_energy_to_temperature_rejects_nan():
    from repro.bte.equilibrium import total_energy_density

    energy = total_energy_density(BANDS, np.full(5, 310.0))
    energy[3] = np.nan
    with pytest.raises(SolverError, match="cell 3"):
        energy_to_temperature(BANDS, energy, 300.0)


def test_failed_update_leaves_the_published_fields_untouched():
    """``T``, ``Io`` and ``beta`` are written only after convergence."""
    from repro.bte.problem import build_bte_problem, hotspot_scenario

    problem_, _ = build_bte_problem(hotspot_scenario(nx=5, ny=5, ndirs=4, n_freq_bands=3,
                                                     dt=1e-12, nsteps=2))
    solver = problem_.generate()
    solver.run(1)
    state = solver.state
    before = {name: state.fields[name].data.copy() for name in ("Io", "beta")}
    T_before = state.extra["T"].copy()
    state.u[3, 11] = np.nan
    model = problem_.post_step_callbacks[0].fn.__self__
    with pytest.raises(SolverError, match="non-finite band energy"):
        model.temperature_update(state)
    for name, data in before.items():
        assert state.fields[name].data.tobytes() == data.tobytes()
    assert state.extra["T"].tobytes() == T_before.tobytes()


def test_generated_run_stops_at_the_step_that_went_non_finite():
    """Before, the closure returned its guess for a NaN cell and the run
    kept stepping on stale ``Io``/``beta`` until ``check_health``."""
    from repro.bte.problem import build_bte_problem, hotspot_scenario

    problem_, _ = build_bte_problem(hotspot_scenario(nx=5, ny=5, ndirs=4, n_freq_bands=3,
                                                     dt=1e-12, nsteps=6))

    def poison(state):
        if state.step_index == 2:
            state.u[0, 4] = np.nan

    problem_.add_pre_step(poison)
    solver = problem_.generate()
    with pytest.raises(SolverError, match="non-finite band energy"):
        solver.run()
    assert solver.state.step_index == 3  # the poisoned step, not the end of the run
