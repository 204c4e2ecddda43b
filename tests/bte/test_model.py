"""BTEModel: reductions, callbacks, reflection maps."""

import numpy as np
import pytest

from repro.bte.angular import uniform_directions_2d
from repro.bte.dispersion import silicon_bands
from repro.bte.equilibrium import equilibrium_intensity, total_energy_density
from repro.bte.model import BTEModel
from repro.dsl.entities import Reduction
from repro.fvm import kernels
from repro.util.errors import ConfigError, DSLError


@pytest.fixture
def model():
    return BTEModel(bands=silicon_bands(6), directions=uniform_directions_2d(8))


class TestComponentLayout:
    def test_ncomp(self, model):
        assert model.ncomp == 8 * model.bands.nbands

    def test_comp_axes_row_major(self, model):
        nb = model.bands.nbands
        assert model.comp_dir[0] == 0 and model.comp_band[0] == 0
        assert model.comp_dir[nb] == 1 and model.comp_band[nb] == 0
        assert model.comp_band[1] == 1

    def test_vg_per_component(self, model):
        assert np.allclose(model.vg_comp, model.bands.vg[model.comp_band])


class TestEnergyReduction:
    def test_equilibrium_energy_closes(self, model):
        """E(I0(T)) == E(T): the reduction is consistent with the
        equilibrium construction (this is what makes the SMRT step
        energy-conserving)."""
        T = 321.0
        I = model.initial_intensity(T)[:, None] * np.ones((model.ncomp, 10))
        E = model.energy_from_intensity(I)
        assert np.allclose(E, total_energy_density(model.bands, T), rtol=1e-12)

    def test_shape_check(self, model):
        with pytest.raises(ConfigError):
            model.energy_from_intensity(np.zeros((3, 10)))

    def test_heat_flux_zero_at_equilibrium(self, model):
        I = model.initial_intensity(300.0)[:, None] * np.ones((model.ncomp, 5))
        q = model.heat_flux(I)
        assert np.allclose(q, 0.0, atol=1e-8 * np.abs(I).max())

    def test_heat_flux_points_along_anisotropy(self, model):
        I = np.zeros((model.ncomp, 1))
        # load only the ordinate closest to +x
        d_plus = int(np.argmax(model.dirs.sx))
        I[model.comp_dir == d_plus] = 1.0
        q = model.heat_flux(I)
        assert q[0, 0] > 0
        assert abs(q[0, 0]) > abs(q[1, 0]) * 0.5


def _scattered_band_energies(model, I, comps=None):
    """The definition: an ordered scatter-add over the components."""
    comps = np.arange(model.ncomp) if comps is None else np.asarray(comps)
    out = np.zeros((model.bands.nbands, I.shape[1]))
    np.add.at(out, model.comp_band[comps],
              model.weight_comp[comps][:, None] * I[comps])
    return out


def band_energies(model, I, comps=None, work=False):
    """The declared band-energy reduction of ``I`` by the one NumPy form
    (what a test hands ``temperature_update`` when it calls it by hand)."""
    r = model.band_energy_reduction()
    out = np.full((r.rows, I.shape[1]), np.nan)  # zeroed by the form
    return kernels.reduce_rows(I, r.group, r.weight, out, comps,
                               np.full_like(out, np.nan) if work else None)


class TestBandEnergies:
    """The declared reduction's one NumPy form, run in slabs, is the
    ordered scatter-add, bit for bit."""

    @pytest.fixture
    def intensity(self, model):
        rng = np.random.default_rng(3)
        return rng.standard_normal((model.ncomp, 17)) * 10.0 ** rng.integers(
            -3, 6, size=(model.ncomp, 1))

    def test_all_components(self, model, intensity):
        for work in (False, True):
            assert np.array_equal(band_energies(model, intensity, work=work),
                                  _scattered_band_energies(model, intensity))

    @pytest.mark.parametrize("bands", [[0, 1, 2], [3], [1, 4, 5], [5, 0]])
    def test_band_partition_blocks(self, model, intensity, bands):
        """A rank's owned components: the same bands of every direction."""
        comps = np.flatnonzero(np.isin(model.comp_band, bands))
        assert np.array_equal(band_energies(model, intensity, comps, work=True),
                              _scattered_band_energies(model, intensity, comps))

    @pytest.mark.parametrize("comps", [
        [],                      # nothing owned
        [0, 1, 2, 9],            # different band sets per direction
        list(range(5, 21)),      # directions cut mid-slab
        [13, 12, 1, 0],          # unsorted
        [0, 0, 6, 6],            # repeated components accumulate
    ])
    def test_irregular_subsets_keep_the_scatter(self, model, intensity, comps):
        comps = np.array(comps, dtype=int)
        assert np.array_equal(band_energies(model, intensity, comps),
                              _scattered_band_energies(model, intensity, comps))

    def test_a_run_needs_consecutive_components_too(self, model, intensity):
        """Consecutive output rows from components that are not: two runs."""
        comps = np.array([0, model.bands.nbands + 1])
        assert np.array_equal(band_energies(model, intensity, comps),
                              _scattered_band_energies(model, intensity, comps))

    def test_a_slice_is_its_rows(self, model, intensity):
        assert np.array_equal(band_energies(model, intensity, slice(5, 21)),
                              _scattered_band_energies(model, intensity, np.arange(5, 21)))

    def test_a_declaration_out_of_range_is_refused(self, model):
        r = model.band_energy_reduction()
        with pytest.raises(DSLError, match="output row"):
            Reduction("band_energy", r.group, r.weight, r.rows - 1)
        with pytest.raises(DSLError, match="one weight per component"):
            Reduction("band_energy", r.group, r.weight[:-1], r.rows)


#: every target and plan a declared reduction reaches the callback through:
#: (target, stepper, partitioning, ranks, where finish_step runs)
HANDED = {
    "cpu": ("cpu", "euler", None, 0, None),
    "rk2": ("cpu", "rk2", None, 0, None),
    "rk4": ("cpu", "rk4", None, 0, None),
    "gpu": ("gpu", "euler", None, 0, "cpu"),
    "gpu-resident": ("gpu", "euler", None, 0, "gpu"),
    "cells2": ("distributed", "euler", "cells", 2, None),
    "cells3": ("distributed", "euler", "cells", 3, None),
    "bands2": ("distributed", "euler", "bands", 2, None),
    "gpu_distributed2": ("gpu_distributed", "euler", "bands", 2, "cpu"),
    "gpu_distributed2-resident": ("gpu_distributed", "euler", "bands", 2, "gpu"),
}


@pytest.mark.parametrize("case", sorted(HANDED))
def test_every_target_hands_the_callback_the_definition(case):
    """The band energies ``temperature_update`` is handed — reduced in the
    C tile, an RK step's last stage or ``finish_step`` — are
    the ordered scatter-add over the components the state steps, bit for
    bit, every step (a cell rank's over all of its columns, a band rank's
    over its own rows)."""
    from dataclasses import replace

    from repro.bte.problem import build_bte_problem, hotspot_scenario

    target, stepper, strategy, ranks, finish = HANDED[case]
    problem, model = build_bte_problem(hotspot_scenario(
        nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=3))
    problem.set_stepper(stepper)
    if strategy:
        problem.set_partitioning(strategy, ranks, **({"index": "b"} if strategy == "bands" else {}))
    if target.startswith("gpu"):
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        problem.extra["placement_override"] = {"finish_step": finish}
    handed = []
    callback = problem.post_step_callbacks[0]

    def recording(state, e_act):
        expected = _scattered_band_energies(model, state.u, state.owned_comps)
        handed.append(e_act.tobytes() == expected.tobytes())
        callback.fn(state, e_act)

    problem.post_step_callbacks[0] = replace(callback, fn=recording)
    solver = problem.generate()
    if finish is not None:
        assert solver.placement.device["finish_step"] == finish
    solver.run()
    assert handed == [True] * 3 * max(ranks, 1)


class TestIsothermalCallback:
    def test_signed_integrand_signs(self, model):
        """Outgoing directions (s.n > 0) upwind the interior value; incoming
        pick the wall equilibrium (Eq. 6)."""
        nf = 3
        normals = np.tile(np.array([[0.0, -1.0]]), (nf, 1))  # bottom wall
        I_owner = np.full((model.ncomp, nf), 2.0)
        out = model.isothermal(
            None,
            I_owner,
            model.bands.vg,
            model.dirs.sx,
            model.dirs.sy,
            None,
            None,
            normals,
            300.0,
        )
        assert out.shape == (model.ncomp, nf)
        sdotn = model.dirs.sy[model.comp_dir] * -1.0
        ghost = equilibrium_intensity(model.bands, 300.0)[model.comp_band]
        expected = -(model.vg_comp * sdotn) * np.where(sdotn > 0, 2.0, ghost)
        assert np.allclose(out[:, 0], expected)

    def test_equilibrium_wall_absorbs_nothing_net(self, model):
        """If the interior already sits at the wall temperature, the net
        energy flux through the wall vanishes."""
        T = 300.0
        nf = 1
        normals = np.array([[0.0, -1.0]])
        I_owner = model.initial_intensity(T)[:, None] * np.ones((model.ncomp, nf))
        out = model.isothermal(
            None, I_owner, model.bands.vg, model.dirs.sx, model.dirs.sy,
            None, None, normals, T,
        )
        net = (model.weight_comp @ out[:, 0])
        assert net == pytest.approx(0.0, abs=1e-10 * np.abs(out).max())


    def test_wall_invariants_are_kept_per_context_by_argument_identity(self, model, monkeypatch):
        """``s.n``, ``vg*s.n``, the outflow mask and the wall equilibrium are
        derived once per region context; an argument that is another object
        (a function coefficient resolves to a fresh array every step) derives
        them again; the values equal the unmemoised call bit for bit."""
        from repro.bte import model as model_module
        from repro.fvm.boundary import BoundaryContext

        calls = []
        monkeypatch.setattr(model_module, "equilibrium_intensity", lambda *a: (
            calls.append(a[1]), equilibrium_intensity(*a))[-1])
        nf = 4
        normals = np.tile(np.array([[0.0, -1.0]]), (nf, 1))
        ctx = BoundaryContext(1, np.arange(nf), normals, np.zeros((nf, 2)), np.ones(nf),
                              np.arange(nf), None, 0.0, 0.0)
        args = (model.bands.vg, model.dirs.sx, model.dirs.sy, None, None, normals, 300.0)
        rng = np.random.default_rng(0)
        for step in range(3):
            I_owner = rng.random((model.ncomp, nf))
            got = model.isothermal(ctx, I_owner, *args)
            assert got.tobytes() == model.isothermal(None, I_owner, *args).tobytes()
            assert len(calls) == step + 2  # one for the memo, one per bare call
        fresh = (model.bands.vg.copy(), *args[1:])
        assert model.isothermal(ctx, I_owner, *fresh).tobytes() == got.tobytes()
        assert len(calls) == 5 and ctx.memo["wall_flux"][0][0] is fresh[0]
        hotter = model.isothermal(ctx, I_owner, *args[:-1], 350.0)  # another wall
        assert len(calls) == 6 and not np.array_equal(hotter, got)


class TestProfileCallback:
    def test_profile_bc_shape_and_variation(self, model):
        profile = lambda centers: 300.0 + 50.0 * centers[:, 0]  # noqa: E731

        cb = model.make_isothermal_profile_bc(profile)
        from repro.fvm.boundary import BoundaryContext

        nf = 4
        ctx = BoundaryContext(
            region=4,
            faces=np.arange(nf),
            normals=np.tile([[0.0, 1.0]], (nf, 1)),
            centers=np.stack([np.linspace(0, 1, nf), np.ones(nf)], axis=1),
            areas=np.ones(nf),
            owner_cells=np.arange(nf),
            owner_values=np.full((model.ncomp, nf), 1.0),
            time=0.0,
            dt=1e-12,
        )
        out = cb(ctx)
        assert out.shape == (model.ncomp, nf)
        # hotter wall -> larger incoming ghost intensity magnitude
        incoming = model.dirs.sy[model.comp_dir] > 0  # s.n > 0 is outgoing here
        mag = np.abs(out[~incoming])
        assert mag[:, -1].mean() > mag[:, 0].mean()

    def test_profile_shape_mismatch_raises(self, model):
        cb = model.make_isothermal_profile_bc(lambda centers: np.zeros(2))
        from repro.fvm.boundary import BoundaryContext

        ctx = BoundaryContext(
            region=4, faces=np.arange(3),
            normals=np.tile([[0.0, 1.0]], (3, 1)),
            centers=np.zeros((3, 2)), areas=np.ones(3),
            owner_cells=np.arange(3),
            owner_values=np.zeros((model.ncomp, 3)),
            time=0.0, dt=1.0,
        )
        with pytest.raises(ConfigError):
            cb(ctx)


class TestSymmetryMaps:
    @pytest.mark.parametrize("normal", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    def test_component_permutation(self, model, normal):
        m = model.symmetry_map(np.array(normal))
        assert sorted(m.tolist()) == list(range(model.ncomp))
        # bands never mix under reflection
        assert np.array_equal(model.comp_band[m], model.comp_band)
