"""Coarse 3-D BTE (paper Sec. III-A: "Some very coarse-grained
3-dimensional runs were also performed successfully")."""

import hashlib
import math
import sys

import numpy as np
import pytest

from repro.bte.angular import product_directions_3d, reflection_map
from repro.bte.problem import (
    build_bte_problem,
    coarse_3d_scenario,
    corner_source_scenario,
    hotspot_scenario,
)
from repro.tune.signature import cache_key
from repro.util.errors import ConfigError


class TestProductOrdinates:
    def test_counts_and_weights(self):
        ds = product_directions_3d(8, 4)
        assert ds.ndirs == 32
        assert ds.dim == 3
        assert ds.weights.sum() == pytest.approx(4 * math.pi)
        assert np.allclose(np.linalg.norm(ds.vectors, axis=1), 1.0)

    def test_paper_quoted_size(self):
        """'around 20 x 20 = 400' for general 3-D problems."""
        ds = product_directions_3d(20, 20)
        assert ds.ndirs == 400

    def test_balanced(self):
        ds = product_directions_3d(8, 4)
        moment = (ds.vectors * ds.weights[:, None]).sum(axis=0)
        assert np.allclose(moment, 0.0, atol=1e-12)

    def test_second_moment_near_isotropic(self):
        """Equal-solid-angle ordinates integrate s_i s_j to ~(4pi/3) I:
        off-diagonals vanish exactly, the trace is exactly 4pi (unit
        vectors), diagonals carry only the O(1/n^2) midpoint error."""
        ds = product_directions_3d(12, 6)
        M = np.einsum("d,di,dj->ij", ds.weights, ds.vectors, ds.vectors)
        off = M - np.diag(np.diag(M))
        assert np.allclose(off, 0.0, atol=1e-12)
        assert np.trace(M) == pytest.approx(4 * math.pi, rel=1e-12)
        assert np.allclose(np.diag(M), 4 * math.pi / 3, rtol=0.05)
        # refinement shrinks the error
        fine = product_directions_3d(12, 12)
        Mf = np.einsum("d,di,dj->ij", fine.weights, fine.vectors, fine.vectors)
        err_coarse = abs(M[2, 2] - 4 * math.pi / 3)
        err_fine = abs(Mf[2, 2] - 4 * math.pi / 3)
        assert err_fine < err_coarse

    @pytest.mark.parametrize("normal", [
        [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
    ])
    def test_axis_plane_reflections_exact(self, normal):
        ds = product_directions_3d(8, 4)
        r = reflection_map(ds, np.array(normal))
        assert sorted(r.tolist()) == list(range(32))

    @pytest.mark.parametrize("n_az,n_pol", [(3, 4), (8, 3), (2, 2), (8, 0)])
    def test_invalid_counts(self, n_az, n_pol):
        with pytest.raises(ConfigError):
            product_directions_3d(n_az, n_pol)


class TestCoarse3DRun:
    @pytest.fixture(scope="class")
    def solved(self):
        scenario = coarse_3d_scenario(
            nx=6, ny=6, nz=6, n_azimuthal=8, n_polar=4,
            n_freq_bands=4, dt=1e-12, nsteps=10,
        )
        problem, model = build_bte_problem(scenario)
        solver = problem.solve()
        return scenario, model, solver

    def test_runs_and_heats_from_the_top_face(self, solved):
        scenario, model, solver = solved
        T = solver.state.extra["T"].reshape(scenario.nz, scenario.ny, scenario.nx)
        assert T.max() > scenario.T0
        # the hot face is z-max
        assert T[-1].max() == T.max()
        assert T[0].max() == pytest.approx(scenario.T0, abs=1e-6)

    def test_lateral_symmetry(self, solved):
        """Specular side walls + centred source: the field is symmetric in
        both lateral directions."""
        scenario, model, solver = solved
        T = solver.state.extra["T"].reshape(scenario.nz, scenario.ny, scenario.nx)
        assert np.allclose(T, T[:, :, ::-1], rtol=1e-9)
        assert np.allclose(T, T[:, ::-1, :], rtol=1e-9)

    def test_equation_uses_three_normal_components(self, solved):
        _, _, solver = solved
        assert "NORMAL_3" in str(solver.expanded_expr)
        assert "normal_z" in solver.source

    def test_3d_equilibrium_steady(self):
        scenario = coarse_3d_scenario(
            nx=4, ny=4, nz=4, n_azimuthal=8, n_polar=4,
            n_freq_bands=3, dt=1e-12, nsteps=8, T_hot=300.0,
        )
        problem, _ = build_bte_problem(scenario)
        solver = problem.solve()
        assert np.allclose(solver.state.extra["T"], 300.0, atol=1e-9)


class TestOneBuilder:
    """``build_bte_problem`` builds the 2-D and the 3-D problems alike — the
    scenario says the grid, the ordinates, the walls and the equation — into
    the problems the two former builders built: the cache key and the
    solution, pinned from them."""

    CASES = {
        "hotspot": (lambda: hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4, nsteps=3),
                    "17cf22d23ed9a86eda6cbb821619815465bd632f76380e7bf74db3383a67f0a9",
                    "87cb5165a749edb120b171388844164854824d19806bb03a98c35c4d40846c56"),
        "corner": (lambda: corner_source_scenario(nx=12, ny=6, ndirs=4, n_freq_bands=4,
                                                  nsteps=3),
                   "37ab0ff446dedb0dd47da690985d56e3af39c28a2967b5d4c3f75da49701e44a",
                   "9e18cac4b5eea0bb45014ebb73f0d6ff9ccc0efe4e286b81f8119092c271728a"),
        "coarse_3d": (lambda: coarse_3d_scenario(nx=4, ny=4, nz=4, n_azimuthal=8, n_polar=2,
                                                 n_freq_bands=3, nsteps=3),
                      "a4557aab46a9ef1c79f5dd1a7295c3e8a9b7edb0c7715d6ee4f38582f3758713",
                      "1c67fd98708a9bf3057df883aedfb40570c96406cd3db07867f780197546abfc"),
    }

    # the callbacks' part of the key hashes bytecode (see test_signature.py)
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="digests recorded under CPython 3.11 bytecode")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_problems_equal_the_two_builders(self, case):
        scenario, key, solution = self.CASES[case]
        problem, _ = build_bte_problem(scenario())
        assert cache_key(problem, "cpu") == key
        digest = hashlib.sha256(problem.solve().solution().tobytes()).hexdigest()
        assert digest == solution

    def test_walls_follow_the_scenario(self):
        scenario = coarse_3d_scenario(nx=4, ny=4, nz=4, n_polar=2, n_freq_bands=3)
        problem, _ = build_bte_problem(scenario)
        kinds = {b.region: b.kind.value for b in problem.boundaries}
        assert kinds == {1: "symmetry", 2: "symmetry", 3: "symmetry", 4: "symmetry",
                         5: "flux", 6: "flux"}
        assert scenario.wall_normal(5).tolist() == [0.0, 0.0, -1.0]
        scenario.symmetry_regions = (1, 2, 3)
        with pytest.raises(ConfigError, match="walls 1-6"):
            build_bte_problem(scenario)
