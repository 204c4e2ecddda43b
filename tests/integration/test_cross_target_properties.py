"""Property-based cross-target equivalence on randomly drawn BTE configs.

Hypothesis draws the discretisation and the parallel strategy; whatever it
picks, the distributed/GPU paths must reproduce the serial solution
exactly (bitwise for CPU strategies, round-off for the device path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte.problem import build_bte_problem, hotspot_scenario


def make_scenario(nx, ndirs, nbands, nsteps):
    sc = hotspot_scenario(nx=nx, ny=nx, ndirs=ndirs, n_freq_bands=nbands,
                          dt=1e-12, nsteps=nsteps)
    sc.sigma = 150e-6  # keep the wall transient visible on coarse grids
    return sc


@given(
    nx=st.integers(min_value=4, max_value=10),
    ndirs=st.sampled_from([4, 8]),
    nbands=st.integers(min_value=2, max_value=6),
    nsteps=st.integers(min_value=2, max_value=5),
    strategy=st.sampled_from(["bands", "cells"]),
    nparts=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_distributed_equals_serial(nx, ndirs, nbands, nsteps, strategy, nparts):
    sc = make_scenario(nx, ndirs, nbands, nsteps)
    p_ref, model = build_bte_problem(sc)
    if strategy == "bands" and nparts > model.bands.nbands:
        nparts = model.bands.nbands
    if strategy == "cells" and nparts > nx * nx:
        nparts = 2
    u_ref = p_ref.solve().solution()

    p, _ = build_bte_problem(sc)
    p.set_partitioning(strategy, nparts,
                       index="b" if strategy == "bands" else None)
    u = p.solve().solution()
    assert np.array_equal(u, u_ref)


@given(
    nx=st.integers(min_value=6, max_value=12),
    ndirs=st.sampled_from([4, 8]),
    nbands=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=8, deadline=None)
def test_gpu_equals_serial(nx, ndirs, nbands):
    sc = make_scenario(nx, ndirs, nbands, nsteps=3)
    p_ref, _ = build_bte_problem(sc)
    u_ref = p_ref.solve().solution()

    p, _ = build_bte_problem(sc)
    p.enable_gpu()
    p.extra["gpu_force_offload"] = True
    solver = p.solve()
    scale = np.abs(u_ref).max()
    assert np.abs(solver.solution() - u_ref).max() <= 1e-12 * scale


#: the hot spot's surface with a second, two-sided term: the statement does
#: not fold, so the device kernel and the boundary part each read the face
#: tables of their own faces
TWO_SIDED = ("(Io[b] - I[d,b]) / beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b])"
             " + 0.1 * vg[b] * Sx[d] * average(I[d,b]))")


@pytest.mark.parametrize("nx", [3, 6])
def test_a_two_sided_device_program_equals_serial(nx):
    """A device program's boundary part reads the tables of the boundary
    faces, not those the interior kernel built on the interior faces: on a
    3x3 mesh (12 of each) the device solution agrees with the serial one,
    and on 6x6 (60 interior, 24 boundary faces) it runs."""
    def solve(gpu):
        sc = make_scenario(nx, 4, 3, nsteps=3)
        sc.equation = TWO_SIDED
        p, _ = build_bte_problem(sc)
        if gpu:
            p.enable_gpu()
            p.extra["gpu_force_offload"] = True
        return p.solve()

    u_ref = solve(False).solution()
    solver = solve(True)
    assert solver.tile.shape == "faces"
    scale = np.abs(u_ref).max()
    assert np.abs(solver.solution() - u_ref).max() <= 1e-12 * scale
