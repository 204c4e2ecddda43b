"""The virtual clocks of five small solves, pinned exactly.

The paper's scaling evidence is modelled virtual time, and this repo
computes it bit-deterministically: a change that moves one of these
readings changed the cost model or the schedule, never noise.  So each is
pinned as a ``float.hex`` literal, not inside a tolerance.  The problems are
the hot spot at nx=16 with 4 directions, 4 bands and 5 steps, its source
widened to 2.5 cells so the small grid resolves it.
"""

from __future__ import annotations

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.runtime.faults import fault_run

NX = 16


def _problem(*, gpu: bool = False, bands: int = 1, nsteps: int = 5):
    scenario = hotspot_scenario(nx=NX, ny=NX, ndirs=4, n_freq_bands=4,
                                nsteps=nsteps)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / NX)
    problem, _ = build_bte_problem(scenario)
    if gpu:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if bands > 1:
        problem.set_partitioning("bands", bands, index="b")
    return problem


def test_gpu_hybrid_host_clock():
    solver = _problem(gpu=True).solve()
    assert solver.state.host_clock.now() == float.fromhex("0x1.94f39791d7835p-5")


@pytest.mark.parametrize("gpu, pin", [
    (False, "0x1.03d423918deacp-5"),
    (True, "0x1.88415b2273d6ap-5"),
], ids=["bands2", "gpu_bands2"])
def test_band_spmd_makespan(gpu, pin):
    solver = _problem(gpu=gpu, bands=2).solve()
    assert solver.state.spmd_result.makespan == float.fromhex(pin)


@pytest.mark.parametrize("ranks, pin", [
    (4, "0x1.1cb0ac775e77fp-6"),
    (16, "0x1.355dbe2f8968ep-8"),
])
def test_skewed_cells_makespan_under_the_rebalancer(ranks, pin):
    """Rank 0 computes 3x slower for the whole run: the rebalancer must
    move work off it exactly as it did when the pin was taken."""
    problem = _problem(nsteps=10)
    problem.set_partitioning("cells", ranks)
    problem.extra["rebalance"] = True
    with fault_run("rank_slow:rank=0,factor=3,count=0"):
        solver = problem.solve()
    assert solver.state.spmd_result.makespan == float.fromhex(pin)
