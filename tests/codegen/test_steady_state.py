"""A warmed-up step allocates no array of the problem's size.

Every ``(rows, nfaces)`` / ``(rows, ncells)`` / ``(nbands, ncells)`` array a
step needs — the tile's gathers and statement registers, the divergence and
update targets, the sweep terms, the ghost values, the closure's work arrays
— is scratch owned by the solver state (the device's workspace for the
interior kernel), taken on the first step and reused.  The problem here is
small enough for a tile to hold most component rows, so a single expression
temporary, fancy-indexed table or transposed copy inside the tile loop
would be larger than the unknown itself and show up at once.

What a step may still allocate: ``(ncells,)`` vectors (``T``, residuals,
index arrays), the boundary callbacks' ``(ncomp, region faces)`` values, the
compacted columns of the few cells still iterating in the closure, and
NumPy's own bounded iterator buffers (up to 8192 elements per operand of a
broadcasting ufunc call) — which is why the problem is not smaller still.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.fvm import kernels


def use_gpu(problem):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True


TARGETS = {
    "cpu": lambda p: None,
    "cells": lambda p: p.set_partitioning("cells", 2),
    "bands": lambda p: p.set_partitioning("bands", 2, index="b"),
    "gpu": use_gpu,
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_third_step_allocates_less_than_one_unknown_sized_array(target):
    problem, _ = build_bte_problem(hotspot_scenario(
        nx=32, ny=32, ndirs=8, n_freq_bands=4, dt=1e-12, nsteps=4))
    TARGETS[target](problem)
    seen: dict = {"steps": 0}

    def probe(state):
        """After the temperature update of every step (on rank 0 of a
        distributed run: the ranks step together): the allocation peak of
        the third step over what was live when it began."""
        if state.comm is not None and state.comm.rank:
            return
        seen["steps"] += 1
        current, peak = tracemalloc.get_traced_memory()
        if seen["steps"] == 3:
            seen["over"] = peak - seen["base"]
        tracemalloc.reset_peak()
        seen["base"] = current

    problem.add_post_step(probe)
    solver = problem.generate()
    state = solver.state
    one_array = state.ncomp * state.ncells * 8
    # any one tile-shaped temporary would be caught
    rows = kernels.tile_rows(state.geom.nfaces, state.ncomp)
    assert rows * state.ncells * 8 > one_array // 2 and rows * state.geom.nfaces * 8 > one_array
    tracemalloc.start()
    try:
        solver.run(4)
    finally:
        tracemalloc.stop()
    assert seen["steps"] == 4
    assert seen["over"] < one_array, (
        f"step 3 allocated {seen['over']} B at its peak; one (ncomp, ncells) array "
        f"is {one_array} B")
