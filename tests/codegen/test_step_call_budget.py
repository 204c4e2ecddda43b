"""A per-step call budget: what a step costs in calls, counted exactly.

At nx=16 with 20 components a step is bound by the fixed cost of its ~300
Python and C calls, not by the cells (EXPERIMENTS.md, "A step re-derives
nothing").  The count of ``call`` + ``c_call`` events of ``sys.setprofile``
over steps 3-12 of the hot-spot problem repeats exactly from run to run on
``cpu``, so it is pinned as an upper bound: whatever makes a step derive
again what ``bind`` or the previous step already produced — a region
context, a callback invariant, a tile's runs — shows here before it shows
in a timing.
(ufunc calls raise no profile event: these are calls of Python functions,
built-in functions and methods; how many a NumPy helper makes inside
itself depends on the interpreter and on NumPy, so the pin holds for the
CPython 3.11 it was counted under, which CI's ``size-budget`` job runs this
file with.)
"""

import sys

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario

FIRST, LAST = 3, 12
#: per step, the counts plus at most 1 % slack: 231.1 on ``cpu`` and 340.1
#: in a ``cells`` rank, the tile being one foreign call that also reduces
#: the band energies, the boundary part one more, the built-in ghosts one
#: gather and one scatter (whether the peer's message is already there when a
#: rank asks can move a rank's count by a call or two; the lower of two runs
#: is held to the bound); 403.1 on ``gpu``, a served mix's device job (the
#: interior forced onto the device, the finish on the host at this size: the
#: tile, the boundary part and the finish three foreign calls, their
#: arguments resolved once per state, the kernel's tables read from it);
#: 345.1 under ``rk2``, two sweeps into fresh right-hand sides whose
#: arguments are not resolved again; 731.1-742.7 in one of three
#: ``gpu_distributed`` band ranks.
BUDGET = {"cpu": 233, "cells": 343, "gpu": 407, "rk2": 348, "gpu_distributed": 750}


def bracket(state, counted: list) -> None:
    """Count profile events on the calling thread from the end of step
    ``FIRST - 1`` to the end of step ``LAST`` (``end_step`` is looked up on
    the instance, so it can be shadowed per state)."""
    end_step = state.end_step

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            counted[0] += 1

    def bracketing_end_step():
        end_step()
        if state.step_index == FIRST - 1:
            sys.setprofile(count)
        elif state.step_index == LAST:
            sys.setprofile(None)

    state.end_step = bracketing_end_step


def calls_per_step(target: str) -> float:
    scenario = hotspot_scenario(nx=16, ny=16, ndirs=4, n_freq_bands=4, dt=1e-12,
                                nsteps=LAST)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / scenario.nx)
    problem, _ = build_bte_problem(scenario)
    counted = [0]
    if target == "cells":
        problem.set_partitioning("cells", 2)
    elif target == "rk2":  # two sweeps a step, each into a fresh right-hand side
        problem.set_stepper("rk2")
    elif target.startswith("gpu"):  # a served mix's device job: the interior forced onto it
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if target == "gpu_distributed":  # three band ranks, each with its device
        problem.set_partitioning("bands", 3, index="b")
    solver = problem.generate()
    if target in ("cells", "gpu_distributed"):  # inside rank 0: its thread, its state
        ns = solver.namespace
        make_rank_state = ns["make_rank_state"]

        def bracketed(rank):
            state = make_rank_state(rank)
            if rank == 0:
                bracket(state, counted)
            return state

        ns["make_rank_state"] = bracketed
    else:
        bracket(solver.state, counted)
    try:
        solver.run(LAST)
    finally:
        sys.setprofile(None)
    return counted[0] / (LAST - FIRST + 1)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call counts recorded under CPython 3.11")
@pytest.mark.parametrize("target", sorted(BUDGET))
def test_a_step_stays_within_its_call_budget(target):
    calls = min(calls_per_step(target), calls_per_step(target))
    assert 0 < calls <= BUDGET[target], (
        f"{target}: {calls} calls per step, budget {BUDGET[target]}")
