"""ABLATION — assemblyLoops ordering (paper Sec. III-C).

"The ability to arrange these loops may also be advantageous in other
applications where efficiency or details of the calculation favor a
particular ordering."  This ablation runs the same BTE configuration under
the three natural orderings, checks the solutions are identical bit for
bit, and benchmarks the generated solvers (each sweeps its component rows
one by one in one C call: the order is the IR's, not yet the loop nest's).
"""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.tune.cache import cache_scope

ORDERS = {
    "cells-outer (fused)": ["cells"],
    "band-outer": ["b", "cells", "d"],
    "dir-outer": ["d", "cells", "b"],
}


@pytest.fixture(scope="module")
def scenario():
    return hotspot_scenario(nx=16, ny=16, ndirs=8, n_freq_bands=8,
                            dt=1e-12, nsteps=3)


@pytest.fixture(scope="module", autouse=True)
def sweep_cache():
    """One compilation cache for the whole sweep: each ordering is built
    once, then every later generate() of the same configuration rebinds
    the cached artifact (fresh state, zero lowering/codegen/compile)."""
    with cache_scope() as cache:
        yield cache


def make_solver(scenario, order):
    problem, _ = build_bte_problem(scenario)
    problem.set_assembly_loops(list(order))
    return problem.generate()


def test_ablation_orders_agree(scenario, record_figure):
    solutions = {}
    for name, order in ORDERS.items():
        solver = make_solver(scenario, order)
        solver.run()
        solutions[name] = solver.solution()
    ref = solutions["cells-outer (fused)"]
    for name, sol in solutions.items():
        assert np.array_equal(sol, ref), name
    record_figure(
        "ABLATION-loop-order: the solution per ordering",
        "\n".join(f"{name:<22} identical bits" for name in solutions),
    )


@pytest.mark.parametrize("name", list(ORDERS))
def test_ablation_loop_order_benchmark(scenario, benchmark, name):
    solver = make_solver(scenario, ORDERS[name])
    benchmark(solver.step)


def test_sweep_reused_cached_artifacts(sweep_cache):
    """The whole sweep builds each ordering exactly once (runs last: pytest
    executes this file top-to-bottom, so every generate() above counted)."""
    assert sweep_cache.stats.builds == len(ORDERS)
    # the benchmark parametrisations regenerated each ordering from cache
    assert sweep_cache.stats.memory_hits >= len(ORDERS)
    assert sweep_cache.stats.misses == len(ORDERS)
