"""Acceptance: a warm-cache solve performs ZERO codegen/compile work.

The metrics registry is swapped fresh between the cold and the warm solve,
so the assertions below count only what the warm path did — the counters
are the proof, the registry-independent ``CacheStats`` the cross-check.
"""

import numpy as np

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.obs.metrics import metrics_run
from repro.tune.cache import cache_scope


def make_problem():
    scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                dt=1e-12, nsteps=3)
    problem, _ = build_bte_problem(scenario)
    return problem


def _total(registry, name):
    counter = registry.counter(name)
    return sum(cell[0] for cell in counter.series().values())


def test_warm_solve_zero_codegen_zero_compile():
    with cache_scope() as cache:
        with metrics_run() as cold_metrics:
            cold = make_problem().solve()
        assert _total(cold_metrics, "codegen_build_total") == 1
        assert _total(cold_metrics, "codegen_compile_total") == 1

        with metrics_run() as warm_metrics:
            warm = make_problem().solve()

    # the warm solve's registry saw no build and no compile() at all
    assert _total(warm_metrics, "codegen_build_total") == 0
    assert _total(warm_metrics, "codegen_compile_total") == 0
    assert warm_metrics.counter("codegen_cache_hits_total").value(
        layer="memory", target="cpu") == 1
    assert _total(warm_metrics, "codegen_cache_misses_total") == 0

    # registry-independent cross-check + the answer is still the answer
    assert cache.stats.builds == 1
    assert cache.stats.memory_hits == 1
    assert np.array_equal(cold.solution(), warm.solution())


def test_run_report_generation_records_cache_outcome():
    with cache_scope():
        make_problem().generate()
        solver = make_problem().generate()
        solver.run()
    report = solver.run_report()
    assert report.meta["generation"]["cache"] == "hit"
    doc = report.to_dict()
    assert doc["meta"]["generation"]["target"] == "cpu"
    assert "tuning" not in doc
