"""Compilation cache: the memory layer and artifact identity."""

import numpy as np

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.tune.cache import CompilationCache, cache_scope
from repro.tune.signature import cache_key


def make_problem(nx=8, bands=4):
    scenario = hotspot_scenario(nx=nx, ny=nx, ndirs=4, n_freq_bands=bands,
                                dt=1e-12, nsteps=3)
    problem, _ = build_bte_problem(scenario)
    return problem


class TestMemoryLayer:
    def test_second_generate_hits(self):
        with cache_scope() as cache:
            make_problem().generate()
            make_problem().generate()
        assert cache.stats.builds == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_different_problems_do_not_collide(self):
        with cache_scope() as cache:
            make_problem(nx=8).generate()
            make_problem(nx=10).generate()
        assert cache.stats.builds == 2
        assert cache.stats.memory_hits == 0

    def test_disabled_cache_always_builds(self):
        with cache_scope(enabled=False) as cache:
            make_problem().generate()
            make_problem().generate()
        assert cache.stats.hits == 0
        assert len(cache) == 0

    def test_warm_solutions_identical(self):
        with cache_scope():
            cold = make_problem().generate()
            cold.run()
            warm = make_problem().generate()
            warm.run()
        assert np.array_equal(cold.solution(), warm.solution())


class TestArtifactIdentity:
    def test_module_name_is_content_derived(self):
        with cache_scope():
            problem = make_problem()
            key = cache_key(problem, "cpu")
            solver = problem.generate()
        assert solver.module_name == f"<generated:cpu:{key[:12]}>"

    def test_module_name_stable_across_regeneration(self):
        with cache_scope(enabled=False):
            a = make_problem().generate()
            b = make_problem().generate()
        assert a.module_name == b.module_name

    def test_generation_info_records_hit_and_miss(self):
        with cache_scope():
            cold = make_problem().generate()
            warm = make_problem().generate()
        assert cold.generation_info["cache"] == "miss"
        assert warm.generation_info["cache"] == "hit"
        assert warm.generation_info["key"] == cold.generation_info["key"]


def test_scope_restores_previous_cache():
    from repro.tune.cache import get_cache

    before = get_cache()
    with cache_scope() as inner:
        assert get_cache() is inner
    assert get_cache() is before


def test_clear_resets_memory_and_stats():
    cache = CompilationCache()
    with cache_scope() as cache:
        make_problem().generate()
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.builds == 0
