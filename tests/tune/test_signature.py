"""Cache-key anatomy: stability, invalidation, runtime-binding exclusions."""

import sys

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.tune.signature import cache_key, problem_signature, tuning_key


def make_problem(nx=8, bands=4, dt=1e-12, nsteps=3, **scenario_kw):
    scenario = hotspot_scenario(nx=nx, ny=nx, ndirs=4, n_freq_bands=bands,
                                dt=dt, nsteps=nsteps, **scenario_kw)
    problem, _ = build_bte_problem(scenario)
    return problem


class TestStability:
    def test_same_problem_same_key(self):
        assert cache_key(make_problem(), "cpu") == cache_key(make_problem(), "cpu")

    def test_key_is_hex_sha256(self):
        key = cache_key(make_problem(), "cpu")
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_signature_is_json_safe(self):
        import json

        json.dumps(problem_signature(make_problem(), "cpu"))


class TestKeysSurviveTheFusionKnobRemoval:
    """PR 14 dropped ``"fusion"`` from the hashed ``problem.extra`` keys.
    Only keys that are *present* are hashed, so a problem that never set
    the knob must keep the digests it had at the parent commit (07716a1):
    warm compilation caches and registry timelines stay valid."""

    def test_extra_section_is_empty_for_a_plain_problem(self):
        assert problem_signature(make_problem(), "cpu")["extra"] == {}

    # unversioned callback identities (the hot wall's temperature profile)
    # hash ``co_code``, which differs between CPython minor versions; the
    # digests below were recorded under 3.11 — and once more at PR 23, when
    # the two isothermal callbacks declared ``callback_version = 1`` in
    # place of their bytecode (the last time an edit of theirs moves a key)
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="digests recorded under CPython 3.11 bytecode")
    def test_digests_equal_the_parent_commits(self):
        """Both keys equal the digests recorded before the emitter's
        identity was ever hashed."""
        problem = make_problem()
        assert cache_key(problem, "cpu") == (
            "17cf22d23ed9a86eda6cbb821619815465bd632f76380e7bf74db3383a67f0a9")
        assert tuning_key(problem) == (
            "6e597a1af946ade6b3c161c8f3b43fc1d06f34e4d29ed98aa013d80155bf9ef9")


class TestCallbackVersion:
    """A callback that declares ``callback_version`` is keyed by it, not by
    its bytecode: a performance edit keeps ``cache_key`` / ``problem_key``
    (and the registry timelines stored under them), a bump moves both."""

    @staticmethod
    def keys(callback):
        from repro.obs.report import problem_key

        problem = make_problem()
        spec = next(b for b in problem.boundaries if b.python_callback is not None)
        spec.python_callback = callback
        return cache_key(problem, "cpu"), problem_key(problem, "cpu")

    @staticmethod
    def callbacks(version=None):
        def wall(ctx):
            return ctx.owner_values * 2.0

        def edited(ctx):  # another body, other constants
            return ctx.owner_values + ctx.owner_values + 0.0

        edited.__qualname__ = wall.__qualname__
        for fn in (wall, edited):
            if version is not None:
                fn.callback_version = version
        return wall, edited

    def test_an_edited_body_keeps_the_keys_of_a_versioned_callback(self):
        wall, edited = self.callbacks(version=3)
        assert self.keys(wall) == self.keys(edited)

    def test_a_bumped_version_changes_both_keys(self):
        wall, _ = self.callbacks(version=3)
        bumped, _ = self.callbacks(version=4)
        old, new = self.keys(wall), self.keys(bumped)
        assert old[0] != new[0] and old[1] != new[1]

    def test_an_unversioned_callback_is_keyed_by_its_bytecode(self):
        wall, edited = self.callbacks()
        assert self.keys(wall) != self.keys(edited)
        assert self.keys(wall) == self.keys(self.callbacks()[0])

    def test_the_bte_callbacks_declare_one(self):
        problem = make_problem()
        declared = [cb.fn.callback_version for cb in problem.entities.callbacks.values()]
        declared += [b.python_callback.callback_version for b in problem.boundaries
                     if b.python_callback is not None]
        assert declared and all(v == 1 for v in declared)


class TestInvalidation:
    def test_mesh_resolution_changes_key(self):
        assert cache_key(make_problem(nx=8), "cpu") != \
            cache_key(make_problem(nx=10), "cpu")

    def test_band_count_changes_key(self):
        assert cache_key(make_problem(bands=4), "cpu") != \
            cache_key(make_problem(bands=5), "cpu")

    def test_target_changes_key(self):
        problem = make_problem()
        assert cache_key(problem, "cpu") != cache_key(problem, "gpu")

    def test_assembly_order_changes_key(self):
        fused, blocked = make_problem(), make_problem()
        blocked.set_assembly_loops(["b", "cells", "d"])
        assert cache_key(fused, "cpu") != cache_key(blocked, "cpu")

    def test_partitioning_changes_key(self):
        serial, parted = make_problem(), make_problem()
        parted.set_partitioning("bands", 2, index="b")
        assert cache_key(serial, "cpu") != cache_key(parted, "cpu")

    def test_tuner_knobs_change_key(self):
        # the GPU knobs of problem.extra steer placement and the kernel model
        plain = make_problem()
        for knob, value in (("gpu_force_offload", True),
                            ("gpu_flop_factor", 800.0),
                            ("placement_override", {"finish_step": "gpu"})):
            knobbed = make_problem()
            knobbed.extra[knob] = value
            assert cache_key(plain, "gpu") != cache_key(knobbed, "gpu"), knob


class TestRuntimeBoundExclusions:
    """dt/nsteps bind at solve time, so changing them must NOT invalidate."""

    def test_dt_not_in_key(self):
        assert cache_key(make_problem(dt=1e-12), "cpu") == \
            cache_key(make_problem(dt=2e-12), "cpu")

    def test_nsteps_not_in_key(self):
        assert cache_key(make_problem(nsteps=3), "cpu") == \
            cache_key(make_problem(nsteps=30), "cpu")

    def test_tuned_mode_flag_not_in_key(self):
        # a script written for the deleted autotuner still sets these keys;
        # they are plain unused extras now and must not split the cache
        plain, stale = make_problem(), make_problem()
        stale.extra.update(tuned=True, tuning_db="tuned.json",
                           gpu_kernel_chunks=4)
        assert cache_key(plain, "gpu") == cache_key(stale, "gpu")


class TestTuningKey:
    """The tuning key normalises the knobs out: one run-registry timeline
    covers every configuration of the same underlying problem."""

    def test_invariant_under_assembly_order(self):
        fused, blocked = make_problem(), make_problem()
        blocked.set_assembly_loops(["d", "cells", "b"])
        assert tuning_key(fused) == tuning_key(blocked)

    def test_invariant_under_partition_strategy(self):
        a, b = make_problem(), make_problem()
        a.set_partitioning("bands", 2, index="b")
        b.set_partitioning("cells", 2)
        assert tuning_key(a) == tuning_key(b)

    def test_nparts_is_a_resource_not_a_knob(self):
        a, b = make_problem(), make_problem()
        a.set_partitioning("bands", 2, index="b")
        b.set_partitioning("bands", 4, index="b")
        assert tuning_key(a) != tuning_key(b)

    def test_problem_content_still_matters(self):
        assert tuning_key(make_problem(nx=8)) != tuning_key(make_problem(nx=10))
