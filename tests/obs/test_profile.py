"""The per-kernel profiler and the ``repro.profile/1`` document."""

import json

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.codegen.gpu_hybrid import DEFAULT_FLOP_FACTOR
from repro.obs.profile import (
    DRIFT_TOLERANCE,
    RunProfiler,
    SCHEMA,
    build_profile,
    compare_profiles,
    compare_table,
    extract_profile,
    get_profiler,
    load_profile,
    problem_key,
    profile_run,
    profile_table,
    set_profiler,
    write_profile,
)
from repro.util.errors import ReproError
from repro.util.timing import Timer, VirtualClock


def tiny_problem(gpu: bool = False, ranks: int = 1, flop_factor: float = 0.0):
    scenario = hotspot_scenario(
        nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=3
    )
    problem, _ = build_bte_problem(scenario)
    if gpu:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if ranks > 1:
        problem.set_partitioning("bands", ranks, index="b")
    if flop_factor:
        problem.extra["gpu_flop_factor"] = flop_factor
    return problem


@pytest.fixture(autouse=True)
def reset_profiler():
    yield
    set_profiler(None)


class TestRunProfiler:
    def test_disabled_records_nothing(self):
        prof = RunProfiler(enabled=False)
        prof.record("solve", 0.5, rank=0, step=1)
        assert prof.records == []

    def test_enabled_records_tuples(self):
        prof = RunProfiler()
        prof.record("solve", 0.5, rank=1, step=2)
        assert prof.records == [(1, "solve", 2, 0.5)]
        assert prof.launches_for_rank(1) == [
            {"name": "solve", "step": 2, "seconds": 0.5}
        ]
        assert prof.launches_for_rank(0) == []
        prof.reset()
        assert prof.records == []

    def test_profile_run_restores_previous(self):
        before = get_profiler()
        with profile_run() as prof:
            assert get_profiler() is prof
            assert prof.enabled
        assert get_profiler() is before


class TestProfileScope:
    def test_disabled_is_the_plain_timer(self):
        solver = tiny_problem().generate()
        scope = solver.state.profile_scope("solve")
        assert isinstance(scope, Timer)

    def test_enabled_records_per_launch(self):
        with profile_run() as prof:
            tiny_problem().solve()
        names = {name for (_, name, _, _) in prof.records}
        assert "solve" in names and "post_step" in names
        steps = [step for (_, name, step, _) in prof.records
                 if name == "solve"]
        assert steps == [0, 1, 2]

    def test_default_solve_leaves_no_records(self):
        tiny_problem().solve()
        assert get_profiler().records == []


class TestBuildProfile:
    def test_cpu_phase_rows(self):
        doc = build_profile(tiny_problem().solve())
        assert doc["schema"] == SCHEMA
        (entry,) = doc["ranks"]
        rows = {r["name"]: r for r in entry["kernels"]}
        assert rows["solve"]["kind"] == "phase"
        assert rows["solve"]["clock"] == "wall"
        assert rows["solve"]["count"] == 3
        assert rows["solve"]["drift"] is not None

    def test_gpu_kernel_rows(self):
        solver = tiny_problem(gpu=True).solve()
        doc = build_profile(solver)
        (entry,) = doc["ranks"]
        kernels = [r for r in entry["kernels"] if r["kind"] == "kernel"]
        assert kernels, entry["kernels"]
        row = kernels[0]
        assert row["name"] == "I_interior_step"
        assert row["clock"] == "virtual"
        assert row["bound"] in ("compute", "memory")
        assert "transfers" in entry

    def test_spmd_per_rank_rows(self):
        doc = build_profile(tiny_problem(ranks=2).solve())
        assert [e["rank"] for e in doc["ranks"]] == [0, 1]
        for entry in doc["ranks"]:
            assert any(r["name"] == "solve" for r in entry["kernels"])

    def test_meta_and_problem_key(self):
        solver = tiny_problem().solve()
        doc = build_profile(solver)
        meta = doc["meta"]
        assert meta["problem"] == "bte-hotspot"
        assert meta["target"] == "cpu"
        assert meta["nsteps"] == 3
        assert meta["per_launch"] is False
        assert meta["problem_key"] == problem_key(
            solver.state.problem, "cpu")

    def test_problem_key_stable_under_flop_factor(self):
        # the injected-slowdown knob must land in the same history timeline
        plain = tiny_problem(gpu=True)
        slowed = tiny_problem(gpu=True, flop_factor=4 * DEFAULT_FLOP_FACTOR)
        assert problem_key(plain, "gpu") == problem_key(slowed, "gpu")

    def test_drift_judges_wall_rows_only(self):
        solver = tiny_problem(gpu=True).solve()
        doc = build_profile(solver, tolerance=1e9)
        assert doc["drift"]["tolerance"] == 1e9
        assert doc["drift"]["exceeded"] is False
        # kernel (virtual-clock) drift never feeds max_abs
        wall_drifts = [
            abs(r["drift"] - 1.0)
            for e in doc["ranks"] for r in e["kernels"]
            if r.get("drift") is not None and r["clock"] == "wall"
        ]
        assert doc["drift"]["max_abs"] == pytest.approx(
            max(wall_drifts) if wall_drifts else 0.0)

    def test_default_tolerance_is_drift_tolerance(self):
        doc = build_profile(tiny_problem().solve())
        assert doc["drift"]["tolerance"] == DRIFT_TOLERANCE

    def test_per_launch_records_included_when_enabled(self):
        with profile_run():
            solver = tiny_problem().solve()
            doc = build_profile(solver)
        assert doc["meta"]["per_launch"] is True
        (entry,) = doc["ranks"]
        assert any(l["name"] == "solve" for l in entry["launches"])

    def test_virtual_clock_determinism(self):
        # under the virtual bench clock the whole document is a pure
        # function of the model: two identical runs agree bit-for-bit
        def one_run():
            solver = tiny_problem(gpu=True).generate()
            solver.state.timers.clock = VirtualClock()
            with profile_run():
                solver.run(3)
                return build_profile(solver)

        a, b = one_run(), one_run()
        assert a["ranks"] == b["ranks"]
        assert a["drift"] == b["drift"]
        assert a["meta"] == b["meta"]


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        doc = build_profile(tiny_problem().solve())
        path = write_profile(doc, tmp_path / "p.json")
        loaded = load_profile(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["meta"] == doc["meta"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "repro.bench/1"}))
        with pytest.raises(ReproError, match="not a profile"):
            load_profile(path)

    def test_table_renders(self):
        doc = build_profile(tiny_problem(gpu=True).solve())
        text = profile_table(doc)
        assert "I_interior_step" in text
        assert "perfmodel drift" in text
        assert profile_table(doc, top=1).count("\n") < text.count("\n")


def _fake_profile(self_times: dict[str, float], key: str = "k1") -> dict:
    return {
        "schema": SCHEMA,
        "meta": {"problem_key": key},
        "ranks": [{
            "rank": 0,
            "kernels": [
                {"kind": "kernel", "name": name, "self_s": secs,
                 "clock": "virtual"}
                for name, secs in self_times.items()
            ],
        }],
        "drift": {"tolerance": 0.5, "max_abs": 0.0, "exceeded": False},
    }


class TestCompareProfiles:
    def test_culprit_is_largest_regression(self):
        a = _fake_profile({"fast": 1.0, "slow": 1.0})
        b = _fake_profile({"fast": 1.1, "slow": 3.0})
        cmp = compare_profiles(a, b)
        assert cmp["rows"][0]["name"] == "slow"
        assert cmp["culprit"]["name"] == "slow"
        assert cmp["culprit"]["delta_s"] == pytest.approx(2.0)
        assert cmp["culprit"]["ratio"] == pytest.approx(3.0)
        assert cmp["meta"]["same_problem"] is True

    def test_no_culprit_when_nothing_slower(self):
        a = _fake_profile({"k": 2.0})
        b = _fake_profile({"k": 1.0})
        cmp = compare_profiles(a, b)
        assert cmp["culprit"] is None
        assert "none" in compare_table(cmp)

    def test_one_sided_rows_compare_against_zero(self):
        cmp = compare_profiles(_fake_profile({}), _fake_profile({"new": 1.5}))
        (row,) = cmp["rows"]
        assert row["self_s_a"] == 0.0 and row["delta_s"] == 1.5
        assert row["ratio"] is None

    def test_different_problem_keys_flagged(self):
        cmp = compare_profiles(_fake_profile({"k": 1.0}, key="a"),
                               _fake_profile({"k": 1.0}, key="b"))
        assert cmp["meta"]["same_problem"] is False

    def test_injected_flop_factor_slowdown_ranked_first(self):
        # the acceptance drill: same problem twice, the second run with a
        # 4x kernel work factor; compare must name the slowed kernel.
        # Virtual phase timers keep tiny-problem wall noise out of the
        # ranking — on real workloads the kernel delta dominates anyway.
        def run(flop_factor: float = 0.0) -> dict:
            solver = tiny_problem(gpu=True, flop_factor=flop_factor).generate()
            solver.state.timers.clock = VirtualClock()
            solver.run(3)
            return build_profile(solver)

        base, slow = run(), run(flop_factor=4 * DEFAULT_FLOP_FACTOR)
        cmp = compare_profiles(base, slow)
        assert cmp["meta"]["same_problem"] is True
        assert cmp["culprit"] is not None
        assert cmp["culprit"]["name"] == "I_interior_step"
        assert cmp["culprit"]["kind"] == "kernel"
        assert "top culprit" in compare_table(cmp)


class TestExtractProfile:
    def test_bare_profile_passes_through(self):
        doc = _fake_profile({"k": 1.0})
        assert extract_profile(doc) is doc

    def test_report_and_registry_nesting(self):
        prof = _fake_profile({"k": 1.0})
        report = {"schema": "repro.run_report/1", "profile": prof}
        entry = {"schema": "repro.runs/1", "profile": prof}
        nested = {"schema": "repro.runs/1", "report": report}
        assert extract_profile(report) is prof
        assert extract_profile(entry) is prof
        assert extract_profile(nested) is prof

    def test_rejects_profileless_documents(self):
        with pytest.raises(ReproError, match="no profile"):
            extract_profile({"schema": "repro.run_report/1"})
        with pytest.raises(ReproError, match="not a profile-bearing"):
            extract_profile({"schema": "repro.bench/1"})
