"""The run document's ``ranks`` rows: phase rows from the timers, kernel
rows from the device's launch records."""

import json

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.codegen.gpu_hybrid import DEFAULT_FLOP_FACTOR
from repro.obs.profile import compare_profiles, compare_table, profile_table
from repro.obs.report import (
    DRIFT_TOLERANCE,
    SCHEMA,
    build_run_report,
    load_run,
    problem_key,
)
from repro.util.errors import AnalysisInputError
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


def run_document(solver, **kw) -> dict:
    return build_run_report(solver, **kw).to_dict()


class TestProfileScope:
    def test_disabled_is_the_plain_timer(self):
        # with no live tracer a phase is the phase timer itself: the one
        # recorder of its duration, nothing else allocated per step
        solver = tiny_problem().generate()
        scope = solver.state.phase("solve")
        assert isinstance(scope, Timer)


class TestBuildProfile:
    def test_cpu_phase_rows(self):
        doc = run_document(tiny_problem().solve())
        assert doc["schema"] == SCHEMA
        (entry,) = doc["ranks"]
        rows = {r["name"]: r for r in entry["rows"]}
        assert rows["solve"]["kind"] == "phase"
        assert rows["solve"]["clock"] == "wall"
        assert rows["solve"]["count"] == 3
        assert rows["solve"]["drift"] is not None
        # the timer's statistics are the row's: there is no timers section
        assert "timers" not in doc
        assert rows["solve"]["min_s"] <= rows["solve"]["p50_s"] <= rows["solve"]["max_s"]
        assert rows["solve"]["mean_s"] * 3 == pytest.approx(rows["solve"]["total_s"])

    def test_gpu_kernel_rows(self):
        solver = tiny_problem(gpu=True).solve()
        doc = run_document(solver)
        (entry,) = doc["ranks"]
        kernels = [r for r in entry["rows"] if r["kind"] == "kernel"]
        assert kernels, entry["rows"]
        row = kernels[0]
        assert row["name"] == "I_interior_step"
        assert row["clock"] == "virtual"
        assert row["bound"] in ("compute", "memory")
        assert "transfers" in entry

    def test_spmd_per_rank_rows(self):
        doc = run_document(tiny_problem(ranks=2).solve())
        assert [e["rank"] for e in doc["ranks"]] == [0, 1]
        for entry in doc["ranks"]:
            assert any(r["name"] == "solve" for r in entry["rows"])

    def test_meta_and_problem_key(self):
        solver = tiny_problem().solve()
        doc = run_document(solver)
        meta = doc["meta"]
        assert meta["problem"] == "bte-hotspot"
        assert meta["target"] == "cpu"
        assert meta["nsteps_run"] == 3
        assert meta["nranks"] == 1
        assert "per_launch" not in meta
        assert "launches" not in doc["ranks"][0]
        assert meta["problem_key"] == problem_key(
            solver.state.problem, "cpu")

    def test_problem_key_stable_under_flop_factor(self):
        # the injected-slowdown knob must land in the same history timeline
        plain = tiny_problem(gpu=True)
        slowed = tiny_problem(gpu=True, flop_factor=4 * DEFAULT_FLOP_FACTOR)
        assert problem_key(plain, "gpu") == problem_key(slowed, "gpu")

    def test_drift_judges_wall_rows_only(self):
        solver = tiny_problem(gpu=True).solve()
        doc = run_document(solver, tolerance=1e9)
        assert doc["drift"]["tolerance"] == 1e9
        assert doc["drift"]["exceeded"] is False
        # kernel (virtual-clock) drift never feeds max_abs
        wall_drifts = [
            abs(r["drift"] - 1.0)
            for e in doc["ranks"] for r in e["rows"]
            if r.get("drift") is not None and r["clock"] == "wall"
        ]
        assert doc["drift"]["max_abs"] == pytest.approx(
            max(wall_drifts) if wall_drifts else 0.0)

    def test_default_tolerance_is_drift_tolerance(self):
        doc = run_document(tiny_problem().solve())
        assert doc["drift"]["tolerance"] == DRIFT_TOLERANCE

    def test_virtual_clock_determinism(self):
        # under the virtual bench clock the whole document is a pure
        # function of the model: two identical runs agree bit-for-bit
        def one_run():
            solver = tiny_problem(gpu=True).generate()
            solver.state.timers.clock = VirtualClock()
            solver.run(3)
            return run_document(solver)

        a, b = one_run(), one_run()
        assert a["ranks"] == b["ranks"]
        assert a["drift"] == b["drift"]
        assert a["phases"] == b["phases"]
        assert a["meta"] == b["meta"]


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        report = tiny_problem().solve().run_report()
        path = report.write(tmp_path / "p.json")
        loaded = load_run(path)
        assert loaded["schema"] == SCHEMA
        assert loaded == json.loads(report.to_json())

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "repro.bench/1"}))
        with pytest.raises(AnalysisInputError, match="not a run document"):
            load_run(path)
        path.write_text("{oops")
        with pytest.raises(AnalysisInputError, match="unreadable"):
            load_run(path)

    def test_table_renders(self):
        doc = run_document(tiny_problem(gpu=True).solve())
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
            "rows": [
                {"kind": "kernel", "name": name, "self_s": secs,
                 "clock": "virtual"}
                for name, secs in self_times.items()
            ],
        }],
        "drift": {"tolerance": 0.5, "max_abs": 0.0, "exceeded": False},
        "phases": {},
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
            return run_document(solver)

        base, slow = run(), run(flop_factor=4 * DEFAULT_FLOP_FACTOR)
        cmp = compare_profiles(base, slow)
        assert cmp["meta"]["same_problem"] is True
        assert cmp["culprit"] is not None
        assert cmp["culprit"]["name"] == "I_interior_step"
        assert cmp["culprit"]["kind"] == "kernel"
        assert "top culprit" in compare_table(cmp)


def _v1_profile(self_times: dict[str, float]) -> dict:
    doc = _fake_profile(self_times)
    doc["schema"] = "repro.profile/1"
    doc["meta"].update(nsteps=2, per_launch=False)
    doc["ranks"][0]["kernels"] = doc["ranks"][0].pop("rows")
    doc["ranks"][0]["launches"] = []
    doc["drift"]["calibration"] = {"factor": 3.0}
    return doc


class TestExtractProfile:
    """Every form a run was written in reads as ``repro.run/2``."""

    def test_bare_profile_passes_through(self):
        doc = _fake_profile({"k": 1.0})
        assert load_run(doc) is doc  # a /2 document is read as written
        up = load_run(_v1_profile({"k": 1.0}))  # a /1 profile is upgraded
        assert up["schema"] == SCHEMA
        assert up["meta"] == {"problem_key": "k1", "nsteps_run": 2}
        assert up["ranks"] == [{"rank": 0, "rows": doc["ranks"][0]["rows"]}]
        assert up["drift"] == doc["drift"]  # calibration dropped
        assert up["phases"] == {}  # no phase rows

    def test_report_and_registry_nesting(self):
        prof = _v1_profile({"k": 1.0})
        report = {"schema": "repro.run_report/1", "meta": {"problem": "p"},
                  "timers": {}, "phases": {"k": 1.0}, "profile": prof}
        entry = {"schema": "repro.runs/1", "key": "k1", "seq": 3,
                 "recorded_at": "2026-10-17T00:00:00",
                 "meta": {"wall_s": 0.5}, "profile": prof}
        nested = dict(entry, report=report, profile=None)
        rows = _fake_profile({"k": 1.0})["ranks"][0]["rows"]
        for doc in (report, entry, nested):
            up = load_run(doc)
            assert up["schema"] == SCHEMA
            assert up["ranks"][0]["rows"] == rows
            assert up["drift"] == {"tolerance": 0.5, "max_abs": 0.0,
                                   "exceeded": False}
        assert load_run(report)["meta"]["problem"] == "p"
        assert load_run(nested)["phases"] == {"k": 1.0}
        for doc in (entry, nested):
            assert load_run(doc)["recorded"] == {
                "key": "k1", "seq": 3, "at": "2026-10-17T00:00:00",
                "wall_s": 0.5}

    def test_rejects_profileless_documents(self):
        with pytest.raises(AnalysisInputError, match="not a run document"):
            load_run({"schema": "repro.bench/1"})
        with pytest.raises(AnalysisInputError, match="not a run document"):
            load_run({"traceEvents": []})
        # a /1 report written before reports nested a profile: its timers
        # are its phase rows
        up = load_run({"schema": "repro.run_report/1",
                       "meta": {"nsteps_run": 2},
                       "timers": {"solve": {"total": 0.4, "count": 2,
                                            "min": 0.1, "max": 0.3,
                                            "mean": 0.2, "p50": 0.2,
                                            "p95": 0.29}},
                       "phases": {"solve": 1.0}})
        ((row,),) = [e["rows"] for e in up["ranks"]]
        assert row["name"] == "solve" and row["kind"] == "phase"
        assert row["self_s"] == 0.4 and row["measured_s_per_step"] == 0.2
        assert row["p95_s"] == 0.29 and row["drift"] is None
        assert "drift" not in up
