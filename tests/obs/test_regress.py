"""Benchmark envelopes and the regression gate."""

import json

import pytest

from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    SCHEMA,
    compare,
    load_bench,
    write_bench,
)


def _env(name, timings):
    return {"schema": SCHEMA, "name": name, "timings": timings}


class TestEnvelope:
    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_bench(tmp_path / "b.json", "suite", {"a": 1.0}, nx=16)
        doc = load_bench(path)
        assert doc["schema"] == SCHEMA
        assert doc["timings"]["a"] == 1.0
        assert doc["meta"]["nx"] == 16

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "repro.run_report/1"}))
        with pytest.raises(ValueError):
            load_bench(path)

    def test_load_rejects_missing_timings(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ValueError):
            load_bench(path)

    def test_figure_benchmarks_share_the_schema(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parents[2] / "benchmarks"))
        try:
            import conftest as bench_conftest
        finally:
            sys.path.pop(0)
        assert bench_conftest.BENCH_SCHEMA == SCHEMA


class TestCompare:
    def test_identical_timings_pass(self):
        base = _env("base", {"a_virtual_s": 1.0, "b_wall_s": 2.0})
        report = compare(base, _env("cur", {"a_virtual_s": 1.0, "b_wall_s": 2.0}))
        assert not report.has_regressions
        assert all(d.status == "ok" for d in report.deltas)

    def test_slowdown_above_threshold_regresses(self):
        base = _env("base", {"a_s": 1.0})
        cur = _env("cur", {"a_s": 1.0 * (1 + DEFAULT_THRESHOLD) * 1.01})
        report = compare(base, cur)
        assert report.has_regressions
        assert report.deltas[0].status == "regression"

    def test_slowdown_below_threshold_passes(self):
        base = _env("base", {"a_s": 1.0})
        cur = _env("cur", {"a_s": 1.0 * (1 + DEFAULT_THRESHOLD) * 0.99})
        assert not compare(base, cur).has_regressions

    def test_threshold_is_configurable(self):
        base = _env("base", {"a_s": 1.0})
        cur = _env("cur", {"a_s": 1.05})
        assert not compare(base, cur).has_regressions
        assert compare(base, cur, threshold=0.01).has_regressions

    def test_wall_benchmarks_use_looser_threshold(self):
        base = _env("base", {"a_wall_s": 1.0})
        cur = _env("cur", {"a_wall_s": 1.5})  # +50%: over 0.25, under 1.0
        assert not compare(base, cur).has_regressions
        assert compare(base, cur, wall_threshold=0.25).has_regressions

    def test_new_and_missing_are_not_regressions(self):
        base = _env("base", {"gone_s": 1.0})
        cur = _env("cur", {"fresh_s": 1.0})
        report = compare(base, cur)
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {"gone_s": "missing", "fresh_s": "new"}
        assert not report.has_regressions

    def test_improvement_is_flagged_but_passes(self):
        base = _env("base", {"a_s": 1.0})
        report = compare(base, _env("cur", {"a_s": 0.5}))
        assert report.deltas[0].status == "improved"
        assert not report.has_regressions

    def test_tiny_baselines_are_skipped(self):
        base = _env("base", {"a_s": 1e-9})
        report = compare(base, _env("cur", {"a_s": 1e-3}))
        assert report.deltas[0].status == "ok"

    def test_overhead_ratio_judged_against_ideal(self):
        # an on-vs-off ratio is gated on its distance from 1.0, not on the
        # baseline's own noisy measurement of the same ideal
        base = _env("base", {"events_on_vs_off_wall_s": 0.97})
        ok = _env("cur", {"events_on_vs_off_wall_s": 1.04})
        assert not compare(base, ok).has_regressions  # +7% vs base, but <1.05
        bad = _env("cur", {"events_on_vs_off_wall_s": 1.06})
        report = compare(base, bad)
        assert report.has_regressions
        assert report.deltas[0].slowdown == pytest.approx(0.06)

    def test_overhead_ratio_under_one_is_not_improved(self):
        base = _env("base", {"profile_on_vs_off_wall_s": 1.0})
        report = compare(base, _env("cur", {"profile_on_vs_off_wall_s": 0.98}))
        assert report.deltas[0].status == "ok"  # within noise of the ideal

    def test_render_text_marks_regressions(self):
        base = _env("base", {"a_s": 1.0})
        report = compare(base, _env("cur", {"a_s": 2.0}))
        text = report.render_text()
        assert "REGRESSION" in text
        assert "+100.0%" in text

    def test_to_dict_is_json_safe(self):
        base = _env("base", {"a_s": 1.0})
        doc = compare(base, _env("cur", {"a_s": 2.0})).to_dict()
        json.dumps(doc)
        assert doc["regressions"] == 1


#: the three entries the suite stopped producing with the autotuner and the
#: flight recorder; older baselines still carry them
VANISHED = ("tune_default_virtual_s", "tune_best_virtual_s",
            "blackbox_on_vs_off_wall_s")


class TestSeedBaseline:
    def test_committed_seed_is_a_valid_envelope(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        doc = load_bench(seed)
        assert doc["timings"], "seed baseline must carry timings"
        assert any(k.endswith("_virtual_s") for k in doc["timings"])

    def test_seed_lists_the_sixteen_suite_entries(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        names = set(load_bench(seed)["timings"])
        assert len(names) == 16
        # the fused/unfused ratios left with the fused path (PR 14)
        assert not any("fused" in name for name in names)
        assert not names & set(VANISHED)

    def test_older_baseline_gates_vanished_entries_as_missing(
            self, tmp_path, monkeypatch, capsys):
        """``bench --compare`` against a baseline that still holds the three
        vanished entries lists them as missing and exits 0."""
        from repro.cli import main
        from repro.obs import regress

        current = {"serial_wall_s": 0.4, "gpu_hybrid_virtual_s": 0.05}
        old = {**current, **{name: 1.0 for name in VANISHED}}
        baseline = write_bench(tmp_path / "old.json", "old", old)
        monkeypatch.setattr(regress, "run_benchmarks", lambda **_: dict(current))
        assert main(["bench", "--compare", str(baseline),
                     "--out", str(tmp_path / "new.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in VANISHED:
            (row,) = [ln for ln in lines if ln.split()[:1] == [name]]
            assert row.rstrip().endswith("missing")

    def test_seed_carries_profiler_overhead_entry(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        timings = load_bench(seed)["timings"]
        assert "profile_on_vs_off_wall_s" in timings
        # a ratio near 1.0, not seconds: the 5% overhead budget applies
        assert 0.5 < timings["profile_on_vs_off_wall_s"] < 1.5


class TestProfilerOverheadGate:
    def test_profile_ratio_uses_the_overhead_threshold(self):
        from repro.obs.regress import _threshold_for, OBS_OVERHEAD_THRESHOLD

        assert _threshold_for("profile_on_vs_off_wall_s", None, None) \
            == OBS_OVERHEAD_THRESHOLD

    def test_profile_ratio_gated_at_five_percent(self):
        base = _env("base", {"profile_on_vs_off_wall_s": 1.0})
        ok = compare(base, _env("cur", {"profile_on_vs_off_wall_s": 1.04}))
        assert not ok.has_regressions
        bad = compare(base, _env("cur", {"profile_on_vs_off_wall_s": 1.06}))
        assert [d.name for d in bad.regressions] == [
            "profile_on_vs_off_wall_s"]


class TestRebalanceOverheadGate:
    def test_ratio_uses_its_own_threshold(self):
        from repro.obs.regress import (
            _threshold_for,
            OBS_OVERHEAD_THRESHOLD,
            REBALANCE_OVERHEAD_THRESHOLD,
        )

        got = _threshold_for("rebalance_overhead_wall_s", None, None)
        assert got == REBALANCE_OVERHEAD_THRESHOLD
        assert got > OBS_OVERHEAD_THRESHOLD  # real work, looser budget

    def test_gated_against_the_ideal_not_the_baseline(self):
        # baseline already over the ideal: current is judged vs 1.0
        base = _env("base", {"rebalance_overhead_wall_s": 1.2})
        ok = compare(base, _env("cur", {"rebalance_overhead_wall_s": 1.2}))
        assert not ok.has_regressions
        bad = compare(base, _env("cur", {"rebalance_overhead_wall_s": 1.3}))
        assert [d.name for d in bad.regressions] == [
            "rebalance_overhead_wall_s"]

    def test_seed_carries_elastic_entries(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        timings = load_bench(seed)["timings"]
        assert 0.5 < timings["rebalance_overhead_wall_s"] < 1.5
        # skewed strong scaling: deterministic virtual makespans, and
        # more ranks must still mean a shorter skewed run
        r4 = timings["skewed_rebalance_virtual_s_r4"]
        r16 = timings["skewed_rebalance_virtual_s_r16"]
        assert 0.0 < r16 < r4
