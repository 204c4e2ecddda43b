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
from repro.util.errors import BenchFormatError


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

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"repro.bench/1"'])
    def test_load_rejects_unreadable_documents(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(BenchFormatError):
            load_bench(path)

    def test_load_rejects_a_non_numeric_timing_by_name(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(_env("x", {"a_s": 1.0, "serial_wall_s": "fast"})))
        with pytest.raises(BenchFormatError, match="'serial_wall_s'") as exc:
            load_bench(path)
        assert exc.value.code == "RPR403"

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
        base = _env("base", {"events_on_vs_off_wall_s": 1.0})
        report = compare(base, _env("cur", {"events_on_vs_off_wall_s": 0.98}))
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


#: entries the suite stopped producing, which older baselines still carry:
#: three with the autotuner and the flight recorder, then the six wall
#: timings the end-to-end harness replaced and the per-launch profiler's
#: overhead ratio
VANISHED = ("tune_default_virtual_s", "tune_best_virtual_s",
            "blackbox_on_vs_off_wall_s",
            "serial_wall_s", "gpu_hybrid_wall_s", "spmd_bands_wall_s",
            "gpu_multi_wall_s", "codegen_cold_wall_s", "codegen_warm_wall_s",
            "profile_on_vs_off_wall_s")

#: what one ``bte bench`` run writes
SUITE = ("gpu_hybrid_virtual_s", "spmd_bands_virtual_s", "gpu_multi_virtual_s",
         "skewed_rebalance_virtual_s_r4", "skewed_rebalance_virtual_s_r16",
         "events_on_vs_off_wall_s", "rebalance_overhead_wall_s",
         "serve_overhead_wall_s", "serve_dedup_speedup_x")


class TestSeedBaseline:
    def test_committed_seed_is_a_valid_envelope(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        doc = load_bench(seed)
        assert doc["timings"], "seed baseline must carry timings"
        assert any(k.endswith("_virtual_s") for k in doc["timings"])

    def test_seed_lists_the_nine_suite_entries(self):
        from pathlib import Path

        seed = Path(__file__).parents[2] / "benchmarks" / "BENCH_seed.json"
        names = set(load_bench(seed)["timings"])
        assert names == set(SUITE)
        # the fused/unfused ratios left with the fused path
        assert not any("fused" in name for name in names)
        assert not names & set(VANISHED)

    def test_older_baseline_gates_vanished_entries_as_missing(
            self, tmp_path, monkeypatch, capsys):
        """``bench --compare`` against a baseline that still holds the
        vanished entries lists them as missing and exits 0."""
        from repro.cli import main
        from repro.obs import regress

        current = {"gpu_hybrid_virtual_s": 0.05, "spmd_bands_virtual_s": 0.03}
        old = {**current, **{name: 1.0 for name in VANISHED}}
        baseline = write_bench(tmp_path / "old.json", "old", old)
        monkeypatch.setattr(regress, "run_benchmarks", lambda **_: dict(current))
        assert main(["bench", "--compare", str(baseline),
                     "--out", str(tmp_path / "new.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in VANISHED:
            (row,) = [ln for ln in lines if ln.split()[:1] == [name]]
            assert row.rstrip().endswith("missing")

    def test_the_sixteen_entry_seed_gates_the_retired_entries_as_missing(
            self, tmp_path, monkeypatch, capsys):
        """The committed baseline from before the wall half of the suite
        went: against a run that writes the nine kept entries (here at the
        same values), the seven retired ones are missing and nothing
        regresses."""
        from repro.cli import main
        from repro.obs import regress

        baseline = write_bench(tmp_path / "seed16.json", "bte-suite@2026-10-15",
                               _SIXTEEN_ENTRY_SEED)
        kept = {name: _SIXTEEN_ENTRY_SEED[name] for name in SUITE}
        monkeypatch.setattr(regress, "run_benchmarks", lambda **_: dict(kept))
        assert main(["bench", "--compare", str(baseline),
                     "--out", str(tmp_path / "new.json")]) == 0
        # the comparison table comes last: its row is the one kept per name
        status = {}
        for words in map(str.split, capsys.readouterr().out.splitlines()):
            if words and words[0] in _SIXTEEN_ENTRY_SEED:
                status[words[0]] = words[-1]
        missing = {name for name, s in status.items() if s == "missing"}
        assert missing == set(_SIXTEEN_ENTRY_SEED) - set(SUITE)
        assert len(missing) == 7 and missing <= set(VANISHED)

    @pytest.mark.parametrize("value", ["fast", None, True, float("nan"), [1.0]])
    def test_malformed_timing_exits_2_naming_the_entry(
            self, tmp_path, monkeypatch, capsys, value):
        """A baseline timing that is not a finite number is an RPR403 error
        naming the entry, not a ``TypeError`` out of ``compare``, and the
        suite never runs."""
        from repro.cli import main
        from repro.obs import regress

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_env("bad", {"gpu_hybrid_virtual_s": 0.05,
                                               "serial_wall_s": value})))

        def suite(**_):
            raise AssertionError("the suite ran against a malformed baseline")

        monkeypatch.setattr(regress, "run_benchmarks", suite)
        assert main(["bench", "--compare", str(bad),
                     "--out", str(tmp_path / "new.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error RPR403:")
        assert "'serial_wall_s'" in err
        assert not (tmp_path / "new.json").exists()


#: ``benchmarks/BENCH_seed.json`` as committed before the wall timings and
#: the per-launch profiler's overhead ratio left the suite
_SIXTEEN_ENTRY_SEED = {
    "serial_wall_s": 0.19880702499995095,
    "gpu_hybrid_wall_s": 0.060725504999936675,
    "gpu_hybrid_virtual_s": 0.04943255999999999,
    "spmd_bands_wall_s": 0.056713218000027155,
    "spmd_bands_virtual_s": 0.03171736666666666,
    "gpu_multi_wall_s": 0.03683062900006462,
    "gpu_multi_virtual_s": 0.04788272666666667,
    "codegen_cold_wall_s": 0.01474801100005152,
    "codegen_warm_wall_s": 0.005135446999929627,
    "events_on_vs_off_wall_s": 0.9039482443980971,
    "profile_on_vs_off_wall_s": 1.0019024672141732,
    "rebalance_overhead_wall_s": 1.1294708395960424,
    "skewed_rebalance_virtual_s_r4": 0.017376106666666665,
    "skewed_rebalance_virtual_s_r16": 0.004720553333333334,
    "serve_overhead_wall_s": 1.0405435341227935,
    "serve_dedup_speedup_x": 6.080734883963422,
}


class TestRebalanceOverheadGate:
    def test_ratio_uses_its_own_threshold(self):
        from repro.obs.regress import (
            _threshold_for,
            OBS_OVERHEAD_THRESHOLD,
            REBALANCE_OVERHEAD_THRESHOLD,
        )

        got = _threshold_for("rebalance_overhead_wall_s", None)
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
