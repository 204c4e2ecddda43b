"""The persistent cross-run registry: run documents with a stamp."""

import json

import pytest

from repro.obs.registry import (
    DEFAULT_ROOT,
    RegistryError,
    RunRegistry,
    HISTORY_REGRESSION,
    configure_registry,
    get_registry,
    history_flags,
    registry_scope,
)
from repro.obs.report import SCHEMA, load_run


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


def _doc(key: str, **fields) -> dict:
    """A minimal ``repro.run/2`` document of the problem ``key``."""
    return {"schema": SCHEMA, "meta": {"problem_key": key}, "ranks": [],
            "drift": {}, "phases": {}, **fields}


class TestAppend:
    def test_round_trip(self, registry):
        path = registry.append(_doc("abcd1234", phases={"x": 1.0}),
                               wall_s=0.5)
        doc = registry.load(path)
        assert doc["schema"] == SCHEMA
        assert doc["recorded"]["key"] == "abcd1234"
        assert doc["recorded"]["seq"] == 1
        assert doc["recorded"]["wall_s"] == 0.5
        assert doc["phases"] == {"x": 1.0}
        # the document plus one stamp: nothing nested, nothing twice
        assert set(doc) == set(_doc("k")) | {"recorded"}

    def test_sharded_layout_mirrors_the_cache(self, registry):
        path = registry.append(_doc("abcd1234"))
        assert path.parent == registry.root / "ab" / "abcd1234"
        assert path.name == "run-000001.json"

    def test_sequence_increments(self, registry):
        registry.append(_doc("abcd"))
        path = registry.append(_doc("abcd"))
        assert registry.load(path)["recorded"]["seq"] == 2
        assert [p.name for p in registry.runs("abcd")] == [
            "run-000001.json", "run-000002.json"
        ]

    def test_empty_entry_refused(self, registry):
        with pytest.raises(RegistryError, match="invalid registry key"):
            registry.append(_doc(None))
        with pytest.raises(RegistryError, match="only repro.run/2"):
            registry.append({"schema": "repro.runs/1", "key": "abcd"})

    def test_bad_keys_refused(self, registry):
        for key in ("", "a/b", "a\\b"):
            with pytest.raises(RegistryError, match="invalid"):
                registry.append(_doc(key))

    def test_non_finite_floats_sanitised(self, registry):
        path = registry.append(_doc("abcd", phases={"v": float("inf")}))
        assert registry.load(path)["phases"]["v"] is None


class TestReads:
    def test_keys_lists_populated_dirs(self, registry):
        assert registry.keys() == []
        registry.append(_doc("aa11"))
        registry.append(_doc("bb22"))
        assert registry.keys() == ["aa11", "bb22"]

    def test_load_rejects_wrong_schema(self, registry, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "repro.bench/1"}))
        with pytest.raises(RegistryError, match="not a run-registry"):
            registry.load(bogus)
        # a run document without the registry's stamp is no entry either
        bogus.write_text(json.dumps(_doc("aa11")))
        with pytest.raises(RegistryError, match="not a run-registry"):
            registry.load(bogus)

    def test_corrupt_entries_skipped_with_warning(self, registry, caplog):
        registry.append(_doc("aa11", phases={"ok": 1.0}))
        (registry.root / "aa" / "aa11" / "run-000002.json").write_text("{oops")
        with caplog.at_level("WARNING", logger="repro.obs.registry"):
            docs = registry.load_runs("aa11")
        assert len(docs) == 1
        assert docs[0]["phases"] == {"ok": 1.0}
        assert any("skipping" in r.message for r in caplog.records)


class TestGC:
    def test_keep_last_prunes_oldest(self, registry):
        for _ in range(5):
            registry.append(_doc("aa11"))
        removed = registry.gc(keep_last=2)
        assert removed == 3
        assert [p.name for p in registry.runs("aa11")] == [
            "run-000004.json", "run-000005.json"
        ]

    def test_keep_zero_drops_everything_and_empty_dirs(self, registry):
        registry.append(_doc("aa11"))
        assert registry.gc(keep_last=0) == 1
        assert registry.keys() == []
        assert not (registry.root / "aa").exists()

    def test_max_age_days_prunes_stale_kept_entries(self, registry):
        path = registry.append(_doc("aa11"))
        doc = registry.load(path)
        doc["recorded"]["at"] = "2000-01-01T00:00:00"
        path.write_text(json.dumps(doc))
        registry.append(_doc("aa11"))
        removed = registry.gc(keep_last=10, max_age_days=365.0)
        assert removed == 1
        assert len(registry.runs("aa11")) == 1

    def test_negative_keep_refused(self, registry):
        with pytest.raises(RegistryError, match=">= 0"):
            registry.gc(keep_last=-1)


class TestProcessWide:
    def test_configure_and_scope(self, tmp_path):
        saved = configure_registry(tmp_path / "a")
        try:
            assert get_registry().root == tmp_path / "a"
            with registry_scope(tmp_path / "b") as scratch:
                assert get_registry() is scratch
                assert scratch.root == tmp_path / "b"
            assert get_registry().root == tmp_path / "a"
        finally:
            configure_registry(None)

    def test_default_root(self):
        configure_registry(None)
        assert get_registry().root.name == DEFAULT_ROOT


def _entry(wall_s=None, drift_exceeded=False, health=None):
    """A ``repro.runs/1`` entry, as :meth:`RunRegistry.load` reads it."""
    entry = {"schema": "repro.runs/1", "meta": {}, "profile": {
        "drift": {"exceeded": drift_exceeded}}}
    if wall_s is not None:
        entry["meta"]["wall_s"] = wall_s
    if health is not None:  # written while the anomaly monitor existed
        entry["report"] = {"health": {"status": health}}
    return load_run(entry)


class TestHistoryFlags:
    def test_regression_against_the_previous_wall(self):
        grown = 1.0 + HISTORY_REGRESSION + 0.01
        flags = history_flags([_entry(1.0), _entry(grown), _entry(grown),
                               _entry(None), _entry(2.0 * grown)])
        assert flags == [[], ["regression"], [], [], ["regression"]]

    def test_drift_flag(self):
        assert history_flags([_entry(1.0, drift_exceeded=True)]) == [["drift"]]

    def test_stale_health_section_is_not_a_flag(self):
        assert history_flags([_entry(1.0, health="warning")]) == [[]]

    def test_history_lists_an_entry_with_health(self, tmp_path, capsys):
        from repro.cli import main

        runs = RunRegistry(tmp_path / "runs")
        path = runs.root / "ab" / ("ab" * 32) / "run-000001.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema": "repro.runs/1", "key": "ab" * 32, "seq": 1,
            "recorded_at": "2026-10-17T00:00:00",
            "meta": {"wall_s": 0.5, "target": "cpu"},
            "report": {"health": {"status": "error"}},
            "profile": {"meta": {"problem": "bte-hotspot"},
                        "drift": {"max_abs": 0.1, "exceeded": False}}}))
        try:
            assert main(["history", "--runs-dir", str(runs.root)]) == 0
        finally:
            configure_registry(None)
        out = capsys.readouterr().out
        assert "(bte-hotspot, 1 run(s))" in out
        (line,) = [ln for ln in out.splitlines() if "run-000001" in ln]
        assert "target=cpu" in line and "[" not in line

    def test_an_entry_with_a_bench_envelope_lists_and_compares(
            self, tmp_path, capsys):
        """Entries recorded while ``append`` took a ``bench=`` envelope
        carry a ``bench`` key: ``history`` still lists them and ``compare``
        still diffs their profiles."""
        from repro.cli import main

        runs = RunRegistry(tmp_path / "runs")
        profile = {"schema": "repro.profile/1",
                   "meta": {"problem": "bte-hotspot", "problem_key": "cd" * 32},
                   "ranks": [{"rank": 0, "kernels": [
                       {"name": "solve", "kind": "phase", "self_s": 0.002}]}],
                   "drift": {"max_abs": 0.1, "exceeded": False}}
        path = runs.root / "cd" / ("cd" * 32) / "run-000001.json"
        path.parent.mkdir(parents=True)
        doc = {"schema": "repro.runs/1", "key": "cd" * 32, "seq": 1,
               "recorded_at": "2026-10-17T00:00:00",
               "meta": {"wall_s": 0.5, "target": "cpu"}, "profile": profile}
        doc["bench"] = {"schema": "repro.bench/1", "name": "bte-suite@2026-10-15",
                        "meta": {"nx": 16, "steps": 5},
                        "timings": {"gpu_hybrid_virtual_s": 0.04943255999999999}}
        path.write_text(json.dumps(doc))
        try:
            assert main(["history", "--runs-dir", str(runs.root)]) == 0
        finally:
            configure_registry(None)
        assert "(bte-hotspot, 1 run(s))" in capsys.readouterr().out
        assert main(["compare", str(path), str(path)]) == 0
        assert "solve" in capsys.readouterr().out
