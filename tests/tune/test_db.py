"""The ``repro.tune/1`` database: round-trip, validation, lookup."""

import json

import pytest

from repro.tune.db import TuneDBError, TuningDB, default_db_path
from repro.tune.space import TuneConfig


class TestRoundTrip:
    def test_record_save_load_lookup(self, tmp_path):
        path = tmp_path / "tuned.json"
        db = TuningDB(path=path)
        config = TuneConfig(assembly_order=("b", "cells", "d"),
                            gpu_kernel_chunks=4)
        db.record("k" * 64, config, target="gpu",
                  virtual_s=0.5, default_virtual_s=1.0, trials=6)
        db.save()

        loaded = TuningDB.load(path)
        assert len(loaded) == 1
        assert loaded.lookup_config("k" * 64) == config
        entry = loaded.lookup("k" * 64)
        assert entry["virtual_s"] == 0.5
        assert entry["default_virtual_s"] == 1.0
        assert entry["trials"] == 6
        assert entry["target"] == "gpu"

    def test_document_schema(self, tmp_path):
        path = tmp_path / "tuned.json"
        db = TuningDB(path=path)
        db.record("a" * 64, TuneConfig(), target=None,
                  virtual_s=1.0, default_virtual_s=1.0, trials=1)
        db.save()
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.tune/1"
        assert "a" * 64 in doc["entries"]


class TestValidation:
    def test_missing_file_is_empty_db(self, tmp_path):
        db = TuningDB.load(tmp_path / "absent.json")
        assert len(db) == 0
        assert db.lookup("anything") is None

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro.bench/1", "entries": {}}')
        with pytest.raises(TuneDBError):
            TuningDB.load(path)

    def test_unparseable_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(TuneDBError):
            TuningDB.load(path)

    def test_save_without_path_rejected(self):
        with pytest.raises(TuneDBError):
            TuningDB().save()


def test_default_db_path_follows_cache_dir(tmp_path):
    from repro.tune.cache import cache_scope

    with cache_scope(cache_dir=tmp_path):
        assert default_db_path() == tmp_path / "tuned.json"
    assert default_db_path(tmp_path / "other") == tmp_path / "other" / "tuned.json"


def test_entry_with_a_removed_knob_loads_as_identity(tmp_path):
    """Databases written while ``fusion`` was a tuner axis still load: the
    knob is unknown now, so the winner reads as the default config."""
    path = tmp_path / "tuned.json"
    path.write_text(json.dumps({
        "schema": "repro.tune/1",
        "entries": {"f" * 64: {
            "config": {"fusion": "auto"}, "target": "cpu",
            "virtual_s": 0.018816, "default_virtual_s": 0.018816,
            "trials": 5, "date": "2026-08-08",
        }},
    }))
    config = TuningDB.load(path).lookup_config("f" * 64)
    assert config == TuneConfig() and config.is_default
