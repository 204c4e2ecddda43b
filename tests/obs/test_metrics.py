"""The metrics registry: instruments, exposition, and the current-registry
install/restore protocol."""

import json
import math
import threading

import pytest

from repro.obs import NULL_METRICS, MetricsRegistry, metrics_run
from repro.obs.metrics import SCHEMA
from repro.util.context import current, scope


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)

    def test_labels_are_independent_series(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs_total", "messages")
        c.inc(1, rank=0)
        c.inc(4, rank=1)
        assert c.value(rank=0) == 1
        assert c.value(rank=1) == 4
        assert c.value(rank=2) == 0  # never-touched series reads zero

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "x")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        assert c.value(a=1, b=2) == 2

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n_total", "n").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value() == pytest.approx(4)


class TestHistogram:
    def test_snapshot_statistics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency")
        for v in (0.001, 0.002, 0.003, 0.004):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.010)
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.004)
        assert 0.001 <= snap["p50"] <= 0.004
        assert snap["p95"] >= snap["p50"]

    def test_bucket_counts_are_cumulative_in_text(self):
        reg = MetricsRegistry()
        h = reg.histogram("d_seconds", "d", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = reg.to_text()
        assert 'd_seconds_bucket{le="1"} 1' in text
        assert 'd_seconds_bucket{le="10"} 2' in text
        assert 'd_seconds_bucket{le="+Inf"} 3' in text
        assert "d_seconds_count 3" in text


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total", "a") is reg.counter("a_total", "a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a")
        with pytest.raises(TypeError):
            reg.gauge("a_total", "a")

    def test_to_dict_schema_and_content(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a").inc(2, rank=0)
        doc = reg.to_dict()
        assert doc["schema"] == SCHEMA
        assert doc["metrics"]["a_total"]["type"] == "counter"

    def test_to_text_help_and_type_lines(self):
        reg = MetricsRegistry()
        reg.gauge("g", "the gauge").set(1.5)
        text = reg.to_text()
        assert "# HELP g the gauge" in text
        assert "# TYPE g gauge" in text
        assert "g 1.5" in text

    def test_write_prom_vs_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total", "a").inc()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        reg.write(prom)
        reg.write(js)
        assert "# TYPE a_total counter" in prom.read_text()
        assert json.loads(js.read_text())["schema"] == SCHEMA


class TestNullMetrics:
    def test_disabled_and_absorbing(self):
        assert NULL_METRICS.enabled is False
        c = NULL_METRICS.counter("a_total", "a")
        c.inc(5, rank=0)
        assert c.value(rank=0) == 0.0
        NULL_METRICS.gauge("g", "g").set(1)
        NULL_METRICS.histogram("h", "h").observe(1.0)


class TestCurrentRegistry:
    def test_defaults_to_null(self):
        assert current().metrics is NULL_METRICS

    def test_set_and_restore(self):
        reg = MetricsRegistry()
        with scope(metrics=reg):
            assert current().metrics is reg
        assert current().metrics is NULL_METRICS

    def test_metrics_run_installs_writes_and_restores(self, tmp_path):
        path = tmp_path / "m.json"
        with metrics_run(path) as reg:
            assert current().metrics is reg
            reg.counter("a_total", "a").inc()
        assert current().metrics is NULL_METRICS
        assert json.loads(path.read_text())["metrics"]["a_total"]

    def test_metrics_run_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with metrics_run():
                raise RuntimeError("boom")
        assert current().metrics is NULL_METRICS

    def test_thread_safety_of_one_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "n")

        def work():
            for _ in range(1000):
                c.inc(1, worker=threading.current_thread().name)

        threads = [threading.Thread(target=work, name=f"w{i}") for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(v for _, v in c.samples())
        assert total == 4000


class TestPercentiles:
    def test_histogram_percentiles_monotone(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", "t")
        for i in range(100):
            h.observe(i / 100.0)
        snap = h.snapshot()
        assert snap["p50"] == pytest.approx(0.5, abs=0.05)
        assert snap["p95"] == pytest.approx(0.95, abs=0.05)
        assert not math.isnan(snap["mean"])
