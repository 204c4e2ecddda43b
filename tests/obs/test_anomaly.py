"""The bench gate's slowdown tolerances.

These values were once rows of a shared anomaly table read by both a
streaming run monitor and the benchmark gate; they now live as literals in
``repro.obs.regress``. The tests pin both the values and which gate entries
each one applies to.
"""

from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    DEFAULT_WALL_THRESHOLD,
    OBS_OVERHEAD_THRESHOLD,
    _threshold_for,
)


class TestGateCoupling:
    def test_regress_thresholds_come_from_anomaly_table(self):
        # the values the table held for bench_regression,
        # bench_wall_regression and obs_overhead
        assert DEFAULT_THRESHOLD == 0.25
        assert DEFAULT_WALL_THRESHOLD == 1.0
        assert OBS_OVERHEAD_THRESHOLD == 0.05

    def test_overhead_entries_use_tight_threshold(self):
        for name in ("events_on_vs_off_wall_s", "profile_on_vs_off_wall_s"):
            assert _threshold_for(name, 0.25, 1.0) == OBS_OVERHEAD_THRESHOLD
        assert _threshold_for("cpu_serial_wall_s", 0.25, 1.0) == 1.0
        assert _threshold_for("cpu_serial_s", 0.25, 1.0) == 0.25
        assert _threshold_for("cpu_serial_wall_s", None, None) == \
            DEFAULT_WALL_THRESHOLD
        assert _threshold_for("cpu_serial_s", None, None) == DEFAULT_THRESHOLD
