"""The bench gate's slowdown tolerances.

These values were once rows of a shared anomaly table read by both a
streaming run monitor and the benchmark gate; they now live as literals in
``repro.obs.regress``. The tests pin both the values and which gate entries
each one applies to.
"""

from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    OBS_OVERHEAD_THRESHOLD,
    _threshold_for,
)


class TestGateCoupling:
    def test_regress_thresholds_come_from_anomaly_table(self):
        # the values the table held for bench_regression and obs_overhead
        # (its bench_wall_regression row went with the suite's wall timings)
        assert DEFAULT_THRESHOLD == 0.25
        assert OBS_OVERHEAD_THRESHOLD == 0.05

    def test_overhead_entries_use_tight_threshold(self):
        assert _threshold_for("events_on_vs_off_wall_s", 0.25) == \
            OBS_OVERHEAD_THRESHOLD
        # a name no rule judges — a wall timing too — takes the threshold
        # given, else the default
        for name in ("cpu_serial_wall_s", "cpu_serial_s"):
            assert _threshold_for(name, 0.5) == 0.5
            assert _threshold_for(name, None) == DEFAULT_THRESHOLD
