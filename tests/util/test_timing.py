"""Clocks and timers."""

import pytest

from repro.util.timing import Timer, TimerRegistry, VirtualClock, WallClock, phase_shares


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now() == 2.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_only_moves_forward(self):
        c = VirtualClock(5.0)
        c.advance_to(3.0)
        assert c.now() == 5.0
        c.advance_to(7.0)
        assert c.now() == 7.0

    def test_reset(self):
        c = VirtualClock(9.0)
        c.reset()
        assert c.now() == 0.0


class TestTimerRegistry:
    def test_records_named_timers(self):
        reg = TimerRegistry()
        with reg.time("solve"):
            pass
        with reg.time("solve"):
            pass
        assert reg.stats["solve"].count == 2
        assert reg.total("solve") >= 0.0

    def test_fractions_sum_to_one(self):
        reg = TimerRegistry(clock=VirtualClock())
        reg.record("a", 3.0)
        reg.record("b", 1.0)
        fr = phase_shares([reg])
        assert fr["a"] == pytest.approx(0.75)
        assert sum(fr.values()) == pytest.approx(1.0)
        # an SPMD run's registries, one per rank, sum before they share
        other = TimerRegistry(clock=VirtualClock())
        other.record("b", 4.0)
        assert phase_shares([reg, other]) == {"a": 0.375, "b": 0.625}

    def test_fractions_empty(self):
        assert phase_shares([TimerRegistry()]) == {}
        assert phase_shares([]) == {}

    def test_total_of_unknown_timer_is_zero(self):
        assert TimerRegistry().total("nothing") == 0.0

    def test_stats_minmax_mean(self):
        reg = TimerRegistry()
        reg.record("x", 1.0)
        reg.record("x", 3.0)
        s = reg.stats["x"]
        assert s.min == 1.0 and s.max == 3.0 and s.mean == 2.0

    def test_report_renders(self):
        reg = TimerRegistry()
        reg.record("solve", 0.5)
        assert "solve" in reg.report()

    def test_reset(self):
        reg = TimerRegistry()
        reg.record("x", 1.0)
        reg.reset()
        assert reg.stats == {}

    def test_timer_exposes_elapsed(self):
        reg = TimerRegistry()
        with reg.time("t") as t:
            pass
        assert t.elapsed >= 0.0

    def test_wall_clock_monotonic(self):
        c = WallClock()
        a = c.now()
        b = c.now()
        assert b >= a

    def test_stats_as_dict_is_json_safe(self):
        import json

        from repro.util.timing import TimerStats

        s = TimerStats("empty")
        d = s.as_dict()
        assert d["min"] == 0.0  # not inf: the timer never fired
        assert d["count"] == 0
        json.dumps(d)
