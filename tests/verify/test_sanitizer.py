"""Runtime sanitizer: provenance, checksums, and bit-identical guarantees."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.util.context import current
from repro.verify import SanitizerError, sanitize_run


def tiny():
    return hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2,
                            dt=1e-12, nsteps=3)


def poison(state):
    state.u[0, 0] = np.nan


class TestNanGuards:
    def test_nan_injection_raises_with_provenance(self):
        p, _ = build_bte_problem(tiny())
        p.add_post_step(poison, name="poison")
        with sanitize_run() as san:
            with pytest.raises(SanitizerError) as ei:
                p.solve()
        assert ei.value.code == "RPR301"
        assert "step" in str(ei.value)
        diag = next(d for d in san.report.diagnostics if d.code == "RPR301")
        assert diag.where["index"] == (0, 0)
        assert diag.where["step"] == 1  # poisoned after the first step

    def test_clean_run_has_no_findings(self):
        p, _ = build_bte_problem(tiny())
        with sanitize_run() as san:
            p.solve()
        assert not san.has_findings()
        assert san.checks > 0
        assert "OK" in san.summary()

    def test_disabled_sanitizer_ignores_nan(self):
        from repro.util.errors import SolverError

        p, _ = build_bte_problem(tiny())
        p.add_post_step(poison, name="poison")
        # without --sanitize only the legacy end-of-run health check fires,
        # with no per-step provenance and no sanitizer finding
        with pytest.raises(SolverError) as ei:
            p.solve()
        assert not isinstance(ei.value, SanitizerError)
        assert current().sanitizer is None

    def test_kernel_output_guard_trips_rpr306(self):
        with sanitize_run() as san:
            with pytest.raises(SanitizerError) as ei:
                san.check_kernel_output("bte_step", np.array([1.0, np.inf]))
        assert ei.value.code == "RPR306"

    def test_check_array_reports_first_bad_index(self):
        with sanitize_run() as san:
            a = np.zeros((3, 4))
            a[2, 1] = np.inf
            assert san.check_array("a", a, fatal=False) is False
        diag = san.report.diagnostics[0]
        assert diag.where["index"] == (2, 1)


class TestHaloChecksums:
    def test_tampered_payload_trips_rpr302(self):
        data = np.arange(8, dtype=np.float64)
        with sanitize_run() as san:
            san.note_sent(0, 1, 7, 0, data)
            tampered = data.copy()
            tampered[3] += 1e-9
            with pytest.raises(SanitizerError) as ei:
                san.check_received(0, 1, 7, 0, tampered)
        assert ei.value.code == "RPR302"
        assert "RPR302" in san.report.codes()

    def test_intact_payload_is_clean(self):
        data = np.arange(8, dtype=np.float64)
        with sanitize_run() as san:
            san.note_sent(0, 1, 7, 0, data)
            san.check_received(0, 1, 7, 0, data.copy())
        assert not san.has_findings()

    def test_two_rank_run_verifies_all_halos(self):
        sc = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=2,
                              dt=1e-12, nsteps=2)
        p, _ = build_bte_problem(sc)
        p.set_partitioning("cells", 2)
        with sanitize_run() as san:
            p.solve()
        assert not san.has_findings(), san.summary()
        assert san.checks > 0


class TestBitIdentical:
    """--sanitize must never change results: all checks are read-only."""

    def _pair(self, configure=None, scenario=None):
        sol = []
        for sanitized in (False, True):
            p, _ = build_bte_problem(scenario or tiny())
            if configure:
                configure(p)
            if sanitized:
                with sanitize_run():
                    s = p.solve()
            else:
                s = p.solve()
            sol.append(s.solution().copy())
        return sol

    def test_serial_identical(self):
        a, b = self._pair()
        assert np.array_equal(a, b)

    def test_gpu_identical(self):
        def cfg(p):
            p.enable_gpu()
            p.extra["gpu_force_offload"] = True

        a, b = self._pair(configure=cfg)
        assert np.array_equal(a, b)

    def test_distributed_identical(self):
        sc = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=2,
                              dt=1e-12, nsteps=2)
        a, b = self._pair(configure=lambda p: p.set_partitioning("cells", 2),
                          scenario=sc)
        assert np.array_equal(a, b)


class TestReportSection:
    def test_section_none_when_never_active(self):
        assert current().sanitizer is None

    def test_section_after_sanitized_run(self):
        p, _ = build_bte_problem(tiny())
        with sanitize_run() as san:
            p.solve()
        doc = san.section()
        assert doc["schema"] == "repro.diagnostics/1"
        assert doc["checks_run"] > 0
        assert current().sanitizer is None  # the run's scope ended

    def test_run_report_embeds_diagnostics(self):
        from repro.obs.report import build_run_report

        p, _ = build_bte_problem(tiny())
        with sanitize_run():
            solver = p.solve()
            report = build_run_report(solver, args=None)
        doc = report.to_dict()
        assert doc["diagnostics"]["schema"] == "repro.diagnostics/1"

    def test_run_report_omits_diagnostics_without_sanitize(self):
        from repro.obs.report import build_run_report

        p, _ = build_bte_problem(tiny())
        solver = p.solve()
        report = build_run_report(solver, args=None)
        assert report.to_dict().get("diagnostics") is None
