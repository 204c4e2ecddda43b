"""The ``python -m repro`` command-line interface."""

import json
import logging
import subprocess
import sys

import pytest

from repro.cli import main


class TestCLIInProcess:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "55 (40 LA + 15 TA" in out
        assert "15,840,000" in out

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "fig9_all_strategies.txt",
            "fig5_band_breakdown.txt",
            "fig8_gpu_breakdown.txt",
            "fig7_gpu_speedup.txt",
            "tab1_gpu_profile.txt",
        }
        tab1 = (tmp_path / "tab1_gpu_profile.txt").read_text()
        assert "SM utilization" in tab1

    def test_bte_reduced_run(self, capsys):
        assert main(["bte", "--nx", "8", "--ndirs", "8", "--bands", "4",
                     "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "T in [" in out

    @pytest.mark.parametrize("extra", [[], ["--gpu"]])
    def test_bte_ranks_prints_the_phase_lines(self, extra, capsys):
        """An SPMD run's phases are its ranks' timers, summed."""
        assert main(["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--ranks", "2", *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        phases = {ln.split()[0]: float(ln.split()[1].rstrip("%"))
                  for ln in lines[1:] if ln.startswith("  ")}
        assert {"solve", "post_step"} <= set(phases)
        assert sum(phases.values()) == pytest.approx(100.0, abs=0.5)

    def test_pipeline_scalar_example(self, capsys):
        assert main(["pipeline", "-k*u - surface(upwind(b, u))"]) == 0
        out = capsys.readouterr().out
        assert "-TIMEDERIVATIVE*_u_1" in out
        assert "LHS volume:" in out
        assert "RHS surface:" in out

    def test_pipeline_bte_equation(self, capsys):
        eq = ("(Io[b] - I[d,b]) / beta[b] - "
              "surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
        assert main(["pipeline", eq, "--unknown", "I"]) == 0
        out = capsys.readouterr().out
        assert "-TIMEDERIVATIVE*I[d,b]" in out
        assert "CELL1_I[d,b]" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2


class TestObservabilityFlags:
    def test_pipeline_trace_writes_complete_spans(self, tmp_path, capsys):
        path = tmp_path / "pipe.json"
        assert main(["pipeline", "-k*u - surface(upwind(b, u))",
                     "--trace", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"parse", "lower"} <= names

    def test_bte_trace_and_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main(["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--trace", str(trace),
                     "--report", str(report)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "X") >= 2
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.run/2"
        assert doc["meta"]["target"] == "cpu"
        assert "solve" in {row["name"] for row in doc["ranks"][0]["rows"]}

    def test_bte_metrics_sanitize_and_rebalance_flags(self, tmp_path, capsys):
        """The off-by-default collectors and the elastic controller, each
        switched on by its flag."""
        metrics = tmp_path / "metrics.txt"
        assert main(["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--ranks", "2", "--metrics", str(metrics),
                     "--sanitize", "--rebalance"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer: OK" in out
        assert "rebalance: checks: 0; final imbalance:" in out
        assert 'solver_steps_total{problem="bte-hotspot",rank="1"} 2' \
            in metrics.read_text()

    def test_bte_gpu_trace_has_device_and_placement(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main(["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--gpu", "--trace", str(trace),
                     "--report", str(report)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert "kernel" in cats and "transfer" in cats
        doc = json.loads(report.read_text())
        assert doc["placement"]["tasks"]

    def test_verbose_flag_sets_level(self, capsys):
        root = logging.getLogger("repro")
        previous = root.level
        try:
            assert main(["-v", "info"]) == 0
            assert root.level == logging.INFO
            assert main(["info", "-vv"]) == 0
            assert root.level == logging.DEBUG
        finally:
            root.setLevel(previous)


class TestEventLogCLI:
    @pytest.fixture(autouse=True)
    def restore_singletons(self):
        """``--log-level`` sets the level of the context's event log: give
        each test one of its own."""
        from repro.obs.log import EventLog
        from repro.util.context import scope

        with scope(events=EventLog()):
            yield

    def bte(self, *extra):
        return ["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                "--steps", "2", *extra]

    def test_events_file_roundtrips_through_events_command(
            self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(self.bte("--events", str(log))) == 0
        header = json.loads(log.read_text().splitlines()[0])
        assert header["schema"] == "repro.events/1"
        capsys.readouterr()

        assert main(["events", str(log)]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out and "run.end" in out

    def test_events_command_filters(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(self.bte("--events", str(log))) == 0
        capsys.readouterr()

        assert main(["events", str(log), "--name", "run.", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all("run." in json.loads(line)["name"] for line in lines)

        assert main(["events", str(log), "--tail", "1", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

    def test_events_command_rejects_non_event_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "repro.bench/1"}\n')
        assert main(["events", str(bogus)]) == 2
        assert "not an event log" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        ["[1]"],
        ['{"schema": "repro.events/1"}', "[1,2]"],
        ['{"schema": "repro.events/1"}', '{"ts": "x", "name": "a"}'],
    ], ids=["list-header", "list-event", "string-ts"])
    def test_events_command_refuses_json_of_the_wrong_shape(self, tmp_path, capsys, lines):
        log = tmp_path / "events.jsonl"
        log.write_text("\n".join(lines) + "\n")
        assert main(["events", str(log)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error RPR404:"), err

    def test_quiet_keeps_data_output(self, capsys):
        assert main(["-q"] + self.bte()) == 0
        out = capsys.readouterr().out
        assert "T in [" in out
        assert "running bte-hotspot" not in out

    def test_log_level_debug_records_comm_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(self.bte("--ranks", "2", "--events", str(log),
                             "--log-level", "debug")) == 0
        from repro.obs.log import read_events

        names = {e["name"] for e in read_events(log)}
        assert any(n.startswith("comm.") for n in names), names
        assert "run.start" in names

    def test_events_file_captures_failed_run(self, tmp_path, capsys):
        # the JSONL stream is the forensic record of a run that fails
        from repro.obs.log import read_events

        log = tmp_path / "events.jsonl"
        rc = main(self.bte("--restore", str(tmp_path / "missing.npz"),
                           "--events", str(log)))
        assert rc == 1
        assert "error RPR" in capsys.readouterr().err
        error = read_events(log)[-1]
        assert error["name"] == "run.failed" and error["level"] == "error"
        assert "checkpoint" in error["fields"]["message"]
        assert error["fields"]["code"].startswith("RPR")

    def test_restore_of_a_corrupt_checkpoint_is_one_rpr316_line(
            self, tmp_path, capsys):
        from tests.codegen.test_checkpoint import flip_member_byte

        ckpt_dir = tmp_path / "ckpt"
        assert main(self.bte("--checkpoint-every", "2",
                             "--checkpoint-dir", str(ckpt_dir))) == 0
        (ckpt,) = ckpt_dir.glob("*.npz")
        flip_member_byte(ckpt, "field_I.npy")
        capsys.readouterr()
        assert main(self.bte("--restore", str(ckpt))) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert len(errors) == 1 and errors[0].startswith("error RPR316:")
        assert "'field_I'" in errors[0]

    def test_restore_into_another_problem_is_one_rpr318_line(
            self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        assert main(self.bte("--checkpoint-every", "2",
                             "--checkpoint-dir", str(ckpt_dir))) == 0
        (ckpt,) = ckpt_dir.glob("*.npz")
        capsys.readouterr()
        assert main(self.bte("--restore", str(ckpt), "--dt", "2e-12")) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert len(errors) == 1 and errors[0].startswith("error RPR318:")

    def test_a_cut_of_rank_files_resumes_with_restore(self, tmp_path, capsys):
        """``--ranks 2`` writes one file per rank; ``--restore`` names the
        step, and the two halves of the interrupted run print the line of
        the whole one."""
        def t_line(argv):
            assert main(["bte", "--nx", "6", "--ndirs", "4", "--bands", "3",
                         "--ranks", "2", *argv]) == 0
            (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("T in [")]
            return line

        ckpt_dir = tmp_path / "ck"
        whole = t_line(["--steps", "4", "--checkpoint-every", "2",
                        "--checkpoint-dir", str(ckpt_dir)])
        resumed = t_line(["--steps", "2", "--restore",
                          str(ckpt_dir / "ckpt_step000002.npz")])
        assert resumed == whole


@pytest.mark.parametrize("argv", [
    ["tune"],
    ["bte", "--tuned"],
    ["bte", "--tune-db", "tuned.json"],
    ["bte", "--blackbox-dir", "bb"],
    ["profile", "--chunks", "6"],
    ["profile", "--calibrate-out", "rates.json"],
    ["bench", "--wall-threshold", "1"],
    ["bench"],
    ["bench", "--compare", "benchmarks/BENCH_seed.json"],
    ["bte", "--profile", "p.json"],
])
def test_removed_commands_and_flags_exit_2(argv, capsys):
    """The autotuner, kernel chunking, live calibration, the flight
    recorder and the bench suite are gone, and ``bte --profile`` wrote what
    ``--report`` writes: their commands and flags are argparse errors."""
    from repro.cli import bte_main

    for entry, args in ((main, argv), (bte_main, argv)):
        with pytest.raises(SystemExit) as exc:
            entry(args)
        assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "repro 1.0.0" in proc.stdout


class TestLatexCommand:
    def test_latex_renders_bte_volume_term(self, capsys):
        assert main(["latex", "(Io[b] - I[d,b]) / beta[b]"]) == 0
        out = capsys.readouterr().out
        assert r"\frac" in out
        assert r"\beta_{b}" in out


def write_drill_profile(path, slowdown: float = 1.0) -> None:
    """What ``profile --nx 12 --ndirs 4 --bands 4 --steps 3 --gpu --out
    PATH`` writes (the run document), with the device kernel's work scaled
    by ``slowdown``
    (``problem.extra["gpu_flop_factor"]``: in the cache key, normalised out
    of the registry's problem key, so both profiles are the same problem)."""
    from repro.bte import build_bte_problem, hotspot_scenario
    from repro.codegen.gpu_hybrid import DEFAULT_FLOP_FACTOR
    scenario = hotspot_scenario(nx=12, ny=12, ndirs=4, n_freq_bands=4,
                                dt=1e-12, nsteps=3)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / 12)
    problem, _ = build_bte_problem(scenario)
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True
    if slowdown != 1.0:
        problem.extra["gpu_flop_factor"] = slowdown * DEFAULT_FLOP_FACTOR
    problem.solve().run_report().write(path)


class TestProfileRegistryCLI:
    @pytest.fixture(autouse=True)
    def isolated_registry(self, tmp_path):
        from repro.obs.registry import configure_registry

        self.runs_dir = tmp_path / "runs"
        yield
        configure_registry(None)

    def profile(self, *extra):
        return ["profile", "--nx", "8", "--ndirs", "4", "--bands", "4",
                "--steps", "2", "--gpu", *extra]

    def test_profile_prints_table_and_writes_doc(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(self.profile("--out", str(out))) == 0
        text = capsys.readouterr().out
        assert "I_interior_step" in text
        assert "perfmodel drift" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.run/2"
        assert "per_launch" not in doc["meta"]
        assert not any("launches" in entry for entry in doc["ranks"])

    def test_compare_ranks_injected_slowdown_first(self, tmp_path, capsys):
        # a bigger workload than the other tests: the injected kernel work
        # (the hybrid target's ``gpu_flop_factor``, ~tens of ms on the
        # virtual kernel rows) must dominate the wall-clock noise of the
        # tiny phase timers
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_drill_profile(a)
        write_drill_profile(b, slowdown=6.0)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        first_row = out.splitlines()[2]
        assert "I_interior_step" in first_row
        assert "top culprit: rank 0 kernel I_interior_step" in out

    def test_record_history_and_gc(self, capsys):
        runs = str(self.runs_dir)
        assert main(self.profile("--record", "--runs-dir", runs)) == 0
        assert main(self.profile("--record", "--runs-dir", runs)) == 0
        capsys.readouterr()

        # both runs land in one per-problem timeline
        assert main(["history", "--runs-dir", runs]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "run-000001" in out and "run-000002" in out

        assert main(["history", "--runs-dir", runs, "--gc",
                     "--keep", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "run-000001" not in out and "run-000002" in out

    def test_history_empty_registry(self, capsys):
        assert main(["history", "--runs-dir", str(self.runs_dir)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_history_unknown_key_prefix(self, capsys):
        assert main(self.profile("--record", "--runs-dir",
                                 str(self.runs_dir))) == 0
        capsys.readouterr()
        assert main(["history", "--runs-dir", str(self.runs_dir),
                     "--key", "zzzz"]) == 2

    def test_compare_rejects_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["compare", str(missing), str(missing)]) == 2

    def test_bte_record_round_trips_through_registry(self, capsys):
        runs = str(self.runs_dir)
        assert main(["bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--record", "--runs-dir", runs]) == 0
        capsys.readouterr()
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(runs)
        (key,) = registry.keys()
        (path,) = registry.runs(key)
        entry = json.loads(path.read_text())
        assert entry["schema"] == "repro.run/2"
        assert not {"report", "profile", "timers", "tuning"} & set(entry)
        assert entry["recorded"]["key"] == key == entry["meta"]["problem_key"]
        assert entry["recorded"]["wall_s"] > 0

    def test_profile_record_keeps_one_drift_verdict(self, capsys):
        """``profile --tolerance 9 --record`` used to record two profiles,
        one judged at tolerance 9 and one (inside the report) at 0.5, with
        opposite verdicts; the entry is now one document, one verdict, and
        ``history``'s drift flag reads it."""
        runs = str(self.runs_dir)
        assert main(["profile", "--nx", "8", "--ndirs", "4", "--bands", "4",
                     "--steps", "2", "--gpu", "--tolerance", "9",
                     "--record", "--runs-dir", runs]) == 0
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(runs)
        (key,) = registry.keys()
        (path,) = registry.runs(key)

        def verdicts(node):
            if isinstance(node, dict):
                found = [node["drift"]] if isinstance(node.get("drift"), dict) else []
                return found + [v for child in node.values() for v in verdicts(child)]
            if isinstance(node, list):
                return [v for child in node for v in verdicts(child)]
            return []

        (verdict,) = verdicts(json.loads(path.read_text()))
        assert verdict["tolerance"] == 9.0
        assert verdict["exceeded"] is (verdict["max_abs"] > 9.0)
        capsys.readouterr()
        assert main(["history", "--runs-dir", runs]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if "run-000001" in ln]
        assert ("[drift]" in line) is verdict["exceeded"]
        assert f"drift={verdict['max_abs']:.2f}" in line


#: a ``bte --fusion auto --report`` document from before the fused path was
#: deleted (PR 14), trimmed to the sections ``analyze``/``compare`` read
_STALE_REPORT = {
    "schema": "repro.run_report/1",
    "meta": {"problem": "bte-hotspot", "target": "cpu", "nsteps_run": 2,
             "dt": 1e-12, "virtual_time_s": 2e-12, "ncells": 64, "ncomp": 20},
    "timers": {
        "solve": {"total": 0.0011, "count": 2, "min": 0.00034,
                  "max": 0.00076, "mean": 0.00055, "p50": 0.00055,
                  "p95": 0.00074},
        "post_step": {"total": 0.00065, "count": 2, "min": 0.00028,
                      "max": 0.00037, "mean": 0.00032, "p50": 0.00032,
                      "p95": 0.00036},
    },
    "phases": {"solve": 0.629, "post_step": 0.371},
    "fusion": {"mode": "auto", "programs": {
        "surface": {"n_instructions": 18, "n_registers": 5, "n_slots": 7,
                    "temporaries_eliminated": 4, "cse_hits": 2,
                    "constants_folded": 0},
        "volume": {"n_instructions": 9, "n_registers": 3, "n_slots": 3,
                   "temporaries_eliminated": 2, "cse_hits": 1,
                   "constants_folded": 0},
    }},
    "profile": {
        "schema": "repro.profile/1",
        "meta": {"problem": "bte-hotspot", "target": "cpu", "nsteps": 2,
                 "ncells": 64, "ncomp": 20, "nranks": 1,
                 "problem_key": "9281adde28bda111" * 4, "per_launch": False},
        "ranks": [{"rank": 0, "kernels": [
            {"name": "solve", "kind": "phase", "clock": "wall", "count": 2,
             "total_s": 0.0011, "self_s": 0.0011, "mean_s": 0.00055,
             "measured_s_per_step": 0.00055,
             "predicted_s_per_step": 0.0015616, "drift": 0.3528},
            {"name": "post_step", "kind": "phase", "clock": "wall",
             "count": 2, "total_s": 0.00065, "self_s": 0.00065,
             "mean_s": 0.00032, "measured_s_per_step": 0.00032,
             "predicted_s_per_step": 0.0007264, "drift": 0.4466},
        ]}],
        "drift": {"tolerance": 0.5, "max_abs": 0.6472, "exceeded": True},
    },
}


class TestDocumentsFromBeforeTheFusedPathWasDeleted:
    def test_report_with_a_fusion_section_analyzes_and_compares(
            self, tmp_path, capsys):
        path = tmp_path / "stale_report.json"
        path.write_text(json.dumps(_STALE_REPORT))
        assert main(["analyze", str(path)]) == 0
        assert main(["compare", str(path), str(path)]) == 0
        captured = capsys.readouterr()
        assert "solve" in captured.out and "post_step" in captured.out
        assert "fusion" not in (captured.out + captured.err).lower()

    def test_the_removed_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bte", "--fusion", "auto"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fusion" in capsys.readouterr().err
