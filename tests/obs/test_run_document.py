"""One run document, ``repro.run/2``: every fact written once, every older
form read through :func:`repro.obs.report.load_run`."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.cli import main
from repro.obs.registry import configure_registry
from repro.obs.report import SCHEMA, load_run

DATA = Path(__file__).parent / "data"


def small(target: str):
    problem, _ = build_bte_problem(hotspot_scenario(
        nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=2))
    if target.startswith("gpu"):
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if target == "cells2":
        problem.set_partitioning("cells", 2)
    elif target.endswith("2"):
        problem.set_partitioning("bands", 2, index="b")
    return problem


@pytest.fixture(scope="module")
def gpu2_doc():
    return small("gpu2").solve().run_report().to_dict()


def test_kernel_rows_are_written_once(gpu2_doc):
    """On a 2-rank ``gpu_distributed`` run a kernel row appears only under
    ``ranks[*].rows``: the gpu section holds device facts."""
    text = json.dumps(gpu2_doc)
    assert text.count('"I_interior_step"') == 2  # one row per rank
    for rank in (0, 1):
        (row,) = [r for r in gpu2_doc["ranks"][rank]["rows"] if r["kind"] == "kernel"]
        assert row["name"] == "I_interior_step" and row["bound"]
    assert "intensity_flop_per_byte" not in json.dumps(gpu2_doc["gpu"])


@pytest.mark.parametrize("target", ["gpu", "gpu2"])
def test_each_fact_is_written_once(target, gpu2_doc):
    doc = gpu2_doc if target == "gpu2" else small(target).solve().run_report().to_dict()
    assert doc["schema"] == SCHEMA
    assert not {"timers", "tuning", "profile"} & set(doc)
    for device in doc["gpu"]["devices"]:
        assert not {"kernel_rows", "kernels", "transfers", "profile"} & set(device)
    assert not {"rank_kernels", "rank_profiles"} & set(doc["gpu"])
    assert json.dumps(doc).count('"tolerance"') == 1  # one drift verdict
    assert doc["meta"]["nranks"] == len(doc["ranks"])
    assert doc["meta"]["generation"]["target"] == doc["meta"]["target"]


@pytest.mark.parametrize("target", ["cells2", "bands2", "gpu2"])
def test_spmd_phases_and_measured_placement(target):
    """An SPMD run's phases are its ranks' timers summed, and the placement
    column reads the slowest rank's seconds per step."""
    solver = small(target).solve()
    doc = solver.run_report().to_dict()
    assert len(doc["ranks"]) == 2
    assert doc["phases"] and sum(doc["phases"].values()) == pytest.approx(1.0)
    assert doc["phases"] == pytest.approx(solver.breakdown())
    assert {"solve", "post_step"} <= set(doc["phases"])
    timed = getattr(solver, "task_timer_map", None) or {}
    for task in (doc.get("placement") or {}).get("tasks", []):
        if task["task"] in timed:
            slowest = max(row["measured_s_per_step"] for entry in doc["ranks"]
                          for row in entry["rows"]
                          if row["name"] == timed[task["task"]])
            assert task["measured_s_per_step"] == slowest > 0
    if target == "gpu2":
        assert any(t["task"] in timed for t in doc["placement"]["tasks"])


class TestV1Fixtures:
    """The three ``/1`` forms, committed: ``golden_report.json`` (a
    ``repro.run_report/1`` from before reports nested a profile),
    ``golden_profile_v1.json`` (a 2-rank GPU ``repro.profile/1``) and
    ``golden_entry_v1.json`` (a ``repro.runs/1`` entry holding a report and
    a profile whose drift verdicts disagree).  The last two were cut at
    commit a9dcb31 with::

        python -m repro profile --nx 8 --ndirs 4 --bands 4 --steps 2 --gpu \\
            --ranks 2 --out tests/obs/data/golden_profile_v1.json
        python -m repro profile --nx 8 --ndirs 4 --bands 4 --steps 2 --gpu \\
            --tolerance 9 --record --runs-dir runs
        cp runs/*/*/run-000001.json tests/obs/data/golden_entry_v1.json

    and ``golden_v1_outputs.json`` holds what ``analyze``, ``compare`` and
    ``history`` printed on them at that commit (the entry's report analyzed
    as a file of its own, the entry listed from a registry root).
    """

    FIXTURES = ("golden_report.json", "golden_profile_v1.json",
                "golden_entry_v1.json")

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((DATA / "golden_v1_outputs.json").read_text())

    @staticmethod
    def stdout(argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    @pytest.mark.parametrize("name", FIXTURES)
    def test_load_run_reads_every_fixture(self, name):
        doc = load_run(DATA / name)
        assert doc["schema"] == SCHEMA
        assert list(doc)[:3] == ["schema", "meta", "ranks"]
        assert doc["meta"]["problem"] == "bte-hotspot"
        assert doc["ranks"] and all(entry["rows"] for entry in doc["ranks"])
        assert not {"timers", "tuning", "profile", "report", "key"} & set(doc)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_analyze_and_compare_read_every_fixture(self, name):
        self.stdout(["analyze", str(DATA / name)])
        out = self.stdout(["-q", "compare", str(DATA / name), str(DATA / name)])
        assert "top culprit: none" in out

    def test_analyze_prints_what_it_printed(self, expected):
        assert (self.stdout(["analyze", str(DATA / "golden_report.json")])
                == expected["analyze golden_report.json"])
        # the entry's one drift verdict is its profile's (tolerance 9)
        want = expected["analyze golden_entry_v1.json:report"].replace(
            "(tolerance 0.50, EXCEEDED)", "(tolerance 9.00, ok)")
        assert self.stdout(["analyze", str(DATA / "golden_entry_v1.json")]) == want

    @pytest.mark.parametrize("name", ["golden_profile_v1.json",
                                      "golden_entry_v1.json"])
    def test_compare_prints_what_it_printed(self, name, expected):
        out = self.stdout(["-q", "compare", str(DATA / name), str(DATA / name)])
        assert out == expected[f"compare {name} {name}"]

    def test_history_prints_what_it_printed(self, tmp_path, expected):
        key = json.loads((DATA / "golden_entry_v1.json").read_text())["key"]
        dst = tmp_path / "runs" / key[:2] / key / "run-000001.json"
        dst.parent.mkdir(parents=True)
        shutil.copy(DATA / "golden_entry_v1.json", dst)
        try:
            out = self.stdout(["history", "--runs-dir", str(tmp_path / "runs")])
        finally:
            configure_registry(None)
        assert out == expected["history golden_entry_v1.json"]

    def test_the_profile_names_kernels_by_rank(self):
        out = self.stdout(["analyze", str(DATA / "golden_profile_v1.json")])
        assert "rank0/I_interior_step" in out and "rank1/I_interior_step" in out
