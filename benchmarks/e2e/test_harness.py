"""Tests of the benchmark harness itself, at ``--smoke`` sizes.

Run as ``python -m pytest benchmarks/e2e -q``; not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke_results(request) -> dict[int, dict]:
    """The driver's result object of one workload, untraced and traced."""
    out = {}
    for trace in (0, 1):
        proc = run_cli("--workload", request.param, "--seed", "5", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_contract_names_and_units():
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert len(CONTRACT["per_layer"]) <= 128 and 2 <= len(WORKLOADS) <= 8


def test_output_schema(smoke_results):
    for trace, declared in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        result = smoke_results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            metric = result["metrics"][m["name"]]
            assert set(metric) == {"value", "unit"} and metric["unit"] == m["unit"]
            assert isinstance(metric["value"], (int, float))
    assert all(m["value"] > 0 for m in smoke_results[0]["metrics"].values())


def test_traced_pass_reports_its_overhead_and_coverage(smoke_results):
    metrics = smoke_results[1]["metrics"]
    assert metrics["trace_overhead_x"]["value"] > 0
    assert 0 < metrics["trace.coverage_share"]["value"] <= 1
    assert metrics["trace.span_count"]["value"] > 0


def test_seed_changes_inputs_not_sizes():
    docs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", "--workload",
             "serve-closed2", "--seed", seed, "--seconds", "1", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert docs[0]["inputs"] != docs[1]["inputs"]
    assert docs[0]["sizes"] == docs[1]["sizes"]
    assert abs(docs[0]["inputs"]["hot_center_frac"] - 0.5) <= 0.1


def test_no_result_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own files
    the command must fail without printing a result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_keeps_ten_samples_beyond_it():
    for n in (20, 60, 200, 401):
        values = [float(i) for i in range(n)]
        pct, value = spans.tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert spans.tail([float(i) for i in range(60)])[0] == pytest.approx(83.33, abs=0.01)
    assert spans.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)  # too few for a tail


def test_self_time_is_duration_minus_what_children_cover():
    #  root 0..10
    #    a 1..4   (child b 2..3)
    #    c 3..6   overlaps a: together they cover 1..6
    #    d 8..12  runs past its parent: only 8..10 counts
    root = ["root", 0.0, 10.0, None, 0]
    a = ["a", 1.0, 4.0, root, 0]
    b = ["b", 2.0, 3.0, a, 0]
    c = ["c", 3.0, 6.0, root, 0]
    d = ["d", 8.0, 12.0, root, 1]
    tree = [root, a, b, c, d]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 4.0]
    assert spans.covered(0.0, 10.0, [(8.0, 12.0), (1.0, 4.0), (3.0, 6.0)]) == 7.0
    sums = spans.totals(tree, blocks={0})
    assert "d" not in sums and sums["a"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}


def test_recorder_parents_and_restore():
    rec = spans.Recorder()

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    layer = Layer()
    namespace = {"f": layer.outer}
    assert rec.patch(namespace, "f", "f") and rec.patch(layer, "inner", "inner")
    assert not rec.patch(layer, "gone", "gone")
    assert namespace["f"]() == 2
    f, inner = rec.spans
    assert (f[spans.PARENT], inner[spans.PARENT]) == (None, f)
    assert [row["parent"] for row in rec.as_rows()] == [None, 0]
    rec.restore()
    assert "inner" not in vars(layer) and namespace["f"] == layer.outer
    assert layer.outer() == 2 and len(rec.spans) == 2
