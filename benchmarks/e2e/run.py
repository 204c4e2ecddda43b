"""End-to-end benchmark of the repro package: one command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N [--trace] [--selfcheck] [--smoke]

With ``--workload`` it runs that workload once and prints, as its last
line, the result object ``BENCHMARK.json`` describes.  Without it, it runs a
*set*: every workload, untraced and then traced, one fresh child process at
a time.  Every metric is printed by name with its unit, and one JSON
document per invocation is written under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD = HERE / "child.py"
#: fresh-process samples behind one ``setup_s`` (the measuring child is one)
SETUP_SAMPLES = 5
#: a child that has not answered by then is killed; the run has no result
CHILD_TIMEOUT_S = 170
TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(role: str, workload: str, seed: int, seconds: float, smoke: bool,
              spans_out: Path | None = None) -> dict:
    """One role of one workload in a fresh interpreter; its last stdout line
    is its answer.  A child that fails ends the whole run without a result."""
    cmd = [sys.executable, str(CHILD), role, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: {role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return sizes


def meta(workload: str, seed: int, seconds: float, smoke: bool, sizes: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke,
        "nproc": os.cpu_count(), "caches": cache_sizes(),
        "python": platform.python_version(), "sizes": sizes,
        "noise_controls": [
            "one fresh subprocess per workload and role, run one at a time",
            "warm-up blocks discarded, the first one reported as step_ms_first",
            f"setup_s is the median of {SETUP_SAMPLES} fresh-process samples, "
            "never an in-process repeat",
            "serve jobs are built before the timed loop starts",
            "end-to-end metrics come from the untraced pass only",
            "bytes and flops are computed from array sizes, not measured",
        ],
    }


def run_workload(contract: dict, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    """One workload, untraced (end-to-end metrics) or traced (per-layer);
    returns the document, whose ``result`` is the driver's object."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    if trace:
        child = run_child("trace", workload, seed, seconds, smoke,
                          OUT / f"{stem}.spans.json")
        declared, values = contract["per_layer"], child["values"]
    else:
        child = run_child("measure", workload, seed, seconds, smoke)
        samples = [child["values"]["setup_s"]] + [
            run_child("setup", workload, seed, seconds, smoke)["values"]["setup_s"]
            for _ in range(1 if smoke else SETUP_SAMPLES - 1)]
        declared = contract["end_to_end"]
        values = dict(child["values"], setup_s=statistics.median(samples))
        child["setup_samples_s"] = samples
    metrics, not_on_path = {}, []
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            # a layer this workload never enters: a time reads as the empty
            # span's duration (the least the tracer can tell from zero)
            not_on_path.append(m["name"])
            value = (values["trace.floor_us"] / 1e6 * TIME_UNITS[m["unit"]]
                     if m["unit"] in TIME_UNITS else 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = child["failed"]
    result = {"correct": failed == 0, "attempted": child["attempted"],
              "failed": failed, "metrics": metrics}
    doc = {"schema": "repro.e2e/1", "trace": int(trace),
           "meta": meta(workload, seed, seconds, smoke, child["sizes"]),
           "result": result, "failed_share": failed / child["attempted"],
           "not_on_path": not_on_path, "child": child}
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=1))
    return doc


def print_metrics(doc: dict) -> None:
    m = doc["meta"]
    print(f"## {m['workload']} seed={m['seed']} trace={doc['trace']} "
          f"failed_share={doc['failed_share']:.4f}")
    shares = doc["child"].get("shares", {})
    for name, metric in doc["result"]["metrics"].items():
        note = "  (not on this workload's path)" if name in doc["not_on_path"] else ""
        if name in shares:
            note = f"  {100 * shares[name]:5.1f}% of block"
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for check in doc["child"].get("checks", []):
        if not check["ok"]:
            print(f"FAILED CHECK {check}")


def run_set(contract: dict, seed: int, seconds: float, smoke: bool,
            workloads: list[str]) -> dict[str, dict]:
    """Every workload untraced then traced; ``{workload: {name: metric}}``
    with the end-to-end and per-layer metrics side by side."""
    merged: dict[str, dict] = {}
    for workload in workloads:
        metrics, failed_share = {}, 0.0
        for trace in (False, True):
            doc = run_workload(contract, workload, seed, seconds, trace, smoke)
            print_metrics(doc)
            metrics.update(doc["result"]["metrics"])
            failed_share = max(failed_share, doc["failed_share"])
        metrics["failed_share"] = {"value": failed_share, "unit": "share"}
        merged[workload] = metrics
    return merged


#: per-layer metrics that are counts of the program's own work: two runs of
#: the same code must report exactly the same number
EXACT = ("codegen.source_lines", "runtime.msgs_per_step",
         "runtime.halo_bytes_per_step", "gpu.h2d_bytes_per_step",
         "gpu.d2h_bytes_per_step", "gpu.launches_per_step", "tune.cache_builds",
         "gpu.virtual_step_ms", "runtime.virtual_makespan_ms",
         "fvm.kernel_bytes_per_step", "fvm.kernel_flops_per_step")


def selfcheck(contract: dict, first: dict, second: dict) -> list[str]:
    """Disagreements between two sets of the same code: an end-to-end
    metric that moved by more than its own bound, a count that moved at
    all, or any failed operation."""
    problems = []
    for workload in first:
        a, b = first[workload], second[workload]
        for m in contract["end_to_end"]:
            x, y = a[m["name"]]["value"], b[m["name"]]["value"]
            spread = abs(x - y) / min(x, y)
            verdict = "ok" if spread <= m["bound"] else "DISAGREE"
            print(f"{workload:16s} {m['name']:14s} {x:12.6g} {y:12.6g} "
                  f"spread {100 * spread:5.1f}% of bound {100 * m['bound']:.0f}%  {verdict}")
            if spread > m["bound"]:
                problems.append(f"{workload}/{m['name']}: {x} vs {y}")
        for name in EXACT:
            # equal up to the rounding of a per-step average over other counts
            if not math.isclose(a[name]["value"], b[name]["value"], rel_tol=1e-9):
                problems.append(f"{workload}/{name}: {a[name]['value']} vs {b[name]['value']}")
        for run in (a, b):
            if run["failed_share"]["value"] != 0:
                problems.append(f"{workload}: failed_share {run['failed_share']['value']}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them")
    parser.add_argument("--smoke", action="store_true",
                        help="nx=8 and three blocks (the harness's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: the program under test (src/repro) is not here",
              file=sys.stderr)
        return 2

    if args.selfcheck:
        chosen = [args.workload] if args.workload else names
        first = run_set(contract, args.seed, args.seconds, args.smoke, chosen)
        second = run_set(contract, args.seed, args.seconds, args.smoke, chosen)
        problems = selfcheck(contract, first, second)
        for line in problems:
            print("SELFCHECK:", line)
        return 1 if problems else 0
    if args.workload is None:
        merged = run_set(contract, args.seed, args.seconds, args.smoke, names)
        OUT.mkdir(exist_ok=True)
        (OUT / f"set-seed{args.seed}.json").write_text(json.dumps(merged, indent=1))
        return 0
    doc = run_workload(contract, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    print_metrics(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
