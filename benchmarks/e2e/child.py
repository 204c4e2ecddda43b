"""One workload in one fresh process.  Started by ``run.py``; prints one
JSON object as the last line of its standard output."""

from time import perf_counter

T0 = perf_counter()  # set-up time is counted from here, before any import

import argparse
import json
import os
import random
import resource
import statistics
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# a disk cache inherited from the caller would turn the cold build warm
os.environ.pop("REPRO_CACHE_DIR", None)

from benchmarks.e2e import spans  # noqa: E402
from benchmarks.e2e import workloads as W  # noqa: E402

#: build-side metric -> (span name, which sum); all from the cold build
BUILD_SPANS = {
    "mesh.grid_build_ms": ("mesh.grid_build", "total_s"),
    "mesh.partition_ms": ("mesh.partition", "total_s"),
    "symbolic.parse_ms": ("symbolic.parse", "total_s"),
    "ir.lower_ms": ("ir.lower", "total_s"),
    "ir.build_ms": ("ir.build", "total_s"),
    "codegen.build_artifact_ms": ("codegen.build_artifact", "total_s"),
    # what build_artifact does itself: emission, placement, source assembly
    "codegen.emit_ms": ("codegen.build_artifact", "self_s"),
    "codegen.compile_ms": ("codegen.compile", "total_s"),
    "codegen.bind_ms": ("codegen.bind", "total_s"),
    "codegen.state_init_ms": ("codegen.state_init", "total_s"),
    "fvm.geometry_ms": ("fvm.geometry", "total_s"),
    "tune.cache_key_ms": ("tune.cache_key", "total_s"),
}
#: step-side metric -> (span name, which sum); per step, per rank
STEP_SPANS = {
    "codegen.step_once_ms": ("codegen.step_once", "total_s"),
    "codegen.step_once_self_ms": ("codegen.step_once", "self_s"),
    "codegen.rhs_expr_self_ms": ("codegen.compute_rhs", "self_s"),
    "fvm.ghost_values_ms": ("fvm.ghost_values", "total_s"),
    "fvm.gather_sides_ms": ("fvm.gather_sides", "total_s"),
    "fvm.flux_overrides_ms": ("fvm.flux_overrides", "total_s"),
    "fvm.surface_divergence_ms": ("fvm.surface_divergence", "total_s"),
    "fvm.euler_update_ms": ("fvm.euler_update", "total_s"),
    "bte.temperature_update_ms": ("bte.temperature_update", "total_s"),
    "obs.observe_step_us": ("obs.observe_step", "total_s"),
    "verify.sanitize_step_us": ("verify.sanitize_step", "total_s"),
    "runtime.checkpoint_hook_us": ("runtime.checkpoint_hook", "total_s"),
    "runtime.rebalance_hook_us": ("runtime.rebalance_hook", "total_s"),
    "gpu.launch_ms": ("gpu.launch", "total_s"),
    "codegen.interior_kernel_ms": ("codegen.interior_kernel", "total_s"),
    "codegen.boundary_contribution_ms": ("codegen.boundary_contribution", "total_s"),
    "gpu.h2d_ms": ("gpu.h2d", "total_s"),
    "gpu.d2h_ms": ("gpu.d2h", "total_s"),
    "runtime.exchange_ms_per_step": ("runtime.exchange", "total_s"),
}
#: spans recorded on rank threads: their sums are divided by the rank count
RANK_SPANS = {"codegen.compute_rhs", "fvm.ghost_values", "fvm.gather_sides",
              "fvm.flux_overrides", "fvm.surface_divergence", "fvm.euler_update",
              "bte.temperature_update", "obs.observe_step", "verify.sanitize_step",
              "runtime.checkpoint_hook", "runtime.rebalance_hook",
              "runtime.exchange", "runtime.rank_program"}


def scale_of(metric: str) -> float:
    return 1e6 if "_us" in metric else 1e3


def ok_check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def finish(values: dict, checks: list[dict], attempted: int, failed: int,
           **extra) -> dict:
    """The child's answer: operations are timed blocks or jobs plus one per
    output check; a check that does not hold is a failed operation."""
    return {"values": values, "checks": checks,
            "attempted": attempted + len(checks),
            "failed": failed + sum(not c["ok"] for c in checks), **extra}


def tails(prefix: str, per_unit_s: list[float], first_s: float | None = None) -> dict:
    pct, value = spans.tail(per_unit_s)
    out = {f"{prefix}_tail": 1e3 * value, f"{prefix}_tail_pct": pct,
           f"{prefix}_samples": len(per_unit_s)}
    if first_s is not None:
        out[f"{prefix}_first"] = 1e3 * first_s
    return out


# ---------------------------------------------------------------------------
# untraced: the end-to-end metrics
# ---------------------------------------------------------------------------

def measure_solver(spec: W.Spec, inputs: dict, seconds: float) -> dict:
    setup = W.setup_solver(spec, inputs, T0)
    run = W.solver_pass(setup["solver"], spec, seconds)
    checks = [W.check_reference(setup["scenario"], run["checked"]),
              ok_check("finite", run["finite"])]
    if spec.target == "gpu":
        checks.append(W.check_cpu_agreement(spec, inputs, run["checked"]))
    per_step = [w / spec.block_steps for w in run["walls"]]
    values = {"setup_s": setup["setup_s"],
              "step_ms_p50": 1e3 * statistics.median(per_step),
              "peak_rss_mb": run["peak_rss_mb"]}
    detail = tails("step_ms", per_step, run["first_s"] / W.CHECK_STEPS)
    detail["step_ms_all"] = [1e3 * s for s in per_step]
    return finish(values, checks, len(per_step), run["failed"],
                  digest=run["digest"], detail=detail)


def measure_serve(spec: W.Spec, inputs: dict, seconds: float, seed: int) -> dict:
    setup = W.serve_setup(spec, inputs, T0)
    with setup["stack"]:
        pools = [W.build_jobs(spec, inputs, c * spec.max_blocks, spec.max_blocks)
                 for c in range(spec.clients)]
        loop = W.closed_loop(setup["client"], pools, seconds, spec.min_blocks)
        counters = setup["client"].status()["counters"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup["session"].close()  # direct solves run with no service around
        sampled = random.Random(seed).sample(
            loop["jobs"], min(W.SERVE_SAMPLED, len(loop["jobs"])))
        checks = []
        for index, _, _, served_digest in sampled:
            (_, problem), = W.build_jobs(spec, inputs, index, 1)
            _, direct_digest, _ = W.direct_solve(problem)
            checks.append(ok_check(f"served_digest[{index}]",
                                   served_digest == direct_digest))
    checks += [ok_check("nothing_deduped", counters["deduped"] == 0),
               ok_check("service_failed_counter", counters["failed"] == 0)]
    per_step = [s / spec.block_steps for s in loop["latency_s"]]
    values = {"setup_s": setup["setup_s"],
              "step_ms_p50": 1e3 * statistics.median(per_step),
              "peak_rss_mb": peak_rss_mb}
    detail = tails("job_ms", loop["latency_s"])
    detail.update(job_ms_all=[1e3 * s for s in loop["latency_s"]],
                  job_ms_p50=1e3 * statistics.median(loop["latency_s"]),
                  jobs_per_s=len(loop["jobs"]) / loop["wall_s"],
                  failures=loop["failures"])
    return finish(values, checks, len(loop["jobs"]) + len(loop["failures"]),
                  len(loop["failures"]), detail=detail)


# ---------------------------------------------------------------------------
# traced: the per-layer metrics
# ---------------------------------------------------------------------------

def span_values(table: dict, sums: dict, divisor: float, ranks: int = 1
                ) -> tuple[dict, dict]:
    """``(values, seconds)`` of the metrics in ``table`` whose span was seen:
    the value in the metric's unit per ``divisor``, and the raw seconds."""
    values, seconds = {}, {}
    for metric, (span, which) in table.items():
        if span in sums:
            lanes = ranks if span in RANK_SPANS else 1
            seconds[metric] = sums[span][which] / lanes
            values[metric] = scale_of(metric) * seconds[metric] / divisor
    return values, seconds


def build_values(setup: dict, build: spans.Recorder) -> dict:
    values, _ = span_values(BUILD_SPANS, spans.totals(build.spans, {0}), 1.0)
    values.update({
        "util.import_ms": 1e3 * setup["import_s"],
        "bte.problem_build_ms": 1e3 * setup["problem_build_s"],
        "codegen.source_lines": len(setup["solver"].source.splitlines()),
        "tune.warm_generate_ms": 1e3 * setup["warm_generate_s"],
    })
    return values


def step_values(rec: spans.Recorder, nblocks: int, steps: int, ranks: int = 1
                ) -> tuple[dict, dict]:
    """Step-side values plus each one's share of the traced blocks' wall."""
    sums = spans.totals(rec.spans, set(range(nblocks)))
    values, seconds = span_values(STEP_SPANS, sums, steps, ranks)
    block_s = sums["block"]["total_s"]
    # the loop's own cost: what no span inside a block (or a rank's loop) covers
    residual_s = sums["block"]["self_s"] + (
        sums["runtime.rank_program"]["self_s"] / ranks
        if "runtime.rank_program" in sums else 0.0)
    values["codegen.loop_residual_us"] = 1e6 * residual_s / steps
    seconds["codegen.loop_residual_us"] = residual_s
    values["trace.coverage_share"] = 1.0 - residual_s / block_s
    values["trace.span_count"] = len(rec.spans)
    shares = {metric: s / block_s for metric, s in seconds.items()}
    return values, shares


def kernel_work(solver, problem) -> dict:
    """Computed, not measured: the emitter's per-value operation and byte
    estimates times the array sizes (no cache misses, no calibration)."""
    from repro.codegen.emit import ExprEmitter

    form = solver.classified_form
    emitter = ExprEmitter(problem, form)
    surface = emitter.emit_sum(form.surface_terms, "surface")
    volume = emitter.emit_sum(form.volume_terms, "volume")
    state = solver.state
    faces_per_cell = 2.0 * state.geom.nfaces / state.ncells
    dof = state.ncomp * state.ncells
    return {
        "fvm.kernel_flops_per_step": dof * (
            faces_per_cell * (surface.flops + 2) + volume.flops + 3),
        "fvm.kernel_bytes_per_step": dof * (
            faces_per_cell * surface.bytes_per_value / 2.0 + volume.bytes_per_value),
    }


def step_peak_mb(solver) -> float:
    """Peak of Python-visible allocations across one more step."""
    tracemalloc.start()
    try:
        solver.step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def counter_values(run: dict) -> dict:
    names = {"launches": "gpu.launches_per_step",
             "h2d_bytes": "gpu.h2d_bytes_per_step",
             "d2h_bytes": "gpu.d2h_bytes_per_step",
             "msgs": "runtime.msgs_per_step",
             "halo_bytes": "runtime.halo_bytes_per_step"}
    values = {names[k]: v for k, v in run["per_step"].items() if k in names}
    if "virtual_s" in run["per_step"]:
        values["gpu.virtual_step_ms"] = 1e3 * run["per_step"]["virtual_s"]
    if "virtual_makespan_s" in run:
        values["runtime.virtual_makespan_ms"] = 1e3 * run["virtual_makespan_s"]
        values["codegen.rank_solve_ms_per_step"] = 1e3 * run["rank_timers"]["solve"]
        values["bte.rank_post_step_ms_per_step"] = 1e3 * run["rank_timers"]["post_step"]
    return values


def trace_solver(spec: W.Spec, inputs: dict, seconds: float) -> dict:
    build = spans.Recorder()
    setup = W.setup_solver(spec, inputs, T0, rec=build)
    solver, twin = setup["solver"], setup["twin"]
    short = replace(spec, max_blocks=spec.trace_blocks)
    untraced = W.solver_pass(solver, short, seconds / 2)
    nblocks = len(untraced["walls"])
    rec = spans.Recorder()
    W.patch_step_side(rec, twin)
    traced = W.solver_pass(twin, short, 0.0, blocks=nblocks, rec=rec)
    rec.restore()

    B = spec.block_steps
    per_step = [w / B for w in untraced["walls"]]
    values = build_values(setup, build)
    layer, shares = step_values(rec, nblocks, traced["steps"], spec.ranks)
    values.update(layer)
    values.update(counter_values(untraced))
    values.update(kernel_work(solver, setup["problem"]))
    values.update(tails("step_ms", per_step, untraced["first_s"] / W.CHECK_STEPS))
    values.update({
        "trace.untraced_step_ms": 1e3 * statistics.median(per_step),
        "steps_per_s": untraced["steps"] / sum(untraced["walls"]),
        "os.minor_faults_per_step": untraced["minor_faults_per_step"],
        "trace_overhead_x": (statistics.median(traced["walls"])
                             / statistics.median(untraced["walls"])),
        "codegen.kernel_temp_mb": step_peak_mb(solver),
    })
    if spec.target == "distributed" and B > 1:
        # run(n) = fixed + n * step: thread launch, rank states and the merge
        # are the intercept of run(1) against run(B)
        ones = []
        for _ in range(5):
            t = perf_counter()
            solver.run(1)
            ones.append(perf_counter() - t)
        t1, tB = statistics.median(ones), statistics.median(untraced["walls"])
        values["runtime.run_fixed_ms"] = 1e3 * (t1 - (tB - t1) / (B - 1))
    checks = [ok_check("traced_bit_identical", traced["digest"] == untraced["digest"]),
              ok_check("traced_counts_equal",
                       (traced["per_step"], traced.get("virtual_makespan_s"))
                       == (untraced["per_step"], untraced.get("virtual_makespan_s"))),
              ok_check("finite", untraced["finite"] and traced["finite"])]
    return finish(values, checks, 2 * nblocks, untraced["failed"] + traced["failed"],
                  shares=shares, spans=rec.as_rows())


def trace_serve(spec: W.Spec, inputs: dict, seconds: float) -> dict:
    from repro.serve import job_key
    from repro.tune.signature import cache_key

    build = spans.Recorder()
    first = W.setup_solver(spec, inputs, T0, rec=build)  # program 0, default cache
    values = build_values(first, build)
    n = spec.trace_blocks
    setup = W.serve_setup(spec, inputs, T0)
    with setup["stack"]:
        client, cache = setup["client"], setup["cache"]
        pools = [W.build_jobs(spec, inputs, c * n, n) for c in range(spec.clients)]
        closed = W.closed_loop(client, pools, seconds / 2, spec.min_blocks)
        single = W.closed_loop(client, [W.build_jobs(spec, inputs, 2 * n, n)],
                               seconds / 4, spec.min_blocks)
        counters = client.status()["counters"]
        setup["session"].close()

        # the first client's jobs again, solved directly: untraced, then traced
        key_s, direct_s, direct_digests = [], [], []
        for _, problem in W.build_jobs(spec, inputs, 0, n):
            t = perf_counter()
            target = problem.resolve_target()
            job_key(problem, target, cache_key=cache_key(problem, target))
            key_s.append(perf_counter() - t)
            wall, dig, _ = W.direct_solve(problem)
            direct_s.append(wall)
            direct_digests.append(dig)
        rec = spans.Recorder()
        traced_s, traced_digests, steps = [], [], 0
        for block, (_, problem) in enumerate(W.build_jobs(spec, inputs, 0, n)):
            rec.block = block
            wall, dig, nsteps = W.direct_solve(problem, rec)
            traced_s.append(wall)
            traced_digests.append(dig)
            steps += nsteps
        rec.block = -1
        stats = cache.stats

    layer, shares = step_values(rec, n, steps)
    values.update(layer)
    job_s = closed["latency_s"]
    queue_hop = [lat - work for lat, work in zip(job_s, closed["worker_wall_s"])]
    direct_ms = 1e3 * statistics.median(direct_s)
    values.update(tails("serve.job_ms", job_s))
    values.update(tails("step_ms", [s / spec.block_steps for s in job_s]))
    values.update({
        "trace.untraced_step_ms": 1e3 * statistics.median(job_s) / spec.block_steps,
        "steps_per_s": spec.block_steps * len(closed["jobs"]) / closed["wall_s"],
        "serve.job_ms_p50": 1e3 * statistics.median(job_s),
        "serve.jobs_per_s": len(closed["jobs"]) / closed["wall_s"],
        "serve.direct_solve_ms": direct_ms,
        "serve.overhead_x": 1e3 * statistics.median(job_s) / direct_ms,
        "serve.single_client_job_ms": 1e3 * statistics.median(single["latency_s"]),
        "serve.key_ms": 1e3 * statistics.median(key_s),
        "serve.worker_wall_ms": 1e3 * statistics.median(closed["worker_wall_s"]),
        "serve.queue_hop_ms": 1e3 * statistics.median(queue_hop),
        "serve.completed": counters["completed"],
        "serve.deduped": counters["deduped"],
        "serve.rejected": counters["rejected"],
        "tune.cache_builds": stats.builds,
        "tune.cache_hit_share": stats.hits / max(1, stats.hits + stats.misses),
        "trace_overhead_x": statistics.median(traced_s) / statistics.median(direct_s),
    })
    failures = closed["failures"] + single["failures"]
    checks = [ok_check("traced_bit_identical", traced_digests == direct_digests),
              ok_check("nothing_deduped", counters["deduped"] == 0),
              ok_check("service_failed_counter", counters["failed"] == 0),
              ok_check("one_build_per_program", stats.builds == len(W.PROGRAMS))]
    jobs = len(closed["jobs"]) + len(single["jobs"]) + len(failures) + 2 * n
    return finish(values, checks, jobs, len(failures), shares=shares,
                  spans=rec.as_rows(), failures=failures)


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(W.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="file the traced pass writes its spans to")
    args = parser.parse_args(argv)

    spec = W.SPECS[args.workload]
    if args.smoke:  # fixed block and job counts; the clock decides nothing
        spec, args.seconds = W.smoke(spec), float("inf")
    inputs = W.make_inputs(spec, args.seed)
    served = spec.target == "serve"
    if args.role == "setup":
        if served:
            setup = W.serve_setup(spec, inputs, T0)
            setup["stack"].close()
        else:
            setup = W.setup_solver(spec, inputs, T0)
        out = {"values": {"setup_s": setup["setup_s"]}}
    elif args.role == "measure":
        out = (measure_serve(spec, inputs, args.seconds, args.seed) if served
               else measure_solver(spec, inputs, args.seconds))
    else:
        out = (trace_serve if served else trace_solver)(spec, inputs, args.seconds)
        out["values"]["trace.floor_us"] = 1e6 * spans.floor_s()
        rows = out.pop("spans")
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(rows))
    out["inputs"] = {"hot_center_frac": inputs["hot_center_frac"],
                     "jobs_head": inputs.get("jobs", [])[:4]}
    out["sizes"] = W.dof_counts(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
