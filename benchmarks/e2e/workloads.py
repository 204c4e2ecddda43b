"""The four workloads: inputs from a seed, set-up, and the timed passes.

Everything here runs inside a fresh child process (``child.py``), one
workload per process.  ``repro`` is imported lazily, inside the functions,
so that the child can time the import as part of set-up.
"""

from __future__ import annotations

import random
import resource
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any

from benchmarks.e2e.spans import Recorder

#: steps of the output check against the hand-written reference solver;
#: also the first warm-up block, so its wall is the cold first-step cost
CHECK_STEPS = 3
#: the three programs the served jobs cycle over (scenario, target)
PROGRAMS = (("hotspot", "cpu"), ("hotspot", "gpu"), ("corner", "cpu"))
#: served jobs whose digest is compared with a direct solve
SERVE_SAMPLED = 10
CHECKPOINT_DIR = Path(__file__).resolve().parent / "out" / "serve-checkpoints"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  ``block_steps`` is B of ``solver.run(B)``
    (for ``serve`` the steps of one job); a timed pass stops at
    ``max_blocks`` or when its seconds are used up, whichever comes first."""

    name: str
    target: str  # 'cpu' | 'gpu' | 'distributed' | 'serve'
    nx: int
    ndirs: int
    bands: int
    block_steps: int
    warmup_blocks: int
    min_blocks: int
    max_blocks: int
    trace_blocks: int
    ranks: int = 1
    clients: int = 2


SPECS = {s.name: s for s in (
    Spec("paper-cpu", "cpu", 48, 20, 40, 1, 4, 5, 60, 20),
    Spec("paper-gpu", "gpu", 48, 20, 40, 1, 4, 5, 60, 20),
    Spec("overhead-cells2", "distributed", 16, 4, 4, 400, 3, 5, 30, 20, ranks=2),
    # max_blocks is the per-client pool of pre-built jobs
    Spec("serve-closed2", "serve", 16, 4, 4, 30, 1, 5, 72, 24),
)}


def smoke(spec: Spec) -> Spec:
    """The same workload at a size the harness's own tests can afford:
    nx=8 and three timed blocks, whatever ``--seconds`` says."""
    small = replace(spec, nx=8, ndirs=4, bands=4, warmup_blocks=2,
                    min_blocks=3, max_blocks=3, trace_blocks=3)
    if spec.target == "distributed":
        return replace(small, block_steps=20)
    if spec.target == "serve":
        return replace(small, block_steps=5, max_blocks=6, trace_blocks=4)
    return small


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(spec: Spec, seed: int) -> dict[str, Any]:
    """Everything the seed decides.  It moves the hot spot along the wall
    and, for the served mix, shuffles the job order and jitters ``dt`` so
    that no two jobs share a key; it never changes a size, so never cost."""
    rng = random.Random(seed)
    inputs: dict[str, Any] = {"hot_center_frac": 0.5 + rng.uniform(-0.1, 0.1)}
    if spec.target == "serve":
        n = spec.clients * spec.max_blocks + 3 * spec.trace_blocks
        programs = [i % len(PROGRAMS) for i in range(n)]
        rng.shuffle(programs)
        # strictly increasing, so every job has its own dt and nothing dedups
        dts = [1e-12 * (1.0 + 1e-4 * (i + rng.random())) for i in range(n)]
        inputs["jobs"] = list(zip(programs, dts))
    return inputs


def build_problem(spec: Spec, inputs: dict[str, Any], *, program: int = 0,
                  dt: float = 1e-12, target: str | None = None):
    """One DSL problem of this workload; returns ``(problem, scenario)``."""
    from repro.bte import (build_bte_problem, corner_source_scenario,
                           hotspot_scenario)

    kind, program_target = PROGRAMS[program]
    target = target or (program_target if spec.target == "serve" else spec.target)
    sizes = dict(ndirs=spec.ndirs, n_freq_bands=spec.bands, dt=dt,
                 nsteps=spec.block_steps)
    if kind == "corner":
        scenario = corner_source_scenario(nx=2 * spec.nx, ny=spec.nx // 2, **sizes)
    else:
        scenario = hotspot_scenario(nx=spec.nx, ny=spec.nx, **sizes)
        scenario.hot_center_frac = inputs["hot_center_frac"]
    # keep the hot spot resolvable on a coarse mesh (as repro's own suite does)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / scenario.nx)
    problem, _ = build_bte_problem(scenario)
    if target == "gpu":
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    elif target == "distributed":
        problem.set_partitioning("cells", spec.ranks)
    return problem, scenario


def dof_counts(spec: Spec) -> dict[str, int]:
    """Sizes implied by the spec alone (they must not depend on the seed)."""
    from repro.bte import silicon_bands

    ncomp = spec.ndirs * silicon_bands(spec.bands).nbands
    ncells = spec.nx * spec.nx
    return {"ncells": ncells, "ncomp": ncomp, "dof": ncomp * ncells,
            "array_bytes": 8 * ncomp * ncells}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def patch_build_side(rec: Recorder) -> None:
    """Spans around the build pipeline's public entry points that every
    target shares."""
    import repro.bte.problem as bte_problem
    import repro.codegen.state as codegen_state
    import repro.dsl.problem as dsl_problem
    import repro.ir.lowering as lowering
    import repro.tune.signature as signature
    from repro.codegen.target_base import GeneratedSolver

    rec.patch(bte_problem, "structured_grid", "mesh.grid_build")
    rec.patch(dsl_problem, "parse", "symbolic.parse")
    rec.patch(lowering, "parse", "symbolic.parse")
    rec.patch(codegen_state, "FVGeometry", "fvm.geometry")
    rec.patch(GeneratedSolver, "recompile", "codegen.compile")
    rec.patch(signature, "cache_key", "tune.cache_key")


def patch_target(rec: Recorder, target: str) -> None:
    """Spans around what one codegen target calls while it builds and binds
    (each target module imports these names for itself)."""
    import sys

    from repro.codegen import make_target

    cls = type(make_target(target))
    module = sys.modules[cls.__module__]
    rec.patch(module, "lower_conservation_form", "ir.lower")
    rec.patch(module, "build_ir", "ir.build")
    rec.patch(module, "partition_cells", "mesh.partition")
    rec.patch(module, "build_partition_layout", "mesh.partition")
    rec.patch(module, "SolverState", "codegen.state_init")
    rec.patch(cls, "build_artifact", "codegen.build_artifact")
    rec.patch(cls, "bind_artifact", "codegen.bind")


def setup_solver(spec: Spec, inputs: dict[str, Any], t0: float,
                 rec: Recorder | None = None) -> dict[str, Any]:
    """What a user pays before the first step: ``import repro``, building
    the problem, and a cold ``generate()`` down to a bound solver.  With a
    recorder the same calls run under build-side spans, followed by a warm
    ``generate()`` of an identical second problem."""
    t_import = perf_counter()
    import repro  # noqa: F401
    import repro.bte  # noqa: F401
    import_s = perf_counter() - t_import
    if rec is not None:
        patch_build_side(rec)
        rec.block = 0  # the cold build; the warm twin below is block 1
    t_build = perf_counter()
    problem, scenario = build_problem(spec, inputs)
    problem_build_s = perf_counter() - t_build
    if rec is not None:
        patch_target(rec, problem.resolve_target())
    solver = problem.generate()
    out = {"solver": solver, "problem": problem, "scenario": scenario,
           "setup_s": perf_counter() - t0, "import_s": import_s,
           "problem_build_s": problem_build_s}
    if rec is not None:
        rec.block = 1
        twin, _ = build_problem(spec, inputs)
        t_warm = perf_counter()
        out["twin"] = twin.generate()
        out["warm_generate_s"] = perf_counter() - t_warm
        rec.block = -1
        rec.restore()
    return out


def serve_setup(spec: Spec, inputs: dict[str, Any], t0: float) -> dict[str, Any]:
    """Set-up of the served mix: import, a private compilation cache, the
    service, and one cold job per program."""
    from repro.serve import ServiceConfig, serve_session
    from repro.tune.cache import cache_scope

    stack = ExitStack()
    cache = stack.enter_context(cache_scope())
    session = stack.enter_context(ExitStack())  # closed on its own, first
    # the service's checkpoint root defaults to a directory under /tmp; the
    # benchmark writes only inside its checkout (nothing checkpoints here)
    service = session.enter_context(serve_session(ServiceConfig(
        workers=2, reuse_results=False, checkpoint_dir=str(CHECKPOINT_DIR))))
    client = service.client
    for program in range(len(PROGRAMS)):
        problem, _ = build_problem(spec, inputs, program=program)
        client.solve(problem)
    return {"stack": stack, "session": session, "cache": cache,
            "client": client, "setup_s": perf_counter() - t0}


# ---------------------------------------------------------------------------
# timed passes over one solver
# ---------------------------------------------------------------------------

def digest_of(u, T) -> str:
    """Bit-exact digest of a solution and its temperature field (the
    service's own result digest, so served and direct solves compare)."""
    from repro.serve import JobResult

    return JobResult.digest_of(u, {"T": T})


def digest(state) -> str:
    return digest_of(state.u, state.extra["T"])


def patch_state(rec: Recorder, state) -> None:
    """Spans around the four end-of-step hooks and the FV gathers."""
    rec.patch(state, "observe_step", "obs.observe_step")
    rec.patch(state, "sanitize_step", "verify.sanitize_step")
    rec.patch(state, "maybe_checkpoint", "runtime.checkpoint_hook")
    rec.patch(state, "maybe_rebalance", "runtime.rebalance_hook")
    rec.patch(state.geom, "gather_sides", "fvm.gather_sides")
    rec.patch(state.geom, "surface_divergence", "fvm.surface_divergence")
    rec.patch(state.bset, "ghost_values", "fvm.ghost_values")
    rec.patch(state.bset, "flux_overrides", "fvm.flux_overrides")


def patch_step_side(rec: Recorder, solver) -> None:
    """Spans around every call the generated loop makes into a layer.

    ``solver.run(B)`` itself stays untouched: the generated functions look
    their callees up in ``solver.namespace`` on every call, so swapping the
    names there (and instance attributes of the state they are handed)
    traces the real loop, ``profile_scope``/``phase_span`` pairs included.
    """
    from types import SimpleNamespace

    ns, state = solver.namespace, solver.state
    rec.patch(ns, "step_once", "codegen.step_once")
    rec.patch(ns, "compute_rhs", "codegen.compute_rhs")
    rec.patch(ns, "compute_boundary_contribution", "codegen.boundary_contribution")
    kernels = SimpleNamespace(**vars(ns["kernels"]))
    rec.patch(kernels, "euler_update", "fvm.euler_update")
    rec.swap(ns, "kernels", kernels)
    rec.swap(ns, "POST_STEP_CALLBACKS", [
        replace(cb, fn=rec.wrap(cb.fn, "bte.temperature_update"
                                if cb.name == "temperature_update"
                                else "codegen.other_callback"))
        for cb in ns["POST_STEP_CALLBACKS"]])
    patch_state(rec, state)
    if "KERNEL" in ns:  # the hybrid target: device path
        rec.patch(ns["KERNEL"], "body", "codegen.interior_kernel")
        for op in ("launch", "h2d", "d2h"):
            rec.patch(state.device, op, f"gpu.{op}")
    if "make_rank_state" in ns:  # the SPMD target: rank states are per run
        from repro.runtime.comm import Communicator

        make = rec.wrap(ns["make_rank_state"], "runtime.make_rank_state")

        def make_traced_state(rank: int):
            rank_state = make(rank)
            patch_state(rec, rank_state)
            return rank_state

        rec.swap(ns, "make_rank_state", make_traced_state)
        rec.patch(ns, "rank_program", "runtime.rank_program")
        rec.patch(ns, "run_spmd", "runtime.run_spmd")
        rec.patch(ns, "merge_results", "runtime.merge")
        rec.patch(Communicator, "exchange", "runtime.exchange")


def device_counters(solver) -> dict[str, float]:
    """Running totals the simulated device and virtual clocks keep."""
    state = solver.state
    device = getattr(state, "device", None)
    if device is None:
        return {}
    moved = {"h2d": 0, "d2h": 0}
    for event in device.profiler.transfers:
        moved[event.kind] += event.nbytes
    return {"launches": len(device.profiler.launches),
            "h2d_bytes": moved["h2d"], "d2h_bytes": moved["d2h"],
            "virtual_s": state.host_clock.now()}


def solver_pass(solver, spec: Spec, seconds: float, *, blocks: int | None = None,
                rec: Recorder | None = None) -> dict[str, Any]:
    """Warm up, then time blocks of ``solver.run(B)``.

    The first warm-up block is ``run(CHECK_STEPS)`` from the initial
    condition; its result is kept for the reference check.  With ``blocks``
    the pass runs exactly that many timed blocks (the traced pass repeats
    the untraced one step for step); otherwise it stops at ``max_blocks``
    or after ``seconds``, but never before ``min_blocks``.
    """
    import numpy as np

    B = spec.block_steps
    state = solver.state
    run = solver.run if rec is None else rec.wrap(solver.run, "block")
    t = perf_counter()
    solver.run(CHECK_STEPS)
    first_s = perf_counter() - t
    checked = (state.u.copy(), np.asarray(state.extra["T"]).copy())
    for _ in range(spec.warmup_blocks - 1):
        solver.run(B)

    counters0 = device_counters(solver)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    walls: list[float] = []
    failed = 0
    limit = blocks if blocks is not None else spec.max_blocks
    deadline = perf_counter() + seconds
    while len(walls) < limit and (
            blocks is not None or len(walls) < spec.min_blocks
            or perf_counter() < deadline):
        if rec is not None:
            rec.block = len(walls)
        t = perf_counter()
        try:
            run(B)
        except Exception:  # a failed block counts, it does not end the run
            failed += 1
        walls.append(perf_counter() - t)
    if rec is not None:
        rec.block = -1
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    counters1 = device_counters(solver)

    steps = len(walls) * B
    out = {"walls": walls, "failed": failed, "first_s": first_s,
           "checked": checked, "steps": steps, "digest": digest(state),
           "finite": bool(np.isfinite(state.u).all()
                          and np.isfinite(state.extra["T"]).all()),
           "minor_faults_per_step": (usage1.ru_minflt - usage0.ru_minflt) / steps,
           "peak_rss_mb": usage1.ru_maxrss / 1024.0,
           "per_step": {k: (counters1[k] - counters0[k]) / steps
                        for k in counters1}}
    spmd = getattr(state, "spmd_result", None)
    if spmd is not None:  # every run(B) restarts, so one block's totals / B
        out["per_step"].update(
            msgs=sum(s.messages_sent for s in spmd.stats) / B,
            halo_bytes=sum(s.bytes_sent for s in spmd.stats) / B)
        out["virtual_makespan_s"] = spmd.makespan
        out["rank_timers"] = {
            name: statistics.mean(r["timers"].total(name) for r in spmd.results) / B
            for name in ("solve", "post_step")}
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_reference(scenario, checked) -> dict[str, Any]:
    """The generated solver after CHECK_STEPS steps against the hand-written
    reference solver, to 1e-10 of the field's scale."""
    import numpy as np
    from repro.bte import ReferenceBTESolver

    u, T = checked
    ref = ReferenceBTESolver(replace(scenario, nsteps=CHECK_STEPS))
    ref.run(CHECK_STEPS)
    u_ref, T_ref = ref.intensity_dsl_layout(), ref.temperature()
    err_u = float(np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref)))
    err_T = float(np.max(np.abs(T - T_ref)) / np.max(np.abs(T_ref)))
    return {"name": "reference_agreement", "ok": err_u <= 1e-10 and err_T <= 1e-10,
            "rel_err_u": err_u, "rel_err_T": err_T}


def check_cpu_agreement(spec: Spec, inputs: dict[str, Any], checked) -> dict[str, Any]:
    """The device path against the serial CPU path on identical inputs.

    Their digests cannot be equal: the hybrid step adds the boundary part
    after the interior update, the CPU step adds both inside one
    expression, and the two orders round differently.  ``repro``'s own
    cross-target test demands 1e-12 of the scale, and so does this check;
    both digests are recorded."""
    import numpy as np

    problem, _ = build_problem(spec, inputs, target="cpu")
    cpu = problem.generate()
    cpu.run(CHECK_STEPS)
    u, T = checked
    scale = float(np.max(np.abs(cpu.state.u)))
    err_u = float(np.max(np.abs(u - cpu.state.u))) / scale
    err_T = float(np.max(np.abs(T - cpu.state.extra["T"])))
    return {"name": "cpu_gpu_agreement", "ok": err_u <= 1e-12 and err_T <= 1e-9,
            "rel_err_u": err_u, "abs_err_T": err_T,
            "gpu_digest": digest_of(u, T), "cpu_digest": digest(cpu.state)}


# ---------------------------------------------------------------------------
# the served mix
# ---------------------------------------------------------------------------

def build_jobs(spec: Spec, inputs: dict[str, Any], first: int, count: int) -> list:
    """Jobs ``first .. first+count`` of the seeded list, as ``(index, problem)``."""
    return [(i, build_problem(spec, inputs, program=inputs["jobs"][i][0],
                              dt=inputs["jobs"][i][1])[0])
            for i in range(first, first + count)]


def closed_loop(client, pools: list[list], seconds: float,
                min_jobs: int) -> dict[str, Any]:
    """Each pool is one client thread that submits its next job only after
    the previous result arrived; a client stops when the seconds are used
    up, but not before ``min_jobs`` results."""
    import threading

    done: list[list[tuple]] = [[] for _ in pools]
    failures: list[str] = []
    deadline = perf_counter() + seconds

    def client_thread(c: int) -> None:
        for index, problem in pools[c]:
            if len(done[c]) >= min_jobs and perf_counter() >= deadline:
                break
            t = perf_counter()
            try:
                result = client.solve(problem)
            except Exception as exc:  # a failed job counts, the loop goes on
                failures.append(f"job {index}: {exc!r}")
                continue
            done[c].append((index, perf_counter() - t, result.wall_s, result.digest))

    threads = [threading.Thread(target=client_thread, args=(c,), name=f"client{c}")
               for c in range(len(pools))]
    t0 = perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = perf_counter() - t0
    jobs = [row for rows in done for row in rows]
    return {"jobs": jobs, "failures": failures, "wall_s": wall,
            "latency_s": [row[1] for row in jobs],
            "worker_wall_s": [row[2] for row in jobs]}


def direct_solve(problem, rec: Recorder | None = None) -> tuple[float, str, int]:
    """``generate()`` (warm) + ``run()`` with no service in between; returns
    wall seconds, the result digest as the service computes it, and steps."""
    from repro.serve import JobResult

    t = perf_counter()
    solver = problem.generate()
    if rec is not None:
        patch_step_side(rec, solver)
        rec.wrap(solver.run, "block")()
        rec.restore()
    else:
        solver.run()
    wall = perf_counter() - t
    state = solver.state
    aux = {name: fld.data for name, fld in state.fields.items()
           if name != state.unknown.name}
    return wall, JobResult.digest_of(solver.solution(), aux), state.step_index

