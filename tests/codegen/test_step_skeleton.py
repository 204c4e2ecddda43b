"""The one step loop (``target_base.emit_step_loop``).

Every target's ``run_steps`` / ``rank_program`` is the same text around the
target's holes, runs the hooks in one order, shows a post-step callback one
clock, and times and traces the callback phases alike.
"""

import pytest

from repro import obs
from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.codegen import cpu_distributed, gpu_hybrid, gpu_multi
from repro.codegen.probes import TransientRecorder

NSTEPS = 3
HOOKS = ["observe_step", "sanitize_step", "maybe_checkpoint", "maybe_rebalance"]


def bte(configure=lambda p: None):
    problem, _ = build_bte_problem(hotspot_scenario(
        nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=NSTEPS))
    configure(problem)
    return problem


def on_gpu(problem):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True


def gpu_bands(problem):
    on_gpu(problem)
    problem.set_partitioning("bands", 2, index="b")


#: name -> (problem builder, explicit target, the target's holes, the
#: program that holds the loop, the namespace entry its step hole calls)
CASES = {
    "cpu": (bte, None, {}, "run_steps", "step_once"),
    "cells": (lambda: bte(lambda p: p.set_partitioning("cells", 2)), None,
              cpu_distributed.RANK_LOOPS["cells"], "rank_program", "compute_rhs"),
    "bands": (lambda: bte(lambda p: p.set_partitioning("bands", 2, index="b")), None,
              cpu_distributed.RANK_LOOPS["bands"], "rank_program", "compute_rhs"),
    "gpu": (lambda: bte(on_gpu), None, gpu_hybrid.RUN_LOOP, "run_steps", "step_once"),
    "gpu_distributed": (lambda: bte(gpu_bands), None, gpu_multi.RANK_LOOP,
                        "rank_program", "device_step"),
    "interp": (bte, "interp", {}, "run_steps", "step_once"),
}
RANKS = {"cells": 2, "bands": 2, "gpu_distributed": 2}


def rank_of(state) -> int:
    return state.comm.rank if state.comm is not None else 0


def program_text(source: str, name: str) -> list[str]:
    text = source[source.index(f"def {name}("):]
    return text.split("\n\n\n")[0].splitlines()


# ------------------------------------------------------------- (a) one order
@pytest.mark.parametrize("case", sorted(CASES))
def test_hooks_run_in_one_order_once_per_step_per_rank(case):
    build, target, _, _, step_name = CASES[case]
    problem = build()
    events: list[tuple[int, str]] = []
    problem.add_pre_step(lambda st: events.append((rank_of(st), "pre")), name="rec_pre")
    problem.add_post_step(lambda st: events.append((rank_of(st), "post")), name="rec_post")
    solver = problem.generate(target)
    ns = solver.namespace

    def watch(state):
        for hook in HOOKS:
            def recorded(original=getattr(state, hook), hook=hook):
                events.append((rank_of(state), hook))
                return original()
            setattr(state, hook, recorded)  # shadows the method, as the e2e harness does
        return state

    step = ns[step_name]

    def recorded_step(state, *args):
        events.append((rank_of(state), "step"))
        return step(state, *args)

    ns[step_name] = recorded_step
    if "make_rank_state" in ns:
        make = ns["make_rank_state"]
        ns["make_rank_state"] = lambda rank: watch(make(rank))
    else:
        watch(solver.state)
    solver.run(NSTEPS)

    for rank in range(RANKS.get(case, 1)):
        mine = [name for r, name in events if r == rank]
        assert mine == ["pre", "step", "post", *HOOKS] * NSTEPS, (rank, mine)


# ------------------------------------------------------------ (b) one text
def loop_without_holes(case: str) -> list[str]:
    build, target, holes, program, _ = CASES[case]
    lines = program_text(build().generate(target).source, program)
    hole_lines = {"step_once(state)"} | {
        ln.strip() for part in holes.values() if isinstance(part, list) for ln in part}
    kept = [ln.strip() for ln in lines if ln.strip() not in hole_lines]
    return kept[kept.index("for _ in range(nsteps):"):kept.index("state.end_step()") + 1]


def test_every_target_has_the_same_loop_around_its_holes():
    loops = {case: [ln for ln in loop_without_holes(case) if not ln.startswith("#")]
             for case in CASES}
    # every target hands a callback its declared reduction: one loop
    assert loops["cpu"] == [
        "for _ in range(nsteps):",
        "for cb in PRE_STEP_CALLBACKS:",
        "with state.phase('pre_step'):",
        "cb.fn(state)",
        "for cb, args in zip(POST_STEP_CALLBACKS, state.post_step_args):",
        "with state.phase('post_step'):",
        "cb.fn(state, *args)",
        "state.end_step()",
    ]
    for case in CASES:
        assert loops[case] == loops["cpu"], case


# ----------------------------------------------------- callbacks see one clock
@pytest.mark.parametrize("case", sorted(CASES))
def test_post_step_callbacks_see_the_step_they_follow(case):
    build, target, *_ = CASES[case]
    problem = build()
    seen = []
    problem.add_post_step(
        lambda st: seen.append((rank_of(st), st.step_index, round(st.time / st.dt))),
        name="clock")
    problem.generate(target).run(NSTEPS)
    for rank in range(RANKS.get(case, 1)):
        assert [(s, t) for r, s, t in seen if r == rank] == [(1, 1), (2, 2), (3, 3)]


def test_transient_recorder_samples_the_same_steps_on_cpu_and_cells():
    times = {}
    for case in ("cpu", "cells"):
        recorder = TransientRecorder(rank_of, every=2)
        problem = CASES[case][0]()
        problem.add_post_step(recorder, name="recorder")
        problem.generate().run(5)
        times[case] = [t for t, rank in zip(recorder.times, recorder.values) if rank == 0]
    assert times["cells"] == times["cpu"] and len(times["cpu"]) == 2  # steps 2 and 4


# ------------------------------------------------- phases mean the same thing
@pytest.mark.parametrize("case", sorted(CASES))
def test_callback_phases_are_timed_and_traced_per_callback(case):
    build, target, *_ = CASES[case]
    problem = build()
    problem.add_pre_step(lambda st: None, name="noop_a")
    problem.add_pre_step(lambda st: None, name="noop_b")
    npost = len(problem.post_step_callbacks)
    ranks = RANKS.get(case, 1)
    with obs.trace_run() as tracer:
        solver = problem.generate(target)
        solver.run(NSTEPS)
    spmd = getattr(solver.state, "spmd_result", None)
    all_timers = ([solver.state.timers] if spmd is None
                  else [r["timers"] for r in spmd.results])
    for timers in all_timers:
        assert timers.stats["pre_step"].count == 2 * NSTEPS
        if npost:
            assert timers.stats["post_step"].count == npost * NSTEPS
        # the halo exchange's time is CommStats', not a breakdown row
        assert "halo_exchange" not in timers.stats
    names = [s.name for s in tracer.spans]
    assert names.count("pre_step") == 2 * NSTEPS * ranks
    assert names.count("post_step") == npost * NSTEPS * ranks
    if case == "cells":
        assert names.count("halo_exchange") == NSTEPS * ranks
