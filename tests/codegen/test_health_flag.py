"""The host sweep proves the unknown finite, and ``check_health`` trusts it.

The C Euler tile, an RK step's last stage and a host-placed ``finish_step``
return 1 when they swept
every row and every output of a declared reduction is finite: every element
they stored went into one of those outputs, and a NaN or an Inf keeps its
output non-finite.  ``check_health`` then reads nothing; any path that
writes the unknown after the sweep clears the proof, and the check reads
``u`` as it always did.  The oracle of every case is the full check
(:func:`repro.util.misc.check_finite` on the unknown the run left): the
same ``run()`` raises the same text and index, or nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.util.misc as misc
from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.dsl.entities import CELL, VAR_ARRAY, Reduction
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.util.errors import SolverError
from tests.codegen.test_cpu_serial import decay_problem

ND, NB = 3, 2
#: the interior cell a bump starts in: two steps of the stencil reach no
#: boundary cell of the 8 x 8 grid
BUMP = 3 * 8 + 3


def program(target: str = "cpu", *, k=(0.5, 0.5), speed: float = 1.0, dt: float = 1e-3,
            wall: float = 0.0, initial=None, post=(), stepper: str = "euler",
            pin: str | None = None, reduce: bool = True):
    """An ``(ND * NB)``-component decay and advection on 8 x 8 cells, with
    one declared reduction (its reader does nothing; none without
    ``reduce``), region 1 a FLUX wall
    that returns ``wall`` from the second step on, the rest zero-gradient;
    ``post`` more post-step callbacks; on the device, ``pin`` places the
    finish."""
    p = Problem("health")
    p.set_domain(2)
    p.set_stepper(stepper)
    p.set_steps(dt, 4)
    p.set_mesh(structured_grid((8, 8)))
    d = p.add_index("d", (1, ND))
    b = p.add_index("b", (1, NB))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_coefficient("k", np.array(k, dtype=float), VAR_ARRAY, index=[b])
    p.add_coefficient("Sx", speed * np.array([0.8, -0.5, 0.1]), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", speed * np.array([-0.3, 0.6, -0.9]), VAR_ARRAY, index=[d])
    p.add_boundary("I", 1, BCKind.FLUX, lambda ctx: np.full(
        (ND * NB, ctx.nfaces), wall if ctx.time > 0 else 0.0))
    for region in (2, 3, 4):
        p.add_boundary("I", region, BCKind.NEUMANN0)
    p.initial_values["I"] = (np.ones((ND * NB, 64)) if initial is None else initial)
    p.set_conservation_form("I", "-k[b]*I[d,b] - surface(upwind([Sx[d];Sy[d]], I[d,b]))")
    if reduce:
        p.add_post_step(lambda state, reduced: None, name="reader", reduce=Reduction(
            "bands", np.arange(ND * NB) % NB, np.ones(ND * NB), NB))
    for i, fn in enumerate(post):
        p.add_post_step(fn, name=f"post{i}")
    if target == "gpu":
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        p.extra["placement_override"] = {"finish_step": pin}
    return p.generate(target)


def bump() -> np.ndarray:
    u = np.zeros((ND * NB, 64))
    u[:, BUMP] = 1.0
    return u


@pytest.fixture
def run(monkeypatch):
    """``run(solver, nsteps)``: the text of the ``SolverError`` that
    ``solver.run(nsteps)`` raised, or ``None`` — asserted to be what the full
    check gives on the unknown the run left — and the passes over an array
    (``sum_is_finite`` calls) the run made."""
    full = misc.sum_is_finite

    def run(solver, nsteps: int) -> tuple[str | None, int]:
        passes: list = []
        with monkeypatch.context() as m:
            m.setattr(misc, "sum_is_finite", lambda a: passes.append(a.shape) or full(a))
            try:
                solver.run(nsteps)
                raised = None
            except SolverError as exc:
                raised = str(exc)
        state, dev = solver.state, solver.state.device
        # (read as the check reads it; the host array leaves the proof as it is)
        u = state.u if dev is not None and dev.buffers["u"].on_device else state.host_u
        try:
            misc.check_finite(state.unknown.name, u)
            expected = None
        except SolverError as exc:
            expected = str(exc)
        assert raised == expected
        return raised, len(passes)

    return run


def column(message: str) -> int:
    """The cell of ``non-finite value in 'I' at index (row, cell): ...``."""
    return int(message.split("at index (")[1].split(")")[0].split(",")[1])


# --------------------------------------------------------------------------
# a healthy run reads nothing more; a false alarm reads once and passes
# --------------------------------------------------------------------------

@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_a_healthy_host_run_makes_no_pass_over_the_unknown(run, target):
    """The hot spot on the cpu target, and on a device whose finish runs on
    the host: ``run(1)`` after ``run(1)``, no ``sum_is_finite`` at all."""
    problem, _ = build_bte_problem(hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                                    dt=1e-12, nsteps=3))
    if target == "gpu":
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        problem.extra["placement_override"] = {"finish_step": "cpu"}
    solver = problem.generate()
    for _ in range(3):
        assert run(solver, 1) == (None, 0)


def test_a_finite_value_that_overflows_a_reduction_raises_nothing(run):
    """Three components of 1e308 sum to Inf in their band's output: the
    proof fails, and the full check finds every element finite."""
    solver = program(k=(0.0, 0.0), speed=0.0, initial=np.full((ND * NB, 64), 1e308))
    assert run(solver, 1) == (None, 1)
    assert np.isfinite(solver.state.u).all()


@pytest.mark.parametrize("stepper", ["rk2", "rk4"])
def test_an_rk_step_proves_the_unknown_its_last_stage_stores(run, stepper):
    """An RK step's last sweep stores ``u`` in place and proves it as the
    Euler tile does: a healthy run makes no pass over the unknown, and a
    blow-up raises the full check's text after one pass."""
    assert run(program(stepper=stepper), 2) == (None, 0)
    message, passes = run(program(k=(0.5, 1e200), initial=bump(), stepper=stepper), 2)
    assert message and passes == 1


def test_a_sweep_over_some_rows_proves_nothing():
    """A band rank's sweep stores its own rows alone: the C tile returns 0
    for a cut of the rows, 1 for all of them, on the same healthy state."""
    solver = program()
    state, compute_rhs = solver.state, solver.namespace["compute_rhs"]
    assert compute_rhs(state, state.u, 0.0, np.arange(2)) == 0
    assert compute_rhs(state, state.u, 0.0) == 1


# --------------------------------------------------------------------------
# the sweep itself blows up
# --------------------------------------------------------------------------

HOSTS = [("cpu", None), ("gpu", "cpu"), ("gpu", "gpu")]


@pytest.mark.parametrize("target,pin", HOSTS)
def test_an_unstable_dt_in_an_interior_row_is_reported_by_the_same_run(run, target, pin):
    """Band 1 decays at 1e200 per second: one step keeps it finite, the
    second overflows around the bump, inside the mesh."""
    solver = program(target, k=(0.5, 1e200), initial=bump(), pin=pin)
    assert run(solver, 1)[0] is None
    message, _ = run(solver, 1)
    assert message and column(message) not in solver.state.geom.bcells


@pytest.mark.parametrize("target,pin", HOSTS)
def test_an_unstable_dt_in_a_boundary_cells_column_is_reported_by_the_same_run(run, target,
                                                                               pin):
    """The FLUX wall turns to 1e300 on the second step and dt is 1e10: the
    boundary part's add overflows in region 1's cells alone."""
    solver = program(target, k=(0.0, 0.0), speed=0.0, dt=1e10, wall=1e300,
                     initial=np.zeros((ND * NB, 64)), pin=pin)
    assert run(solver, 1)[0] is None
    message, _ = run(solver, 1)
    assert message and column(message) in solver.state.geom.bcells


@pytest.mark.parametrize("case", ["rows", "overflowing reduction"])
def test_an_unproved_resident_run_checks_where_the_unknown_lives(case):
    """A finish over a list of rows (a band rank's) or one whose reduction
    overflows on finite values: no proof, so the run ends with one
    ``finite_check`` launch and one flag back (a program with no declared
    reduction: ``test_gpu.py``); the unknown being finite, it raises
    nothing, and only where the flag says "look" (a sum of 1e308s
    overflows) does the array come back."""
    if case == "rows":
        solver = program("gpu", pin="gpu")
        solver.state.owned_comps = np.arange(ND * NB)
    else:
        solver = program("gpu", k=(0.0, 0.0), speed=0.0, initial=np.full((ND * NB, 64), 1e308),
                         pin="gpu")
    dev = solver.state.device
    solver.run(2)
    assert solver.state.u_proved_finite == 0
    assert [r.kernel for r in dev.profiler.launches][-3:] == ["I_interior_step", "finish_step",
                                                             "finite_check"]
    assert [t.nbytes for t in dev.profiler.transfers].count(8) == 1
    assert dev.buffers["u"].on_device == (case != "overflowing reduction")


def test_a_degraded_device_step_leaves_the_unknown_unproved(run):
    """The host finish proved the first step; the second's launch faults
    and the step degrades to the host, where the wall overflows: the proof
    of the first step does not stand for it."""
    from repro.runtime.faults import fault_run
    from repro.util.context import current

    solver = program("gpu", k=(0.0, 0.0), speed=0.0, dt=1e10, wall=1e300,
                     initial=np.zeros((ND * NB, 64)), pin="cpu")
    assert run(solver, 1) == (None, 0)
    with fault_run("kernel:device=gpu0,op=launch,at=1", seed=1):
        message, _ = run(solver, 1)
        assert len(current().resilience.degraded) == 1
    assert message and column(message) in solver.state.geom.bcells


# --------------------------------------------------------------------------
# what writes the unknown after the sweep
# --------------------------------------------------------------------------

def test_a_post_step_callback_that_writes_nan_on_the_last_step(run):
    def poison(state):
        if state.step_index == 3:
            state.u[2, 5] = np.nan

    message, _ = run(program(post=[poison]), 3)
    assert message and "at index (2, 5): " in message and "nan" in message


@pytest.mark.parametrize("write", ["item", "setter", "field"])
def test_a_write_between_runs_is_seen_by_run_zero(run, write):
    solver = program()
    assert run(solver, 2) == (None, 0)
    state = solver.state
    if write == "item":
        state.u[1, 3] = np.inf
    elif write == "setter":
        u = state.fields["I"].data.copy()
        u[1, 3] = np.inf
        state.u = u
    else:
        state.field("I").data[1, 3] = np.inf
    message, _ = run(solver, 0)
    assert message and "at index (1, 3): " in message and "inf" in message


# --------------------------------------------------------------------------
# what never proves it: the full check, as before
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["interp", "no reduction"])
def test_programs_without_a_proving_sweep_check_the_whole_unknown(run, case):
    """A healthy run sums the unknown once; a blow-up raises as before."""
    if case == "no reduction":
        healthy, unstable = decay_problem(nsteps=2).generate(), decay_problem(k=1e200).generate()
    else:
        healthy = program("interp")
        unstable = program("interp", k=(0.5, 1e200), initial=bump())
    assert run(healthy, 2) == (None, 1)
    assert run(unstable, 2)[0] is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target,pin", [*HOSTS, ("interp", None), ("rk2", None), ("rk4", None)])
def test_a_blow_up_warns_on_no_target(run, target, pin):
    """With a ``RuntimeWarning`` an error, the unstable run still ends in
    the health check's ``SolverError``, the same on every target: the
    interpreter's evaluation is as quiet as the C sweeps, RK stages too."""
    rk = target.startswith("rk")
    solver = program("cpu" if rk else target, k=(0.5, 1e200), initial=bump(), pin=pin,
                     stepper=target if rk else "euler")
    message, _ = run(solver, 2)
    # (rk4's four stages a step carry the bump to the wall)
    assert message and (target == "rk4" or column(message) not in solver.state.geom.bcells)
