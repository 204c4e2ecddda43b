"""Ownership of a device-resident unknown: every host access is correct,
and a step nobody looks at moves only the five small arrays.

With ``finish_step`` on the device the unknown lives there across steps and
the host array is stale.  Whatever the host then does through the public
surface — read ``state.u``, write through the array it returned, assign
``state.u``, ``solution()``, cut a checkpoint and restore it into a fresh
solver, read ``u`` from a post-step hook that declared nothing — must see and
leave exactly what a twin solver pinned to the paper's plan (the unknown
down and back every step) sees and leaves, bit for bit; and a window with no
host access moves exactly ``Io``, ``beta``, ``du_bdry`` down and
``band_energy``, ``u_bdry`` up per step.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte.problem import build_bte_problem, hotspot_scenario

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=40)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

DOWN = {"var_Io", "var_beta", "du_bdry"}
UP = {"band_energy", "u_bdry"}


class Solver:
    """One hybrid solver under ``plan`` (where ``finish_step`` is pinned),
    with a post-step probe that reads ``u`` while switched on and a record
    of every transfer by buffer name (``moved``) and the step it was made
    in (``when``)."""

    def __init__(self, plan: str, ranks: int = 0):
        self.plan, self.ranks = plan, ranks
        self.probe_on = False
        self.seen: list[bytes] = []
        self.moved: list[tuple[str, str]] = []
        self.when: list[int] = []
        self.solver = self.generate()

    def generate(self):
        problem, _ = build_bte_problem(hotspot_scenario(
            nx=5, ny=5, ndirs=4, n_freq_bands=3, dt=1e-12, nsteps=2))
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        problem.extra["placement_override"] = {"finish_step": self.plan}
        if self.ranks:
            problem.set_partitioning("bands", self.ranks, index="b")
        problem.add_post_step(self.probe, name="undeclared_probe")
        solver = problem.generate()
        assert solver.placement.device["finish_step"] == self.plan
        device = solver.state.device
        if device is not None:
            for kind in ("h2d", "d2h"):
                setattr(device, kind, self.recording(solver.state, kind, getattr(device, kind)))
        return solver

    def recording(self, state, kind, op):
        def traced(name, *args, **kwargs):
            self.moved.append((kind, name))
            self.when.append(state.step_index)
            return op(name, *args, **kwargs)
        return traced

    def probe(self, state):
        if self.probe_on and not (state.comm is not None and state.comm.rank):
            self.seen.append(state.u.tobytes())

    @property
    def state(self):
        return self.solver.state

    def observe(self) -> tuple:
        """Everything a user can look at, through the public surface."""
        st = self.state
        return (self.solver.solution().tobytes(),
                np.asarray(st.extra.get("T", ())).tobytes(),
                st.fields["Io"].data.tobytes(), st.fields["beta"].data.tobytes(),
                st.step_index, tuple(self.seen))


OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 3)),
    st.tuples(st.just("run_probed"), st.integers(1, 2)),
    st.tuples(st.just("read"), st.just(0)),
    st.tuples(st.just("write_through"), st.integers(0, 10_000)),
    st.tuples(st.just("assign"), st.integers(0, 10_000)),
    st.tuples(st.just("solution"), st.just(0)),
    st.tuples(st.just("checkpoint"), st.just(0)),
)


def apply(s: Solver, op: str, arg: int, tmp_path) -> object:
    if op == "run":
        s.solver.run(arg)
    elif op == "run_probed":
        s.probe_on = True
        s.solver.run(arg)
        s.probe_on = False
    elif op == "read":
        return s.state.u.tobytes()
    elif op == "write_through":
        # a write the state cannot see: through the array a read returned
        view = s.state.u
        rows = np.random.default_rng(arg).integers(0, len(view), 3)
        view[rows] *= 1.0 + 1e-3 * np.random.default_rng(arg).random(view.shape[1])
    elif op == "assign":
        s.state.u = s.solver.solution() * (1.0 + 1e-4 * (arg % 7))
    elif op == "solution":
        return s.solver.solution().tobytes()
    elif op == "checkpoint":
        path = tmp_path / f"ckpt_{s.plan}.npz"
        s.state.save_checkpoint(path)
        s.solver = s.generate()  # a fresh solver, resumed from the file
        s.state.restore_checkpoint(path)
    return None


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=8))
def test_every_observation_equals_the_paper_plan_twins(ops, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("residency")
    resident, twin = Solver("gpu"), Solver("cpu")
    for op, arg in ops:
        assert apply(resident, op, arg, tmp_path) == apply(twin, op, arg, tmp_path), op
        assert resident.observe() == twin.observe(), op
    # and once more after a run nobody looked at
    resident.solver.run(2)
    twin.solver.run(2)
    assert resident.observe() == twin.observe()


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(OPS, min_size=0, max_size=4), quiet=st.integers(1, 4))
def test_a_window_nobody_looks_at_moves_only_the_small_arrays(ops, quiet, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("residency")
    s = Solver("gpu")
    for op, arg in ops:
        apply(s, op, arg, tmp_path)
    s.solver.run(1)  # whatever the host did, this step hands the unknown over
    s.moved.clear()
    s.solver.run(quiet)
    down = [name for kind, name in s.moved if kind == "h2d"]
    up = [name for kind, name in s.moved if kind == "d2h"]
    flags = up.count("workspace:finite_flag")
    assert flags == 0  # the finish proved the unknown finite: the check moves nothing
    assert sorted(down) == sorted(list(DOWN) * quiet)
    assert sorted(n for n in up if not n.startswith("workspace:")) == sorted(list(UP) * quiet)
    # the first host access afterwards costs one fetch, the next step one upload
    s.moved.clear()
    s.state.u
    s.state.u
    assert s.moved == [("d2h", "u")]
    s.moved.clear()
    s.solver.run(1)
    assert s.moved.count(("h2d", "u")) == 1 and ("d2h", "u") not in s.moved


def test_the_paper_plan_moves_the_unknown_both_ways_every_step():
    s = Solver("cpu")
    s.solver.run(1)
    s.moved.clear()
    s.solver.run(3)
    assert s.moved.count(("h2d", "u")) == 3 and s.moved.count(("d2h", "u_new")) == 3
    assert not {name for _, name in s.moved} & (UP | {"du_bdry"})
    s.moved.clear()
    s.state.u  # the host already owns it: no transfer
    assert s.moved == []


@pytest.mark.parametrize("ranks", [2, 3])
def test_band_partitioned_ranks_agree_with_their_paper_plan_twins(ranks):
    """Each rank owns its device for one ``run()`` (which starts over from
    the initial state); what the merged state shows, and what a probe on
    rank 0 read mid-run, are the same bits."""
    resident, twin = Solver("gpu", ranks), Solver("cpu", ranks)
    for s in (resident, twin):
        s.solver.run(2)
        s.probe_on = True
        s.solver.run(2)
        s.probe_on = False
        s.solver.run(1)
    assert len(resident.seen) == 2 and resident.observe() == twin.observe()
    single = Solver("gpu")
    single.solver.run(1)
    assert single.solver.solution().tobytes() == resident.solver.solution().tobytes()


def test_a_blow_up_is_reported_from_the_device_with_the_host_checks_text():
    """On an unproved state ``check_health`` runs where the unknown lives;
    when the flag says so the array is fetched and the error reads as
    ``check_finite`` words it."""
    from repro.util.errors import SolverError

    s = Solver("gpu")
    s.solver.run(1)
    s.state.u_proved_finite = 0  # (what a finish that proved nothing leaves)
    s.moved.clear()
    s.state.check_health()  # finite: one flag came back, nothing else
    assert s.moved == [("d2h", "workspace:finite_flag")]
    s.state.device.buffers["u"].array[3, 7] = np.nan
    with pytest.raises(SolverError, match=r"non-finite value in 'I' at index \(3, 7\): "):
        s.state.check_health()


def test_on_a_proved_state_the_check_moves_nothing():
    """The resident finish proved the step's unknown finite: ``check_health``
    launches nothing and moves nothing, and the unknown stays on the device."""
    s = Solver("gpu")
    s.solver.run(2)
    launches = len(s.state.device.profiler.launches)
    s.moved.clear()
    s.state.check_health()
    assert s.state.u_proved_finite == 1 and s.moved == []
    assert len(s.state.device.profiler.launches) == launches
    assert s.state.device.buffers["u"].on_device


@pytest.mark.parametrize("where", ["interior", "boundary"])
def test_a_nan_a_resident_step_makes_is_reported_by_that_run(where):
    """An overflow inside the mesh (band 1 decays at 1e200 per second) or in
    a boundary cell's column (the FLUX wall turns to 1e300 at dt 1e10), made
    by a step whose finish stays on the device: the reductions are not
    finite, so the proof fails, and the same ``run()`` raises what
    ``check_finite`` says of the unknown, after one ``finite_check``."""
    from repro.util.errors import SolverError
    from repro.util.misc import check_finite
    from tests.codegen.test_health_flag import ND, NB, bump, column, program

    if where == "interior":
        solver = program("gpu", k=(0.5, 1e200), initial=bump(), pin="gpu")
    else:
        solver = program("gpu", k=(0.0, 0.0), speed=0.0, dt=1e10, wall=1e300,
                         initial=np.zeros((ND * NB, 64)), pin="gpu")
    solver.run(1)
    assert solver.state.u_proved_finite == 1
    with pytest.raises(SolverError) as raised:
        solver.run(1)
    assert [r.kernel for r in solver.device.profiler.launches][-1] == "finite_check"
    with pytest.raises(SolverError) as expected:
        check_finite("I", solver.state.u)
    assert str(raised.value) == str(expected.value)
    assert (column(str(raised.value)) in solver.state.geom.bcells) == (where == "boundary")


# --------------------------------------------------------------------------
# a degraded step hands ownership back
# --------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["oom", "kernel"]), op=st.sampled_from(["h2d", "launch"]),
       at=st.integers(1, 14), plan=st.sampled_from(["gpu", "cpu"]),
       ranks=st.sampled_from([0, 2]))
def test_a_fault_at_any_step_degrades_to_the_same_bits(kind, op, at, plan, ranks):
    """An injected device fault — in an upload, the interior launch or the
    finish launch, wherever ``at`` lands — re-executes the step on the
    host: digests equal the fault-free run's, the stale
    device copy is flagged (the sanitizer's RPR305 note fires for the case it
    was written for), and the step after starts with exactly one upload of
    the unknown."""
    from repro.runtime.faults import fault_run
    from repro.util.context import current
    from repro.verify import sanitize_run

    clean = Solver(plan, ranks)
    clean.solver.run(4)
    device = "gpu1" if ranks else "gpu0"
    faulted = Solver(plan, ranks)
    with fault_run(f"{kind}:device={device},op={op},at={at}", seed=at), sanitize_run() as san:
        faulted.solver.run(4)
        log = current().resilience
        degraded = [d for d in log.degraded if d["task"] == "interior_update"]
        assert sum(log.injected.values()) <= 1 and len(degraded) <= 1
    assert faulted.observe() == clean.observe()
    notes = [d for d in san.report.diagnostics if d.code == "RPR305"]
    if degraded or plan == "cpu":
        assert notes and all(d.severity == "info" for d in notes)
    if degraded and not ranks:
        after = degraded[0]["step"] + 1
        uploads = [move for step, move in zip(faulted.when, faulted.moved) if step == after]
        assert uploads.count(("h2d", "u")) == (1 if after < 4 else 0)


def test_without_the_sanitizer_a_degraded_step_costs_one_fetch_and_one_upload():
    """The unknown was resident when the launch faulted: the host fetches the
    pre-step state once, re-executes, and the next step uploads once; after
    that the unknown is resident again."""
    from repro.runtime.faults import fault_run

    s = Solver("gpu")
    # launches so far: two per step and the health check of run(2)
    with fault_run("kernel:device=gpu0,op=launch,at=6", seed=1):  # step 3's interior
        s.solver.run(2)
        s.moved.clear()
        s.solver.run(1)
        assert [m for m in s.moved if m[1] in ("u", "u_new")] == [("d2h", "u")]
        assert not s.state.device.buffers["u"].on_device
        s.moved.clear()
        s.solver.run(1)
        assert [m for m in s.moved if m[1] in ("u", "u_new")] == [("h2d", "u")]
        s.moved.clear()
        s.solver.run(1)
        assert not [m for m in s.moved if m[1] in ("u", "u_new")]
    twin = Solver("gpu")
    twin.solver.run(5)
    assert s.observe() == twin.observe()
