"""The build reads each fact once, on every finite-volume target.

``generate()`` emits the equation's statements once — the plan prices the
ones the interior then prints — and builds one :class:`SolverState`, the one
the solver is bound over: the placement is sized from the problem's spaces
and mesh, not from a state or a geometry of its own.  So a checkpoint restore is recorded
once per state that restores, on a device target as on its host twin.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.bte.problem import BTEScenario
from repro.codegen.emit import ExprEmitter
from repro.codegen.state import SolverState
from repro.fvm.geometry import FVGeometry
from repro.runtime.faults import fault_run
from repro.tune.cache import cache_scope
from repro.util.context import current


def problem(target: str, nsteps: int = 3, **extra):
    p, _ = build_bte_problem(hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                              nsteps=nsteps))
    if target.startswith("gpu"):
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
    if target in ("distributed", "gpu_distributed"):
        p.set_partitioning("bands", 2, index="b")
    p.extra.update(extra)
    assert p.resolve_target() == target
    return p


@pytest.mark.parametrize("target", ["cpu", "distributed", "gpu", "gpu_distributed"])
def test_generate_emits_once_and_builds_one_state(monkeypatch, target):
    """One emitter, one state and one geometry, the state's: the device
    plan is sized from the mesh."""
    built: Counter = Counter()
    geometries: list = []
    for cls in (ExprEmitter, SolverState, FVGeometry):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            if _name == "FVGeometry":
                geometries.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    p = problem(target)
    with cache_scope():  # a cold build: a warm one emits nothing
        solver = p.generate()
    # rank states are built by a run, not by generate()
    assert built == {"ExprEmitter": 1, "SolverState": 1, "FVGeometry": 1}
    assert geometries == [solver.state.geom] and solver.state.comm is None


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A serial snapshot of step 2."""
    directory = tmp_path_factory.mktemp("ckpt")
    problem("cpu", nsteps=2, checkpoint_every=2, checkpoint_dir=str(directory)).solve()
    return str(directory / "ckpt_step000002.npz")


def restores(target: str, snapshot: str) -> int:
    with fault_run(None):
        solver = problem(target, restore_from=snapshot).solve()
        assert solver.state.step_index == 2 + 3
        return current().resilience.restores


@pytest.mark.parametrize("device, host", [("gpu", "cpu"),
                                          ("gpu_distributed", "distributed")])
def test_a_restore_is_recorded_once_per_restoring_state(snapshot, device, host):
    """The solver's state restores once, and on a band run each rank state
    once more: a device target records exactly its host twin's count."""
    expected = {"cpu": 1, "distributed": 1 + 2}[host]
    assert restores(host, snapshot) == expected
    assert restores(device, snapshot) == expected


def test_the_device_boundary_part_binds_what_its_statement_reads(monkeypatch):
    """A known variable in the surface statement is read by the host's
    boundary part of a device step too: bound there from the state, on the
    boundary faces' owners — the device run agrees with the host's."""
    monkeypatch.setattr(BTEScenario, "equation", "(Io[b] - I[d,b]) / beta[b] - "
                        "surface(beta[b] * vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    host, device = problem("cpu").solve(), problem("gpu").solve()
    assert "var_beta = state.fields['beta'].data" in device.source
    np.testing.assert_allclose(device.solution(), host.solution(), rtol=1e-13, atol=0)
