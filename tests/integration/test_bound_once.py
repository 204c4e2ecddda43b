"""Every cache a step reads against its cold twin (ISSUE 23).

What depends only on what ``bind`` or the previous step produced is built
once per ``SolverState`` / ``BoundarySet``: region contexts, the callbacks'
wall invariants, the tile plan, the closure's warm start.  Here the same
problem runs twice — as generated, and with a pre-step callback that throws
all of it away before every step (a fresh ``BoundarySet``, no plan, no
closure result) — and the solution and temperature must agree to the bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid

STEPS = 5


def hotspot(target: str):
    scenario = hotspot_scenario(nx=10, ny=10, ndirs=4, n_freq_bands=4, dt=1e-12,
                                nsteps=STEPS)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / scenario.nx)
    problem, _ = build_bte_problem(scenario)
    if target == "gpu":
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    elif target != "cpu":
        problem.set_partitioning(target, 2, **({"index": "b"} if target == "bands" else {}))
    return problem


@pytest.mark.parametrize("target", ["cpu", "gpu", "cells", "bands"])
def test_five_steps_equal_a_run_that_keeps_nothing(target):
    warm = hotspot(target).generate()
    warm.run(STEPS)

    cold_problem = hotspot(target)
    forgotten = []

    def forget(state):
        forgotten.append((len(state.bset._contexts), len(state.plans),
                          "closure" in state.extra))
        state.bset = state._build_boundary_set()
        state.plans.clear()
        state.extra.pop("closure", None)
        cold.namespace.get("TILE_PLANS", {}).clear()  # the device kernel's

    cold_problem.add_pre_step(forget)
    cold = cold_problem.generate()
    cold.run(STEPS)

    assert cold.solution().tobytes() == warm.solution().tobytes()
    assert np.asarray(cold.state.extra["T"]).tobytes() == \
        np.asarray(warm.state.extra["T"]).tobytes()
    # every step after a state's first found something to throw away
    assert len(forgotten) == STEPS * (1 if target in ("cpu", "gpu") else 2)
    assert sum(all(seen) for seen in forgotten) >= len(forgotten) - 2
    if target in ("cpu", "gpu"):
        state = warm.state
        assert state.plans and "closure" in state.extra
        assert any("wall_flux" in ctx.memo for ctx in state.bset._contexts.values())


def advection(memoise: bool, q):
    """Upwind advection whose inflow wall is a FLUX callback of a coefficient
    ``q``: ``flux = -q * u_owner`` on the faces of region 1."""
    p = Problem("bound-once")
    p.set_domain(2)
    p.set_steps(2e-3, 4)
    p.set_mesh(structured_grid((6, 5)))
    p.add_variable("u")
    p.add_coefficient("bx", 1.0)
    p.add_coefficient("by", 0.5)
    p.add_coefficient("q", q)
    derived = []

    def wall(ctx, u_owner, q_face, normals):
        def weight():
            derived.append(ctx.time)
            return q_face * np.abs(normals[:, 0])

        w = ctx.remember("weight", (q_face, normals), weight) if memoise else weight()
        return -(w * u_owner)

    p.add_callback(wall, name="wall")
    p.add_boundary("u", 1, BCKind.FLUX, "wall(u, q, normal)")
    for r in (2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", lambda c: 1.0 + c[:, 0])
    p.set_conservation_form("u", "-surface(upwind([bx;by], u))")
    return p, derived


def test_a_time_dependent_callback_argument_bypasses_the_memo():
    """A function coefficient resolves to a fresh array each step: the memo
    is bypassed and the values change step to step exactly as unmemoised.
    A constant one resolves to the same object: derived once."""
    def varying(x, t):
        return 1.0 + x[:, 1] + 100.0 * t

    (kept, kept_derived), (bare, bare_derived) = advection(True, varying), advection(False, varying)
    a, b = kept.solve(target="cpu"), bare.solve(target="cpu")
    assert a.solution().tobytes() == b.solution().tobytes()
    assert kept_derived == bare_derived and len(set(kept_derived)) == 4  # every step

    (kept, kept_derived), (bare, bare_derived) = advection(True, 1.5), advection(False, 1.5)
    a, b = kept.solve(target="cpu"), bare.solve(target="cpu")
    assert a.solution().tobytes() == b.solution().tobytes()
    assert len(kept_derived) == 1 and len(bare_derived) == 4
