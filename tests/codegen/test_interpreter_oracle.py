"""The interpreter oracle: generated code must match direct symbolic
evaluation on arbitrary equations.

Hypothesis composes random (linear, well-posed) conservation laws —
mixtures of reaction terms, advection with random velocities, diffusion,
math functions of coefficients — and both execution paths must produce the
same trajectories to round-off.  This pins the expression emitter against
an independent implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid


def build_problem(terms: list[str], seed: int, nsteps: int = 4) -> Problem:
    rng = np.random.default_rng(seed)
    p = Problem(f"oracle-{seed}")
    p.set_domain(2)
    p.set_steps(1e-3, nsteps)
    p.set_mesh(structured_grid((5, 4)))
    p.add_variable("u")
    p.add_coefficient("k", float(rng.uniform(0.1, 2.0)))
    p.add_coefficient("bx", float(rng.uniform(-1.0, 1.0)))
    p.add_coefficient("by", float(rng.uniform(-1.0, 1.0)))
    p.add_coefficient("D", float(rng.uniform(0.01, 0.5)))
    p.add_coefficient("q", lambda x: np.sin(3 * x[:, 0]) + x[:, 1])
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.DIRICHLET, float(rng.uniform(-1, 1)))
    p.set_initial("u", lambda x: np.cos(2 * x[:, 0]) * np.sin(x[:, 1]) + 1.5)
    p.set_conservation_form("u", " + ".join(terms))
    return p


TERM_POOL = [
    "-k*u",
    "q",
    "0.3*u",
    "-surface(upwind([bx;by], u))",
    "surface(diffuse(D, u))",
    "-surface(average(u))*0 + exp(0)*0",  # exercises math funcs, value 0
    "abs(k)*0.1",
    "-k*u*u*0 + sqrt(k)",  # sqrt of coefficient
]


@given(
    picks=st.lists(st.integers(min_value=0, max_value=len(TERM_POOL) - 1),
                   min_size=1, max_size=4, unique=True),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_generated_matches_interpreted(picks, seed):
    terms = [TERM_POOL[i] for i in picks]
    p1 = build_problem(terms, seed)
    gen = p1.generate(target="cpu")
    gen.run()
    p2 = build_problem(terms, seed)
    interp = p2.generate(target="interp")
    interp.run()
    a, b = gen.solution(), interp.solution()
    scale = max(np.abs(a).max(), 1.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


BTE_SHAPED = ("(Io[b] - I[d,b]) / tau[b]"
              " - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")


def build_indexed_problem(nd: int, nb: int, seed: int, nsteps: int = 3,
                          equation: str = BTE_SHAPED) -> Problem:
    """A BTE-shaped random problem: indexed unknown, per-index coefficients,
    known variables, relaxation + advection."""
    rng = np.random.default_rng(seed)
    p = Problem(f"oracle-idx-{seed}")
    p.set_domain(2)
    p.set_steps(1e-3, nsteps)
    p.set_mesh(structured_grid((4, 4)))
    d = p.add_index("d", (1, nd))
    b = p.add_index("b", (1, nb))
    from repro.dsl.entities import CELL, VAR_ARRAY

    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    p.add_coefficient("Sx", rng.uniform(-1, 1, nd), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", rng.uniform(-1, 1, nd), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", rng.uniform(0.2, 1.0, nb), VAR_ARRAY, index=[b])
    p.add_coefficient("tau", rng.uniform(0.5, 2.0, nb), VAR_ARRAY, index=[b])
    for r in (1, 2, 3, 4):
        p.add_boundary("I", r, BCKind.NEUMANN0)
    init = rng.uniform(0.5, 1.5, (nd * nb, 16))
    p.initial_values["I"] = init
    p.initial_values["Io"] = rng.uniform(0.5, 1.5, (nb, 16))
    p.set_conservation_form("I", equation)
    return p


@given(
    nd=st.integers(min_value=1, max_value=4),
    nb=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_indexed_generated_matches_interpreted(nd, nb, seed):
    g = build_indexed_problem(nd, nb, seed).generate(target="cpu")
    g.run()
    it = build_indexed_problem(nd, nb, seed).generate(target="interp")
    it.run()
    a, b = g.solution(), it.solution()
    scale = max(np.abs(a).max(), 1.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


class TestInterpreterTarget:
    def test_source_is_a_stub(self):
        p = build_problem(["-k*u"], 0)
        solver = p.generate(target="interp")
        assert "interpret_rhs" in solver.source
        assert "compute_rhs" not in solver.source

    def test_bte_through_interpreter(self, tiny_scenario):
        """The full BTE (indexed unknown, callbacks, symmetry) also agrees."""
        from repro.bte.problem import build_bte_problem

        p1, _ = build_bte_problem(tiny_scenario)
        u_gen = p1.solve().solution()
        p2, _ = build_bte_problem(tiny_scenario)
        solver = p2.generate(target="interp")
        solver.run()
        scale = np.abs(u_gen).max()
        assert np.abs(solver.solution() - u_gen).max() < 1e-12 * scale

    def test_rejects_rk(self):
        from repro.util.errors import CodegenError

        p = build_problem(["-k*u"], 1)
        p.set_stepper("rk2")
        with pytest.raises(CodegenError, match="forward Euler"):
            p.generate(target="interp")

    def test_rejects_order2(self):
        from repro.util.errors import CodegenError

        p = build_problem(["-surface(upwind([bx;by], u))"], 2)
        p.set_flux_order(2)
        with pytest.raises(CodegenError, match="order-1"):
            p.generate(target="interp")


# --------------------------------------------------------------------------
# the tabled, select-first, in-place cpu sweep against the interpreter, which
# evaluates every term per component with no rewrite: bit for bit — except
# where the surface statement folds through the divergence (ISSUE 21), which
# re-associates the products: there to rounding, and bit for bit against
# every other generated target
# --------------------------------------------------------------------------

def build_switch_problem() -> Problem:
    """Conditionals whose branches are not the two face sides: a tabled
    mask (``Sx[d] > 0``) choosing between a known variable and the unknown
    with a shared factor, and a full-index one between plain coefficients."""
    return build_indexed_problem(
        4, 3, seed=11, nsteps=4,
        equation="conditional(Sx[d] > 0, Io[b]*vg[b], I[d,b]*vg[b]) / tau[b]"
                 " - conditional(Sx[d]*vg[b] > 0.3, tau[b]*Sy[d], vg[b]) * I[d,b]"
                 " - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")


def test_cpu_rounds_to_interpreted_on_the_bte_hotspot(tiny_scenario):
    from repro.bte.problem import build_bte_problem

    cpu = build_bte_problem(tiny_scenario)[0].solve(target="cpu")
    assert cpu.tile.folds == 1 and cpu.tile.operands[0] == "fold_s0"  # one C tile
    interp = build_bte_problem(tiny_scenario)[0].solve(target="interp")
    np.testing.assert_allclose(cpu.solution(), interp.solution(), rtol=1e-13, atol=0)
    np.testing.assert_allclose(cpu.state.extra["T"], interp.state.extra["T"],
                               rtol=1e-13, atol=0)


def test_cpu_rounds_to_interpreted_with_non_side_conditionals():
    cpu = build_switch_problem().solve(target="cpu")
    tile = cpu.tile
    # the mask is a table, read as a select's condition in the C tile ...
    mask = f"a{tile.operands.index('tab_v1')}"
    assert tile.kinds[tile.operands.index("tab_v1")] == "k"  # a boolean, one per row
    assert f"const unsigned char *p1 = {mask} + " in tile.text and "(p1[0] ? " in tile.text
    assert tile.folds == 1 and "fold_s0" in tile.operands  # ... and the upwind's is folded
    interp = build_switch_problem().solve(target="interp")
    np.testing.assert_allclose(cpu.solution(), interp.solution(), rtol=1e-13, atol=0)


def test_cpu_equals_interpreted_bitwise_where_nothing_folds():
    """The same indexed problem with a central flux — both sides read on
    their own, no upwinded side — keeps the two-sided body, and its bits."""
    def build():
        return build_indexed_problem(
            4, 3, seed=11, nsteps=4,
            equation="(Io[b] - I[d,b]) / tau[b]"
                     " - surface(vg[b] * Sx[d] * average(I[d,b]))")

    cpu = build().solve(target="cpu")
    assert "fold" not in cpu.source and "geom.gather_sides(" in cpu.source
    assert cpu.solution().tobytes() == build().solve(target="interp").solution().tobytes()


@pytest.mark.parametrize("build", [
    lambda: build_indexed_problem(3, 2, seed=5),  # 1/tau[b]: a (rows, 1) table
    build_switch_problem,                         # ... and a (rows, 1) mask
], ids=["indexed", "switch"])
def test_gpu_boundary_part_reads_tables_without_a_face_axis(build):
    """The boundary function every target calls evaluates the tables on the
    boundary faces' geometry; tables of coefficients alone have no face axis
    to slice.  (Interior and boundary parts are summed separately, and the
    interior one folded, so against the interpreter it is round-off, not bits
    — and bits against the serial target.)"""
    def solve(ranks):
        p = build()
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        if ranks:
            p.set_partitioning("bands", ranks, index="b")
        return p.solve()

    gpu, multi = solve(0), solve(2)
    assert "state.tables(boundary_tables, bfaces)" in gpu.source
    assert gpu.solution().tobytes() == multi.solution().tobytes()
    assert gpu.solution().tobytes() == build().solve(target="cpu").solution().tobytes()
    interp = build().solve(target="interp")
    np.testing.assert_allclose(gpu.solution(), interp.solution(), rtol=1e-13, atol=0)
