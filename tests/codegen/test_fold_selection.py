"""When a surface statement folds through the divergence, and when not.

Only the structure of the equation decides (ISSUE 21): a statement folds
when every term is a product linear in the one upwinded side whose other
factors are step-invariant tables over the rows of the upwind choice, or do
not depend on the face.  Everything else keeps the two-sided tile body —
gather both sides, evaluate the flux on the faces, take the divergence — and
with it the source text and the solution bits of the commit before the fold:
``PINS`` holds the sha256 of ``solver.source`` and of the solution, recorded
at commit 9ec6bd0 (the parent of ISSUE 21) with

    PYTHONPATH=<parent checkout>/src python tests/codegen/test_fold_selection.py

(the module prints the table when run as a script).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dsl.entities import CELL, VAR_ARRAY
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid

BTE_SHAPED = ("(Io[b] - I[d,b]) / tau[b]"
              " - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")


def indexed_problem(equation: str, dim: int = 2, q=None) -> Problem:
    """A BTE-shaped problem (4 directions x 3 bands) with ``equation``."""
    rng = np.random.default_rng(11)
    nd, nb = 4, 3
    p = Problem("fold-selection")
    p.set_domain(dim)
    p.set_steps(1e-3, 4)
    p.set_mesh(structured_grid((4,) * dim))
    ncells = 4 ** dim
    d = p.add_index("d", (1, nd))
    b = p.add_index("b", (1, nb))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    p.add_coefficient("Sx", rng.uniform(-1, 1, nd), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", rng.uniform(-1, 1, nd), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", rng.uniform(0.2, 1.0, nb), VAR_ARRAY, index=[b])
    p.add_coefficient("tau", rng.uniform(0.5, 2.0, nb), VAR_ARRAY, index=[b])
    if q is not None:
        p.add_coefficient("q", q)
    for r in range(1, 2 * dim + 1):
        p.add_boundary("I", r, BCKind.DIRICHLET if r == 1 else BCKind.NEUMANN0,
                       0.8 if r == 1 else None)
    p.initial_values["I"] = rng.uniform(0.5, 1.5, (nd * nb, ncells))
    p.initial_values["Io"] = rng.uniform(0.5, 1.5, (nb, ncells))
    p.set_conservation_form("I", equation)
    return p


def scalar_problem(equation: str, order: int = 1, q=None) -> Problem:
    p = Problem("fold-selection-scalar")
    p.set_domain(2)
    p.set_steps(5e-3, 12)
    p.set_mesh(structured_grid((8, 6)))
    p.add_variable("u")
    p.add_coefficient("bx", 1.0)
    p.add_coefficient("by", 0.5)
    p.add_coefficient("D", 0.7)
    if q is not None:
        p.add_coefficient("q", q)
    p.add_boundary("u", 1, BCKind.DIRICHLET, 1.0)
    for r in (2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", lambda c: np.exp(-(((c[:, 0] - 0.3) / 0.12) ** 2)))
    p.set_flux_order(order)
    p.set_conservation_form("u", equation)
    return p


#: name -> builder of a problem whose surface statement must not fold
KEEP_TWO_SIDED = {
    # MUSCL: not linear in the unknown (tests/codegen/test_flux_order.py)
    "flux_order_2": lambda: scalar_problem("-surface(upwind([bx;by], u))", order=2),
    # both sides read, no upwinded one (tests/codegen/test_diffusion.py)
    "diffusion": lambda: scalar_problem("surface(diffuse(D, u))"),
    # a time-dependent volume source, an untabled upwind condition
    # (tests/codegen/test_function_coefficients.py)
    "function_source": lambda: scalar_problem(
        "q - surface(upwind([bx;by], u))", q=lambda x, t: x[:, 0] * (1.0 + t)),
    # the upwinded side *and* a side on its own: ``uw`` is selected from
    # the two gathers
    "side_read": lambda: indexed_problem(
        BTE_SHAPED + " - surface(0.1 * vg[b] * average(I[d,b]))"),
    "central_flux": lambda: indexed_problem(
        "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * Sx[d] * average(I[d,b]))"),
}

#: sha256 of (source, solution).  The solution digests are PR 21's parent's.
#: The source digests were taken again at PR 22, which changed the loop text
#: of every source (``state.phase``, ``state.end_step()``) and the
#: function-coefficient call (``eval_fcoef_q(points, t)``), and nothing of
#: ``compute_rhs`` otherwise (EXPERIMENTS.md, ISSUE 22) — and at PR 23, whose
#: tile loop iterates the state's tile plan, reads table rows by the plan's
#: selectors and adds the Euler update into ``u``'s own rows — and again when
#: every target came to hand a post-step callback its declared reduction
#: (the loop zips ``state.post_step_args``; a forward-Euler NumPy tile reduces
#: the rows it stored after its sweep) and a register's plain store became
#: ``np.copyto``, which refuses a complex value — and again when the IR header
#: came to print ``for step = 1:nsteps`` (the symbol, not the run's count) and
#: a host function to read a known variable as ``var_<name>``, bound once
#: from ``state.fields`` at its top — and again when every sweep became one
#: C call (a two-sided tile a loop over the faces, ``geom.face_loop``), its
#: text the call — and again when the boundary set came to take the owner
#: values alone (the sweep gathers them, has the FLUX values evaluated from
#: them, then the ghost values formed in place) and a table builder to be
#: handed its face set by name — and again when a host Euler sweep came to
#: return its proof that the unknown is finite (``return TILE(``, kept by the
#: step as ``state.u_proved_finite``) — and again when the tile lost its
#: owned-column operand and its scratch the column block that operand wrote
#: (a cell rank sweeps its own piece of the mesh) — and again when
#: ``compute_rhs`` came to have one form, a sweep that stores (its docstring
#: lost "returned, or"; an RK scheme's stages are sweeps of their own): the
#: solution digests are the parent's.
PINS = {
    "flux_order_2": (
        "a4e01ee1ca07c392830d7f9858326792a7d4162dc9b2944d15511d0d80a9265c",
        "d69c9aac5b7b2440fcab4d911fe29dce95dfd9198a557e4fa4c9f0c0e9b8bf8d"),
    "diffusion": (
        "826cbb19d3c8ffe33478298461128b1f27dc11dc6beb7ddc024720545a82700e",
        "694bf3ebbbba08c9133e9268f2cc110b6c08c95734ddd8f0fd646136882829ba"),
    "function_source": (
        "20d4513b3a3a3b420a0ab5527085be5cdb1f8c67bdb793e7d997b872a9b49141",
        "53ab3aebeb52fb7ed9b369a67b5427018a1495ca78543b6baae771f2657f50b8"),
    "side_read": (
        "a7c1fc35d3b809c8e8dca446c3a1c8c87f48c5d9584d091e7f498f457879b97d",
        "56f08cdaa8a848bb1e9c7fc3c8fd433a6f9ce547753b3b1b7aa529c135eaff63"),
    "central_flux": (
        "552722ca5c210f6a14551b927be0c099536b5db005efff4f3f0dc70b81953330",
        "3c9ccdf0b09d8861a9fedb25efe190d349edc2ff4981a5eab1e6ae360cbea844"),
    "time_dependent_face_coefficient": (
        "4a0467e68b9727a19acb9120a91bacc5d8e01c0bcf5b2e54308f39f21508d3a0",
        "54b593370fb9dea3fa75dce72851b33055c18b5acd79dbd40d24ae349fe98c4e"),
}


def digests(solver) -> tuple[str, str]:
    return (hashlib.sha256(solver.source.encode()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(solver.solution()).tobytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(KEEP_TWO_SIDED))
def test_unfolded_statements_keep_parent_bytes(case):
    solver = KEEP_TWO_SIDED[case]().solve(target="cpu")
    assert "kernels.fold_upwind(" not in solver.source
    assert "compute_boundary_contribution" not in solver.source
    assert "faces = geom.face_loop('all')" in solver.source
    assert solver.tile.shape == "faces"  # a two-sided tile: a loop over the faces
    assert digests(solver) == PINS[case]


def test_time_dependent_face_coefficient_selects_from_two_gathers():
    """``q(x, t)`` in the flux cannot be tabled, so nothing folds.  The
    parent gathered the upwinded side through ``upw`` (the branch the fold
    replaced); the two-sided body selects it from both gathers — another
    text, the same values: the solution keeps the parent's bits."""
    solver = indexed_problem(
        "(Io[b] - I[d,b]) / tau[b] - surface(q * vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
        q=lambda x, t: 1.0 + x[:, 0] + 10.0 * t).solve(target="cpu")
    assert solver.tile.shape == "faces" and "fcoef_q_face" in solver.tile.operands
    assert "const double xw = (p" in solver.tile.text and " ? x1 : x2);" in solver.tile.text
    assert digests(solver)[1] == PINS["time_dependent_face_coefficient"][1]


@pytest.mark.parametrize("dim, equation", [
    (2, BTE_SHAPED),
    # two products over the same upwind choice: one operator each
    (2, BTE_SHAPED + " - surface(0.25 * tau[b] * upwind([Sx[d];Sy[d]], I[d,b]))"),
    # one space dimension: ``n.s[d]`` is a flat product, tabled for the fold
    (1, "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * upwind([Sx[d]], I[d,b]))"),
], ids=["bte", "two_products", "one_dimension"])
def test_linear_upwind_statements_fold(dim, equation):
    def solve(target=None, gpu=False):
        p = indexed_problem(equation, dim)
        if gpu:
            p.enable_gpu()
            p.extra["gpu_force_offload"] = True
        return p.solve(target=target)

    cpu = solve("cpu")
    terms = equation.count("upwind(")
    # one folded operator per upwind term, each applied once by the C tile
    assert cpu.source.count("kernels.fold_upwind(") == terms
    assert cpu.tile.folds == terms and cpu.tile.text.count("double *restrict f = w + ") == terms
    assert "gather_sides" not in cpu.source and "surface_divergence" not in cpu.source
    # one step shape: bit for bit on the hybrid target, rounding against the
    # interpreter, which evaluates the flux on the faces
    gpu = solve(gpu=True)
    assert gpu.source.count("kernels.fold_upwind(") == terms
    assert gpu.tile == cpu.tile  # one library for both targets
    assert gpu.solution().tobytes() == cpu.solution().tobytes()
    np.testing.assert_allclose(cpu.solution(), solve("interp").solution(),
                               rtol=1e-13, atol=0)


if __name__ == "__main__":  # the pins, from whatever checkout is on the path
    cases = dict(KEEP_TWO_SIDED, time_dependent_face_coefficient=lambda: indexed_problem(
        "(Io[b] - I[d,b]) / tau[b] - surface(q * vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
        q=lambda x, t: 1.0 + x[:, 0] + 10.0 * t))
    print("PINS = {")
    for name, build in cases.items():
        source, solution = digests(build().solve(target="cpu"))
        print(f'    "{name}": (\n        "{source}",\n        "{solution}"),')
    print("}")
