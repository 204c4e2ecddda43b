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
#: selectors and adds the Euler update into ``u``'s own rows.
PINS = {
    "flux_order_2": (
        "2720f1d1c0705a671e7f341a74201eeb2f625b90c3270881c03626b892665659",
        "d69c9aac5b7b2440fcab4d911fe29dce95dfd9198a557e4fa4c9f0c0e9b8bf8d"),
    "diffusion": (
        "b4b4452ca137b2cb052eba9ad96f8a2b44786e73194ae2b46c80341405a25202",
        "694bf3ebbbba08c9133e9268f2cc110b6c08c95734ddd8f0fd646136882829ba"),
    "function_source": (
        "8dbfe04411bb84bf3ff4b6524f26c362f449aee8b5bf1b4ded14b59fa54ef740",
        "53ab3aebeb52fb7ed9b369a67b5427018a1495ca78543b6baae771f2657f50b8"),
    "side_read": (
        "fad806abdf222a11ed0800104d96ca64ea52183fe581793377c4d579e188aeba",
        "56f08cdaa8a848bb1e9c7fc3c8fd433a6f9ce547753b3b1b7aa529c135eaff63"),
    "central_flux": (
        "fae49810a26760e910ece049d40244d6545f20741ed70d224ff02050a498f5d2",
        "3c9ccdf0b09d8861a9fedb25efe190d349edc2ff4981a5eab1e6ae360cbea844"),
    "time_dependent_face_coefficient": (
        "94dd59d557c8b5ec7fec7cee14cf53aede66a97742c9089f79fee1f779039045",
        "54b593370fb9dea3fa75dce72851b33055c18b5acd79dbd40d24ae349fe98c4e"),
}


def digests(solver) -> tuple[str, str]:
    return (hashlib.sha256(solver.source.encode()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(solver.solution()).tobytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(KEEP_TWO_SIDED))
def test_unfolded_statements_keep_parent_bytes(case):
    solver = KEEP_TWO_SIDED[case]().solve(target="cpu")
    assert "kernels.fold_upwind(" not in solver.source
    assert "kernels.apply_folded(" not in solver.source
    assert "compute_boundary_contribution" not in solver.source
    assert "geom.gather_sides(u, ghost, sel, out=(fu, fv))" in solver.source
    assert solver.tile is None  # a two-sided tile is never C
    assert digests(solver) == PINS[case]


def test_time_dependent_face_coefficient_selects_from_two_gathers():
    """``q(x, t)`` in the flux cannot be tabled, so nothing folds.  The
    parent gathered the upwinded side through ``upw`` (the branch the fold
    replaced); the two-sided body selects it from both gathers — another
    text, the same values: the solution keeps the parent's bits."""
    solver = indexed_problem(
        "(Io[b] - I[d,b]) / tau[b] - surface(q * vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
        q=lambda x, t: 1.0 + x[:, 0] + 10.0 * t).solve(target="cpu")
    assert "kernels.apply_folded(" not in solver.source and "fcoef_q_face" in solver.source
    assert ("uw = np.where(kernels.rows_of(tab_s0, rows_d, None), u1, u2)"
            in solver.source)
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
    assert cpu.source.count("ctile.pack(kernels.fold_upwind(") == terms
    assert cpu.tile.folds == terms and cpu.tile.text.count("double *restrict f = w + ") == terms
    assert "gather_sides" not in cpu.source and "surface_divergence" not in cpu.source
    # one step shape: bit for bit on the hybrid target, rounding against the
    # interpreter, which evaluates the flux on the faces
    gpu = solve(gpu=True)
    assert gpu.source.count("ctile.pack(kernels.fold_upwind(") == terms
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
