"""Common-subexpression hoisting in emitted code."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.codegen.emit import ExprEmitter
from repro.ir.lowering import lower_conservation_form


def _is_flux_line(line: str) -> bool:
    """The surface statement of the tile body."""
    return line.strip().startswith("flux = ")


@pytest.fixture
def bte_solver(tiny_scenario):
    problem, _ = build_bte_problem(tiny_scenario)
    return problem.generate()


class TestHoisting:
    def test_projected_velocity_hoisted_once(self, bte_solver):
        """The upwind conditional references v.n three times; the generated
        source must compute it once."""
        src = bte_solver.source
        defs = [ln for ln in src.splitlines() if ln.strip().startswith("cse_s0 =")]
        assert len(defs) == 1
        # and the flux line reuses the temp instead of re-deriving it
        flux_line = next(ln for ln in src.splitlines() if _is_flux_line(ln))
        assert flux_line.count("cse_s0") == 3
        assert "normal_x" not in flux_line  # folded into the temp
        # both sit inside the row-tile loop: the temp is tile-sized
        tile_loop = src.index("for sel in kernels.row_tiles(")
        assert tile_loop < src.index("cse_s0 =") < src.index(flux_line)

    def test_cse_can_be_disabled(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        _, form = lower_conservation_form(
            problem.equation.source, problem.unknown, problem.entities,
            problem.operators,
        )
        em = ExprEmitter(problem, form)
        with_cse = em.emit_sum(form.surface_terms, "surface")
        without = em.emit_sum(form.surface_terms, "surface", cse=False)
        assert with_cse.prelude and not without.prelude
        assert "cse_" not in without.code

    def test_solution_independent_of_cse(self, tiny_scenario):
        """Hoisting must not change a single bit of the result."""
        from repro.codegen.cpu_serial import CPUSerialTarget

        p1, _ = build_bte_problem(tiny_scenario)
        ref = p1.solve().solution()

        # hand-build a solver with CSE disabled by patching the source
        p2, _ = build_bte_problem(tiny_scenario)
        solver = p2.generate()
        _, form = lower_conservation_form(
            p2.equation.source, p2.unknown, p2.entities, p2.operators
        )
        em = ExprEmitter(p2, form)
        plain = em.emit_sum(form.surface_terms, "surface", cse=False)
        src = solver.source
        flux_line = next(ln for ln in src.splitlines() if _is_flux_line(ln))
        indent = flux_line[: len(flux_line) - len(flux_line.lstrip())]
        new_src = []
        for ln in src.splitlines():
            if ln.strip().startswith("cse_s"):
                continue
            if _is_flux_line(ln):
                new_src.append(f"{indent}flux = {plain.code}")
            else:
                new_src.append(ln)
        solver.source = "\n".join(new_src)
        solver.recompile()
        solver.run()
        assert np.array_equal(solver.solution(), ref)

    def test_variant_expressions_not_hoisted(self):
        """Anything touching the unknown/face sides must stay inline."""
        from repro.dsl.problem import Problem
        from repro.fvm.boundary import BCKind
        from repro.mesh.grid import structured_grid

        p = Problem("no-hoist")
        p.set_domain(2)
        p.set_steps(1e-3, 1)
        p.set_mesh(structured_grid((4, 4)))
        p.add_variable("u")
        p.add_coefficient("k", 2.0)
        for r in (1, 2, 3, 4):
            p.add_boundary("u", r, BCKind.NEUMANN0)
        p.set_initial("u", 1.0)
        p.set_conservation_form("u", "-k*u - 0.5*k*u")
        solver = p.generate()
        # k*u is variant (contains the unknown): nothing to hoist
        assert "cse_" not in solver.source

    def test_gpu_kernel_also_hoists(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        solver = problem.generate()
        kernel_src = solver.source.split("def interior_kernel")[1]
        kernel_src = kernel_src.split("def ")[0]
        assert "cse_s0 =" in kernel_src
