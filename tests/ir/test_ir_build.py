"""IR construction for the three generation flavours."""

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import (
    AssemblyLoops,
    CallbackCall,
    ComputeGhosts,
    DeviceSync,
    DeviceTransfer,
    GlobalReduction,
    HaloExchange,
    IRProgram,
    KernelLaunch,
    print_ir,
)


@pytest.fixture
def bte_problem_and_form(tiny_scenario):
    problem, _ = build_bte_problem(tiny_scenario)
    _, form = lower_conservation_form(
        problem.equation.source, problem.unknown, problem.entities, problem.operators
    )
    return problem, form


def nodes_of_type(root, cls):
    out = []

    def walk(n):
        if isinstance(n, cls):
            out.append(n)
        for c in n.children():
            walk(c)

    walk(root)
    return out


class TestCPUFlavour:
    def test_structure(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        ir = build_ir(problem, form, flavor="cpu")
        assert isinstance(ir, IRProgram)
        loops = nodes_of_type(ir, AssemblyLoops)
        assert len(loops) == 1
        assert loops[0].order == ["cells"]
        assert nodes_of_type(ir, ComputeGhosts)
        assert not nodes_of_type(ir, KernelLaunch)
        assert not nodes_of_type(ir, HaloExchange)

    def test_post_step_callback_present(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        ir = build_ir(problem, form, flavor="cpu")
        calls = nodes_of_type(ir, CallbackCall)
        assert any(c.name == "temperature_update" for c in calls)

    def test_assembly_order_respected(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        problem.set_assembly_loops(["b", "cells", "d"])
        ir = build_ir(problem, form, flavor="cpu")
        assert nodes_of_type(ir, AssemblyLoops)[0].order == ["b", "cells", "d"]


class TestDistributedFlavour:
    def test_cell_partition_has_halo(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        problem.set_partitioning("cells", 4)
        ir = build_ir(problem, form, flavor="distributed")
        assert nodes_of_type(ir, HaloExchange)
        assert not nodes_of_type(ir, GlobalReduction)

    def test_band_partition_has_reduction_not_halo(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        problem.set_partitioning("bands", 3, index="b")
        ir = build_ir(problem, form, flavor="distributed")
        assert not nodes_of_type(ir, HaloExchange)
        assert nodes_of_type(ir, GlobalReduction)


class TestGPUFlavour:
    def test_kernel_launch_and_transfers(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        ir = build_ir(problem, form, flavor="gpu")
        launches = nodes_of_type(ir, KernelLaunch)
        assert len(launches) == 1
        assert launches[0].asynchronous
        assert nodes_of_type(ir, DeviceSync)
        transfers = nodes_of_type(ir, DeviceTransfer)
        directions = {t.direction for t in transfers}
        assert directions == {"d2h", "h2d"}

    def test_post_step_mutations_go_back_to_device(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        ir = build_ir(problem, form, flavor="gpu")
        h2d = [t for t in nodes_of_type(ir, DeviceTransfer) if t.direction == "h2d"]
        arrays = set(sum((t.arrays for t in h2d), []))
        assert {"Io", "beta"} <= arrays


class TestComputeGhosts:
    """The listing says where a program's boundary code runs: a ghost step
    with user callbacks (Python wall functions, FLUX values) is marked as
    the CPU's (paper Sec. III-B); one of plain values is not."""

    MARK = "ghosts(I) (user callbacks on CPU)"

    def test_the_hot_spots_python_walls_are_marked(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        for flavor in ("cpu", "distributed", "gpu"):
            assert self.MARK in print_ir(build_ir(problem, form, flavor=flavor))

    @pytest.mark.parametrize("kind,marked", [("flux", True), ("dirichlet", False)])
    def test_one_kind_on_every_region(self, kind, marked):
        from repro.dsl.problem import Problem
        from repro.mesh.grid import structured_grid

        p = Problem(f"ghosts-{kind}")
        p.set_domain(2)
        p.set_mesh(structured_grid((3, 3)))
        p.add_variable("I")
        p.add_coefficient("bx", 1.0)
        p.add_coefficient("by", 0.5)
        for region in (1, 2, 3, 4):
            p.add_boundary("I", region, kind,
                           (lambda ctx: 0.0 * ctx.owner_values) if kind == "flux" else 1.0)
        p.set_conservation_form("I", "-surface(upwind([bx;by], I))")
        _, form = lower_conservation_form(p.equation.source, p.unknown, p.entities, p.operators)
        text = print_ir(build_ir(p, form))
        assert "ghosts(I)" in text and (self.MARK in text) == marked


class TestPrinting:
    def test_print_ir_is_indented_text(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        text = print_ir(build_ir(problem, form, flavor="gpu"))
        assert "program" in text
        assert "launch I_interior_step [async]" in text
        assert "for step = 1:" in text

    def test_unknown_flavour_rejected(self, bte_problem_and_form):
        problem, form = bte_problem_and_form
        from repro.util.errors import CodegenError

        with pytest.raises(CodegenError):
            build_ir(problem, form, flavor="tpu")

    def test_a_cached_source_states_no_run_count(self):
        """``nsteps`` is not in the cache key, so the printed loop names the
        symbol: a 5-step solve served the 3-step build's source reads as the
        5-step build does."""
        from repro.tune.cache import cache_scope

        def source(nsteps):
            scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4, nsteps=nsteps)
            return build_bte_problem(scenario)[0].generate().source

        with cache_scope():
            three, five = source(3), source(5)
        with cache_scope():
            fresh = source(5)
        assert three == five == fresh
        assert "for step = 1:nsteps" in five
