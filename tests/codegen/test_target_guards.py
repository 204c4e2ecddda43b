"""Target validation guards: unsupported configurations fail loudly."""

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.util.errors import CodegenError, ConfigError


@pytest.fixture
def scenario():
    return hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=4,
                            dt=1e-12, nsteps=2)


class TestStepperGuards:
    """Only the CPU serial target implements RK schemes; the paper's
    distributed/GPU paths are forward-Euler and must say so instead of
    silently integrating with the wrong scheme."""

    def test_cpu_accepts_rk4(self, scenario):
        problem, _ = build_bte_problem(scenario)
        problem.set_stepper("rk4")
        solver = problem.generate()
        assert solver.target_name == "cpu"
        solver.run(1)

    def test_gpu_rejects_rk(self, scenario):
        problem, _ = build_bte_problem(scenario)
        problem.set_stepper("rk2")
        problem.enable_gpu()
        with pytest.raises(CodegenError, match="forward-Euler"):
            problem.generate()

    def test_distributed_rejects_rk(self, scenario):
        problem, _ = build_bte_problem(scenario)
        problem.set_stepper("rk4")
        problem.set_partitioning("bands", 2, index="b")
        with pytest.raises(CodegenError, match="forward-Euler"):
            problem.generate()

    def test_gpu_multi_rejects_rk(self, scenario):
        problem, _ = build_bte_problem(scenario)
        problem.set_stepper("rk2")
        problem.enable_gpu()
        problem.set_partitioning("bands", 2, index="b")
        with pytest.raises(CodegenError, match="forward-Euler"):
            problem.generate()

    @pytest.mark.parametrize("target", ["cpu", "gpu", "interp", "distributed"])
    def test_an_unknown_stepper_fails_before_anything_is_built(self, scenario, target,
                                                               monkeypatch):
        """Every target reads the one table of schemes: a name it lacks is
        the configuration's error, with the names there are, raised before
        lowering or a C build starts."""
        from repro.codegen import ctile

        problem, _ = build_bte_problem(scenario)
        problem.set_stepper("leapfrog")
        if target == "gpu":
            problem.enable_gpu()
        elif target == "distributed":
            problem.set_partitioning("cells", 2)
        monkeypatch.setattr(ctile, "build", lambda text: pytest.fail("a C build started"))
        with pytest.raises(ConfigError, match="'leapfrog'; available: .*'rk2'") as err:
            problem.generate(target if target == "interp" else None)
        assert err.value.code == "RPR001"


class TestTargetNames:
    def test_unknown_target(self):
        from repro.codegen import make_target

        with pytest.raises(CodegenError, match="unknown codegen target"):
            make_target("fpga")

    def test_explicit_target_override(self, scenario):
        problem, _ = build_bte_problem(scenario)
        solver = problem.generate(target="cpu")
        assert solver.target_name == "cpu"


class TestMultiGPUPreStep:
    def test_pre_step_callbacks_run_on_every_rank(self, scenario):
        import threading

        counts = {"n": 0}
        lock = threading.Lock()

        def tick(state):
            with lock:
                counts["n"] += 1

        problem, _ = build_bte_problem(scenario)
        problem.add_pre_step(tick)
        problem.enable_gpu()
        problem.set_partitioning("bands", 2, index="b")
        problem.solve()
        assert counts["n"] == 2 * scenario.nsteps  # every rank, every step
