"""Cross-target differential harness, with and without injected faults.

The resilience claim worth testing is not "the run survives" but "the run
survives *and still computes the same physics*".  These tests push one
small BTE problem through every execution target — interpreted, serial
CPU, cell-distributed SPMD at 2 and 4 ranks, hybrid GPU and 4-rank
multi-GPU — and demand agreement within 1e-10 of the serial reference,
first fault-free and then through injected message drops, duplicates,
delays, rank stalls and device OOMs that the resilient runtime must
recover from.  Every fault kind perturbs only virtual time, never data,
so recovery is lossless and the differential bound holds.
"""

import os

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.runtime.faults import fault_run
from repro.util.context import current

TOL = 1e-10


def scenario():
    return hotspot_scenario(nx=10, ny=10, ndirs=8, n_freq_bands=6,
                            dt=1e-12, nsteps=5)


@pytest.fixture(scope="module")
def reference():
    """Serial CPU solution: the baseline every other target must match."""
    problem, _ = build_bte_problem(scenario())
    solver = problem.solve()
    return solver.solution(), solver.state.extra["T"]


def assert_matches(solver, reference, tol=TOL):
    u_ref, T_ref = reference
    scale = max(float(np.max(np.abs(u_ref))), 1.0)
    assert np.max(np.abs(solver.solution() - u_ref)) <= tol * scale
    assert np.allclose(solver.state.extra["T"], T_ref, atol=tol * scale)


def make_problem(configure=None):
    problem, _ = build_bte_problem(scenario())
    if configure is not None:
        configure(problem)
    return problem


def use_gpu(problem):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True


TARGETS = [
    pytest.param(None, "interp", id="interpreted"),
    pytest.param(None, "cpu", id="cpu_serial"),
    pytest.param(lambda p: p.set_partitioning("cells", 2), None, id="cpu_distributed_2"),
    pytest.param(lambda p: p.set_partitioning("cells", 4), None, id="cpu_distributed_4"),
    pytest.param(use_gpu, None, id="gpu_hybrid"),
]


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("configure,target", TARGETS)
    def test_target_matches_serial(self, reference, configure, target):
        solver = make_problem(configure).solve(target=target)
        assert_matches(solver, reference)


class TestFaultedEquivalence:
    """Same differential bound, now through injected-and-recovered faults."""

    def test_drop_and_duplicate_in_halo_exchange(self, reference):
        problem = make_problem(lambda p: p.set_partitioning("cells", 2))
        spec = "drop:rank=0,dest=1,tag=7,at=2;dup:rank=1,dest=0,tag=7,at=3"
        with fault_run(spec, seed=1):
            solver = problem.solve()
            log = current().resilience
            assert log.injected == {"drop": 1, "dup": 1}
            assert log.retries >= 1
            assert log.recovered >= 1
        # message recovery is lossless: bitwise agreement, not just 1e-10
        assert np.array_equal(solver.solution(), reference[0])

    def test_drop_delay_dup_at_four_ranks(self, reference):
        problem = make_problem(lambda p: p.set_partitioning("cells", 4))
        spec = ("drop:rank=0,tag=7,at=1;"
                "delay:rank=1,tag=7,at=2,delay=3e-5;"
                "dup:rank=3,tag=7,at=1")
        with fault_run(spec, seed=2):
            solver = problem.solve()
            log = current().resilience
            assert sum(log.injected.values()) == 3
        assert np.array_equal(solver.solution(), reference[0])

    def test_device_oom_degrades_to_cpu(self, reference):
        problem = make_problem(use_gpu)
        with fault_run("oom:device=gpu0,op=h2d,at=1", seed=3):
            solver = problem.solve()
            log = current().resilience
            assert log.injected == {"oom": 1}
            assert log.degraded and log.degraded[0]["to"] == "cpu"
        assert_matches(solver, reference)

    def test_probabilistic_chaos_recovers(self, reference):
        """Unbounded seeded drops on every rank-0 halo send still converge.

        The CI chaos job sweeps CHAOS_SEED to widen the sampled fault
        schedules; any seed must recover to the bitwise-identical answer.
        """
        seed = int(os.environ.get("CHAOS_SEED", "7"))
        problem = make_problem(lambda p: p.set_partitioning("cells", 2))
        with fault_run("drop:rank=0,tag=7,p=0.5,count=0", seed=seed):
            solver = problem.solve()
            log = current().resilience
            assert log.injected.get("drop", 0) >= 1
        assert np.array_equal(solver.solution(), reference[0])


class TestResilienceDemo:
    """The issue's acceptance demo: a fixed seed, one rank stall plus one
    device OOM in a 4-rank multi-GPU run, must reproduce the fault-free
    solution within 1e-10 with the recovery visible in the run report."""

    def test_stall_plus_oom_at_four_gpu_ranks(self, reference, tmp_path):
        problem = make_problem(use_gpu)
        problem.set_partitioning("bands", 4, index="b")
        problem.extra["checkpoint_every"] = 2
        problem.extra["checkpoint_dir"] = str(tmp_path)
        spec = "stall:rank=2,at=3,delay=5e-4;oom:device=gpu1,op=launch,at=2"
        with fault_run(spec, seed=42):
            solver = problem.solve()
            report = solver.run_report()
            paths = current().resilience.checkpoint_paths
        assert any(p.startswith(str(tmp_path)) for p in paths)
        assert solver.target_name == "gpu_distributed"
        assert_matches(solver, reference)

        section = report.resilience
        assert section is not None
        assert section["faults_injected"] == {"stall": 1, "oom": 1}
        degraded = section["degraded_placements"]
        assert len(degraded) == 1
        assert degraded[0]["task"] == "interior_update"
        assert degraded[0]["to"] == "cpu"
        assert degraded[0]["reason"] == "DeviceOOMError"
        # periodic per-rank checkpoints were cut during the faulted run
        assert section["checkpoints_written"] >= 4

    def test_demo_is_deterministic(self, tmp_path):
        """Same seed, same faults, same bits — run twice, compare exactly."""
        spec = "stall:rank=1,at=2,delay=2e-4;oom:device=gpu0,op=launch,at=1"

        def run():
            problem = make_problem(use_gpu)
            problem.set_partitioning("bands", 4, index="b")
            with fault_run(spec, seed=42):
                return problem.solve().solution()

        assert np.array_equal(run(), run())
