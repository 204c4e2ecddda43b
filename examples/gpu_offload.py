"""Hybrid CPU/GPU generation: automatic placement, transfer planning,
asynchronous overlap, and the device profile (paper Secs. II-B, III-D).

Runs the BTE on the hybrid target with the simulated A6000, prints

* the min-cut placement decision (which tasks went to the GPU, with the
  CPU-pinned user callbacks),
* the automatic per-step transfer schedule ("Finch will automatically
  determine what variables need to be updated and communicated"),
* the generated kernel source,
* the virtual timeline breakdown (Fig. 8's categories) showing the
  boundary-callback work hidden under the kernel (Fig. 6),
* the device profiling table (the paper's SM-utilisation/throughput/FLOP
  table).

Run:  python examples/gpu_offload.py [--tiny]
"""

import argparse

import numpy as np

from repro.bte import build_bte_problem, hotspot_scenario
from repro.gpu.spec import A100


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="use a problem too small to be worth offloading "
                             "(shows the optimiser declining the GPU)")
    parser.add_argument("--a100", action="store_true",
                        help="use the A100 device model instead of the A6000")
    args = parser.parse_args()

    if args.tiny:
        scenario = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2,
                                    dt=1e-12, nsteps=4)
    else:
        scenario = hotspot_scenario(nx=24, ny=24, ndirs=12, n_freq_bands=10,
                                    dt=1e-12, nsteps=20)

    problem, model = build_bte_problem(scenario)
    problem.enable_gpu(A100 if args.a100 else None)

    solver = problem.generate()
    print(f"requested target: gpu     generated target: {solver.target_name}")
    print()
    print(solver.placement.report())

    if solver.state.device is None:  # every task on the CPU: the host form
        print("\nthe optimiser kept everything on the CPU for this size —")
        print("rerun without --tiny to see the offloaded path")
        return

    print()
    print(solver.transfer_plan.report())

    print("\ngenerated interior kernel:")
    in_kernel = False
    for line in solver.source.splitlines():
        if line.startswith("def interior_kernel"):
            in_kernel = True
        elif in_kernel and line.startswith("def "):
            break
        if in_kernel:
            print("  " + line)

    solver.run()

    print(f"\nvirtual timeline after {scenario.nsteps} steps "
          f"(device: {solver.device.spec.name}):")
    total = solver.state.host_clock.now()
    for phase, seconds in sorted(solver.state.gpu_phases.items()):
        print(f"  {phase:<22} {seconds * 1e3:8.3f} ms   "
              f"({seconds / total * 100:5.1f}%)")
    print(f"  {'total':<22} {total * 1e3:8.3f} ms")

    kernel_busy = sum(r.duration for r in solver.device.default_stream.records)
    boundary = solver.namespace["COST_BOUNDARY"] * scenario.nsteps
    print(f"\noverlap (Fig. 6): kernel busy {kernel_busy * 1e3:.3f} ms, "
          f"CPU boundary work {boundary * 1e3:.3f} ms,")
    print(f"  but the intensity phase cost only "
          f"{solver.state.gpu_phases['solve for intensity'] * 1e3:.3f} ms — "
          "they ran concurrently")

    print("\ndevice profile of the interior kernel "
          "(cf. the paper's profiling table):")
    print(solver.device.profiler.report(solver.kernel.name).table())

    # sanity: the physics matches the serial path
    p2, _ = build_bte_problem(scenario)
    ref = p2.solve().solution()
    err = np.max(np.abs(solver.solution() - ref)) / np.max(np.abs(ref))
    print(f"\nrelative deviation from the CPU-only solver: {err:.2e}")


if __name__ == "__main__":
    main()
