"""Coarse 3-D phonon BTE (paper Sec. III-A: "Some very coarse-grained
3-dimensional runs were also performed successfully").

A small silicon cube with a Gaussian hot spot on the top (z-max) face, a
cold isothermal bottom, and specular symmetry on the four sides, using the
product direction set the paper quotes for 3-D ("around 20 x 20 = 400" at
full scale; this demo uses 8 x 4 = 32 ordinates).

Run:  python examples/bte_3d.py [--steps N]
"""

import argparse

import numpy as np

from repro.bte import build_bte_problem, coarse_3d_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=120)
    args = parser.parse_args()

    scenario = coarse_3d_scenario(
        nx=10, ny=10, nz=10, n_azimuthal=8, n_polar=4,
        n_freq_bands=6, dt=2e-12, nsteps=args.steps,
    )
    scenario.lx = scenario.ly = scenario.lz = 60e-6
    scenario.sigma = 20e-6

    problem, model = build_bte_problem(scenario)
    ncells = scenario.nx * scenario.ny * scenario.nz
    print(f"3-D BTE: {scenario.nx}^3 cells x {model.dirs.ndirs} ordinates x "
          f"{model.bands.nbands} bands = {model.ncomp * ncells:,} DOF")
    print(f"equation: {problem.equation.source}")

    solver = problem.solve()
    T = solver.state.extra["T"].reshape(scenario.nz, scenario.ny, scenario.nx)

    print(f"\nafter {args.steps} steps "
          f"({args.steps * scenario.dt * 1e9:.2f} ns):")
    print(f"  T range [{T.min():.4f}, {T.max():.4f}] K")
    print("\nhorizontal-slice maxima (bottom -> top):")
    for k in range(scenario.nz):
        bar = "#" * int((T[k].max() - scenario.T0) / max(T.max() - scenario.T0, 1e-12) * 40)
        print(f"  z={k:2d}  Tmax={T[k].max():9.4f} K  {bar}")

    # the bulb under the spot is symmetric in both lateral directions
    assert np.allclose(T, T[:, :, ::-1], rtol=1e-9)
    assert np.allclose(T, T[:, ::-1, :], rtol=1e-9)
    print("\nlateral mirror symmetry confirmed (the four specular walls)")


if __name__ == "__main__":
    main()
