"""The interval spectral kernel vs the half-line kernel, entry by entry.

A finite interval of N sites with a Dirichlet wall cannot be told
apart from the half-line until a boundary signal has had time to reach
the wall and come back: the response kernels agree on indices up to
2N - 1, and the first disagreement, at index 2N, is exactly a unit
jump carried by the reflected wave.  The demo reconstructs the
interval kernel purely from eigenvalues and norming constants (the
prefix of order 2N that kernel_from_spectral returns, less the unit
wall echo it adds back at index 2N), tabulates it against the
half-line kernel, and then shows the same unit jump in the time domain
as the difference of the two boundary traces under a delta control.

Usage: python3 scripts/reflection_demo.py [--size 6] [--amplitude 0.5]
                                          [--seed 7]
"""

import argparse

import numpy as np

from lattice_bc import (build_hamiltonian, eigen_decompose,
                        kernel_from_spectral, response_kernel,
                        solve_interval, solve_semi_infinite)


def main():
    parser = argparse.ArgumentParser(
        description="first-reflection structure of the interval kernel")
    parser.add_argument("--size", type=int, default=6,
                        help="interval length N")
    parser.add_argument("--amplitude", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    N = args.size
    rng = np.random.default_rng(args.seed)
    b = rng.uniform(-args.amplitude, args.amplitude, N)

    sd = eigen_decompose(build_hamiltonian(b, N))
    # the interval kernel: kernel_from_spectral adds the unit wall echo
    # back at index 2N, so take it off again
    interval = kernel_from_spectral(sd, 2 * N)
    interval[2 * N] -= 1.0
    half = response_kernel(b, 2 * N)

    print(f"N = {N}, potential drawn uniform on "
          f"[-{args.amplitude}, {args.amplitude}], seed {args.seed}\n")
    print(f"{'s':>3} {'half-line r_s':>22} {'spectral r_s':>22} "
          f"{'difference':>12}")
    for s in range(2 * N + 1):
        note = "  <- wall echo" if s == 2 * N else ""
        print(f"{s:>3} {half[s]:>22.15g} {interval[s]:>22.15g} "
              f"{half[s] - interval[s]:>12.2e}{note}")

    agree = float(np.max(np.abs(half[:2 * N] - interval[:2 * N])))
    jump = half[2 * N] - interval[2 * N]
    print(f"\nmax disagreement on s <= {2 * N - 1}: {agree:.2e}")
    print(f"jump at s = {2 * N}: {jump:.15g} (theory: exactly 1)")

    T = 2 * N + 2
    f = np.zeros(T)
    f[0] = 1.0
    u = solve_semi_infinite(b, f).boundary_trace()
    v = solve_interval(b, N, f).boundary_trace()
    t_split = int(np.argmax(np.abs(u - v) > 1e-13)) + 1
    print(f"\ntime domain: delta-control traces first differ at "
          f"t = {t_split} (theory: 2N + 1 = {2 * N + 1}), "
          f"half-line minus interval {u[t_split - 1] - v[t_split - 1]:+.15g} "
          "(theory: +1, the reflected spike)")


if __name__ == "__main__":
    main()
