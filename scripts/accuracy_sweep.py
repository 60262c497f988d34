"""Round-trip accuracy of the three inverse solvers vs draw amplitude.

For each (amplitude, horizon) cell, draws a batch of potentials with
i.i.d. uniform entries, regenerates each from its response kernel with
all three solvers, and tabulates the worst recovery error together
with degeneracy and admissibility counts.  The table makes the
conditioning story visible: kernels grow like amplitude^(2T-2), so
absolute errors climb steeply with both knobs while the moderate
corner stays near machine precision.

Usage: python3 scripts/accuracy_sweep.py [--instances 50] [--seed 42]
"""

import argparse

import numpy as np

from lattice_bc import (InversionError, characterize_response,
                        invert_factorization, invert_gelfand_levitan,
                        invert_krein, response_kernel)

AMPLITUDES = (0.25, 0.5, 1.0, 2.0)
HORIZONS = (4, 8, 12, 16)


def sweep_cell(rng, amplitude, T, instances):
    worst = {"krein": 0.0, "factorization": 0.0, "gelfand-levitan": 0.0}
    skipped = {name: 0 for name in worst}
    inadmissible = 0
    solvers = {
        "krein": invert_krein,
        "factorization": invert_factorization,
        "gelfand-levitan": invert_gelfand_levitan,
    }
    for _ in range(instances):
        b = rng.uniform(-amplitude, amplitude, T - 1)
        r = response_kernel(b, 2 * T - 2)
        if not characterize_response(r, T).admissible:
            inadmissible += 1
        for name, solver in solvers.items():
            try:
                err = float(np.max(np.abs(solver(r, T) - b)))
            except InversionError:
                skipped[name] += 1
                continue
            worst[name] = max(worst[name], err)
    return worst, skipped, inadmissible


def main():
    parser = argparse.ArgumentParser(
        description="worst-case inverse round-trip error per "
                    "(amplitude, horizon) cell")
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    header = (f"{'amp':>5} {'T':>3} {'krein':>10} {'factor':>10} "
              f"{'gl':>10} {'skipped':>12} {'inadm':>6}")
    print(header)
    print("-" * len(header))
    for amplitude in AMPLITUDES:
        for T in HORIZONS:
            rng = np.random.default_rng(args.seed + T)
            worst, skipped, inadmissible = sweep_cell(
                rng, amplitude, T, args.instances)
            skip_note = "/".join(
                str(skipped[k])
                for k in ("krein", "factorization", "gelfand-levitan"))
            print(f"{amplitude:>5} {T:>3} {worst['krein']:>10.1e} "
                  f"{worst['factorization']:>10.1e} "
                  f"{worst['gelfand-levitan']:>10.1e} "
                  f"{skip_note:>12} {inadmissible:>6}")
    print(f"\n{args.instances} instances per cell; skipped column counts "
          "degenerate or singular instances (krein/factor/gl); inadm "
          "counts kernels failing the unit-minor test at default "
          "tolerance.")


if __name__ == "__main__":
    main()
