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

from lattice_bc.cli import roundtrip_report

AMPLITUDES = (0.25, 0.5, 1.0, 2.0)
HORIZONS = (4, 8, 12, 16)


def sweep_cell(seed, amplitude, T, instances):
    """One cell: the `lattice-bc roundtrip --seed <seed+T>` report, tallied."""
    report = roundtrip_report(seed + T, instances, T, amplitude)
    methods = report["methods"].items()
    worst = {name: entry["max_abs_error"] or 0.0 for name, entry in methods}
    skipped = {name: len(entry["failures"]) for name, entry in methods}
    inadmissible = len(report["characterization"]["inadmissible_instances"])
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
            worst, skipped, inadmissible = sweep_cell(
                args.seed, amplitude, T, args.instances)
            skip_note = "/".join(str(n) for n in skipped.values())
            print(f"{amplitude:>5} {T:>3} {worst['krein']:>10.1e} "
                  f"{worst['factorization']:>10.1e} "
                  f"{worst['gelfand_levitan']:>10.1e} "
                  f"{skip_note:>12} {inadmissible:>6}")
    print(f"\n{args.instances} instances per cell; skipped column counts "
          "degenerate or singular instances (krein/factor/gl); inadm "
          "counts kernels failing the unit-minor test at default "
          "tolerance.")


if __name__ == "__main__":
    main()
