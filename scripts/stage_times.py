"""Per-stage timings of the spectral pipeline, with accuracy beside them.

For each size N and amplitude, draws potentials with i.i.d. uniform
entries from a fixed seed and times, one stage at a time:

    build_hamiltonian        H from b
    eigenvalues              linalg.tridiag_eigenvalues on H
    eigenvectors             eigen_decompose minus its eigenvalue stage
    kernel_from_spectral     r_0 .. r_{2N-1} from the spectral data
    invert_spectral          b-hat from the spectral data

Each stage time is the best of REPEATS calls per potential, and the
cell reports the median over potentials in milliseconds.  Next to the
times it records max |b-hat - b| over the potentials that
eigen_decompose accepted, and how many it rejected.  reference_ms times
a fixed loop of small numpy reductions before each cell: on a host that
changes speed, stage_ms / reference_ms is the comparable figure.

The run is stored under --label in the JSON file --output, beside the
runs already there, so one file can hold a parent and a changed
library measured with the same script.

Usage: python3 scripts/stage_times.py --label NAME --output FILE
                                      [--sizes 32 64 128] [--instances 8]
"""

import os

# one BLAS thread, as in the benchmark, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from lattice_bc import linalg  # noqa: E402
from lattice_bc.spectral import (ConvergenceFailure,  # noqa: E402
                                 build_hamiltonian, eigen_decompose,
                                 invert_spectral, kernel_from_spectral)

SEED = 20251018
AMPLITUDES = (0.1, 0.3)
REPEATS = 3
STAGES = ("build_hamiltonian", "eigenvalues", "eigenvectors",
          "kernel_from_spectral", "invert_spectral")


def best_ms(fn, *args):
    """Best wall time of REPEATS calls, and the last result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def reference_ms():
    data = np.arange(64.0)
    start = time.perf_counter()
    for i in range(300):
        float(np.sum(data[i % 7::3]))
    return (time.perf_counter() - start) * 1e3


def time_cell(rng, N, amplitude, instances):
    """Stage medians (ms), max |b-hat - b| and rejections for one cell."""
    times = {stage: [] for stage in STAGES}
    worst = 0.0
    rejected = 0
    for _ in range(instances):
        b = rng.uniform(-amplitude, amplitude, N)
        ms, H = best_ms(build_hamiltonian, b, N)
        times["build_hamiltonian"].append(ms)
        ms_values, _ = best_ms(linalg.tridiag_eigenvalues, H.diag,
                               np.ones(N - 1))
        times["eigenvalues"].append(ms_values)
        try:
            ms, sd = best_ms(eigen_decompose, H)
        except ConvergenceFailure:
            rejected += 1
            continue
        times["eigenvectors"].append(ms - ms_values)
        ms, _ = best_ms(kernel_from_spectral, sd, 2 * N - 1)
        times["kernel_from_spectral"].append(ms)
        ms, b_hat = best_ms(invert_spectral, sd)
        times["invert_spectral"].append(ms)
        worst = max(worst, float(np.max(np.abs(b_hat - b))))
    return {
        "N": N, "amplitude": amplitude, "instances": instances,
        "rejected": rejected,
        "stage_ms": {stage: statistics.median(values) if values else None
                     for stage, values in times.items()},
        "max_abs_err": worst,
    }


def measure(sizes, instances):
    rng = np.random.default_rng(SEED)
    cells = []
    for N in sizes:
        for amplitude in AMPLITUDES:
            ref = statistics.median(reference_ms() for _ in range(5))
            cell = time_cell(rng, N, amplitude, instances)
            cell["reference_ms"] = ref
            cells.append(cell)
            stages = "  ".join(f"{stage} {ms:.3f}" if ms is not None
                               else f"{stage} -"
                               for stage, ms in cell["stage_ms"].items())
            print(f"N={N:<4} amp={amplitude:<4} {stages}  "
                  f"max|b-hat - b| {cell['max_abs_err']:.2e}  "
                  f"rejected {cell['rejected']}/{instances}")
    return {
        "seed": SEED, "repeats": REPEATS, "unit": "ms",
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "cells": cells,
    }


def main():
    parser = argparse.ArgumentParser(
        description="per-stage spectral pipeline timings with accuracy")
    parser.add_argument("--label", required=True,
                        help="key of this run in the output file")
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--instances", type=int, default=8)
    args = parser.parse_args()
    run = measure(args.sizes, args.instances)
    doc = (json.loads(args.output.read_text()) if args.output.exists()
           else {"script": "scripts/stage_times.py", "runs": {}})
    doc["runs"][args.label] = run
    args.output.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
