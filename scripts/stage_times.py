"""Per-stage timings of the spectral and round-trip pipelines, with
accuracy beside them.

For each size and amplitude, draws potentials with i.i.d. uniform
entries from a fixed seed and times, one stage at a time.  The spectral
pipeline (size N, the interval length):

    build_hamiltonian        H from b
    coarse_multisection      eigen_decompose's first stage: Sturm
                             multisection to brackets
                             linalg._BRACKET_WIDTH of the scale wide
    twisted_refinement       the Rayleigh-quotient steps, one twisted
                             factorization (linalg._twist) each, of
                             every row for the first step and of the
                             rows whose shift moved for the later ones
    vector_pass              the rest of eigen_decompose: the twisted
                             pass over the rows whose final shift
                             moved, the unit vectors at the final
                             shifts, any bisection to roundoff, the
                             Gram-Schmidt pass on clusters, rho and
                             the checks
    kernel_from_spectral     r_0 .. r_{2N-1} from the spectral data
    invert_spectral          b-hat from the spectral data

The round-trip pipeline (size T, the horizon):

    response_kernel          r_0 .. r_{2T-2} from b
    characterize_response    the admissibility verdict on r
    invert_factorization     b-hat by layer stripping
    invert_krein             b-hat through the lambda = 0 trace
    shared                   the verdict and all three solvers on r, as
                             `lattice-bc invert` and the invert-deep
                             benchmark call them: one moment recursion
                             and readout, shared by four calls
    roundtrip_report[M]      cli.roundtrip_report over M draws, for M in
                             REPORT_SIZES

Each stage time is the best of REPEATS calls per potential, and the
cell reports the median over potentials in milliseconds (a report is
timed once per cell).  The three eigen_decompose stages come from one
call, timed by wrapping linalg._multisect and linalg._twist for its
duration.  Wrapping linalg._sturm_counts too, each spectral cell also
records the most Sturm passes the coarse stage made on one of its
potentials (coarse_passes), how many rows its eigensystems sent to
the second _multisect call, the bisection to roundoff (bisected_rows),
and how many rows the vector pass factored again because their final
shift moved (refactored_rows).
The inversion functions share the recursion and readout of the last
kernel they saw, so that cache is cleared before every call:
each single-stage time is a cold call, and shared shows what sharing
saves.  Next to the times it records max |b-hat - b|:
over the potentials eigen_decompose accepted, with how many it
rejected, for the spectral pipeline; per solver and per report, with
the inadmissible verdicts, raising solver calls and report failures,
for the round-trip pipeline.  reference_ms times a fixed loop of small
numpy reductions before each cell: on a host that changes speed,
stage_ms / reference_ms is the comparable figure.

The run is stored under --label in the JSON file --output, beside the
runs already there, so one file can hold a parent and a changed
library measured with the same script.

Usage: python3 scripts/stage_times.py --label NAME --output FILE
                                      [--pipeline spectral|roundtrip]
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

from lattice_bc import inversion, linalg  # noqa: E402
from lattice_bc.bc_ops import response_kernel  # noqa: E402
from lattice_bc.cli import roundtrip_report  # noqa: E402
from lattice_bc.inversion import (InversionError,  # noqa: E402
                                  characterize_response,
                                  invert_factorization,
                                  invert_gelfand_levitan, invert_krein)
from lattice_bc.spectral import (ConvergenceFailure,  # noqa: E402
                                 build_hamiltonian, eigen_decompose,
                                 invert_spectral, kernel_from_spectral)

SEED = 20251018
AMPLITUDES = (0.1, 0.3)
REPEATS = 3
STAGES = ("build_hamiltonian", "coarse_multisection", "twisted_refinement",
          "vector_pass", "kernel_from_spectral", "invert_spectral")
SOLVERS = {"invert_factorization": invert_factorization,
           "invert_krein": invert_krein}
REPORT_SIZES = (25, 500)


def clear_shared():
    """Empty what the inversion functions share between calls: the
    cache of answers."""
    inversion._cached_answers.cache_clear()


def best_ms(fn, *args):
    """Best wall time of REPEATS cold calls, and the last result."""
    best = float("inf")
    for _ in range(REPEATS):
        clear_shared()
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


def eigen_stages(H):
    """eigen_decompose(H) split into its three stages (ms), its Sturm
    passes, bisected and refactored rows, and its result.

    The first linalg._multisect call is the coarse stage; the first
    linalg._CORRECTIONS linalg._twist calls made outside
    linalg._twisted, one per Rayleigh-quotient step, are the
    refinement; everything else in the call, the _twist call that
    factors the moved rows at the final shifts and the _twist inside
    each _twisted call included, is the vector pass.  The rows of a
    second _multisect call are those bisected to roundoff.
    """
    spent = {"_multisect": [], "_twist": []}
    sizes = {name: [] for name in spent}  # rows per call
    originals = {name: getattr(linalg, name)
                 for name in (*spent, "_twisted", "_sturm_counts")}
    passes = []  # Sturm passes per _multisect call
    inside = []  # the _twisted calls running

    def timed(name):
        def wrapper(*args, **kwargs):
            if name == "_multisect":
                passes.append(0)
            start = time.perf_counter()
            try:
                return originals[name](*args, **kwargs)
            finally:
                if not inside:
                    spent[name].append(time.perf_counter() - start)
                    sizes[name].append(args[1].size)
        return wrapper

    def vectors(*args):
        inside.append(True)
        try:
            return originals["_twisted"](*args)
        finally:
            inside.pop()

    def counted(*args):
        passes[-1] += 1
        return originals["_sturm_counts"](*args)

    for name in spent:
        setattr(linalg, name, timed(name))
    linalg._twisted = vectors
    linalg._sturm_counts = counted
    try:
        start = time.perf_counter()
        sd = eigen_decompose(H)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(linalg, name, fn)
    coarse = spent["_multisect"][0]
    refine = sum(spent["_twist"][:linalg._CORRECTIONS])
    return {"coarse_multisection": coarse * 1e3,
            "twisted_refinement": refine * 1e3,
            "vector_pass": (total - coarse - refine) * 1e3}, {
                "coarse_passes": passes[0],
                "bisected_rows": sum(sizes["_multisect"][1:]),
                "refactored_rows": sum(
                    sizes["_twist"][linalg._CORRECTIONS:])}, sd


def best_stages_ms(H):
    """Per stage, the best of REPEATS eigen_stages calls; the counts
    and the result of the last."""
    runs = [eigen_stages(H) for _ in range(REPEATS)]
    return ({stage: min(run[0][stage] for run in runs)
             for stage in runs[0][0]}, *runs[-1][1:])


def time_spectral_cell(rng, N, amplitude, instances):
    """Stage medians (ms), max |b-hat - b| and rejections for one cell."""
    times = {stage: [] for stage in STAGES}
    worst = 0.0
    rejected = 0
    coarse_passes = 0
    bisected_rows = 0
    refactored_rows = 0
    for _ in range(instances):
        b = rng.uniform(-amplitude, amplitude, N)
        ms, H = best_ms(build_hamiltonian, b, N)
        times["build_hamiltonian"].append(ms)
        try:
            stage_ms, counts, sd = best_stages_ms(H)
        except ConvergenceFailure:
            rejected += 1
            continue
        coarse_passes = max(coarse_passes, counts["coarse_passes"])
        bisected_rows += counts["bisected_rows"]
        refactored_rows += counts["refactored_rows"]
        for stage, ms in stage_ms.items():
            times[stage].append(ms)
        ms, _ = best_ms(kernel_from_spectral, sd, 2 * N - 1)
        times["kernel_from_spectral"].append(ms)
        ms, b_hat = best_ms(invert_spectral, sd)
        times["invert_spectral"].append(ms)
        worst = max(worst, float(np.max(np.abs(b_hat - b))))
    return {
        "N": N, "amplitude": amplitude, "instances": instances,
        "rejected": rejected,
        "coarse_passes": coarse_passes, "bisected_rows": bisected_rows,
        "refactored_rows": refactored_rows,
        "stage_ms": {stage: statistics.median(values) if values else None
                     for stage, values in times.items()},
        "max_abs_err": worst,
    }


def shared(r, T):
    """The verdict and the solvers' outcomes on one kernel."""
    outcomes = []
    for solver in (invert_krein, invert_factorization,
                   invert_gelfand_levitan):
        try:
            outcomes.append(solver(r, T))
        except InversionError as exc:
            outcomes.append(exc)
    return characterize_response(r, T), outcomes


def time_roundtrip_cell(rng, T, amplitude, instances):
    """Stage medians (ms), and per stage max |b-hat - b| and failures."""
    times = {"response_kernel": [], "characterize_response": []}
    times.update({name: [] for name in SOLVERS})
    times["shared"] = []
    worst = dict.fromkeys(times)
    failed = dict.fromkeys(times, 0)
    for _ in range(instances):
        b = rng.uniform(-amplitude, amplitude, T - 1)
        ms, r = best_ms(response_kernel, b, 2 * T - 2)
        times["response_kernel"].append(ms)
        ms, verdict = best_ms(characterize_response, r, T)
        times["characterize_response"].append(ms)
        failed["characterize_response"] += not verdict.admissible
        for name, solver in SOLVERS.items():
            try:
                ms, b_hat = best_ms(solver, r, T)
            except InversionError:
                failed[name] += 1
                continue
            times[name].append(ms)
            err = float(np.max(np.abs(b_hat - b))) if b.size else 0.0
            worst[name] = max(err, worst[name] or 0.0)
        ms, (_, outcomes) = best_ms(shared, r, T)
        times["shared"].append(ms)
        for b_hat in outcomes:
            if isinstance(b_hat, InversionError):
                failed["shared"] += 1
                continue
            err = float(np.max(np.abs(b_hat - b))) if b.size else 0.0
            worst["shared"] = max(err, worst["shared"] or 0.0)
    stage_ms = {stage: statistics.median(values) if values else None
                for stage, values in times.items()}
    for M in REPORT_SIZES:
        name = f"roundtrip_report[{M}]"
        stage_ms[name], report = best_ms(roundtrip_report, SEED, M, T,
                                         amplitude)
        methods = report["methods"].values()
        errors = [m["max_abs_error"] for m in methods
                  if m["max_abs_error"] is not None]
        worst[name] = max(errors) if errors else None
        failed[name] = sum(len(m["failures"]) for m in methods)
    return {
        "T": T, "amplitude": amplitude, "instances": instances,
        "stage_ms": stage_ms, "max_abs_err": worst, "failed": failed,
    }


def brief(value, spec):
    """value, or each value of a dict joined by '/', for the summary."""
    if isinstance(value, dict):
        return "/".join(brief(v, spec) for v in value.values())
    return "-" if value is None else format(value, spec)


PIPELINES = {"spectral": (time_spectral_cell, (32, 64, 128)),
             "roundtrip": (time_roundtrip_cell, (16, 32, 64))}


def measure(pipeline, sizes, instances):
    time_cell = PIPELINES[pipeline][0]
    rng = np.random.default_rng(SEED)
    cells = []
    for size in sizes:
        for amplitude in AMPLITUDES:
            ref = statistics.median(reference_ms() for _ in range(5))
            cell = time_cell(rng, size, amplitude, instances)
            cell["reference_ms"] = ref
            cells.append(cell)
            stages = "  ".join(f"{stage} {brief(ms, '.3f')}"
                               for stage, ms in cell["stage_ms"].items())
            failed = cell.get("failed", cell.get("rejected"))
            passes = (f"  coarse passes {cell['coarse_passes']}  bisected "
                      f"rows {cell['bisected_rows']}  refactored rows "
                      f"{cell['refactored_rows']}"
                      if pipeline == "spectral" else "")
            print(f"size={size:<4} amp={amplitude:<4} {stages}  "
                  f"max|b-hat - b| {brief(cell['max_abs_err'], '.1e')}  "
                  f"failed {brief(failed, 'd')}{passes}")
    run = {
        "pipeline": pipeline,
        "seed": SEED, "repeats": REPEATS, "unit": "ms",
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "cells": cells,
    }
    if pipeline == "spectral":
        run["bracket_width"] = linalg._BRACKET_WIDTH
    return run


def main():
    parser = argparse.ArgumentParser(
        description="per-stage pipeline timings with accuracy")
    parser.add_argument("--label", required=True,
                        help="key of this run in the output file")
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--pipeline", choices=PIPELINES, default="spectral")
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="N or T (default: 32 64 128 or 16 32 64)")
    parser.add_argument("--instances", type=int, default=8)
    args = parser.parse_args()
    sizes = args.sizes or PIPELINES[args.pipeline][1]
    run = measure(args.pipeline, sizes, args.instances)
    doc = (json.loads(args.output.read_text()) if args.output.exists()
           else {"script": "scripts/stage_times.py", "runs": {}})
    doc["runs"][args.label] = run
    args.output.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
