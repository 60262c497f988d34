"""lattice-bc benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is cli-roundtrip, invert-deep, spectral-pipeline, or all (each in
its own process).  A run draws a fixed job pool from --seed, runs whole
passes over it until --seconds have passed, scores every output against
the benchmark's own ground truth, and prints a readable summary followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced operations on the same jobs, checks that both give
bit-identical results, reports per-layer metrics and writes every span
to .perfbench_out/.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy is first imported, here and in
# every interpreter this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cli-roundtrip", "invert-deep", "spectral-pipeline")
# Never used while developing a change; verify a claimed gain on it.
HELD_OUT_SEED = 20251017
SETUP_REPEATS = 7
SETUP_CODE = "import lattice_bc.cli as cli; cli.build_parser()"
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND + 1
REFERENCE_DATA = np.arange(64.0)

UNITS = {"setup_s": "s", "op_p50_ref": "ref", "op_tail_ref": "ref",
         "op_p50_ms": "ms", "op_tail_ms": "ms", "instances_per_s": "1/s",
         "peak_rss_mb": "MB", "reference_ms": "ms", "max_abs_err": "1",
         "solver_fail_ratio": "ratio", "false_reject_ratio": "ratio",
         "false_accept_ratio": "ratio", "trace.overhead_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """Commit of a git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup_sample():
    """Wall time of a fresh interpreter importing the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def reference_s():
    """Wall time of a fixed computation in the library's own idiom.

    Small numpy reductions driven from a Python loop: the mix of
    interpreter and numpy call overhead that dominates lattice_bc today.
    It is timed before and after every operation.  A shared host can
    run 1.7 times slower for seconds to minutes at a time; dividing an
    operation's time by the reference's cancels that.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(300):
        total += float(np.sum(REFERENCE_DATA[i % 7::3]))
    return time.perf_counter() - start


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def ratio_text(num, den):
    return f"{num / den:.4g} ({num} / {den})" if den else "n/a (0 / 0)"


def quality(tally):
    """The accuracy and failure metrics, with the base of each ratio."""
    def ratio(num, den):
        return num / den if den else 0.0
    return {
        "max_abs_err": tally.max_abs_err,
        "solver_fail_ratio": ratio(tally.solver_failures, tally.solver_calls),
        "false_reject_ratio": ratio(tally.false_rejects, tally.genuine),
        "false_accept_ratio": ratio(tally.false_accepts, tally.corrupted),
    }


def print_quality(tally):
    print(f"max_abs_err         {tally.max_abs_err:.6g}   "
          f"(over {tally.solved} finite genuine solves)")
    print(f"solver_fail_ratio   "
          f"{ratio_text(tally.solver_failures, tally.solver_calls)}   "
          f"raised {tally.solver_raised}, non-finite "
          f"{tally.solver_nonfinite}, inaccurate {tally.solver_inaccurate}")
    print(f"false_reject_ratio  "
          f"{ratio_text(tally.false_rejects, tally.genuine)}")
    print(f"false_accept_ratio  "
          f"{ratio_text(tally.false_accepts, tally.corrupted)}")
    if tally.kernel_checks:
        print(f"kernel_check_misses "
              f"{ratio_text(tally.kernel_misses, tally.kernel_checks)}")


def run_workload(args):
    if not (SRC / "lattice_bc" / "__init__.py").is_file():
        print(f"error: no lattice_bc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    print(f"# workload {args.workload}  seed {args.seed}  held-out seed "
          f"{HELD_OUT_SEED}  trace {args.trace}")
    print(f"# python {platform.python_version()}  numpy {np.__version__}  "
          f"nproc {os.cpu_count()}  commit {git_commit()}  "
          f"BLAS/OpenMP threads 1")

    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                            OUT)
    tracer = Tracer() if args.trace else None
    tally = workloads.Tally()
    problems = []
    reference = {}

    def check(k, result, what):
        if workloads.frozen(result) != reference[k]:
            problems.append(f"job {k}: {what} differs from its first run")

    # Untimed warm-up: a first start compiles bytecode into the checkout,
    # and job 0's first result must match every later run of it.
    if tracer is None:
        setup_sample()
    job = wl.jobs[0]
    reference[0] = workloads.frozen(wl.result(job, wl.run(job)))
    times, refs, traced_times, setup = [], [], [], []
    started = time.perf_counter()
    i = 0
    while True:
        k = i % len(wl.jobs)
        job = wl.jobs[k]
        before = reference_s()
        t0 = time.perf_counter()
        raw = wl.run(job)
        times.append(time.perf_counter() - t0)
        refs.append((before + reference_s()) / 2.0)
        result = wl.result(job, raw)
        if i < len(wl.jobs):
            problems += wl.score(job, result, tally)
            reference.setdefault(k, workloads.frozen(result))
        check(k, result, "untraced result")
        if tracer is not None:
            t0 = time.perf_counter()
            raw = tracer.run_op(wl.run, job)
            traced_times.append(time.perf_counter() - t0)
            check(k, wl.result(job, raw), "traced result")
        elapsed = time.perf_counter() - started
        # set-up samples are spread over the run, like the operations
        if (tracer is None and len(setup) < SETUP_REPEATS
                and elapsed >= len(setup) * args.seconds / SETUP_REPEATS):
            setup.append(setup_sample())
        i += 1
        # at least one pass and enough samples for a tail above the
        # median; traced runs end on a whole pass so counts per op repeat
        if (i >= len(wl.jobs) and len(times) >= MIN_SAMPLES
                and elapsed >= args.seconds
                and (tracer is None or k == len(wl.jobs) - 1)):
            break
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# {len(times)} untraced ops, {i / len(wl.jobs):.2f} passes over "
          f"{len(wl.jobs)} jobs, closed loop, one client")
    for line in problems:
        print(f"# INCORRECT: {line}")
    print_quality(tally)
    tail_s, pct = tail(times)
    ratios = [op / ref for op, ref in zip(times, refs)]
    latency = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "instances_per_s": wl.instances_per_op * len(times) / sum(times),
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {len(times)} ops",
             "op_tail_ref": f"p{pct:.1f} of {len(times)} ops",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters"}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_ref": statistics.median(ratios),
            "op_tail_ref": tail(ratios)[0],
            "peak_rss_mb": peak_rss_mb,
        }
        # wall-clock figures follow the host's speed; printed, not gated
        printed = {**metrics, **latency,
                   "reference_ms": statistics.median(refs) * 1e3}
    else:
        metrics = tracer.layer_metrics()
        metrics.update(latency)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_times)
                                           / statistics.median(times))
        metrics.update(quality(tally))
        printed = metrics
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"# {len(tracer.spans)} spans of {tracer.ops} traced ops "
              f"written to {spans_path.relative_to(ROOT)}")
    for name, value in printed.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:<36} {value:.6g} {unit(name)}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".flops"):
        return "flop"
    return "count"


def run_all(args):
    """Every workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = status or subprocess.run(cmd).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
