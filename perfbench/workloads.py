"""The three benchmark workloads: job pools, timed operations, scoring.

Each workload draws a fixed pool of jobs from the seed, so a run always
scores the same jobs however fast the library is.  run() is the timed
operation and takes only generated inputs; result() turns its raw
outcome into the value that frozen() makes comparable bit for bit
between repeats and between traced and untraced runs; score() checks a
result against the ground truth that only the benchmark holds.

Library functions are looked up as module attributes at call time, so
the tracing wrappers installed in those modules are the ones called.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import lattice_bc
import lattice_bc.cli

# Accuracy checks: the tolerances of the repository's acceptance
# criteria 3 (dynamical solvers) and 5 (spectral route).
SOLVER_TOL = {"krein": 1e-6, "factorization": 1e-7, "gelfand_levitan": 1e-7}
SPECTRAL_TOL = 1e-6
# kernel_from_spectral against response_kernel, relative to max |r|:
# the kernel grows geometrically with the potential, so an absolute
# tolerance would test the growth, not the identity.
KERNEL_REL_TOL = 1e-9


@dataclass
class Tally:
    """Scored outcomes of one pass over a job pool."""

    solver_calls: int = 0
    solver_raised: int = 0
    solver_nonfinite: int = 0
    solver_inaccurate: int = 0
    solved: int = 0
    max_abs_err: float = 0.0
    genuine: int = 0
    false_rejects: int = 0
    corrupted: int = 0
    false_accepts: int = 0
    kernel_checks: int = 0
    kernel_misses: int = 0

    def solver(self, b_true, b_hat, tol):
        self.solver_calls += 1
        if isinstance(b_hat, str):
            self.solver_raised += 1
            return
        if b_hat.shape != b_true.shape or not np.all(np.isfinite(b_hat)):
            self.solver_nonfinite += 1
            return
        err = float(np.max(np.abs(b_hat - b_true))) if b_true.size else 0.0
        self.solved += 1
        self.max_abs_err = max(self.max_abs_err, err)
        if not err <= tol:
            self.solver_inaccurate += 1

    def verdict(self, genuine, admissible):
        if genuine:
            self.genuine += 1
            self.false_rejects += admissible is not True
        else:
            self.corrupted += 1
            self.false_accepts += admissible is True

    @property
    def solver_failures(self):
        return (self.solver_raised + self.solver_nonfinite
                + self.solver_inaccurate)

    @property
    def attempted(self):
        return (self.solver_calls + self.genuine + self.corrupted
                + self.kernel_checks)

    @property
    def failed(self):
        return (self.solver_failures + self.false_rejects
                + self.false_accepts + self.kernel_misses)


def _call(fn, *args):
    """Run one library call; a raised exception becomes its type name.

    A program failure is an outcome to count, not a benchmark crash.
    """
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - scored as a failure
        return type(exc).__name__


def frozen(result):
    """Bit-exact, comparable form of a result: arrays become bytes."""
    if isinstance(result, np.ndarray):
        return (str(result.dtype), result.shape, result.tobytes())
    if isinstance(result, tuple):
        return tuple(frozen(x) for x in result)
    return result


class CliRoundtrip:
    """In-process `lattice-bc roundtrip`, 25 instances at T = 16."""

    name = "cli-roundtrip"
    instances_per_op = 25
    horizon = 16
    amplitude = 0.3
    pool_size = 8

    def __init__(self, rng, out_dir):
        seeds = rng.integers(0, 2 ** 31, self.pool_size)
        self.jobs = [(int(s), out_dir / f"roundtrip-{k}.json")
                     for k, s in enumerate(seeds)]

    def run(self, job):
        seed, path = job
        return lattice_bc.cli.main([
            "roundtrip", "--instances", str(self.instances_per_op),
            "--horizon", str(self.horizon),
            "--amplitude", str(self.amplitude),
            "--seed", str(seed), "--output", str(path)])

    def result(self, job, raw):
        path = job[1]
        return raw, path.read_bytes() if path.exists() else b""

    def score(self, job, result, tally):
        """All instances are genuine; returns a list of inconsistencies."""
        seed = job[0]
        code, report = result
        M = self.instances_per_op
        try:
            doc = json.loads(report) if code == 0 else None
        except ValueError:
            doc = None
        if doc is None:
            # a failed command fails every outcome it was asked for
            tally.genuine += M
            tally.false_rejects += M
            tally.solver_calls += len(SOLVER_TOL) * M
            tally.solver_raised += len(SOLVER_TOL) * M
            return [f"roundtrip seed {seed} exited {code}"]
        problems = []
        echo = {"kind": "roundtrip_report", "seed": seed, "instances": M,
                "horizon": self.horizon, "amplitude": self.amplitude}
        for key, want in echo.items():
            if doc.get(key) != want:
                problems.append(f"report {key} {doc.get(key)!r} != {want!r}")
        accepted = doc["characterization"]["admissible_count"]
        rejected = doc["characterization"]["inadmissible_instances"]
        if accepted + len(rejected) != M:
            problems.append("admissible and inadmissible counts disagree")
        for i in range(M):
            tally.verdict(True, i not in rejected)
        for name, tol in SOLVER_TOL.items():
            entry = doc["methods"][name]
            fails = len(entry["failures"])
            if entry["successes"] + fails != M:
                problems.append(f"{name} successes and failures disagree")
            tally.solver_calls += M
            tally.solver_raised += fails
            tally.solved += entry["successes"]
            err = entry["max_abs_error"]
            if err is not None:
                tally.max_abs_err = max(tally.max_abs_err, err)
                # the report keeps only the maximum, so a miss counts once
                if not err <= tol:
                    tally.solver_inaccurate += 1
        return problems


class InvertDeep:
    """Forward kernel, verdict and all three solvers at T = 64."""

    name = "invert-deep"
    instances_per_op = 1
    horizon = 64
    amplitude = 0.1
    pool_size = 36

    def __init__(self, rng, out_dir):
        T = self.horizon
        self.jobs = []
        for k in range(self.pool_size):
            b = rng.uniform(-self.amplitude, self.amplitude, T - 1)
            perturbation = None
            if k % 4 == 3:
                # acceptance criterion 4: +-0.5 at an odd kernel index
                index = 2 * int(rng.integers(0, T - 1)) + 1
                perturbation = (index, float(rng.choice((-0.5, 0.5))))
            self.jobs.append((b, perturbation))

    def run(self, job):
        b, perturbation = job
        T = self.horizon
        r = lattice_bc.response_kernel(b, 2 * T - 2)
        if perturbation is not None:
            r[perturbation[0]] += perturbation[1]
        verdict = _call(lattice_bc.characterize_response, r, T)
        return (verdict,) + tuple(
            _call(getattr(lattice_bc, f"invert_{name}"), r, T)
            for name in SOLVER_TOL)

    def result(self, job, raw):
        verdict, *solved = raw
        if not isinstance(verdict, str):
            verdict = (bool(verdict.admissible),
                       verdict.first_failing_order)
        return (verdict, *solved)

    def score(self, job, result, tally):
        b, perturbation = job
        raw_verdict = result[0]
        admissible = None if isinstance(raw_verdict, str) else raw_verdict[0]
        tally.verdict(perturbation is None, admissible)
        if perturbation is None:
            for tol, b_hat in zip(SOLVER_TOL.values(), result[1:]):
                tally.solver(b, b_hat, tol)
        return []


class SpectralPipeline:
    """Eigendata, spectral kernel and spectral inversion at N = 64."""

    name = "spectral-pipeline"
    instances_per_op = 1
    size = 64
    amplitudes = (0.1, 0.3)
    pool_size = 32

    def __init__(self, rng, out_dir):
        N = self.size
        self.jobs = []
        for k in range(self.pool_size):
            a = self.amplitudes[k % 2]
            b = rng.uniform(-a, a, N)
            # ground truth, computed once and outside the timed region
            self.jobs.append((b, lattice_bc.response_kernel(b, 2 * N - 1)))

    def run(self, job):
        b = job[0]
        N = self.size
        H = lattice_bc.build_hamiltonian(b, N)
        sd = _call(lattice_bc.eigen_decompose, H)
        if isinstance(sd, str):
            return sd, sd
        return (_call(lattice_bc.kernel_from_spectral, sd, 2 * N - 1),
                _call(lattice_bc.invert_spectral, sd))

    def result(self, job, raw):
        return raw

    def score(self, job, result, tally):
        b, r_true = job
        kernel, b_hat = result
        tally.kernel_checks += 1
        scale = float(np.max(np.abs(r_true)))
        if (isinstance(kernel, str) or kernel.shape != r_true.shape
                or not np.max(np.abs(kernel - r_true))
                <= KERNEL_REL_TOL * scale):
            tally.kernel_misses += 1
        tally.solver(b, b_hat, SPECTRAL_TOL)
        return []


WORKLOADS = {w.name: w for w in (CliRoundtrip, InvertDeep, SpectralPipeline)}
