"""Acceptance gate: one property per criterion, one printed line each.

Every test draws a fixed-seed batch of random potentials, measures the
worst-case deviation of the claimed identity, prints a single
PASS/FAIL line with the measured margin, then asserts.  Draw
amplitudes are chosen so that the stated absolute tolerances are
meaningful in double precision: identities evaluated at magnitude
around 2^15 (amplitude-2 kernels at horizon 16) cannot reproduce to
1e-10 under reordered summation, so those batches draw from the unit
ball instead; the wider amplitude is exercised where the check is
relative or structural (eigen residuals, exact-invariance checks).
"""

import json
import time

import numpy as np

import helpers
from lattice_bc import files
from lattice_bc.bc_ops import (connecting_matrix, connecting_via_waves,
                               control_matrix, response_kernel)
from lattice_bc.cli import main
from lattice_bc.core import chebyshev_seq
from lattice_bc.forward import (apply_representation, solve_goursat,
                                solve_interval, solve_semi_infinite)
from lattice_bc.inversion import (DegenerateTrace, characterize_response,
                                  invert_factorization,
                                  invert_gelfand_levitan, invert_krein)
from lattice_bc.spectral import (build_hamiltonian, connecting_from_spectral,
                                 eigen_decompose, invert_spectral,
                                 kernel_from_spectral)

_T0 = time.perf_counter()


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'} "
              f"[{name}] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_representation_identity(capsys):
    rng = np.random.default_rng(101)
    T = 16
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(-1.0, 1.0, T)
        f = rng.uniform(-1.0, 1.0, T)
        fld = solve_semi_infinite(b, f)
        ker = solve_goursat(b, T)
        for n in range(1, T + 1):
            for t in range(T + 1):
                v = apply_representation(ker, f, n, t)
                worst = max(worst, abs(v - fld.values[n, t]))
    _report(capsys, 1, "representation identity",
            worst <= 1e-10,
            f"max |kernel sum - time stepping| = {worst:.2e} "
            f"(200 potentials, T = 16, tol 1e-10)")


def test_criterion_2_connecting_operator(capsys):
    rng = np.random.default_rng(102)
    w_route = w_gram = w_coro = 0.0
    for i in range(100):
        T = 2 + i % 11
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        C = connecting_matrix(r, T)
        w_route = max(w_route,
                      float(np.max(np.abs(C - connecting_via_waves(b, T)))))
        W = control_matrix(b, T)
        w_gram = max(w_gram, float(np.max(np.abs(W.T @ W - C))))
        if T >= 3:
            inner = (C[1:-1, 2:] + C[1:-1, :-2]
                     - C[2:, 1:-1] - C[:-2, 1:-1])
            if inner.size:
                w_coro = max(w_coro, float(np.max(np.abs(inner))))
    ok = w_route <= 1e-9 and w_gram <= 1e-10 and w_coro <= 1e-12
    _report(capsys, 2, "connecting operator",
            ok,
            f"kernel vs wave route = {w_route:.2e} (tol 1e-9), "
            f"Gram identity = {w_gram:.2e} (tol 1e-10), "
            f"interior difference equation = {w_coro:.2e} (tol 1e-12)")


def test_criterion_3_inverse_round_trips(capsys):
    worst = {"factorization": 0.0, "gelfand-levitan": 0.0, "krein": 0.0}
    degenerate = 0
    total = 0
    for T in (4, 8, 16):
        rng = np.random.default_rng(1000 + T)
        for _ in range(100):
            total += 1
            b = rng.uniform(-0.5, 0.5, T - 1)
            r = response_kernel(b, 2 * T - 2)
            worst["factorization"] = max(
                worst["factorization"],
                float(np.max(np.abs(invert_factorization(r, T) - b))))
            worst["gelfand-levitan"] = max(
                worst["gelfand-levitan"],
                float(np.max(np.abs(invert_gelfand_levitan(r, T) - b))))
            try:
                worst["krein"] = max(
                    worst["krein"],
                    float(np.max(np.abs(invert_krein(r, T) - b))))
            except DegenerateTrace:
                degenerate += 1
    ok = (worst["factorization"] <= 1e-7
          and worst["gelfand-levitan"] <= 1e-7
          and worst["krein"] <= 1e-6)
    _report(capsys, 3, "inverse round-trips",
            ok,
            f"factorization = {worst['factorization']:.2e} (tol 1e-7), "
            f"gelfand-levitan = {worst['gelfand-levitan']:.2e} (tol 1e-7), "
            f"krein = {worst['krein']:.2e} (tol 1e-6), "
            f"degenerate traces {degenerate}/{total}")


def test_criterion_4_characterization(capsys):
    T = 12
    rng = np.random.default_rng(104)
    worst_minor = 0.0
    for _ in range(100):
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        verdict = characterize_response(r, T)
        if not verdict.admissible:
            _report(capsys, 4, "characterization", False,
                    "generated kernel rejected")
        worst_minor = max(worst_minor,
                          float(np.max(np.abs(verdict.minor_values - 1.0))))

    b = rng.uniform(-0.5, 0.5, T - 1)
    base = response_kernel(b, 2 * T - 2)
    rejected = 0
    for _ in range(100):
        idx = 2 * int(rng.integers(0, T - 1)) + 1
        bad = base.copy()
        bad[idx] += rng.choice((-0.5, 0.5))
        verdict = characterize_response(bad, T)
        if not verdict.admissible and verdict.first_failing_order is not None:
            rejected += 1

    # sufficiency: every candidate the characterizer accepts must invert
    # and regenerate; candidates whose float-forced minors land outside
    # the acceptance band are correctly rejected and carry no claim
    worst_regen = 0.0
    accepted = 0
    for _ in range(25):
        cand = helpers.build_admissible_kernel(rng, T)
        verdict = characterize_response(cand, T)
        if verdict.admissible:
            accepted += 1
            b_rec = invert_factorization(cand, T)
            regen = response_kernel(b_rec, 2 * T - 2)
            worst_regen = max(worst_regen,
                              float(np.max(np.abs(regen - cand))))
    ok = (worst_minor <= 1e-9 and rejected == 100
          and accepted >= 1 and worst_regen <= 1e-7)
    _report(capsys, 4, "characterization",
            ok,
            f"generated minors off unity by {worst_minor:.2e} (tol 1e-9), "
            f"odd perturbations rejected {rejected}/100, "
            f"constructed candidates accepted {accepted}/25 with "
            f"regeneration error {worst_regen:.2e} (tol 1e-7)")


def test_criterion_5_spectral_consistency(capsys):
    rng = np.random.default_rng(105)
    wa = wb = wc = wd = 0.0
    for i in range(100):
        N = 2 + i % 11
        b = rng.uniform(-0.25, 0.25, N)
        sd = eigen_decompose(build_hamiltonian(b, N))
        r = response_kernel(b, 2 * N)

        f = np.zeros(3 * N)
        f[0] = 1.0
        trace = solve_interval(b, N, f).values[1, 1:]
        series = np.zeros(3 * N + 1)
        for k in range(N):
            series += (chebyshev_seq(3 * N, sd.eigenvalues[k])
                       / sd.norming[k])
        wa = max(wa, float(np.max(np.abs(trace - series[1:]))))

        Tc = max(2, N - i % 3) if N >= 2 else 1
        wb = max(wb, float(np.max(np.abs(
            connecting_from_spectral(sd, Tc) - connecting_matrix(r, Tc)))))

        cor = kernel_from_spectral(sd, 2 * N)
        wc = max(wc, float(np.max(np.abs(cor[:2 * N] - r[:2 * N]))),
                 abs(r[2 * N] - (cor[2 * N] - 1.0) - 1.0))

        wd = max(wd, float(np.max(np.abs(invert_spectral(sd) - b))))
    ok = wa <= 1e-9 and wb <= 1e-9 and wc <= 1e-9 and wd <= 1e-6
    _report(capsys, 5, "spectral consistency",
            ok,
            f"delta trace vs eigen sum = {wa:.2e} (tol 1e-9), "
            f"connecting routes = {wb:.2e} (tol 1e-9), "
            f"kernel agreement and unit reflection = {wc:.2e} (tol 1e-9), "
            f"spectral inversion = {wd:.2e} (tol 1e-6)")


def test_criterion_6_structural_invariants(capsys):
    rng = np.random.default_rng(106)
    w_mass = w_res = 0.0
    for N in (4, 8, 16, 32, 64):
        for _ in range(3):
            b = rng.uniform(-2.0, 2.0, N)
            H = build_hamiltonian(b, N)
            sd = eigen_decompose(H)
            w_mass = max(w_mass, abs(float(np.sum(1.0 / sd.norming)) - 1.0))
            A = H.to_dense()
            h_norm = np.linalg.norm(A, 2)
            for k in range(N):
                v = sd.eigenvectors[k]
                res = np.linalg.norm(A @ v - sd.eigenvalues[k] * v)
                w_res = max(w_res, res / (np.linalg.norm(v) * h_norm))

    w_sq = 0.0
    for _ in range(200):
        b = rng.uniform(-2.0, 2.0, 7)
        r = response_kernel(b, 4)
        w_sq = max(w_sq, abs(r[2] - r[1] ** 2))

    T = 8
    invariant = True
    for _ in range(20):
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        noisy = np.concatenate((r, rng.uniform(-100.0, 100.0, 5)))
        for invert in (invert_krein, invert_factorization,
                       invert_gelfand_levitan):
            invariant = invariant and np.array_equal(
                invert(r, T), invert(noisy, T))
    ok = (w_mass <= 1e-10 and w_res <= 1e-10
          and w_sq <= 1e-12 and invariant)
    _report(capsys, 6, "structural invariants",
            ok,
            f"unit spectral mass off by {w_mass:.2e} (tol 1e-10), "
            f"eigen residuals = {w_res:.2e} of the operator norm "
            f"(tol 1e-10, N up to 64), r_2 - r_1^2 = {w_sq:.2e} "
            f"(tol 1e-12), tail invariance {'exact' if invariant else 'broken'}")


def test_criterion_7_cli_determinism(capsys, tmp_path):
    args = ["roundtrip", "--instances", "40", "--horizon", "10",
            "--amplitude", "0.5", "--seed", "20260814"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    structured = (report["instances"] == 40
                  and set(report["methods"]) == {"krein", "factorization",
                                                 "gelfand_levitan"}
                  and report["characterization"]["admissible_count"]
                  + len(report["characterization"]["inadmissible_instances"])
                  == 40)
    elapsed = time.perf_counter() - _T0
    ok = identical and structured and elapsed < 60.0
    _report(capsys, 7, "CLI determinism",
            ok,
            f"fixed-seed reports byte-identical: {identical}, "
            f"report structure sound: {structured}, "
            f"acceptance batch ran in {elapsed:.1f}s (budget 60s)")
