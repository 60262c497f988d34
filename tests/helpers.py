"""Independent oracle implementations used by the test suite.

Everything here is written directly from the defining formulas, on
purpose duplicating nothing from the library internals: scalar-loop
wave evolution, brute-force convolution, cofactor-expansion
determinants, the reversed connecting matrix assembled entrywise, its
exact rational LDL^T and the Krein systems solved exactly, and the
admissible-kernel constructor that forces even entries through the
unit-determinant condition, and the one-eigenvalue-at-a-time
eigensolver (bisection one midpoint per Sturm pass, one scalar
inverse iteration per eigenvalue) that the batched library eigensolver
must reproduce bit for bit, and the one-instance-at-a-time round-trip
loop that the blocked round-trip report must reproduce byte for
byte.  numpy.linalg appears only here and never inside the library,
so cross-checks are genuinely two-route.
"""

from fractions import Fraction

import numpy as np

from lattice_bc.bc_ops import response_kernel
from lattice_bc.core import Tolerances
from lattice_bc.inversion import (InversionError, characterize_response,
                                  invert_factorization, invert_krein)
from lattice_bc.linalg import ConvergenceFailure


def brute_convolve(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        return np.zeros(0)
    out = np.zeros(a.size + b.size - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def wave_oracle(b, f, T, wall=None):
    """Scalar-loop controlled lattice evolution.

    Returns the (n, t) table for 0 <= n, t <= T computed entry by
    entry; with wall=N the sites n > N are clamped to zero (finite
    interval with a Dirichlet wall at N + 1).
    """
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)

    def pot(n):
        return b[n - 1] if n - 1 < b.size else 0.0

    def ctl(t):
        return f[t] if 0 <= t < f.size else 0.0

    top = T if wall is None else wall
    u = {}

    def get(n, t):
        if t < 0:
            return 0.0
        if n == 0:
            return ctl(t)
        if wall is not None and n > wall:
            return 0.0
        return u.get((n, t), 0.0)

    for t in range(T):
        for n in range(1, top + 1):
            u[(n, t + 1)] = (get(n + 1, t) + get(n - 1, t)
                             - pot(n) * get(n, t) - get(n, t - 1))
    size = (T + 1) if wall is None else (wall + 2)
    table = np.zeros((size, T + 1))
    for t in range(T + 1):
        table[0, t] = ctl(t) if t < T else 0.0
        for n in range(1, size):
            table[n, t] = get(n, t)
    return table


def minor_det(M):
    """Recursive cofactor-expansion determinant (exact formula route)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(n):
        sub = np.delete(M[1:], j, axis=1)
        total += ((-1.0) ** j) * M[0, j] * minor_det(sub)
    return float(total)


def cbar_direct(r, T):
    """Reversed connecting matrix straight from the entry formula.

    cbar[i-1, j-1] = sum_{k=0}^{min(i,j)-1} r_{|i-j| + 2k}.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros((T, T))
    for i in range(1, T + 1):
        for j in range(1, T + 1):
            out[i - 1, j - 1] = sum(
                r[abs(i - j) + 2 * k] for k in range(min(i, j)))
    return out


def leading_minors(A):
    """Determinants of the leading blocks A[:l, :l], l = 1..n (LAPACK)."""
    A = np.asarray(A, dtype=float)
    return np.array([np.linalg.det(A[:l, :l])
                     for l in range(1, A.shape[0] + 1)])


def exact_cbar(r, T):
    """cbar_direct in rationals, from the exact values of the floats r."""
    q = [Fraction(float(x)) for x in r[:2 * T - 1]]
    return [[sum(q[abs(i - j) + 2 * k] for k in range(min(i, j) + 1))
             for j in range(T)] for i in range(T)]


def exact_ldl(A):
    """Unpivoted LDL^T of a rational matrix by Gaussian elimination.

    Returns (L, d) as nested lists of Fractions, L unit lower
    triangular; stops after the first zero pivot, so len(d) may be
    shorter than the order.
    """
    n = len(A)
    U = [list(row) for row in A]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = []
    for k in range(n):
        d.append(U[k][k])
        if U[k][k] == 0:
            break
        for i in range(k + 1, n):
            L[i][k] = U[i][k] / U[k][k]
            for j in range(k, n):
                U[i][j] -= L[i][k] * U[k][j]
    return L, d


def exact_solve(A, rhs):
    """Solve the rational system A x = rhs by Gauss-Jordan elimination
    with the first nonzero pivot of each column."""
    n = len(A)
    M = [list(row) + [rhs[i]] for i, row in enumerate(A)]
    for k in range(n):
        p = next(i for i in range(k, n) if M[i][k] != 0)
        M[k], M[p] = M[p], M[k]
        for i in range(n):
            if i != k and M[i][k] != 0:
                f = M[i][k] / M[k][k]
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_factorization(r, T):
    """b-hat of the float kernel r in exact arithmetic: minus the
    differences of the subdiagonal of the exact L of C-bar."""
    L, _ = exact_ldl(exact_cbar(r, T))
    sub = [Fraction(0)] + [L[n][n - 1] for n in range(1, T)]
    return np.array([float(sub[n - 1] - sub[n]) for n in range(1, T)])


def exact_krein(r, T, alpha, beta):
    """b-hat of the float kernel r through the lambda = 0 trace, each
    connecting system C^tau f = beta kappa - alpha R* paired solved
    exactly (kappa cycles 0, +1, 0, -1 back from kappa_T = 0)."""
    q = [Fraction(float(x)) for x in r]
    kappa = [Fraction((0, 1, 0, -1)[(T - t) % 4]) for t in range(T + 1)]
    alpha, beta = Fraction(alpha), Fraction(beta)
    y = [alpha]
    for tau in range(1, T + 1):
        C = [[sum(q[abs(i - j) + 2 * k]
                  for k in range(tau - max(i, j) + 1))
              for j in range(1, tau + 1)] for i in range(1, tau + 1)]
        k_tau = kappa[T - tau:T]
        paired = kappa[T - tau + 1:T] + [Fraction(0)]
        adj = [sum(q[t - 1 - j] * paired[t - 1]
                   for t in range(j + 1, tau + 1)) for j in range(tau)]
        rhs = [beta * k - alpha * a for k, a in zip(k_tau, adj)]
        y.append(exact_solve(C, rhs)[0])
    return np.array([float((y[n + 1] + y[n - 1]) / y[n])
                     for n in range(1, T)])


def connecting_direct(r, T):
    """Connecting matrix straight from the entry formula."""
    r = np.asarray(r, dtype=float)
    out = np.zeros((T, T))
    for i in range(1, T + 1):
        for j in range(1, T + 1):
            out[i - 1, j - 1] = sum(
                r[abs(i - j) + 2 * k] for k in range(T - max(i, j) + 1))
    return out


def lambda0_trace(b, alpha, beta, T):
    """Trace recurrence y_{n+1} = b_n y_n - y_{n-1}, y_0, y_1 given."""
    b = np.asarray(b, dtype=float)
    y = np.zeros(T + 1)
    y[0] = alpha
    if T >= 1:
        y[1] = beta
    for n in range(1, T):
        y[n + 1] = b[n - 1] * y[n] - y[n - 1]
    return y


def build_admissible_kernel(rng, T, amplitude=0.5):
    """Random admissible kernel prefix (r_0, ..., r_{2T-2}).

    Odd entries are free draws; each even entry r_{2m} is then forced
    by requiring det of the order-(m+1) leading block of the reversed
    connecting matrix to be one.  r_{2m} sits once, with unit
    cofactor, at the (m+1, m+1) position of that block, so the forced
    value is 1 - det(block with r_{2m} = 0).  The construction makes
    every leading determinant exactly one, hence the prefix is
    admissible and positive definite.
    """
    r = np.zeros(2 * T - 1)
    r[0] = 1.0
    for idx in range(1, 2 * T - 1, 2):
        r[idx] = rng.uniform(-amplitude, amplitude)
    for m in range(1, T):
        block = cbar_direct(r, m + 1)
        r[2 * m] = 1.0 - np.linalg.det(block)
    return r


def response_toeplitz(r, T):
    """Dense lower-triangular matrix of the response convolution."""
    r = np.asarray(r, dtype=float)
    M = np.zeros((T, T))
    for t in range(1, T + 1):
        for s in range(t):
            M[t - 1, t - 1 - s] = r[s]
    return M


# The eigensolver as it stood before the spectrum was batched, kept
# verbatim (iteration caps inlined): the reference for bit identity.

_EPS = np.finfo(float).eps


def _reference_sturm_counts(d, e2, xs, pivmin):
    """Number of eigenvalues strictly below each shift in xs.

    Counts negative pivots of the shifted LDL^T recurrence
    q_1 = d_1 - x, q_i = d_i - x - e_{i-1}^2 / q_{i-1}, clamping tiny
    pivots to -pivmin in the usual bisection-safe way.
    """
    xs = np.asarray(xs, dtype=float)
    q = d[0] - xs
    q = np.where(np.abs(q) <= pivmin, -pivmin, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, d.size):
        q = d[i] - xs - e2[i - 1] / q
        q = np.where(np.abs(q) <= pivmin, -pivmin, q)
        count += q < 0.0
    return count


def reference_eigenvalues(d, e):
    """All eigenvalues, ascending, of the symmetric tridiagonal (d, e).

    Bisection on Sturm sign counts: bracketed by Gershgorin bounds,
    every eigenvalue is halved independently (vectorized over the
    spectrum) until the interval width reaches roundoff scale.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    if n == 0:
        return np.zeros(0)
    if e.shape != (n - 1,):
        raise ValueError("off-diagonal length mismatch")
    if n == 1:
        return d.copy()
    e2 = e * e
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    scale = max(abs(lo), abs(hi), 1.0)
    lo -= 2.0 * _EPS * scale
    hi += 2.0 * _EPS * scale
    pivmin = max(np.finfo(float).tiny / _EPS, _EPS * _EPS * scale)
    lower = np.full(n, lo)
    upper = np.full(n, hi)
    target = np.arange(1, n + 1)
    for _ in range(160):
        width = upper - lower
        tol = _EPS * np.maximum(np.abs(lower), np.abs(upper)) + 2.0 * pivmin
        if np.all(width <= tol):
            break
        mid = 0.5 * (lower + upper)
        below = _reference_sturm_counts(d, e2, mid, pivmin)
        take_upper = below >= target
        upper = np.where(take_upper, mid, upper)
        lower = np.where(take_upper, lower, mid)
    return 0.5 * (lower + upper)


def reference_solve(d, e, rhs, pivmin):
    """Solve (tridiagonal) T x = rhs with partial pivoting and fill-in.

    Zero pivots are perturbed to pivmin so the solve always returns;
    inverse iteration relies on that behaviour near exact shifts.
    """
    n = d.size
    diag = np.asarray(d, dtype=float).copy()
    lower = np.asarray(e, dtype=float).copy()
    upper = np.asarray(e, dtype=float).copy()
    upper2 = np.zeros(max(n - 2, 0))
    x = np.asarray(rhs, dtype=float).copy()
    for i in range(n - 1):
        if np.abs(diag[i]) >= np.abs(lower[i]):
            if np.abs(diag[i]) <= pivmin:
                diag[i] = pivmin
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            x[i + 1] -= fact * x[i]
        else:
            fact = diag[i] / lower[i]
            diag[i] = lower[i]
            tmp_diag = diag[i + 1]
            diag[i + 1] = upper[i] - fact * tmp_diag
            upper[i] = tmp_diag
            if i < n - 2:
                upper2[i] = upper[i + 1]
                upper[i + 1] = -fact * upper[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
    if np.abs(diag[n - 1]) <= pivmin:
        diag[n - 1] = pivmin
    x[n - 1] /= diag[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - upper[n - 2] * x[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1] - upper2[i] * x[i + 2]) / diag[i]
    return x


def _reference_apply(d, e, v):
    out = d * v
    out[:-1] += e * v[1:]
    out[1:] += e * v[:-1]
    return out


def reference_eigenvector(d, e, lam, ortho=(), rel_tol=1e-10):
    """Unit eigenvector of (d, e) for the precomputed eigenvalue lam.

    Inverse iteration from a deterministic start, re-orthogonalized
    against the supplied cluster partners each sweep.  Raises
    ConvergenceFailure if the relative residual never reaches rel_tol.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    norm_t = float(np.max(np.abs(d) + np.concatenate(([0.0], np.abs(e)))
                          + np.concatenate((np.abs(e), [0.0])))) if n else 0.0
    norm_t = max(norm_t, 1.0)
    pivmin = max(np.finfo(float).tiny / _EPS, _EPS * _EPS * norm_t)
    shifted = d - lam
    v = np.full(n, 1.0 / np.sqrt(n))
    for sweep in range(12):
        for u in ortho:
            v -= (u @ v) * u
        nv = float(np.sqrt(v @ v))
        if nv <= 0.0:
            v = np.zeros(n)
            v[sweep % n] = 1.0
            nv = 1.0
        v /= nv
        w = reference_solve(shifted, e, v, pivmin)
        nw = float(np.sqrt(w @ w))
        if not np.isfinite(nw) or nw == 0.0:
            v = np.zeros(n)
            v[(sweep + 1) % n] = 1.0
            continue
        v = w / nw
        for u in ortho:
            v -= (u @ v) * u
        nv = float(np.sqrt(v @ v))
        if nv <= 1e-3:
            # cluster partners swallowed the iterate; restart elsewhere
            v = np.zeros(n)
            v[(sweep + 1) % n] = 1.0
            continue
        v /= nv
        residual = _reference_apply(d, e, v) - lam * v
        if float(np.sqrt(residual @ residual)) <= rel_tol * norm_t:
            return v
    raise ConvergenceFailure(
        f"inverse iteration stalled at eigenvalue {lam!r}")


def reference_eigendata(d, e, tol=Tolerances()):
    """(eigenvalues, norming, rescaled eigenvectors) of (d, e), one
    eigenvalue at a time; eigen_decompose's loop on a general
    off-diagonal.  Raises ConvergenceFailure where and as it does."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    N = d.size
    lam = reference_eigenvalues(d, e)
    radius = np.zeros(N)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    norm_h = max(float(np.max(np.abs(d) + radius)), 1.0)
    if np.any(np.diff(lam) <= 0.0):
        raise ConvergenceFailure("eigenvalues collide at working precision")
    cluster_tol = 1e-6 * norm_h
    vectors = np.empty((N, N))
    raw = []
    for k in range(N):
        partners = [raw[j] for j in range(k)
                    if lam[k] - lam[j] <= cluster_tol]
        v = reference_eigenvector(d, e, lam[k], ortho=partners,
                                  rel_tol=tol.eig_tol)
        raw.append(v)
        if np.abs(v[0]) <= tol.pivot_tol:
            raise ConvergenceFailure(
                f"first eigenvector component below pivot tolerance "
                f"at eigenvalue index {k}")
        vectors[k] = v / v[0]
    rho = np.einsum("kn,kn->k", vectors, vectors)
    return lam, rho, vectors


def _reference_roundtrip_method(invert, b):
    try:
        recovered = invert()
    except InversionError as exc:
        return None, type(exc).__name__
    err = float(np.max(np.abs(recovered - b))) if b.size else 0.0
    return err, None


def reference_roundtrip_report(seed, instances, T, amplitude,
                               tol=Tolerances()):
    """The round-trip report one instance at a time: one draw, one
    kernel and one call of each public solver per instance, the loop
    that the blocked cli.roundtrip_report must reproduce byte for byte."""
    rng = np.random.default_rng(seed)
    methods = {name: {"successes": 0, "max_abs_error": None, "failures": []}
               for name in ("krein", "factorization", "gelfand_levitan")}
    admissible_count = 0
    inadmissible = []
    for i in range(instances):
        b = rng.uniform(-amplitude, amplitude, T - 1)
        r = response_kernel(b, 2 * T - 2)
        verdict = characterize_response(r, T, tol)
        if verdict.admissible:
            admissible_count += 1
        else:
            inadmissible.append(i)
        factorization = _reference_roundtrip_method(
            lambda: invert_factorization(r, T), b)
        outcomes = {"krein": _reference_roundtrip_method(
                        lambda: invert_krein(r, T), b),
                    "factorization": factorization,
                    "gelfand_levitan": factorization}
        for name, (err, failure) in outcomes.items():
            entry = methods[name]
            if failure is not None:
                entry["failures"].append(
                    {"instance": i, "error": failure})
            else:
                entry["successes"] += 1
                if (entry["max_abs_error"] is None
                        or err > entry["max_abs_error"]):
                    entry["max_abs_error"] = err
    return {
        "kind": "roundtrip_report",
        "seed": seed,
        "instances": instances,
        "horizon": T,
        "amplitude": amplitude,
        "generator": "numpy default_rng (PCG64)",
        "methods": methods,
        "characterization": {
            "admissible_count": admissible_count,
            "inadmissible_instances": inadmissible,
        },
    }
