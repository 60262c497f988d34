"""Independent oracle implementations used by the test suite.

Everything here is written directly from the defining formulas, on
purpose duplicating nothing from the library internals: scalar-loop
wave evolution, brute-force convolution, cofactor-expansion
determinants, the reversed connecting matrix assembled entrywise, its
exact rational LDL^T and the Krein systems solved exactly, and the
admissible-kernel constructor that forces even entries through the
unit-determinant condition, the eigenvalues and norming constants of
a Jacobi matrix one eigenvalue at a time by Newton's method in
decimal arithmetic, and the one-instance-at-a-time round-trip loop
that the blocked round-trip report must reproduce byte for byte.
numpy.linalg appears only here and never inside the library, so
cross-checks are genuinely two-route.

The plain forms at the end are the other kind of reference: the
spectral kernels written with one numpy call per row or per level, and
the eigensolver factoring every row at every step, which the library's
leaner loops must match bit for bit on the diagonals of
diagonal_families.
"""

import math

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from lattice_bc import linalg
from lattice_bc.bc_ops import response_kernel
from lattice_bc.inversion import (DET_TOL, InversionError,
                                  characterize_response,
                                  invert_factorization, invert_krein)


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


def decimal_eigendata(diag, guesses, digits=50):
    """Eigenvalues and norming constants of the unit-coupled Jacobi
    matrix with diagonal diag, one eigenvalue at a time in decimal.

    Starting from each float guess, Newton's method runs on
    phi_{N+1}(lambda), where phi_0 = 0, phi_1 = 1 and
    phi_{n+1} = (lambda - diag_n) phi_n - phi_{n-1}, with the derivative
    carried along, at the given number of significant digits; then
    rho = phi_1^2 + ... + phi_N^2.  Returns both rounded to floats.
    Raises AssertionError if an iteration does not settle, moves
    further than 1e-9 from its guess, or the roots are not strictly
    increasing.
    """
    entries = [Decimal(float(x)) for x in diag]
    lam_out, rho_out = [], []
    with localcontext() as ctx:
        ctx.prec = digits
        settled = Decimal(10) ** (12 - digits)
        for guess in guesses:
            lam = Decimal(float(guess))
            for _ in range(60):
                p_prev, p, dp_prev, dp = (Decimal(0), Decimal(1),
                                          Decimal(0), Decimal(0))
                for entry in entries:
                    a = lam - entry
                    p_prev, p, dp_prev, dp = (p, a * p - p_prev, dp,
                                              p + a * dp - dp_prev)
                step = p / dp
                lam -= step
                if abs(step) <= settled * (1 + abs(lam)):
                    break
            else:
                raise AssertionError("decimal Newton did not settle")
            assert abs(lam - Decimal(float(guess))) <= Decimal("1e-9")
            p_prev, p, rho = Decimal(0), Decimal(1), Decimal(0)
            for entry in entries:
                rho += p * p
                p_prev, p = p, (lam - entry) * p - p_prev
            lam_out.append(lam)
            rho_out.append(rho)
    assert all(x < y for x, y in zip(lam_out, lam_out[1:]))
    return (np.array([float(x) for x in lam_out]),
            np.array([float(x) for x in rho_out]))


def _reference_roundtrip_method(invert, b):
    try:
        recovered = invert()
    except InversionError as exc:
        return None, type(exc).__name__
    err = float(np.max(np.abs(recovered - b))) if b.size else 0.0
    return err, None


def reference_roundtrip_report(seed, instances, T, amplitude,
                               det_tol=DET_TOL):
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
        verdict = characterize_response(r, T, det_tol)
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


def diagonal_families(seed=0):
    """(name, diagonal) pairs of the kinds the eigensolver tests use:
    random at small and large amplitude, integer (exact zero
    eigenvalues and zero pivots), signed zeros, wells, and a block and
    its mirror image behind a barrier (eigenvalues in close pairs)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3, 9, 33, 64):
        for amplitude in (0.3, 5.0, 1e3):
            out.append((f"random-{n}-{amplitude:g}",
                        rng.uniform(-amplitude, amplitude, n)))
    for n in (1, 4, 17, 40):
        out.append((f"integer-{n}", np.round(rng.uniform(-3.0, 3.0, n))))
    for n in (2, 8, 21):
        d = rng.uniform(-1.0, 1.0, n)
        d[::2] = -0.0
        out.append((f"signed-zeros-{n}", d))
        out.append((f"minus-zero-{n}", np.full(n, -0.0)))
    for n, sites, depth in ((40, (10, 29), 4.0), (40, (5, 34), 9.0),
                            (60, (15, 30, 45), 7.0)):
        d = np.zeros(n)
        d[list(sites)] = -depth
        out.append((f"wells-{n}-{depth:g}", d))
    for height, sites, integral in ((10.0, 2, False), (10.0, 4, False),
                                    (30.0, 6, True), (1e3, 6, False)):
        block = rng.uniform(-1.0, 1.0, 12)
        if integral:
            block = np.round(block)
        d = np.concatenate((block, np.full(sites, height), block[::-1]))
        out.append((f"mirrored-{height:g}-{sites}", d))
    return out


def same_bits(a, b):
    """Whether arrays a and b agree in shape and in every bit, except
    that any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def plain_chebyshev(t_max, lam):
    """chebyshev_seq as the plain recurrence, one new row per step."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty((t_max + 1,) + lam.shape)
    out[0] = 0.0
    out[1] = 1.0
    for t in range(1, t_max):
        out[t + 1] = lam * out[t] - out[t - 1]
    return out


def plain_kernel_from_spectral(sd, K):
    """kernel_from_spectral with one dot weights @ row per entry."""
    weights = 1.0 / sd.norming
    table = plain_chebyshev(K + 1, sd.eigenvalues)
    r = np.empty(K + 1)
    r[0] = 1.0
    r[1:] = [weights @ row for row in table[2:]]
    if K == 2 * sd.size:
        r[K] += 1.0
    return r


def plain_invert_spectral(sd):
    """invert_spectral's Lanczos loop with a new vector array per step:
    b-hat, or the ValueError message it raises."""
    N = sd.size
    lam = sd.eigenvalues
    Q = np.empty((N, N))
    Q[0] = np.sqrt(1.0 / sd.norming)
    Q[0] /= np.sqrt(Q[0] @ Q[0])
    norms = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(N - 1):
            v = lam * Q[n]
            for _ in range(2):
                v -= (Q[:n + 1] @ v) @ Q[:n + 1]
            norms.append(math.sqrt(v @ v))
            Q[n + 1] = v / norms[-1]
    if not all(0.0 < norm < math.inf for norm in norms):
        return "spectral data give no orthonormal Lanczos basis"
    if any(abs(norm - 1.0) > 0.5 for norm in norms):
        return "spectral data give Lanczos couplings far from 1"
    return -((Q * Q) @ lam)


def level_multisect(d, lower, upper, target, pivmin, width=None):
    """linalg._multisect with each tree of midpoints built level by
    level by concatenation, its walk read level by level from the 2-D
    (level rows, bracket) table by fancy indexing, and its width test
    as all(upper - lower <= width) before every halving.  The module's
    constants are read at call time."""
    def settled():
        tol = width if width is not None else (
            linalg._EPS * np.maximum(np.abs(lower), np.abs(upper))
            + 2.0 * pivmin)
        return bool(np.all(upper - lower <= tol))

    steps = 0
    while steps < linalg._BISECTION_STEPS and not settled():
        bits = np.stack((lower, upper), axis=1).view(np.int64)
        new = np.append(True, np.any(bits[1:] != bits[:-1], axis=1))
        group = np.cumsum(new) - 1
        first = np.flatnonzero(new)
        depth = max(linalg._MIN_DEPTH,
                    (linalg._PASS_SHIFTS // first.size + 1).bit_length() - 1)
        level_lo, level_hi = lower[None, first], upper[None, first]
        mids = []
        for _ in range(depth):
            mid = 0.5 * (level_lo + level_hi)
            mids.append(mid)
            level_lo = np.concatenate((level_lo, mid))
            level_hi = np.concatenate((mid, level_hi))
        tree = np.concatenate(mids)
        counts = linalg._sturm_counts(d, tree.ravel()).reshape(tree.shape)
        node = np.zeros(lower.size, dtype=np.int64)
        for level in range(depth):
            if level and (steps == linalg._BISECTION_STEPS or settled()):
                break
            row = node + (2 ** level - 1)
            mid = tree[row, group]
            take_upper = counts[row, group] >= target
            upper = np.where(take_upper, mid, upper)
            lower = np.where(take_upper, lower, mid)
            node += ~take_upper * 2 ** level
            steps += 1
    return lower, upper


def plain_twisted(d, lam, pivmin):
    """linalg._twisted with the (n, 2, K) table stacked from a separate
    copy of d - lam, a pivot loop that tests for the clamp and divides
    1 by the pivot at every site, ratio tables filled by a divide over
    every row and then overwritten with ones by a mask, and the unit
    vectors formed as new arrays."""
    def pivots(rows, pivmin=None):
        out = np.empty_like(rows)
        out[0] = rows[0]
        for i in range(1, rows.shape[0]):
            if pivmin is not None:
                np.copyto(out[i - 1], -pivmin,
                          where=np.abs(out[i - 1]) <= pivmin)
            out[i] = rows[i] - np.divide(1.0, out[i - 1])
        return out

    n = d.size
    a = d[:, None] - lam
    rows = np.stack((a, a[::-1]), axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = pivots(rows)
        rerun = ~np.all(np.abs(p[:-1]) > pivmin, axis=0)
        if rerun.any():
            p[:, rerun] = pivots(rows[:, rerun], pivmin)
        np.copyto(p[-1], -pivmin, where=np.abs(p[-1]) <= pivmin)
        top, bottom = p[:, 0], p[::-1, 1]
        gamma = top + bottom - a
        twist = np.argmin(np.abs(gamma), axis=0)
        gamma = gamma[twist, np.arange(lam.size)]
        site = np.arange(n)[:, None]
        up = np.empty_like(a)
        up[:-1] = np.divide(-1.0, top[:-1])
        up[site >= twist] = 1.0
        down = np.empty_like(a)
        down[1:] = np.divide(-1.0, bottom[1:])
        down[site <= twist] = 1.0
        up = np.multiply.accumulate(up[::-1], axis=0)[::-1]
        down = np.multiply.accumulate(down, axis=0)
        z = np.ascontiguousarray((up * down).T)
        norm2 = np.einsum("kn,kn->k", z, z)
        norm = np.sqrt(norm2)
        return gamma / norm2, z / norm[:, None], np.abs(gamma) / norm


def plain_eigensystem(d, shifts=None):
    """linalg.tridiag_eigensystem with level_multisect, every free row
    factored again by linalg._twist at every Rayleigh-quotient step, and
    linalg._twisted at the final shift.  With a list shifts, the shifts
    of the free rows are appended to it before each factorization."""
    d = np.asarray(d, dtype=float)
    n = d.size
    if n == 1:
        return d.copy(), np.ones((1, 1)), np.zeros(1)
    eps = linalg._EPS
    radius = np.full(n, 2.0)
    radius[[0, -1]] = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = float(np.min(d - radius))
        hi = float(np.max(d + radius))
        scale = max(abs(lo), abs(hi), 1.0)
        lo -= 2.0 * eps * scale
        hi += 2.0 * eps * scale
        pivmin = max(np.finfo(float).tiny / eps, eps * eps * scale)
        cluster_tol = linalg._CLUSTER * scale
        target = np.arange(1, n + 1)
        lower, upper = level_multisect(d, np.full(n, lo), np.full(n, hi),
                                       target, pivmin,
                                       linalg._BRACKET_WIDTH * scale)
        lam = 0.5 * (lower + upper)
        vectors = np.empty((n, n))
        residual = np.empty(n)
        near = lower[1:] - upper[:-1] <= cluster_tol
        bisect = np.append(near, False) | np.append(False, near)
        free = np.flatnonzero(~bisect)
        if free.size:
            shift = lam[free]
            for _ in range(linalg._CORRECTIONS):
                if shifts is not None:
                    shifts.append(shift)
                gamma, _, norm2 = linalg._twist(d, shift, pivmin)
                moved = shift + gamma / norm2
                inside = (moved >= lower[free]) & (moved <= upper[free])
                bisect[free[~inside]] = True
                shift = np.where(inside, moved, shift)
            if shifts is not None:
                shifts.append(shift)
            step, vectors[free], residual[free] = linalg._twisted(d, shift,
                                                                  pivmin)
            bisect[free[np.abs(step) > linalg._SETTLED * eps * scale]] = True
            lam[free] = shift
        rest = np.flatnonzero(bisect)
        if rest.size:
            lower, upper = level_multisect(d, lower[rest], upper[rest],
                                           target[rest], pivmin)
            lam[rest] = 0.5 * (lower + upper)
            _, vectors[rest], residual[rest] = linalg._twisted(d, lam[rest],
                                                               pivmin)
        first = np.searchsorted(lam, lam - cluster_tol)
        for k in np.flatnonzero(first < np.arange(n)):
            v = vectors[k]
            for u in vectors[first[k]:k]:
                v -= (u @ v) * u
            length = np.sqrt(v @ v)
            v /= length
            r = (d - lam[k]) * v
            r[:-1] += v[1:]
            r[1:] += v[:-1]
            residual[k] = np.sqrt(r @ r) if length > linalg._KEPT else np.inf
    return lam, vectors, residual
