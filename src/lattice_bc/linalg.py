"""Tridiagonal linear algebra kernels.

Everything here is deterministic and dependency-free beyond numpy array
arithmetic: a Sturm-bisection eigensolver with inverse iteration for
Jacobi (tridiagonal, unit off-diagonal) matrices.  numpy.linalg is
deliberately not used so that library results and test oracles stay
independent.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps

# iteration caps of the eigensolver: bisection halvings per eigenvalue
# and inverse-iteration sweeps per eigenvector
_BISECTION_STEPS = 160
_INVERSE_SWEEPS = 12


class ConvergenceFailure(Exception):
    """Eigen iteration did not reach the requested residual."""


def _sturm_counts(d, e2, xs, pivmin):
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


def tridiag_eigenvalues(d, e):
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
    for _ in range(_BISECTION_STEPS):
        width = upper - lower
        tol = _EPS * np.maximum(np.abs(lower), np.abs(upper)) + 2.0 * pivmin
        if np.all(width <= tol):
            break
        mid = 0.5 * (lower + upper)
        below = _sturm_counts(d, e2, mid, pivmin)
        take_upper = below >= target
        upper = np.where(take_upper, mid, upper)
        lower = np.where(take_upper, lower, mid)
    return 0.5 * (lower + upper)


def tridiag_solve(d, e, rhs, pivmin):
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


def _tridiag_apply(d, e, v):
    out = d * v
    out[:-1] += e * v[1:]
    out[1:] += e * v[:-1]
    return out


def tridiag_eigenvector(d, e, lam, ortho=(), rel_tol=1e-10):
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
    for sweep in range(_INVERSE_SWEEPS):
        for u in ortho:
            v -= (u @ v) * u
        nv = float(np.sqrt(v @ v))
        if nv <= 0.0:
            v = np.zeros(n)
            v[sweep % n] = 1.0
            nv = 1.0
        v /= nv
        w = tridiag_solve(shifted, e, v, pivmin)
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
        residual = _tridiag_apply(d, e, v) - lam * v
        if float(np.sqrt(residual @ residual)) <= rel_tol * norm_t:
            return v
    raise ConvergenceFailure(
        f"inverse iteration stalled at eigenvalue {lam!r}")
