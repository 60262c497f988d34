"""Tridiagonal linear algebra kernels.

Everything here is deterministic and dependency-free beyond numpy array
arithmetic: a Sturm-bisection eigensolver with inverse iteration for
Jacobi (tridiagonal, unit off-diagonal) matrices.  Both halves work on
the whole spectrum at once.  Bisection is multisection (Lo, Philippe &
Sameh, SIAM J. Sci. Stat. Comput. 8, 1987): one Sturm pass counts a
depth-_MULTISECTION_DEPTH tree of nested midpoints for every
eigenvalue, and a walk down the tree takes the same halvings that
one-midpoint-per-pass bisection takes.  Inverse iteration runs over a
stack of shifts, and the pivoted tridiagonal solve treats that stack
row by row with the same arithmetic as a single right-hand side.  Every
eigenvalue and eigenvector is therefore bit for bit what the
one-at-a-time algorithm gives.  numpy.linalg is deliberately not used
so that library results and test oracles stay independent.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps

# iteration caps of the eigensolver: bisection halvings per eigenvalue
# and inverse-iteration sweeps per eigenvector
_BISECTION_STEPS = 160
_INVERSE_SWEEPS = 12
# halvings taken from one Sturm pass: the pass counts 2**depth - 1
# shifts per eigenvalue, so deeper trees trade shifts for Python steps
_MULTISECTION_DEPTH = 4


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
    tmp = np.empty_like(q)
    tiny = np.empty(q.shape, dtype=bool)
    count = np.zeros(q.shape, dtype=np.int64)
    # the buffers are reused in place; the arithmetic stays that of
    # q = d_i - x - e2 / q, elementwise
    for i in range(d.size):
        if i:
            np.divide(e2[i - 1], q, out=tmp)
            np.subtract(d[i], xs, out=q)
            q -= tmp
        np.abs(q, out=tmp)
        np.less_equal(tmp, pivmin, out=tiny)
        np.copyto(q, -pivmin, where=tiny)
        np.less(q, 0.0, out=tiny)
        count += tiny
    return count


def _converged(lower, upper, pivmin):
    tol = _EPS * np.maximum(np.abs(lower), np.abs(upper)) + 2.0 * pivmin
    return bool(np.all(upper - lower <= tol))


def tridiag_eigenvalues(d, e):
    """All eigenvalues, ascending, of the symmetric tridiagonal (d, e).

    Bisection on Sturm sign counts, bracketed by Gershgorin bounds and
    vectorized over the spectrum, until every interval width reaches
    roundoff scale.  Each Sturm pass is a multisection: it counts the
    full tree of _MULTISECTION_DEPTH nested midpoints 0.5 * (lower +
    upper) of every interval, and the walk down that tree then applies
    the halvings one level at a time, with the stopping test and the
    _BISECTION_STEPS cap checked before each.  So the path and the
    result are those of bisection with one midpoint per pass.
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
    cols = np.arange(n)
    steps = 0
    while steps < _BISECTION_STEPS and not _converged(lower, upper, pivmin):
        # level j holds 2**j nodes per eigenvalue; node p's children are
        # p (count reached the target, keep the lower half) and p + 2**j
        level_lo, level_hi = lower[None], upper[None]
        mids = []
        for _ in range(_MULTISECTION_DEPTH):
            mid = 0.5 * (level_lo + level_hi)
            mids.append(mid)
            level_lo = np.concatenate((level_lo, mid))
            level_hi = np.concatenate((mid, level_hi))
        tree = np.concatenate(mids)
        counts = _sturm_counts(d, e2, tree.ravel(), pivmin).reshape(tree.shape)
        node = np.zeros(n, dtype=np.int64)
        for level in range(_MULTISECTION_DEPTH):
            if level and (steps == _BISECTION_STEPS
                          or _converged(lower, upper, pivmin)):
                break
            row = node + (2 ** level - 1)
            mid = tree[row, cols]
            take_upper = counts[row, cols] >= target
            upper = np.where(take_upper, mid, upper)
            lower = np.where(take_upper, lower, mid)
            node += ~take_upper * 2 ** level
            steps += 1
    return 0.5 * (lower + upper)


def tridiag_solve(d, e, rhs, pivmin):
    """Solve (tridiagonal) T x = rhs with partial pivoting and fill-in.

    d and rhs are either one system (shape (n,)) or a stack of K
    systems sharing the off-diagonal e (shape (K, n)); a single system
    is the K = 1 stack.  Each row takes its own pivoting branch, and
    its arithmetic is exactly that of solving it alone.  Zero pivots
    are perturbed to pivmin so the solve always returns; inverse
    iteration relies on that behaviour near exact shifts.
    """
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    # row i of the transposed (n, K) tables holds equation i of every
    # system, so each elimination step reads contiguous memory
    diag = np.array(np.atleast_2d(d).T, dtype=float, order="C")
    x = np.array(np.atleast_2d(rhs).T, order="C")
    lower = np.asarray(e, dtype=float)
    n = diag.shape[0]
    upper = np.repeat(lower[:, None], diag.shape[1], axis=1)
    upper2 = np.zeros((max(n - 2, 0), diag.shape[1]))
    # each step either keeps row i as the pivot row or swaps it with
    # row i + 1, then eliminates; the product that only the swap uses
    # is also formed, and may overflow, on rows that keep
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            d_i, d_next, u_i = diag[i], diag[i + 1], upper[i]
            x_i, x_next = x[i], x[i + 1]
            size = np.abs(d_i)
            keep = size >= np.abs(lower[i])
            pivot = np.where(keep, np.where(size <= pivmin, pivmin, d_i),
                             lower[i])
            fact = np.where(keep, lower[i], d_i) / pivot
            top_u = np.where(keep, u_i, d_next)
            diag[i + 1] = np.where(keep, d_next, u_i) - fact * top_u
            diag[i] = pivot
            upper[i] = top_u
            if i < n - 2:
                u_far = upper[i + 1]
                upper2[i] = np.where(keep, 0.0, u_far)
                upper[i + 1] = np.where(keep, u_far, -fact * u_far)
            top_x = np.where(keep, x_i, x_next)
            x[i + 1] = np.where(keep, x_next, x_i) - fact * top_x
            x[i] = top_x
    np.copyto(diag[n - 1], pivmin, where=np.abs(diag[n - 1]) <= pivmin)
    x[n - 1] /= diag[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - upper[n - 2] * x[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1] - upper2[i] * x[i + 2]) / diag[i]
    return x[:, 0] if single else np.ascontiguousarray(x.T)


def _tridiag_apply(d, e, v):
    out = d * v
    out[..., :-1] += e * v[..., 1:]
    out[..., 1:] += e * v[..., :-1]
    return out


def _row_norms(rows):
    # one 1-D dot per contiguous row: a batched reduction, or BLAS on a
    # strided row, may sum in another order
    return np.array([np.sqrt(row @ row) for row in rows])


def _project_out(rows, ortho):
    for u in ortho:
        rows -= np.array([u @ row for row in rows])[:, None] * u


def tridiag_eigenvector(d, e, lam, ortho=(), rel_tol=1e-10):
    """Unit eigenvectors of (d, e) for a stack of precomputed eigenvalues.

    lam is a 1-D array of K shifts.  Inverse iteration runs on all of
    them together from a deterministic start, each iterate
    re-orthogonalized every sweep against the supplied partners (rows
    of ortho, applied in order to every shift).  A row stops changing
    once its relative residual reaches rel_tol.  Returns the (K, n)
    vectors and a boolean mask of the rows that converged; each row is
    exactly what inverse iteration on that shift alone returns.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = d.size
    norm_t = float(np.max(np.abs(d) + np.concatenate(([0.0], np.abs(e)))
                          + np.concatenate((np.abs(e), [0.0])))) if n else 0.0
    norm_t = max(norm_t, 1.0)
    pivmin = max(np.finfo(float).tiny / _EPS, _EPS * _EPS * norm_t)
    vectors = np.full((lam.size, n), 1.0 / np.sqrt(n))
    done = np.zeros(lam.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(_INVERSE_SWEEPS):
            active = np.flatnonzero(~done)
            if active.size == 0:
                break
            shift = lam[active]
            v = vectors[active]
            _project_out(v, ortho)
            nv = _row_norms(v)
            lost = nv <= 0.0
            v[lost] = 0.0
            v[lost, sweep % n] = 1.0
            nv[lost] = 1.0
            v /= nv[:, None]
            w = tridiag_solve(d - shift[:, None], e, v, pivmin)
            nw = _row_norms(w)
            v = w / nw[:, None]
            _project_out(v, ortho)
            nv = _row_norms(v)
            v /= nv[:, None]
            residual = _tridiag_apply(d, e, v) - shift[:, None] * v
            ok = _row_norms(residual) <= rel_tol * norm_t
            # a blown-up solve, or an iterate swallowed by its cluster
            # partners, restarts from the next unit vector
            restart = ~np.isfinite(nw) | (nw == 0.0) | (nv <= 1e-3)
            v[restart] = 0.0
            v[restart, (sweep + 1) % n] = 1.0
            vectors[active] = v
            done[active] = ok & ~restart
    return vectors, done
