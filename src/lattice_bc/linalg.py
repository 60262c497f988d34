"""Eigensolver for the unit-coupled Jacobi matrix, over the whole spectrum.

T is the symmetric tridiagonal matrix with diagonal d and every
off-diagonal 1, the discrete Schrodinger operator's, so e_i^2 = 1 in
every recurrence and the Gershgorin radius is 1 at the ends and 2
inside.  tridiag_eigensystem brackets every eigenvalue by multisection
on Sturm counts (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8,
1987), to _BRACKET_WIDTH of the Gershgorin scale in at most three
Sturm passes, then refines it by Rayleigh-quotient steps through a
twisted factorization of T - lambda, which also gives its eigenvector
as products of pivot ratios (Fernando, SIAM J. Matrix Anal. Appl. 18,
1997; Dhillon & Parlett, Linear Algebra Appl. 387, 2004).  Everything
is deterministic numpy array arithmetic; numpy.linalg is deliberately
not used so that library results and test oracles stay independent.

Both kernels spend their work on arithmetic, and each site costs few
numpy calls.  A multisection pass counts one tree of nested midpoints
per distinct bracket, as deep as a fixed budget of shifts allows: in
the first pass every eigenvalue shares the Gershgorin bracket, and one
tree takes ten halvings for all of them.  The trees are held in order,
as one ascending array of bracket edges per pass, each level's
midpoints written in place between the edges above them.  The walk
down the trees follows the flat position of each eigenvalue's lower
edge, one update per level, and the width test runs only at the levels
where it can hold.  The count keeps the pivots of a block of 32 sites
in a reused buffer, so a site costs a reciprocal and a subtract, and
the sign bits are counted once per block.  The twisted factorization
runs its recurrences unclamped in IEEE arithmetic on contiguous tables
and reruns, with pivots clamped away from zero, only the shifts where a
pivot that divides came within pivmin of zero (the fast path with a
careful rerun of Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28,
2006).  A Rayleigh-quotient step reads only gamma_r and |z|^2 of it,
and each step after the first factors again only the rows whose shift
moved; the vectors at the final shift are those of the last
factorization of each row, made unit in place with their residual
bounds.  All of it gives the same bits as one tree per eigenvalue, a
pivot and a count per site, a clamp at every pivot, and every row
factored at every step.
"""

from __future__ import annotations

import numpy as np

from .core import as_float_array

_EPS = np.finfo(float).eps

# cap on the bisection halvings per eigenvalue and per call of _multisect
_BISECTION_STEPS = 160
# shifts counted by one Sturm pass: a pass over U distinct brackets
# takes the deepest tree with U * (2**depth - 1) shifts within the
# budget, and at least _MIN_DEPTH halvings, so deeper trees trade
# shifts for Python steps
_PASS_SHIFTS = 1023
_MIN_DEPTH = 4
# sites whose Sturm pivots one block of the count holds, at most 127
# for its int8 sum of sign bits; at about 1000 shifts the block is
# 256 KB, and a pass at N = 64 takes two blocks
_COUNT_BLOCK = 32
# bracket width, relative to the Gershgorin scale, at which bisection
# hands an isolated eigenvalue to Rayleigh-quotient steps.  The
# Gershgorin bracket is at most 2 scales wide, so 1e-5 takes 18
# halvings: the first pass's 10 and two later passes of 4 or more.
# 1e-6 would take 21, a fourth Sturm pass, and gain no eigenvalue
# digits after the _CORRECTIONS steps
_BRACKET_WIDTH = 1e-5
# Rayleigh-quotient steps per isolated eigenvalue; the step that the
# vector pass at the final shift proposes must be at most _SETTLED
# roundings of the scale, or the eigenvalue is bisected
_CORRECTIONS = 3
_SETTLED = 4.0
# eigenvalues within _CLUSTER times the row-sum norm of a neighbour
# are bisected to roundoff, and their vectors orthogonalized
_CLUSTER = 1e-6
# share of its length a vector must keep through the Gram-Schmidt pass
# against its partners, or its row reports an infinite residual
_KEPT = 1e-3


class ConvergenceFailure(Exception):
    """Eigendata failed a collision, finiteness or residual check."""


def _sturm_counts(d, xs):
    """Number of eigenvalues strictly below each shift in xs.

    Counts the pivots q_1 = d_1 - x, q_i = d_i - x - 1 / q_{i-1} with a
    set sign bit, unclamped: in IEEE arithmetic a zero pivot makes the
    next one infinite and the one after finite again (Demmel, Dhillon &
    Ren, Electron. Trans. Numer. Anal. 3, 1995).
    """
    xs = np.asarray(xs, dtype=float)
    n = d.size
    # pivots of _COUNT_BLOCK sites at a time, in a buffer reused in
    # place: a block's rows start as d_i - x, each site then subtracts
    # 1 / q of the row above it, and the sign bits are counted once per
    # block.  The arithmetic stays that of q = d_i - x - 1 / q
    q = np.empty((min(n, _COUNT_BLOCK),) + xs.shape)
    # the block's rows as views made once, not once per site
    pivot = list(q)
    tmp = np.empty(xs.shape)
    negative = np.empty(q.shape, dtype=bool)
    count = np.zeros(xs.shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, n, _COUNT_BLOCK):
            rows = min(_COUNT_BLOCK, n - start)
            if start:
                # the last pivot of the block before, read before the
                # block's rows overwrite it
                np.reciprocal(pivot[-1], out=tmp)
            np.subtract(d[start:start + rows, None], xs, out=q[:rows])
            if start:
                pivot[0] -= tmp
            for j in range(1, rows):
                np.reciprocal(pivot[j - 1], out=tmp)
                pivot[j] -= tmp
            # a pivot of -0.0 counts as negative, as its sign bit says;
            # the signs of a block of at most 127 sites sum in int8
            np.signbit(q[:rows], out=negative[:rows])
            count += negative[:rows].view(np.int8).sum(axis=0, dtype=np.int8)
    return count


def _multisect(d, lower, upper, target, pivmin, width=None):
    """Bisect the brackets [lower, upper] of eigenvalues number target.

    Each Sturm pass counts one full tree of nested midpoints
    0.5 * (lower + upper) per distinct bracket, as deep as _PASS_SHIFTS
    allows, and the walk down that tree then applies the halvings one
    level at a time, with the stopping test and the _BISECTION_STEPS
    cap checked before each.  Stops once every bracket is at most width
    wide, or at roundoff scale when width is None; a NaN bracket never
    stops, so its walk runs to the cap.  With a width, the test is left
    out at the levels where the pass's widest bracket, halved once per
    level, is still over 2 * width: rounding moves a width by about an
    ulp of its ends, far below width, so the test cannot hold there.
    """
    def settled(lower, upper):
        # max <= width has the truth value of all(... <= width), a NaN
        # width of a bracket included
        if width is not None:
            return bool((upper - lower).max() <= width)
        tol = _EPS * np.maximum(np.abs(lower), np.abs(upper)) + 2.0 * pivmin
        return bool(np.all(upper - lower <= tol))

    # the width test cannot hold while a pass's widest bracket, halved
    # once per level, is over twice the width; the roundoff test always
    # can
    limit = np.inf if width is None else 2.0 * width
    steps = 0
    while steps < _BISECTION_STEPS and not settled(lower, upper):
        # NaN with a NaN bracket, and then the test runs at every level
        widest = float((upper - lower).max())
        # brackets equal bit for bit share one tree, column group[k] for
        # eigenvalue k.  Equal brackets sit in adjacent rows, because
        # brackets that start equal part on one count, which splits
        # ascending targets in two; were a run split, its tree would
        # only be counted twice
        bits = np.stack((lower, upper), axis=1).view(np.int64)
        new = np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1)))
        group = np.cumsum(new) - 1
        first = np.flatnonzero(new)
        size = first.size
        depth = max(_MIN_DEPTH, (_PASS_SHIFTS // size + 1).bit_length() - 1)
        # the tree in order: rows 0 and 2**depth of edges hold the
        # bracket's ends, and row i between them the nested midpoint at
        # i / 2**depth of its width, formed from the two rows that bound
        # it a level above
        edges = np.empty((2 ** depth + 1, size))
        edges[0] = lower[first]
        edges[-1] = upper[first]
        for level in range(depth):
            stride = 2 ** (depth - level)
            mid = edges[stride // 2::stride]
            np.add(edges[:-1:stride], edges[stride::stride], out=mid)
            mid *= 0.5
        # the walk keeps, per eigenvalue, the flat position in edges of
        # its bracket's lower end: the upper end lies span on and the
        # midpoint span / 2 on, whose count sits size places earlier in
        # counts, which start at row 1
        flat = edges.ravel()
        counts = _sturm_counts(d, edges[1:-1].ravel())
        at = group
        span = 2 ** depth * size
        for level in range(depth):
            if level and (steps == _BISECTION_STEPS or (
                    not widest > limit
                    and settled(flat[at], flat[at + span]))):
                break
            span //= 2
            at += (counts[at + (span - size)] < target) * span
            steps += 1
            widest *= 0.5
        lower, upper = flat[at], flat[at + span]
    return lower, upper


def _pivots(rows, pivmin=None):
    """Pivots p_0 = rows_0, p_i = rows_i - 1 / p_{i-1}, columnwise.

    With pivmin, each pivot within pivmin of zero is set to -pivmin
    before it divides; the last pivot, which divides nothing, is left
    to the caller.
    """
    pivots = np.empty_like(rows)
    tmp = np.empty(rows.shape[1:])
    pivots[0] = rows[0]
    above = pivots[0]
    sites = zip(rows[1:], pivots[1:])
    if pivmin is None:
        for row, below in sites:
            np.subtract(row, np.reciprocal(above, out=tmp), out=below)
            above = below
        return pivots
    for row, below in sites:
        np.copyto(above, -pivmin, where=np.abs(above) <= pivmin)
        np.subtract(row, np.reciprocal(above, out=tmp), out=below)
        above = below
    return pivots


def _twist(d, lam, pivmin):
    """Twisted factorizations of T - lam_k for a stack of shifts.

    With a_i = d_i - lam_k, the stationary pivots D_i = a_i - 1 / D_{i-1}
    run down from the top, the progressive pivots R_i = a_i - 1 / R_{i+1}
    up from the bottom, and gamma_i = D_i + R_i - a_i.  At the twist
    r = argmin |gamma_i|, the vector z with z_r = 1, z_i = -z_{i+1} / D_i
    above r and z_i = -z_{i-1} / R_i below it, solves
    (T - lam_k) z = gamma_r e_r.  Returns gamma_r, the vectors z as the
    rows of a (K, n) array, and |z|^2: the Rayleigh-quotient step
    gamma_r / |z|^2 reads nothing more.  Each shift's results have the
    same bits in any stack of shifts, so a caller may keep them for a
    shift that does not move.
    """
    n = d.size
    # row i of the (n, 2, K) table holds site i for every shift, so each
    # step reads contiguous memory; one loop runs both recurrences, the
    # progressive one on reversed rows
    rows = np.empty((n, 2, lam.size))
    a = rows[:, 0]
    np.subtract(d[:, None], lam, out=a)
    rows[:, 1] = a[::-1]
    # where every pivot that divides stays beyond pivmin the clamp never
    # acts; only the other recurrences, NaN included, are rerun clamped.
    # A shift far from every eigenvalue may overflow; its row then fails
    # the caller's finiteness check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pivots = _pivots(rows)
        rerun = ~np.all(np.abs(pivots[:-1]) > pivmin, axis=0)
        if rerun.any():
            pivots[:, rerun] = _pivots(rows[:, rerun], pivmin)
        last = pivots[-1]
        np.copyto(last, -pivmin, where=np.abs(last) <= pivmin)
        top = pivots[:, 0]
        bottom = pivots[::-1, 1]
        gamma = top + bottom - a
        twist = np.argmin(np.abs(gamma), axis=0)
        gamma = gamma[twist, np.arange(lam.size)]
        # ratios z_i / z_{i+1} above the twist and z_i / z_{i-1} below
        # it; ones elsewhere, so two running products meet at z_r = 1.
        # Every row is divided and the ones then chosen, which keeps the
        # quotients of a divide under a mask without its slow path; no
        # site is below a twist at the last row or above one at the first
        site = np.arange(n)[:, None]
        up = np.where(site < twist, np.divide(-1.0, top), 1.0)
        down = np.where(site > twist, np.divide(-1.0, bottom), 1.0)
        np.multiply.accumulate(up[::-1], axis=0, out=up[::-1])
        np.multiply.accumulate(down, axis=0, out=down)
        up *= down
        z = np.ascontiguousarray(up.T)
        return gamma, z, np.einsum("kn,kn->k", z, z)


def _unit(gamma, z, norm2):
    """_twist's gamma_r, vectors z and |z|^2 as the Rayleigh-quotient
    step gamma_r / |z|^2, the unit vectors z / |z|, made in place in z,
    and the residual bounds |gamma_r| / |z|.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm = np.sqrt(norm2)
        z /= norm[:, None]
        return gamma / norm2, z, np.abs(gamma) / norm


def _twisted(d, lam, pivmin):
    """_twist with its vectors made unit by _unit."""
    return _unit(*_twist(d, lam, pivmin))


def _moved(before, after):
    """Positions where after differs from before in its bits: +0.0 and
    -0.0 differ, as d - lam then does in the sign of a zero, and a NaN
    matches the same NaN."""
    return np.flatnonzero(before.view(np.int64) != after.view(np.int64))


def tridiag_eigensystem(d):
    """Eigenvalues, unit eigenvectors and residuals of the Jacobi matrix T
    with diagonal d and unit off-diagonals.

    Returns the eigenvalues in ascending order, the matching unit
    eigenvectors as the rows of an (n, n) array, and for each row a
    bound on |T v - lambda v|: |gamma_r| / |z| from the twisted
    factorization that gave the vector, or the residual itself for a
    vector that took a Gram-Schmidt pass.  Eigenvalues within
    _CLUSTER |T| of a neighbour are bisected to roundoff, and each
    vector is orthogonalized against those of the lower eigenvalues
    within _CLUSTER |T| of its own; a vector that loses all but
    _KEPT of its length to them, as the second of an exactly repeated
    eigenvalue does, reports an infinite residual.  A row whose
    Rayleigh-quotient step leaves its shift's bits unchanged keeps its
    factorization for the next step and for its vector.  Nothing here
    raises or warns on convergence or overflow: callers judge the
    residuals.
    d must be a nonempty 1-D array of finite reals, or ValueError.
    """
    d = as_float_array(d, "diagonal")
    n = d.size
    if n == 0:
        raise ValueError("diagonal must be nonempty")
    if n == 1:
        return d.copy(), np.ones((1, 1)), np.zeros(1)
    radius = np.full(n, 2.0)
    radius[[0, -1]] = 1.0
    # a diagonal near the float64 limit overflows the bounds, the
    # midpoints or the pivots; its rows fail the caller's finiteness check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = float(np.min(d - radius))
        hi = float(np.max(d + radius))
        # the row-sum norm max(|d_i| + radius_i, 1), bit for bit
        scale = max(abs(lo), abs(hi), 1.0)
        lo -= 2.0 * _EPS * scale
        hi += 2.0 * _EPS * scale
        pivmin = max(np.finfo(float).tiny / _EPS, _EPS * _EPS * scale)
        cluster_tol = _CLUSTER * scale
        target = np.arange(1, n + 1)
        lower, upper = _multisect(d, np.full(n, lo), np.full(n, hi), target,
                                  pivmin, _BRACKET_WIDTH * scale)
        lam = 0.5 * (lower + upper)
        vectors = np.empty((n, n))
        residual = np.empty(n)
        # rows whose bracket comes within cluster_tol of a neighbour's
        near = lower[1:] - upper[:-1] <= cluster_tol
        bisect = np.append(near, False) | np.append(False, near)
        free = np.flatnonzero(~bisect)
        if free.size:
            shift = lam[free]
            gamma, z, norm2 = _twist(d, shift, pivmin)
            for _ in range(_CORRECTIONS):
                moved = shift + gamma / norm2
                inside = (moved >= lower[free]) & (moved <= upper[free])
                bisect[free[~inside]] = True
                before = shift
                shift = np.where(inside, moved, shift)
                # _twist gives each shift the same bits in any stack, so
                # a row whose shift kept its bits keeps its factorization
                again = _moved(before, shift)
                if again.size:
                    gamma[again], z[again], norm2[again] = _twist(
                        d, shift[again], pivmin)
            # the vectors come from the factorization at the final
            # shift, whose own step shows whether the shift has settled
            step, vectors[free], residual[free] = _unit(gamma, z, norm2)
            bisect[free[np.abs(step) > _SETTLED * _EPS * scale]] = True
            lam[free] = shift
        rest = np.flatnonzero(bisect)
        if rest.size:
            lower, upper = _multisect(d, lower[rest], upper[rest],
                                      target[rest], pivmin)
            lam[rest] = 0.5 * (lower + upper)
            _, vectors[rest], residual[rest] = _twisted(d, lam[rest], pivmin)
        # partners of k: the lower eigenvalues within cluster_tol of lam[k]
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
            # a vector that its partners all but cancel has lost its
            # orthogonality to them along with its length
            residual[k] = np.sqrt(r @ r) if length > _KEPT else np.inf
    return lam, vectors, residual
