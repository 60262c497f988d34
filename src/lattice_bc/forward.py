"""Forward lattice dynamics with boundary control.

The evolution is the discrete wave equation associated with the Jacobi
operator (potential on the diagonal, unit hopping):

    u_{n,t+1} = u_{n+1,t} + u_{n-1,t} - b_n u_{n,t} - u_{n,t-1}

posed on n >= 1 with zero initial data u_{n,-1} = u_{n,0} = 0 and a
boundary control u_{0,t} = f_t injected at the virtual site n = 0.
Signals propagate one site per step, so u_{n,t} = 0 for n > t and the
T steps a control f_0..f_{T-1} drives never see sites beyond n = T:
truncating the half-line at n = T is exact, not an approximation.

One stepper, _wave_steps, runs this recurrence for every table here
and in bc_ops, over a stack of potentials and a band of sites behind a
zero wall: fed a control, it is the interval problem, whose Dirichlet
wall that is; without one, the Goursat fill of the triangular kernel w.
A wrong value at the wall needs one step per site to travel back, so
with a band of rows sites the fill's first row w_{1,s} = r_s is exact
for s <= 2 rows, and its whole wedge for orders up to rows.  A kernel
of order K thus needs only ceil(K/2) sites, and a table of order S
needs S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (as_float_array, chebyshev_seq, check_count, check_horizon,
                   check_potential, convolve, float_array)
from .spectral import check_spectral


@dataclass(frozen=True)
class WaveField:
    """Solution table values[n, t] for 0 <= n <= n_max, 0 <= t <= t_max.

    Row 0 carries the control (or the boundary condition of an interval
    problem); rows n >= 1 are interior amplitudes.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = float_array(self.values, "field table")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("field table must be a nonempty 2-D array")
        object.__setattr__(self, "values", arr)

    @property
    def n_max(self):
        return self.values.shape[0] - 1

    @property
    def t_max(self):
        return self.values.shape[1] - 1

    def boundary_trace(self):
        """The observed row (u_{1,1}, ..., u_{1,t_max})."""
        if self.n_max < 1:
            raise ValueError("field has no interior row")
        return self.values[1, 1:].copy()


@dataclass(frozen=True)
class GoursatKernel:
    """Triangular kernel table w_{n,s}, 0 <= n, s <= order.

    Entries with n > s (outside the wedge) and the whole row n = 0 are
    stored as exact zeros, so recurrences may read the table blindly.
    """

    table: np.ndarray

    def __post_init__(self):
        arr = float_array(self.table, "kernel table")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("kernel table must be square")
        object.__setattr__(self, "table", arr)

    @property
    def order(self):
        return self.table.shape[0] - 1

    def value(self, n, s):
        """w_{n,s} with the implicit zeros outside the stored wedge."""
        n = check_count(n, 0, "kernel indices must be nonnegative")
        s = check_count(s, 0, "kernel indices must be nonnegative")
        if n > self.order or s > self.order:
            raise ValueError("kernel index beyond stored order")
        return float(self.table[n, s])


def _control(f):
    """The horizon T = len(f) > 0 and row 0 of a controlled table, f, 0."""
    f = as_float_array(f, "control")
    if f.size == 0:
        raise ValueError("control must be nonempty")
    return f.size, np.append(f, 0.0)


def solve_semi_infinite(b, f):
    """Evolve the controlled half-line lattice for T = len(f) steps.

    Returns a WaveField of shape (T+1, T+1); row 0 holds the control
    padded with a trailing zero so that values[0, t] = f_t for t < T.
    The potential is zero-padded beyond len(b): by finite speed the
    entries b_n with n > T never influence the table, and a shorter b
    means the tail of the half-line is free.  For the same reason the
    interval 1..T with its wall at T+1 runs the same recurrence to the
    same bits on rows 0..T, so that is how the table is computed.
    """
    b = check_potential(b)
    T, control = _control(f)
    return WaveField(_table(b, T, T, control)[:T + 1])


def _wave_steps(b, S, rows, control=None):
    """The wave recurrence on a stack of potentials, one time step at a time.

    b is an (M, L) float array, zero-padded or cut to its first rows
    sites.  Yields, for s = 0..S, the (rows + 2, M) slab u_s with
    u_s[n, m] = u_{n,s} for the potential b[m]: the stack axis is last,
    sites 1..rows form a fixed band, and row rows + 1 is a zero wall.
    Given control (S + 1,), row 0 of u_s holds control[s] for the whole
    stack, and the steps run from s = 1 on zero initial data.  Without
    it the slabs are the Goursat fill w_{n,s}: row 0 stays zero, the
    steps run from s = 2, and w_{s,s} = -(b_1 + ... + b_s) is set for
    s <= rows.  Step s reads only u_{s-1} and u_{s-2}, so three slabs
    rotate, their shifted views are made once, and memory stays
    O(M rows); a yielded slab is rewritten three steps on, so the
    caller copies what it keeps.  Every entry is the same arithmetic as
    a run of that potential alone, and for finite b the fill's entries
    outside the wedge (n > s) stay +0.0.
    """
    M = b.shape[0]
    band = np.zeros((rows, M))
    band[:min(b.shape[1], rows)] = b[:, :rows].T
    if control is None:
        diag = -np.cumsum(band, axis=0)
    tmp = np.empty((rows, M))
    slabs = [np.zeros((rows + 2, M)) for _ in range(3)]
    # (slab, its band n, the band's neighbours n + 1 and n - 1)
    older, last, new = ((x, x[1:rows + 1], x[2:], x[:rows]) for x in slabs)
    first = 2 if control is None else 1
    for s in range(S + 1):
        slab, here = new[:2]
        if s >= first:
            np.add(last[2], last[3], out=here)
            np.multiply(band, last[1], out=tmp)
            here -= tmp
            here -= older[1]
        if control is not None:
            slab[0] = control[s]
        elif 1 <= s <= rows:
            slab[s] = diag[s - 1]
        yield slab
        older, last, new = last, new, older


def _table(b, S, rows, control=None):
    """The (rows + 2, S + 1) table of the one potential b, column s the
    slab u_s of _wave_steps."""
    table = np.empty((rows + 2, S + 1))
    for s, u in enumerate(_wave_steps(b[None], S, rows, control)):
        table[:, s] = u[:, 0]
    return table


def solve_goursat(b, S):
    """Fill the triangular kernel w up to order S for the potential b.

    Characteristic data on the diagonal, w_{n,n} = -(b_1 + ... + b_n),
    and the interior recurrence (increasing second index)

        w_{n,s} = w_{n+1,s-1} + w_{n-1,s-1} - b_n w_{n,s-1} - w_{n,s-2}

    with w_{0,s} = 0 and implicit zeros below the diagonal.  Requires
    len(b) >= S since b_S enters the last diagonal entry.  This is the
    one-potential case of the fill behind bc_ops's kernels, with a band
    of S sites, so its wall at S + 1 lies beyond the wedge, and with
    every step kept.
    """
    S = check_horizon(S, "order")
    b = check_potential(b, S, "potential too short for requested order")
    return GoursatKernel(_table(b, S, S)[:S + 1])


def apply_representation(kernel, f, n, t):
    """Evaluate u_{n,t} = f_{t-n} + sum_{s=n}^{t-1} w_{n,s} f_{t-s-1}.

    The control f is treated as zero outside its stored range.  The
    kernel, a GoursatKernel, must cover second indices up to t-1
    whenever the sum is nonempty.
    """
    n = check_horizon(n, "site index")
    t = check_count(t, 0, "time index must be nonnegative")
    f = as_float_array(f, "control")
    if not isinstance(kernel, GoursatKernel):
        raise ValueError("kernel must be a GoursatKernel")
    if t > n and kernel.order < t - 1:
        raise ValueError("kernel coverage insufficient for requested time")
    total = f[t - n] if 0 <= t - n < f.size else 0.0
    for s in range(n, t):
        j = t - s - 1
        if 0 <= j < f.size:
            total += kernel.table[n, s] * f[j]
    return float(total)


def solve_interval(b, N, f):
    """Evolve the finite interval 1..N with a Dirichlet wall at N+1.

    Same recurrence and boundary control as the half-line problem but
    with u_{N+1,t} = 0 enforced; returns a WaveField of shape
    (N+2, T+1), T = len(f), read from _wave_steps with a band of N
    sites.  Requires len(b) >= N.
    """
    N = check_horizon(N, "interval size")
    T, control = _control(f)
    b = check_potential(b, N, "potential too short for interval size")
    return WaveField(_table(b, T, N, control))


def interval_fourier_solution(sd, f):
    """Interval solution synthesized from spectral data.

    v_{n,t} = sum_k c^k_t phi^k_n with coefficients driven by the
    control through the eigenvalue recurrence; concretely c^k is the
    Cauchy product of the control with the Chebyshev sequence at
    lambda_k, weighted by 1/rho_k.  Requires eigenvectors in sd.
    Returns a WaveField of shape (N+2, len(f)+1) matching solve_interval.
    """
    sd = check_spectral(sd)
    if sd.eigenvectors is None:
        raise ValueError("spectral data must include eigenvectors")
    T, control = _control(f)
    N = sd.size
    v = np.zeros((N + 2, T + 1))
    v[0] = control
    cheb = chebyshev_seq(T, sd.eigenvalues)
    for k in range(N):
        coeff = convolve(cheb[:, k], control[:T])[:T + 1] / sd.norming[k]
        v[1:N + 1] += np.outer(sd.eigenvectors[k], coeff)
    return WaveField(v)
