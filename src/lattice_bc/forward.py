"""Forward lattice dynamics with boundary control.

The evolution is the discrete wave equation associated with the Jacobi
operator (potential on the diagonal, unit hopping):

    u_{n,t+1} = u_{n+1,t} + u_{n-1,t} - b_n u_{n,t} - u_{n,t-1}

posed on n >= 1 with zero initial data u_{n,-1} = u_{n,0} = 0 and a
boundary control u_{0,t} = f_t injected at the virtual site n = 0.
Signals propagate one site per step, so u_{n,t} = 0 for n > t and a
horizon-T simulation never sees sites beyond n = T: truncating the
half-line at n = T is exact, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_float_array, chebyshev_seq, check_horizon, convolve


@dataclass(frozen=True)
class WaveField:
    """Solution table values[n, t] for 0 <= n <= n_max, 0 <= t <= t_max.

    Row 0 carries the control (or the boundary condition of an interval
    problem); rows n >= 1 are interior amplitudes.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
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
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("kernel table must be square")
        object.__setattr__(self, "table", arr)

    @property
    def order(self):
        return self.table.shape[0] - 1

    def value(self, n, s):
        """w_{n,s} with the implicit zeros outside the stored wedge."""
        if n < 0 or s < 0:
            raise ValueError("kernel indices must be nonnegative")
        if n > self.order or s > self.order:
            raise ValueError("kernel index beyond stored order")
        return float(self.table[n, s])


def _padded_potential(b, length):
    b = as_float_array(b, "potential")
    if b.size >= length:
        return b[:length].copy()
    out = np.zeros(length)
    out[:b.size] = b
    return out


def solve_semi_infinite(b, f, T):
    """Evolve the controlled half-line lattice for T steps.

    Returns a WaveField of shape (T+1, T+1); row 0 holds the control
    padded with a leading zero so that values[0, t] = f_t for t < T.
    The potential is zero-padded beyond len(b): by finite speed the
    entries b_n with n > T never influence the table, and a shorter b
    means the tail of the half-line is free.  For the same reason the
    interval 1..T with its wall at T+1 runs the same recurrence to the
    same bits on rows 0..T, so that is how the table is computed.
    """
    T = check_horizon(T)
    field = solve_interval(_padded_potential(b, T), T, f, T)
    return WaveField(field.values[:T + 1])


def _goursat_steps(b, S):
    """The kernel tables of a stack of potentials, one time step at a time.

    b is an (M, >= S) float array.  Yields, for s = 0..S, the (M, S + 1)
    slab w_s with w_s[m, n] = w_{n,s} for the potential b[m].  Step s
    reads only w_{s-1} and w_{s-2}, so three slabs rotate and memory
    stays O(M S) whatever the order; a yielded slab is rewritten three
    steps on, so the caller copies what it keeps.  Every entry is the
    same arithmetic as a fill of that potential alone.
    """
    M = b.shape[0]
    diag = -np.cumsum(b[:, :S], axis=1)
    older, last, new = (np.zeros((M, S + 1)) for _ in range(3))
    for s in range(S + 1):
        # the slab of step s - 3 is nonzero only on 1..s-3, all rewritten
        if s >= 2:
            new[:, 1:s] = (last[:, 2:s + 1] + last[:, 0:s - 1]
                           - b[:, 0:s - 1] * last[:, 1:s]
                           - older[:, 1:s])
        if s:
            new[:, s] = diag[:, s - 1]
        yield new
        older, last, new = last, new, older


def solve_goursat(b, S):
    """Fill the triangular kernel w up to order S for the potential b.

    Characteristic data on the diagonal, w_{n,n} = -(b_1 + ... + b_n),
    and the interior recurrence (increasing second index)

        w_{n,s} = w_{n+1,s-1} + w_{n-1,s-1} - b_n w_{n,s-1} - w_{n,s-2}

    with w_{0,s} = 0 and implicit zeros below the diagonal.  Requires
    len(b) >= S since b_S enters the last diagonal entry.  This is the
    one-potential case of the stacked fill behind bc_ops's kernels,
    with every step kept.
    """
    S = check_horizon(S, "order")
    b = as_float_array(b, "potential")
    if b.size < S:
        raise ValueError("potential too short for requested order")
    steps = [w[0].copy() for w in _goursat_steps(b[None], S)]
    return GoursatKernel(np.ascontiguousarray(np.array(steps).T))


def apply_representation(kernel, f, n, t):
    """Evaluate u_{n,t} = f_{t-n} + sum_{s=n}^{t-1} w_{n,s} f_{t-s-1}.

    The control f is treated as zero outside its stored range.  The
    kernel must cover second indices up to t-1 whenever the sum is
    nonempty.
    """
    n = check_horizon(n, "site index")
    if (not isinstance(t, (int, np.integer)) or isinstance(t, bool)
            or t < 0):
        raise ValueError("time index must be nonnegative")
    f = as_float_array(f, "control")
    t = int(t)
    if t > n and kernel.order < t - 1:
        raise ValueError("kernel coverage insufficient for requested time")
    total = f[t - n] if 0 <= t - n < f.size else 0.0
    for s in range(n, t):
        j = t - s - 1
        if 0 <= j < f.size:
            total += kernel.table[n, s] * f[j]
    return float(total)


def solve_interval(b, N, f, T):
    """Evolve the finite interval 1..N with a Dirichlet wall at N+1.

    Same recurrence and boundary control as the half-line problem but
    with u_{N+1,t} = 0 enforced; returns a WaveField of shape
    (N+2, T+1).  Requires len(b) >= N.
    """
    N = check_horizon(N, "interval size")
    T = check_horizon(T)
    f = as_float_array(f, "control")
    if f.size != T:
        raise ValueError("horizon and control length mismatch")
    b = as_float_array(b, "potential")
    if b.size < N:
        raise ValueError("potential too short for interval size")
    v = np.zeros((N + 2, T + 1))
    v[0, :T] = f
    bn = b[:N]
    for t in range(T):
        prev = v[1:N + 1, t - 1] if t >= 1 else 0.0
        v[1:N + 1, t + 1] = (v[2:N + 2, t] + v[0:N, t]
                             - bn * v[1:N + 1, t] - prev)
    return WaveField(v)


def interval_fourier_solution(sd, f, T):
    """Interval solution synthesized from spectral data.

    v_{n,t} = sum_k c^k_t phi^k_n with coefficients driven by the
    control through the eigenvalue recurrence; concretely c^k is the
    Cauchy product of the control with the Chebyshev sequence at
    lambda_k, weighted by 1/rho_k.  Requires eigenvectors in sd.
    Returns a WaveField of shape (N+2, T+1) matching solve_interval.
    """
    if sd.eigenvectors is None:
        raise ValueError("spectral data must include eigenvectors")
    T = check_horizon(T)
    f = as_float_array(f, "control")
    if f.size != T:
        raise ValueError("horizon and control length mismatch")
    N = sd.size
    v = np.zeros((N + 2, T + 1))
    v[0, :T] = f
    cheb = chebyshev_seq(T, sd.eigenvalues)
    for k in range(N):
        coeff = convolve(cheb[:, k], f)[:T + 1] / sd.norming[k]
        v[1:N + 1] += np.outer(sd.eigenvectors[k], coeff)
    return WaveField(v)
