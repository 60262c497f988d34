"""Dynamical inverse solvers and response-data characterization.

Three routes recover the potential from a response kernel prefix
(r_0, ..., r_{2T-2}):

* invert_krein           - solves the controllability system for the
                           lambda = 0 trace and reads b off its
                           three-term recurrence;
* invert_factorization   - layer stripping through the triangular
                           factorization of the reversed connecting
                           matrix;
* invert_gelfand_levitan - the discrete Gelfand-Levitan system.

All three, and characterize_response, read one LDL^T factorization of
the reversed connecting matrix C-bar.  C-bar is the Gram matrix of the
lattice Chebyshev values T_{s+1} under the functional with moments r_s,
so the modified Chebyshev algorithm (_moment_recursion) computes that
factorization, and the Jacobi coefficients of the potential, from r in
O(T^2).  Its pivots give the leading minors; the Gelfand-Levitan
systems are leading blocks of C-bar, so that route is the
factorization; the Krein systems of all horizons share one forward
substitution with L.

The recursion runs in numpy's long double.  On platforms where that
type is float64 (ARM macOS, Windows) it runs in float64, so verdict
bits and borderline outcomes can differ there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc_ops import apply_response_adjoint
from .core import Tolerances, check_horizon, check_kernel, kappa_seq

# relative floor below which a Krein trace value counts as vanished
_DEGENERACY_TOL = 1e-8
# The solvers' pivot floor, in units of the rounding scale
# (k + 1) eps max(diag C-bar) of an order-(k + 1) elimination.  A pivot
# only a few hundred roundings above that scale has no correct digits
# left, and the recursion then returns a wrong answer instead of
# raising: with the factor 1 instead of 1000, 9 of the 15 raising
# factorization instances at T = 64, amplitude 0.3 (seed 0, 50 draws)
# came back wrong.
_PIVOT_MARGIN = 1000.0
_EPS = np.finfo(float).eps


class InversionError(Exception):
    """Base class for failures of the inverse solvers."""


class DegenerateTrace(InversionError):
    """The lambda = 0 trace vanished at some site, blocking division."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"trace vanishes at site n = {self.index}")


class SingularConnecting(InversionError):
    """A connecting matrix was singular; the kernel is not admissible."""

    def __init__(self, horizon):
        self.horizon = int(horizon)
        super().__init__(
            f"connecting matrix singular at horizon {self.horizon}")


class SingularLeadingMinor(InversionError):
    """A leading block of the reversed connecting matrix was singular."""

    def __init__(self, order):
        self.order = int(order)
        super().__init__(f"singular leading block of order {self.order}")


@dataclass(frozen=True)
class KreinConfig:
    """Boundary data (alpha, beta) of the lambda = 0 comparison solution.

    The recovered trace satisfies y_0 = alpha, y_1 = beta; the default
    (0, 1) is the Dirichlet-like normalization.
    """

    alpha: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("alpha and beta must not both vanish")


@dataclass(frozen=True)
class CharacterizationVerdict:
    """Outcome of the admissibility test for a kernel prefix.

    minor_values[l-1] holds det of the order-l leading block of the
    reversed connecting matrix and pivot_values[l-1] its last LDL^T
    pivot, the ratio of successive minors, for l = 1..m: m is the last
    order the moment recursion reached, T unless a pivot was exactly
    zero (order m, included) or a value overflowed float64 (order
    m + 1, left out).  first_failing_order is the smallest l violating
    either condition, or None when admissible.
    """

    admissible: bool
    first_failing_order: int | None
    minor_values: np.ndarray
    pivot_values: np.ndarray


def _checked_kernel(r, T):
    T = check_horizon(T)
    r = check_kernel(r)
    if r.size < 2 * T - 1:
        raise ValueError("kernel must cover index 2T - 2")
    return r, T


def _moment_recursion(r, T):
    """LDL^T of C-bar and the Jacobi coefficients, from r_0..r_{2T-2}.

    The modified Chebyshev algorithm (Sack & Donovan 1971; Wheeler
    1974; Gautschi 2004, section 2.1.7) with modified moments r_l in
    the basis lambda p_l = p_{l+1} + p_{l-1}: sigma_{0,l} = r_l and,
    for k >= 1 and l = k..2T-k-2,

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
                      - beta_{k-1} sigma_{k-2,l} + sigma_{k-1,l-1},

    with alpha_k = L_{k+1,k} - L_{k,k-1}, beta_k = d_k / d_{k-1},
    pivots d_k = sigma_{k,k} and L_{ik} = sigma_{k,i} / sigma_{k,k}, so
    that C-bar = L diag(d) L^T.  b_{k+1} = -alpha_k for response data.

    Returns long double (alpha, d, L), stopping at the first pivot that
    is zero or not finite: d ends with it, alpha has len(d) - 1 entries
    and L unit columns from there on.
    """
    n = 2 * T - 1
    sigma = np.asarray(r[:n], dtype=np.longdouble)
    older = np.zeros(n, dtype=np.longdouble)
    alpha = np.empty(T - 1, dtype=np.longdouble)
    d = np.empty(T, dtype=np.longdouble)
    L = np.eye(T, dtype=np.longdouble)
    for k in range(T):
        if k:
            lo, hi = k, n - k
            row = np.zeros(n, dtype=np.longdouble)
            row[lo:hi] = (sigma[lo + 1:hi + 1] - alpha[k - 1] * sigma[lo:hi]
                          - beta * older[lo:hi] + sigma[lo - 1:hi - 1])
            older, sigma = sigma, row
        d[k] = sigma[k]
        if d[k] == 0 or not np.isfinite(d[k]):
            return alpha[:k], d[:k + 1], L
        L[k:, k] = sigma[k:T] / d[k]
        if k < T - 1:
            alpha[k] = L[k + 1, k] - (L[k, k - 1] if k else 0)
        beta = d[k] / d[k - 1] if k else d[k]
    return alpha, d, L


def _checked_recursion(r, T, order, error):
    """_moment_recursion with the solvers' pivot floor.

    Raises error(k + 1) at the first pivot d_k, k < order, that is not
    finite or not above _PIVOT_MARGIN (k + 1) eps s_k, where s_k, the
    largest |r_0 + r_2 + ... + r_{2j}| over j <= k, is the largest
    diagonal entry of C-bar's order-(k + 1) block (its largest entry
    when the block is positive definite).
    """
    alpha, d, L = _moment_recursion(r, T)
    scale = np.maximum.accumulate(np.abs(np.cumsum(r[:2 * order:2])))
    floor = _PIVOT_MARGIN * _EPS * np.arange(1, order + 1) * scale
    d_head = d[:order]
    failed = ~(np.isfinite(d_head) & (np.abs(d_head) > floor[:d_head.size]))
    if np.any(failed):
        raise error(np.argmax(failed) + 1)
    return alpha, d, L


def invert_krein(r, T, config=KreinConfig()):
    """Recover (b_1, ..., b_{T-1}) through the lambda = 0 trace.

    For each horizon tau = 1..T the control f^tau steering the system
    to the harmonic weight solves the connecting system

        C^tau f^tau = beta kappa^tau - alpha R^tau* kappa^tau,

    and the trace value is the first control component, y_tau = f^tau_0,
    with y_0 = alpha.  kappa^tau = kappa^T[T-tau:] is counted back from
    kappa_T = 0; the adjoint term pairs kappa with observation times,
    entry t of the paired sequence being kappa_{t} for t < tau and 0
    at t = tau (the summation-by-parts boundary term of the weighted
    trace identity).  Reversed, C^tau is the leading tau-block of C-bar
    and the right-hand sides are prefixes of one vector g, so
    y_tau = z_{tau-1} / d_{tau-1} for z = L^{-1} g.  The potential
    follows from b_n = (y_{n+1} + y_{n-1}) / y_n; a relatively vanishing
    y_n raises DegenerateTrace(n), a pivot at the floor
    SingularConnecting(tau).
    """
    r, T = _checked_kernel(r, T)
    if not isinstance(config, KreinConfig):
        raise ValueError("config must be a KreinConfig")
    _, d, L = _checked_recursion(r, T, T, SingularConnecting)
    kappa = kappa_seq(T)
    g = config.beta * kappa[::-1]
    if config.alpha != 0.0:
        paired = np.append(kappa[1:], 0.0)
        g = g - config.alpha * apply_response_adjoint(r, paired)[::-1]
    z = np.asarray(g, dtype=np.longdouble)
    for k in range(T - 1):
        z[k + 1:] -= L[k + 1:, k] * z[k]
    y = np.concatenate(([config.alpha], z / d))
    vanished = np.abs(y[1:T]) <= _DEGENERACY_TOL * np.max(np.abs(y))
    if np.any(vanished):
        raise DegenerateTrace(np.argmax(vanished) + 1)
    return ((y[2:] + y[:-2]) / y[1:-1]).astype(float)


def invert_factorization(r, T):
    """Recover (b_1, ..., b_{T-1}) by triangular factorization.

    In C-bar = L diag(d) L^T the subdiagonal of L carries the cumulative
    potential, L_{l+1,l} = -(b_1 + ... + b_{l+1}), so its successive
    differences, the Jacobi coefficients alpha, give b_n = -alpha_{n-1}.
    Only the leading blocks of order 1..T-1 enter, so entries of r
    beyond index 2T - 2 can never influence the result; a pivot at the
    floor raises SingularLeadingMinor(order).
    """
    r, T = _checked_kernel(r, T)
    alpha, _, _ = _checked_recursion(r, T, T - 1, SingularLeadingMinor)
    return -alpha.astype(float)


def invert_gelfand_levitan(r, T):
    """Recover (b_1, ..., b_{T-1}) from the Gelfand-Levitan system.

    Writing the reversed connecting matrix of each horizon tau as
    I + C-tilde, the kernel row solves

        (I + C-tilde)[:tau-1, :tau-1] x = -C-tilde[:tau-1, tau-1]

    and the recovered diagonal entry is the last component.  The
    reversed matrix of horizon tau is the leading tau-block of C-bar
    for horizon T, so I + C-tilde is a leading block of C-bar and the
    right-hand side the next column above the diagonal: these are the
    linear systems invert_factorization solves, which this route
    therefore is.
    """
    return invert_factorization(r, T)


def characterize_response(r, T, tol=Tolerances()):
    """Decide whether (r_0, ..., r_{2T-2}) is admissible response data.

    Admissible means the prefix is the response kernel of some real
    potential of length T - 1, which holds iff the reversed connecting
    matrix is positive definite with every leading principal
    determinant equal to one.  Both facts are read off the LDL^T
    pivots d of the moment recursion, with no floor: the minors
    m_l = d_0 ... d_{l-1} must satisfy |m_l - 1| <= det_tol and the
    pivots d_{l-1} > pivot_tol for l = 1..T.  Inadmissibility is a
    verdict, not an error.
    """
    r, T = _checked_kernel(r, T)
    if not isinstance(tol, Tolerances):
        raise ValueError("tol must be a Tolerances instance")
    _, d, _ = _moment_recursion(r, T)
    with np.errstate(over="ignore"):
        minors = np.cumprod(d).astype(float)
        pivots = d.astype(float)
    finite = np.isfinite(minors) & np.isfinite(pivots)
    m = d.size if np.all(finite) else int(np.argmin(finite))
    minors, pivots = minors[:m], pivots[:m]
    # orders past a zero pivot or a float64 overflow fail unreported
    passed = np.zeros(T, dtype=bool)
    passed[:m] = ((np.abs(minors - 1.0) <= tol.det_tol)
                  & (pivots > tol.pivot_tol))
    first = None if np.all(passed) else int(np.argmin(passed)) + 1
    return CharacterizationVerdict(
        admissible=first is None,
        first_failing_order=first,
        minor_values=minors,
        pivot_values=pivots,
    )
