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
substitution with L, done inside the recursion.

The recursion runs on an (M, 2T-1) stack of kernels, one Python step
per order for the whole stack, and each public function is its M = 1
case: it runs the stack of one and reads that kernel's column.
_solve_stack reads the verdict, the factorization and Krein for every
kernel of a larger stack from one recursion; the round-trip report
calls it once per block of instances, with the same bits per kernel as
the public functions.

The recursion runs in numpy's long double.  On platforms where that
type is float64 (ARM macOS, Windows) it runs in float64, so verdict
bits and borderline outcomes can differ there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Recursion(NamedTuple):
    """The moment recursion of a stack of M kernels, in long double.

    Column m of alpha (T - 1, M), of the pivots d (T, M) and of
    z = L^{-1} g (T, M, or None without g) belongs to kernel m.  stop
    is the index of each kernel's first zero pivot and floor_fail that
    of its first pivot not above the solvers' floor, each T when there
    is none.  A kernel's entries past its stop, or past a non-finite
    pivot, are never read.
    """

    alpha: np.ndarray
    d: np.ndarray
    z: np.ndarray | None
    stop: np.ndarray
    floor_fail: np.ndarray


def _moment_recursion(r, T, g=None):
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
    Column k of L is used as soon as it is known, to reduce the
    right-hand sides g (M, T), if given, by forward substitution, so L
    itself is never stored.

    r is an (M, >= 2T - 1) stack, held with the stack axis last, and
    every step runs on all M kernels at once.  A kernel runs on past a
    zero or non-finite pivot, with floating point warnings silenced,
    and its stop is found after the loop: tracking it per step costs
    more than the wasted arithmetic.
    """
    M, n = r.shape[0], 2 * T - 1
    sigma = np.array(r[:, :n].T, dtype=np.longdouble, order="C")
    older = np.zeros((n, M), dtype=np.longdouble)
    # step k reads only entries k-1..n-k of sigma, which step k-1
    # wrote, so three buffers rotate without clearing
    spare = np.empty((n, M), dtype=np.longdouble)
    alpha = np.empty((T - 1, M), dtype=np.longdouble)
    d = np.empty((T, M), dtype=np.longdouble)
    z = (None if g is None
         else np.array(g.T, dtype=np.longdouble, order="C"))
    with np.errstate(all="ignore"):
        for k in range(T):
            if k:
                lo, hi = k, n - k
                spare[lo:hi] = (sigma[lo + 1:hi + 1]
                                - alpha[k - 1] * sigma[lo:hi]
                                - beta * older[lo:hi]
                                + sigma[lo - 1:hi - 1])
                older, sigma, spare = sigma, spare, older
            d[k] = sigma[k]
            if k < T - 1:
                # lower = L_{k+1,k}; upper keeps L_{k,k-1} from step k-1
                if z is None:
                    lower = sigma[k + 1] / d[k]
                else:
                    column = sigma[k + 1:T] / d[k]
                    z[k + 1:] -= column * z[k]
                    lower = column[0]
                alpha[k] = lower - upper if k else lower
                upper = lower
            beta = d[k] / d[k - 1] if k else d[0]
        usable = np.isfinite(d) & (np.abs(d) > _pivot_floor(r, T).T)
    return _Recursion(alpha, d, z, _first(d == 0, T), _first(~usable, T))


def _first(flags, T):
    """Index of the first true entry of each column of flags, else T."""
    return np.where(np.any(flags, axis=0), np.argmax(flags, axis=0), T)


def _pivot_floor(r, T):
    """The solvers' floor (M, T) on the pivots d_k of the stack r.

    A pivot is usable when it is finite and above _PIVOT_MARGIN (k + 1)
    eps s_k, where s_k, the largest |r_0 + r_2 + ... + r_{2j}| over
    j <= k, is the largest diagonal entry of C-bar's order-(k + 1)
    block (its largest entry when the block is positive definite).
    """
    scale = np.maximum.accumulate(
        np.abs(np.cumsum(r[:, :2 * T:2], axis=1)), axis=1)
    return _PIVOT_MARGIN * _EPS * np.arange(1, T + 1) * scale


def _krein_rhs(r, T, config):
    """Reversed right-hand sides g (M, T) of the Krein systems of each
    kernel in the stack r; the same row for all unless alpha != 0."""
    kappa = kappa_seq(T)
    g = config.beta * kappa[::-1]
    if config.alpha != 0.0:
        paired = np.append(kappa[1:], 0.0)
        adjoint = np.array([apply_response_adjoint(row, paired)
                            for row in r])
        g = g - config.alpha * adjoint[:, ::-1]
    return np.broadcast_to(g, (r.shape[0], T))


def _krein(rec, m, T, config):
    """Krein readout of kernel m: pivot floor, trace y, then b."""
    if rec.floor_fail[m] < T:
        raise SingularConnecting(rec.floor_fail[m] + 1)
    y = np.concatenate(([config.alpha], rec.z[:, m] / rec.d[:, m]))
    vanished = np.abs(y[1:T]) <= _DEGENERACY_TOL * np.max(np.abs(y))
    if np.any(vanished):
        raise DegenerateTrace(np.argmax(vanished) + 1)
    return ((y[2:] + y[:-2]) / y[1:-1]).astype(float)


def _factorization(rec, m, T):
    """Layer-stripping readout of kernel m: pivot floor, then b."""
    if rec.floor_fail[m] < T - 1:
        raise SingularLeadingMinor(rec.floor_fail[m] + 1)
    return -rec.alpha[:, m].astype(float)


def _verdict(rec, m, T, tol):
    """Admissibility verdict of kernel m from its pivots up to its stop."""
    d = rec.d[:rec.stop[m] + 1, m]
    with np.errstate(over="ignore"):
        minors = np.cumprod(d).astype(float)
        pivots = d.astype(float)
    finite = np.isfinite(minors) & np.isfinite(pivots)
    k = d.size if np.all(finite) else int(np.argmin(finite))
    minors, pivots = minors[:k], pivots[:k]
    # orders past a zero pivot or a float64 overflow fail unreported
    passed = np.zeros(T, dtype=bool)
    passed[:k] = ((np.abs(minors - 1.0) <= tol.det_tol)
                  & (pivots > tol.pivot_tol))
    first = None if np.all(passed) else int(np.argmin(passed)) + 1
    return CharacterizationVerdict(
        admissible=first is None,
        first_failing_order=first,
        minor_values=minors,
        pivot_values=pivots,
    )


def _attempt(solver, *args):
    try:
        return solver(*args)
    except InversionError as exc:
        return exc


def _solve_stack(r, T, tol):
    """Verdict, factorization and Krein outcome for each kernel of a stack.

    r is an (M, >= 2T - 1) stack of finite kernels with r_0 = 1.  One
    moment recursion, with its forward substitution, serves every
    kernel, and the outcomes for kernel m are the same bits as
    characterize_response(r[m], T, tol), invert_factorization(r[m], T)
    and invert_krein(r[m], T); a solver that fails gives its
    InversionError in place of b-hat.  Returns a list of
    (verdict, factorization, krein), one per kernel.
    """
    config = KreinConfig()
    rec = _moment_recursion(r, T, _krein_rhs(r, T, config))
    return [(_verdict(rec, m, T, tol), _attempt(_factorization, rec, m, T),
             _attempt(_krein, rec, m, T, config)) for m in range(len(r))]


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
    rec = _moment_recursion(r[None], T, _krein_rhs(r[None], T, config))
    return _krein(rec, 0, T, config)


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
    return _factorization(_moment_recursion(r[None], T), 0, T)


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
    return _verdict(_moment_recursion(r[None], T), 0, T, tol)
