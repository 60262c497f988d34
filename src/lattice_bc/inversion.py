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
so the modified Chebyshev algorithm computes that factorization, and
the Jacobi coefficients of the potential, from r in O(T^2).  Its pivots
give the leading minors; the Gelfand-Levitan systems are leading blocks
of C-bar, so that route is the factorization; the Krein systems of all
horizons share one forward substitution with L, done inside the
recursion.

_answers runs the recursion on an (M, 2T-1) stack of kernels, one
Python step per order for the whole stack, and reads it out as one
record of float64 and int arrays, one column per kernel: the minors,
pivots and reached order, and b-hat and the failure's argument of the
factorization and of Krein.  The long double internals never leave it.
Only _first_failing reads det_tol.  Each public function is the
M = 1 case: it reads column 0 and builds the verdict, returns a copy of
b-hat or raises the route's failure, in the order _FAILURES gives.  The
round-trip report reads _block_outcomes once per block of instances,
with the same bits per kernel as the public functions.

The public functions share one record per kernel, with the default
Krein right-hand sides: _cached_answers, an lru_cache of size one keyed
by T and the bytes of r_0..r_{2T-2}, holds the read-only record of the
last kernel, so the verdict and the solvers on one kernel run the
recursion and its readout once; lru_cache is safe across threads.
invert_krein with any other KreinConfig computes its own record and
leaves the cache alone.  Stacks are never cached.

The recursion runs in numpy's long double.  On platforms where that
type is float64 (ARM macOS, Windows) it runs in float64, so verdict
bits and borderline outcomes can differ there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bc_ops import apply_response_adjoint
from .core import (check_det_tol, check_horizon, check_kernel, is_real,
                   kappa_seq)

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
# default admissibility slack det_tol of the unit-minor test, also the
# default of the command-line flag --tol-det
DET_TOL = 1e-9


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
        if not (is_real(self.alpha) and is_real(self.beta)
                and np.isfinite(self.alpha) and np.isfinite(self.beta)):
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
    m + 1, left out).  first_failing_order is the smallest l whose
    minor is off one by more than det_tol, or None when admissible.
    """

    admissible: bool
    first_failing_order: int | None
    minor_values: np.ndarray
    pivot_values: np.ndarray


def _checked_kernel(r, T):
    T = check_horizon(T)
    return check_kernel(r, 2 * T - 1, "kernel must cover index 2T - 2"), T


class _Answers(NamedTuple):
    """What the public functions answer for a stack of M kernels, in
    float64 and int arrays, column m for kernel m.

    minors and pivots (T, M) are the verdict's values, valid in each
    column's rows below its reached order (M,).  factorization and
    krein (T - 1, M) hold b-hat of the two routes, and leading_minor,
    connecting and trace (M,) the argument of each route's failure, 0
    for none: the order of SingularLeadingMinor, the horizon of
    SingularConnecting and the site of DegenerateTrace.
    """

    minors: np.ndarray
    pivots: np.ndarray
    reached: np.ndarray
    factorization: np.ndarray
    leading_minor: np.ndarray
    krein: np.ndarray
    connecting: np.ndarray
    trace: np.ndarray


# Each route's failures in the order they are raised, as (exception,
# field of _Answers holding its argument)
_FAILURES = {
    "krein": ((SingularConnecting, "connecting"),
              (DegenerateTrace, "trace")),
    "factorization": ((SingularLeadingMinor, "leading_minor"),),
}


def _answers(r, T, config):
    """LDL^T of C-bar and the Jacobi coefficients, from r_0..r_{2T-2},
    read out as the _Answers of the stack r.

    The modified Chebyshev algorithm (Sack & Donovan 1971; Wheeler
    1974; Gautschi 2004, section 2.1.7) with modified moments r_l in
    the basis lambda p_l = p_{l+1} + p_{l-1}: sigma_{0,l} = r_l and,
    for k >= 1 and l = k..2T-k-2,

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
                      - beta_{k-1} sigma_{k-2,l} + sigma_{k-1,l-1},

    with alpha_k = L_{k+1,k} - L_{k,k-1}, beta_k = d_k / d_{k-1},
    pivots d_k = sigma_{k,k} and L_{ik} = sigma_{k,i} / sigma_{k,k}, so
    that C-bar = L diag(d) L^T.  b_{k+1} = -alpha_k for response data.
    Column k of L is used as soon as it is known, to reduce the Krein
    right-hand sides g (M, T) of config by forward substitution, so L
    itself is never stored.

    r is an (M, >= 2T - 1) stack, held with the stack axis last, and
    every step runs on all M kernels at once, in long double.  A kernel
    runs on past a zero or non-finite pivot, with floating point
    warnings silenced; its entries past the first zero pivot, or past
    the solvers' floor, are never read, and tracking that per step
    costs more than the wasted arithmetic.  The minors and pivots go
    up to the first zero pivot (its order included) or value beyond
    float64 (its order left out).  Both routes fail at the first pivot
    not above the floor; Krein's trace y_tau = z_{tau-1} / d_{tau-1},
    y_0 = alpha, fails first where it vanishes relative to max |y|.
    """
    M, n = r.shape[0], 2 * T - 1
    sigma = np.array(r[:, :n].T, dtype=np.longdouble, order="C")
    older = np.zeros((n, M), dtype=np.longdouble)
    # step k reads only entries k-1..n-k of sigma, which step k-1
    # wrote, so three buffers rotate without clearing
    spare = np.empty((n, M), dtype=np.longdouble)
    alpha = np.empty((T - 1, M), dtype=np.longdouble)
    d = np.empty((T, M), dtype=np.longdouble)
    z = np.array(_krein_rhs(r, T, config).T, dtype=np.longdouble,
                 order="C")
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
                column = sigma[k + 1:T] / d[k]
                z[k + 1:] -= column * z[k]
                lower = column[0]
                alpha[k] = lower - upper if k else lower
                upper = lower
            beta = d[k] / d[k - 1] if k else d[0]
        floor = _first(~(np.isfinite(d)
                         & (np.abs(d) > _pivot_floor(r, T).T)))
        minors = np.cumprod(d, axis=0).astype(float)
        pivots = d.astype(float)
        y = np.concatenate(
            (np.full((1, M), config.alpha, dtype=np.longdouble), z / d))
        vanished = (np.abs(y[1:T])
                    <= _DEGENERACY_TOL * np.max(np.abs(y), axis=0))
        krein = ((y[2:] + y[:-2]) / y[1:-1]).astype(float)
        factorization = -alpha.astype(float)
    # after an exact zero pivot alpha, and so every later pivot, is not
    # finite: the first non-finite value also ends a run at a zero pivot
    reached = _first(~(np.isfinite(minors) & np.isfinite(pivots)))
    return _Answers(minors, pivots, reached,
                    factorization, _order(floor, T - 1),
                    krein, _order(floor, T), _order(_first(vanished), T - 1))


def _first(flags):
    """Index of the first true row in each column of flags, else the
    row count."""
    sentinel = np.ones((1, flags.shape[1]), dtype=bool)
    return np.argmax(np.concatenate((flags, sentinel)), axis=0)


def _order(index, count):
    """The 1-based order index + 1 where index < count, else 0."""
    return np.where(index < count, index + 1, 0)


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


def _first_failing(answers, det_tol):
    """The first order (M,) whose minor is off one by more than
    det_tol, 0 when admissible; a zero pivot or a value beyond
    float64 fails by its order, so it is never past the reached one."""
    with np.errstate(invalid="ignore"):
        passed = np.abs(answers.minors - 1.0) <= det_tol
    return _order(_first(~passed), passed.shape[0])


@functools.lru_cache(maxsize=1)
def _cached_answers(T, prefix):
    """The read-only _Answers of the one kernel whose r_0..r_{2T-2}
    have the bytes prefix, with the default Krein right-hand sides."""
    answers = _answers(np.frombuffer(prefix)[None], T, KreinConfig())
    for array in answers:
        array.flags.writeable = False
    return answers


def _kernel_answers(r, T, config=None):
    """The _Answers of the checked kernel r with the Krein right-hand
    sides of config, None for the default, whose answers come from the
    cache.  alpha = -0.0 equals the default alpha but is its own trace
    value y_0, so it gets its own answers."""
    if config is None or (config == KreinConfig()
                          and not np.signbit(config.alpha)):
        return _cached_answers(T, r[:2 * T - 1].tobytes())
    return _answers(r[None], T, config)


def _solve(answers, route):
    """b-hat of column 0 of answers by route, or its first failure."""
    for error, field in _FAILURES[route]:
        argument = getattr(answers, field)[0]
        if argument:
            raise error(argument)
    return getattr(answers, route)[:, 0].copy()


def _block_outcomes(r, T, det_tol):
    """The round trip's outcomes for the stack r of M kernels.

    Returns the first failing order (M,) of each verdict, 0 when
    admissible, and per method b-hat (T - 1, M) and the name of each
    kernel's failure (M,), "" for a success: per kernel, what the
    public functions return or raise.
    """
    answers = _answers(r, T, KreinConfig())
    outcomes = {}
    for route, failures in _FAILURES.items():
        names = ""
        for error, field in reversed(failures):
            names = np.where(getattr(answers, field) > 0, error.__name__,
                             names)
        outcomes[route] = getattr(answers, route), names
    # invert_gelfand_levitan(r, T) returns invert_factorization(r, T)
    outcomes["gelfand_levitan"] = outcomes["factorization"]
    return _first_failing(answers, det_tol), outcomes


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
    return _solve(_kernel_answers(r, T, config), "krein")


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
    return _solve(_kernel_answers(r, T), "factorization")


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


def characterize_response(r, T, det_tol=DET_TOL):
    """Decide whether (r_0, ..., r_{2T-2}) is admissible response data.

    Admissible means the prefix is the response kernel of some real
    potential of length T - 1, which holds iff the reversed connecting
    matrix is positive definite with every leading principal
    determinant equal to one.  The minors m_l = d_0 ... d_{l-1} are
    read off the LDL^T pivots d of the moment recursion, with no floor,
    and must satisfy |m_l - 1| <= det_tol for l = 1..T; as det_tol < 1,
    that keeps every pivot at least (1 - det_tol) / (1 + det_tol) > 0,
    so the test also means positive definite.  Inadmissibility is a
    verdict, not an error; det_tol is checked before r and T.
    """
    det_tol = check_det_tol(det_tol)
    r, T = _checked_kernel(r, T)
    answers = _kernel_answers(r, T)
    failing = int(_first_failing(answers, det_tol)[0])
    reached = answers.reached[0]
    return CharacterizationVerdict(
        admissible=not failing,
        first_failing_order=failing or None,
        minor_values=answers.minors[:reached, 0].copy(),
        pivot_values=answers.pivots[:reached, 0].copy(),
    )
