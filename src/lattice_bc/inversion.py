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
per order for the whole stack.  Three readouts turn it into (., M)
arrays, one column per kernel: _read_verdict (minors, pivots, reached
and first failing order), _read_factorization (b-hat and the failing
order) and _read_krein (b-hat, the horizon of a pivot at the floor and
the first vanished trace site).  Each public function is their M = 1
case: it reads column 0 and builds the verdict or raises the failure.
The round-trip report reads them once per block of instances, with the
same bits per kernel as the public functions.

The public functions share one recursion per kernel, with the default
Krein right-hand sides: a single slot holds the recursion of the last
kernel, keyed by T and the bytes of r_0..r_{2T-2}, so the verdict and
the solvers on one kernel run it once.  Its arrays are read-only and
every readout builds new arrays, so callers get writable results; the
key and the recursion are swapped in as one tuple, so threads may call
the functions concurrently.  invert_krein with any other KreinConfig
runs its own recursion and leaves the slot alone.  Stacks are never
cached.

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
    z = L^{-1} g (T, M) belongs to kernel m.  stop is the index of each
    kernel's first zero pivot and floor_fail that of its first pivot
    not above the solvers' floor, each T when there is none.  A
    kernel's entries past its stop, or past a non-finite pivot, are
    never read.
    """

    alpha: np.ndarray
    d: np.ndarray
    z: np.ndarray
    stop: np.ndarray
    floor_fail: np.ndarray


def _moment_recursion(r, T, config=KreinConfig()):
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
    Column k of L is used as soon as it is known, to reduce the Krein
    right-hand sides g (M, T) of config by forward substitution, so L
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
        usable = np.isfinite(d) & (np.abs(d) > _pivot_floor(r, T).T)
    return _Recursion(alpha, d, z, _first(d == 0), _first(~usable))


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


# The recursion of the last kernel a public function read, with the
# default Krein right-hand sides, as one (key, _Recursion) tuple.
_slot = None


def _shared_recursion(r, T):
    """The recursion of the checked kernel r with the default Krein
    right-hand sides, from the slot when r is the last kernel.

    The recursion reads r_0..r_{2T-2} only, so those bytes and T are
    the key.  The cached arrays are read-only, and the slot is swapped
    in one assignment, so a thread sees either the old or the new slot.
    """
    global _slot
    key = (T, r[:2 * T - 1].tobytes())
    slot = _slot
    if slot is not None and slot[0] == key:
        return slot[1]
    rec = _moment_recursion(r[None], T)
    for array in rec:
        array.flags.writeable = False
    _slot = key, rec
    return rec


def _read_verdict(rec, T, tol):
    """The admissibility verdicts of every kernel of rec.

    Returns the float64 minors and pivots (T, M), valid in each
    column's rows below its reached order, the reached order (M,) and
    the first failing order (M,), 0 when admissible.
    """
    with np.errstate(all="ignore"):
        minors = np.cumprod(rec.d, axis=0).astype(float)
        pivots = rec.d.astype(float)
        # a zero pivot and a value beyond float64 fail their order, so
        # the first failing order is never past the reached ones
        passed = ((np.abs(minors - 1.0) <= tol.det_tol)
                  & (pivots > tol.pivot_tol))
    finite = np.isfinite(minors) & np.isfinite(pivots)
    reached = np.minimum(np.minimum(rec.stop + 1, T), _first(~finite))
    return minors, pivots, reached, _order(_first(~passed), T)


def _read_factorization(rec, T):
    """Layer stripping for every kernel of rec: b-hat (T - 1, M) and
    the order (M,) of its first pivot at the floor, 0 for none."""
    with np.errstate(all="ignore"):
        b = -rec.alpha.astype(float)
    return b, _order(rec.floor_fail, T - 1)


def _read_krein(rec, T, config):
    """Krein for every kernel of rec, whose right-hand sides g are those
    of config: b-hat (T - 1, M), the horizon (M,) of the first pivot at
    the floor and the first site (M,) where the trace y vanishes, each
    0 for none.  A pivot at the floor comes before a vanished site."""
    alpha = np.full((1, rec.d.shape[1]), config.alpha, dtype=np.longdouble)
    with np.errstate(all="ignore"):
        y = np.concatenate((alpha, rec.z / rec.d))
        vanished = (np.abs(y[1:T])
                    <= _DEGENERACY_TOL * np.max(np.abs(y), axis=0))
        b = ((y[2:] + y[:-2]) / y[1:-1]).astype(float)
    return b, _order(rec.floor_fail, T), _order(_first(vanished), T - 1)


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
    if config == KreinConfig():
        rec = _shared_recursion(r, T)
    else:
        rec = _moment_recursion(r[None], T, config)
    b, singular, vanished = _read_krein(rec, T, config)
    if singular[0]:
        raise SingularConnecting(singular[0])
    if vanished[0]:
        raise DegenerateTrace(vanished[0])
    return b[:, 0]


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
    b, singular = _read_factorization(_shared_recursion(r, T), T)
    if singular[0]:
        raise SingularLeadingMinor(singular[0])
    return b[:, 0]


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
    minors, pivots, reached, failing = _read_verdict(
        _shared_recursion(r, T), T, tol)
    return CharacterizationVerdict(
        admissible=not failing[0],
        first_failing_order=int(failing[0]) or None,
        minor_values=minors[:reached[0], 0],
        pivot_values=pivots[:reached[0], 0],
    )
