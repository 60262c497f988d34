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

All three rest on the nested family of connecting matrices, so each
call assembles C^T once and slices it: C^tau is the trailing tau-block
C^T[T-tau:, T-tau:], and the Gelfand-Levitan system I + C-tilde of
horizon tau is the leading (tau-1)-block of the reversed matrix C-bar,
which is exactly the system invert_factorization solves.

characterize_response decides whether a kernel prefix is the response
of any real potential: the reversed connecting matrix must be positive
definite with every leading principal determinant equal to one; the
minors and invert_factorization's diagonal share linalg.leading_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bc_ops import (apply_response_adjoint, connecting_matrix,
                     rotated_connecting)
from .core import Tolerances, check_horizon, check_kernel, kappa_seq

# relative floor below which a Krein trace value counts as vanished
_DEGENERACY_TOL = 1e-8


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
    reversed connecting matrix; pivot_values are the successive ratios
    (the elimination pivots of the positive definite check).
    first_failing_order is the smallest l violating either condition,
    or None when admissible.
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


def invert_krein(r, T, config=KreinConfig()):
    """Recover (b_1, ..., b_{T-1}) through the lambda = 0 trace.

    For each horizon tau = 1..T the control f^tau steering the system
    to the harmonic weight is found from the connecting system

        C^tau f^tau = beta kappa^tau - alpha R^tau* kappa^tau,

    and the trace value is the first control component, y_tau = f^tau_0,
    with y_0 = alpha.  C^tau is the trailing tau-block of C^T, entry for
    entry the same sums, so C^T is assembled once and sliced, as is
    kappa^tau = kappa^T[T-tau:], counted back from kappa_T = 0.  The
    adjoint term pairs kappa with observation times: entry t of the
    paired sequence is kappa_{t} for t < tau and 0 at t = tau, matching
    the summation-by-parts boundary term of the weighted trace
    identity.  The potential follows from the trace recurrence
    b_n = (y_{n+1} + y_{n-1}) / y_n; a relatively vanishing y_n raises
    DegenerateTrace(n).
    """
    r, T = _checked_kernel(r, T)
    if not isinstance(config, KreinConfig):
        raise ValueError("config must be a KreinConfig")
    C = connecting_matrix(r, T)
    kappa = kappa_seq(T)
    y = np.empty(T + 1)
    y[0] = config.alpha
    for tau in range(1, T + 1):
        rhs = config.beta * kappa[T - tau:]
        if config.alpha != 0.0:
            paired = np.append(kappa[T - tau + 1:], 0.0)
            rhs = rhs - config.alpha * apply_response_adjoint(r, paired)
        try:
            f_tau = linalg.solve(C[T - tau:, T - tau:], rhs)
        except linalg.SingularMatrixError as exc:
            raise SingularConnecting(tau) from exc
        y[tau] = f_tau[0]
    scale = float(np.max(np.abs(y)))
    b = np.empty(T - 1)
    for n in range(1, T):
        if np.abs(y[n]) <= _DEGENERACY_TOL * scale:
            raise DegenerateTrace(n)
        b[n - 1] = (y[n + 1] + y[n - 1]) / y[n]
    return b


def invert_factorization(r, T):
    """Recover (b_1, ..., b_{T-1}) by triangular factorization.

    The reversed connecting matrix admits C-bar = (I + K-bar)^T
    (I + K-bar) with K-bar strictly upper triangular, and the diagonal
    of the triangular factor carries the cumulative potential:
    k_{ll} = -(b_1 + ... + b_l) up to sign convention, so successive
    differences of the recovered diagonal give b.  Column l + 1 of the
    factor solves the order-l leading system against the next column
    of C-bar; only leading blocks enter, so entries of r beyond index
    2T - 2 can never influence the result.
    """
    r, T = _checked_kernel(r, T)
    cbar = rotated_connecting(connecting_matrix(r, T))
    _, last, singular = linalg.leading_blocks(cbar)
    if np.any(singular[:-1]):
        raise SingularLeadingMinor(np.argmax(singular) + 1)
    return np.diff(np.concatenate(([0.0], last)))


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
    determinant equal to one.  Both facts are read off the leading
    minors: |m_l - 1| <= det_tol and the pivot ratios
    m_l / m_{l-1} > pivot_tol for l = 1..T.  Inadmissibility is a
    verdict, not an error.
    """
    r, T = _checked_kernel(r, T)
    if not isinstance(tol, Tolerances):
        raise ValueError("tol must be a Tolerances instance")
    cbar = rotated_connecting(connecting_matrix(r, T))
    minors, _, _ = linalg.leading_blocks(cbar)
    with np.errstate(divide="ignore", invalid="ignore"):
        pivots = minors / np.concatenate(([1.0], minors[:-1]))
    first = None
    for ell in range(T):
        det_ok = np.abs(minors[ell] - 1.0) <= tol.det_tol
        pivot_ok = pivots[ell] > tol.pivot_tol
        if not (det_ok and pivot_ok):
            first = ell + 1
            break
    return CharacterizationVerdict(
        admissible=first is None,
        first_failing_order=first,
        minor_values=minors,
        pivot_values=pivots,
    )
