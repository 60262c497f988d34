"""Finite Jacobi operator: eigendata, spectral measure, spectral inversion.

The interval Hamiltonian is the N x N Jacobi matrix with diagonal -b_n
and unit off-diagonals.  Its eigenvalues are simple; the eigenvectors
rescaled to phi^k_1 = 1 define the norming constants rho_k = |phi^k|^2,
and the pairs (lambda_k, 1/rho_k) form a probability measure (total
mass one) that determines the potential.  The bridge to boundary data:
the response kernel of the half-line problem agrees with the spectral
moment sequence r_s = sum_k T_{s+1}(lambda_k)/rho_k for s <= 2N-1, and
at s = 2N exceeds it by exactly 1, the Dirichlet wall's first echo.
eigen_decompose takes each rho_k from one twisted factorization, and
invert_spectral rebuilds b by Lanczos from the weights 1 / rho_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (as_float_array, chebyshev_seq, check_count, check_horizon,
                   check_potential, float_array, is_real)
from .linalg import ConvergenceFailure

__all__ = [
    "Hamiltonian", "SpectralData", "ConvergenceFailure",
    "build_hamiltonian", "eigen_decompose", "phi_polynomial",
    "kernel_from_spectral", "connecting_from_spectral", "invert_spectral",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Jacobi matrix data: diagonal entries -b_n, off-diagonal ones."""

    diag: np.ndarray

    def __post_init__(self):
        arr = as_float_array(self.diag, "diagonal")
        if arr.size < 1:
            raise ValueError("Hamiltonian must have positive size")
        object.__setattr__(self, "diag", arr)

    @property
    def size(self):
        return self.diag.size

    def to_dense(self):
        N = self.size
        H = np.diag(self.diag)
        idx = np.arange(N - 1)
        H[idx, idx + 1] = 1.0
        H[idx + 1, idx] = 1.0
        return H

    def norm_bound(self):
        """Row-sum bound on the operator norm."""
        radius = np.zeros(self.size)
        radius[:-1] += 1.0
        radius[1:] += 1.0
        return float(np.max(np.abs(self.diag) + radius))


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending, simple) with norming constants: the
    spectral measure sum_k (1 / rho_k) delta_{lambda_k}.

    norming[k] is rho_k = |phi^k|^2 for the eigenvector rescaled to
    phi^k_1 = 1; eigenvectors (rows, in that rescaling) are optional
    and only needed for field synthesis.  All three arrays must be
    finite.  The measure weights 1/rho_k sum to one for data coming
    from an actual operator.
    """

    eigenvalues: np.ndarray
    norming: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        lam = as_float_array(self.eigenvalues, "eigenvalues")
        rho = as_float_array(self.norming, "norming")
        if lam.size < 1 or lam.size != rho.size:
            raise ValueError("eigenvalues and norming lengths mismatch")
        if np.any(np.diff(lam) <= 0.0):
            raise ValueError("eigenvalues must be strictly increasing")
        if np.any(rho <= 0.0):
            raise ValueError("norming constants must be positive")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "norming", rho)
        if self.eigenvectors is not None:
            vec = float_array(self.eigenvectors, "eigenvectors")
            if vec.shape != (lam.size, lam.size):
                raise ValueError("eigenvector table shape mismatch")
            if not np.all(np.isfinite(vec)):
                raise ValueError("eigenvectors contains non-finite entries")
            object.__setattr__(self, "eigenvectors", vec)

    @property
    def size(self):
        return self.eigenvalues.size

    @property
    def total_mass(self):
        """The sum of the weights 1 / rho_k."""
        return float(np.sum(1.0 / self.norming))

    def distribution(self, x):
        """The measure's distribution: the weight strictly below the
        real number x (not NaN), sum of 1 / rho_k over lambda_k < x."""
        if not is_real(x) or math.isnan(x):
            raise ValueError("x must be a real number, not NaN")
        return float(np.sum(1.0 / self.norming[self.eigenvalues < x]))


def check_spectral(sd):
    """Return sd if it is SpectralData, whose constructor checks its
    arrays; raise ValueError otherwise."""
    if not isinstance(sd, SpectralData):
        raise ValueError("sd must be SpectralData")
    return sd


def build_hamiltonian(b, N):
    """Interval Hamiltonian of size N for the potential b (len(b) >= N)."""
    N = check_horizon(N, "size")
    b = check_potential(b, N, "potential too short for requested size")
    return Hamiltonian(diag=-b[:N].copy())


# The largest eigenpair residual bound accepted, relative to |H|: the
# twisted residual |gamma_r| / |z|, or the residual itself after a
# Gram-Schmidt pass.  It is no setting: over 1,182 diagonals (N = 1 to
# 256, random at amplitudes 0.01 to 1e3, integer, wells and mirrored
# blocks behind barriers) every finite bound was at most 2.6e-15 |H|
# (12 eps), so any value from there up decides alike, a smaller one
# only rejects eigenpairs accurate to working precision, and the
# non-finite bounds of lost vectors fail at any value.
EIG_TOL = 1e-10


def eigen_decompose(H):
    """Full eigendata of the Jacobi matrix, one twisted pass per eigenvalue.

    linalg.tridiag_eigensystem gives the eigenvalues and each vector z
    as products of pivot ratios, so the tiny first component of a state
    localized far from the boundary keeps its relative accuracy;
    rho_k = sum_n (z_n / z_1)^2.  Raises
    ConvergenceFailure, naming the lowest failing eigenvalue index, on
    an eigenvalue collision, a non-finite value, or a residual bound
    above eig_tol * |H|, eig_tol = EIG_TOL.
    """
    if not isinstance(H, Hamiltonian):
        raise ValueError("H must be a Hamiltonian")
    norm_h = max(H.norm_bound(), 1.0)
    lam, unit, residual = linalg.tridiag_eigensystem(H.diag)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vectors = unit / unit[:, :1]
        rho = np.einsum("kn,kn->k", vectors, vectors)
    collide = np.append(False, lam[1:] <= lam[:-1])
    finite = np.isfinite(lam) & np.isfinite(rho)
    for k in np.flatnonzero(collide | ~finite
                            | ~(residual <= EIG_TOL * norm_h))[:1]:
        if collide[k]:
            reason = "eigenvalues collide at working precision"
        elif not finite[k]:
            reason = "non-finite eigendata"
        else:
            reason = "eigenpair residual above eig_tol"
        raise ConvergenceFailure(f"{reason} at eigenvalue index {k}")
    return SpectralData(eigenvalues=lam, norming=rho, eigenvectors=vectors)


def phi_polynomial(b, lam, N):
    """Polynomial solution (phi_0, ..., phi_{N+1}) at spectral point lam.

    phi_0 = 0, phi_1 = 1, phi_{i+1} = (lam + b_i) phi_i - phi_{i-1}.
    phi_{N+1}(lam) = 0 exactly when lam is an eigenvalue of the
    size-N Hamiltonian, and then (phi_1, ..., phi_N) is the rescaled
    eigenvector.  Requires len(b) >= N.
    """
    N = check_horizon(N, "size")
    b = check_potential(b, N, "potential too short for requested size")
    if not is_real(lam) or not math.isfinite(lam):
        raise ValueError("lam must be a finite real number")
    phi = np.zeros(N + 2)
    phi[0] = 0.0
    phi[1] = 1.0
    for i in range(1, N + 1):
        phi[i + 1] = (lam + b[i - 1]) * phi[i] - phi[i - 1]
    return phi


def kernel_from_spectral(sd, K):
    """Half-line kernel prefix (r_0, ..., r_K), K <= 2N, from spectral
    data of size N.

    The moments sum_k T_{s+1}(lambda_k) / rho_k, the interval's kernel,
    are r_s for s <= 2N - 1; the wall's first echo takes exactly 1 off
    the moment at s = 2N, so r_2N adds it back.  r_0 is pinned to 1
    exactly: the computed mass sum equals one up to roundoff for any
    data produced by an actual operator.
    """
    sd = check_spectral(sd)
    N = sd.size
    K = check_count(K, 0, "kernel order must be nonnegative")
    if K > 2 * N:
        raise ValueError("kernel order beyond spectral validity range")
    weights = 1.0 / sd.norming
    table = chebyshev_seq(K + 1, sd.eigenvalues)
    r = np.empty(K + 1)
    r[0] = 1.0
    # one dot per entry, as weights @ row gives it: a stack of 1 x 1
    # products runs one dot each, where table @ weights is one
    # matrix-vector product and may round differently
    r[1:] = (table[2:, None, :] @ weights[:, None])[:, 0, 0]
    if K == 2 * N:
        r[K] += 1.0
    return r


def connecting_from_spectral(sd, T):
    """Connecting matrix of horizon T <= N straight from spectral data.

    C_{lm} = sum_k T_{T-l+1}(lambda_k) T_{T-m+1}(lambda_k) / rho_k
    (1-based l, m); for horizons within the interval size this equals
    the kernel-built connecting matrix.
    """
    sd = check_spectral(sd)
    T = check_horizon(T)
    N = sd.size
    if T > N:
        raise ValueError("horizon exceeds interval size")
    cheb = chebyshev_seq(T, sd.eigenvalues)[T:0:-1]
    # columns scaled by the weights, the entries of cheb @ diag(1 / rho)
    return (cheb * (1.0 / sd.norming)) @ cheb.T


# Lanczos on the weights of a unit-coupled Jacobi matrix rebuilds its
# off-diagonal, so every norm beta_n is 1 up to rounding: about 1e-12
# on random potentials and at most 0.06 on tight clusters of wells.
# A coupling farther from 1 than this means the data belong to no
# unit-coupled matrix, whatever diagonal Lanczos returns.
_COUPLING_TOL = 0.5


def invert_spectral(sd):
    """Recover (b_1, ..., b_N) from spectral data of size N.

    In its eigenbasis the Hamiltonian is diag(lambda) and e_1 is
    sqrt(1 / rho), so Lanczos from that start vector rebuilds the
    diagonal -b (de Boor & Golub, Linear Algebra Appl. 21, 1978)
    without the ill-conditioned moments; each new vector is
    Gram-Schmidt reorthogonalized twice against all earlier ones.
    Raises ValueError when a Lanczos vector's norm is not finite and
    positive, as when eigenvalues near the float range overflow it:
    the basis is then not orthonormal.  Raises ValueError too when a
    norm, which is a coupling beta_n of the rebuilt matrix, is farther
    than _COUPLING_TOL from 1: such data have unit mass but are the
    spectral data of no unit-coupled Jacobi matrix.
    """
    sd = check_spectral(sd)
    N = sd.size
    lam = sd.eigenvalues
    Q = np.empty((N, N))
    Q[0] = np.sqrt(1.0 / sd.norming)
    Q[0] /= np.sqrt(Q[0] @ Q[0])
    norms = []
    # each new vector is formed in place in its row of Q, through views
    # made once
    rows = list(Q)
    # a norm that overflows or vanishes fails the check below, not as a
    # warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(N - 1):
            basis = Q[:n + 1]
            v = rows[n + 1]
            np.multiply(lam, rows[n], out=v)
            for _ in range(2):
                v -= (basis @ v) @ basis
            norms.append(math.sqrt(v @ v))
            v /= norms[-1]
    if not all(0.0 < norm < math.inf for norm in norms):
        raise ValueError("spectral data give no orthonormal Lanczos basis "
                         "in float range")
    if any(abs(norm - 1.0) > _COUPLING_TOL for norm in norms):
        raise ValueError("spectral data give Lanczos couplings far from 1: "
                         "not the data of a unit-coupled Jacobi matrix")
    return -((Q * Q) @ lam)
