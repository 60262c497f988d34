"""Boundary operators: response kernel, control map, connecting matrix.

The response kernel r is the boundary trace of the delta-driven wave,
r_s = u^delta_{1,s+1}; it is also the first row of the triangular
kernel, r_s = w_{1,s} with r_0 = 1.  The operators of the boundary control
method are assembled here from r alone: the time convolution R, its
adjoint, the control-to-state matrix W^T, and the connecting (Gram)
matrix C^T together with its reversed-index form, which the inverse
solvers factor straight from r without assembling it.

Kernels of many potentials come from one Goursat fill over an (M, L)
stack of potentials (_response_kernels, which the round-trip report
calls once per block of instances); response_kernel is its M = 1 case,
so a stacked row and a single call give the same bits.
"""

from __future__ import annotations

import numpy as np

from .core import as_float_array, check_horizon, check_kernel, convolve
from .forward import _goursat_steps, solve_goursat, solve_semi_infinite


def _response_kernels(b, K):
    """Kernel prefixes (r_0, ..., r_K) of a stack of potentials.

    b is an (M, L) float array; returns the (M, K + 1) kernels from one
    Goursat fill over the whole stack, each row the same bits as
    response_kernel(b[m], K).
    """
    M = b.shape[0]
    r = np.zeros((M, K + 1))
    if K >= 1:
        bp = np.zeros((M, K))
        bp[:, :min(b.shape[1], K)] = b[:, :K]
        for s, w in enumerate(_goursat_steps(bp, K)):
            r[:, s] = w[:, 1]
    r[:, 0] = 1.0
    return r


def response_kernel(b, K):
    """Kernel prefix (r_0, ..., r_K) for the potential b.

    r_0 = 1 exactly; deeper entries come from the triangular kernel's
    first row.  The potential is zero-padded as needed; entries beyond
    b_ceil(K/2) cannot influence the returned prefix.
    """
    if (not isinstance(K, (int, np.integer)) or isinstance(K, bool)
            or K < 0):
        raise ValueError("kernel order must be nonnegative")
    b = as_float_array(b, "potential") if K >= 1 else np.zeros(0)
    return _response_kernels(b[None], int(K))[0]


def apply_response(r, f):
    """Boundary response (R f)_t = sum_{s=0}^{t-1} r_s f_{t-1-s}, t = 1..T.

    A pure causal convolution: entry j of the output is the response
    at time j+1 to the control prefix f = (f_0, ..., f_{T-1}).
    """
    f = as_float_array(f, "control")
    r = check_kernel(r)
    T = f.size
    if T == 0:
        return np.zeros(0)
    if r.size < T:
        raise ValueError("kernel too short for control length")
    return convolve(r[:T], f)[:T]


def apply_response_adjoint(r, g):
    """Adjoint pairing (R^* g)_j = sum_{t=j+1}^{T} r_{t-1-j} g_t.

    g is indexed by observation times 1..T (entry j holds g_{j+1});
    the output is indexed like a control.  Implemented as the reversed
    convolution, which is the transpose of the lower-triangular
    Toeplitz form of apply_response.
    """
    g = as_float_array(g, "observation")
    r = check_kernel(r)
    T = g.size
    if T == 0:
        return np.zeros(0)
    if r.size < T:
        raise ValueError("kernel too short for observation length")
    return convolve(g[::-1], r[:T])[:T][::-1]


def control_matrix(b, T):
    """Dense matrix of the control-to-final-state map W^T.

    Row n (1-based) applied to a control f gives u_{n,T}: the leading
    free translation f_{T-n} plus the triangular kernel correction.
    Requires len(b) >= T - 1.  W^T J is unit upper triangular, so
    det W^T = +-1 and the map is always invertible.
    """
    T = check_horizon(T)
    b = as_float_array(b, "potential")
    if b.size < T - 1:
        raise ValueError("potential too short for horizon")
    W = np.zeros((T, T))
    W[np.arange(T), T - 1 - np.arange(T)] = 1.0
    if T >= 2:
        w = solve_goursat(b, T - 1)
        for n in range(1, T):
            s = np.arange(n, T)
            W[n - 1, T - 1 - s] += w.table[n, s]
    return W


def connecting_matrix(r, T):
    """Connecting matrix C^T from the kernel prefix alone.

    C_{ij} = sum_{k=0}^{T - max(i,j)} r_{|i-j| + 2k}  (1-based i, j).

    Requires the kernel to cover index 2T - 2.  C is symmetric with
    C_{TT} = r_0 = 1, and its last row is the reversed kernel prefix.
    """
    T = check_horizon(T)
    r = check_kernel(r)
    if r.size < 2 * T - 1:
        raise ValueError("kernel too short for horizon")
    C = np.empty((T, T))
    for j in range(1, T + 1):
        # rows i <= j share T - j + 1 terms; row sums keep np.sum's order
        idx = (j - np.arange(1, j + 1))[:, None] + 2 * np.arange(T - j + 1)
        column = np.sum(r[idx], axis=1)
        C[:j, j - 1] = column
        C[j - 1, :j] = column
    return C


def rotated_connecting(C):
    """Reversed-index form C-bar with entries indexed from the wall.

    C-bar_{ij} = C_{T+1-j, T+1-i}; the first row of C-bar is the kernel
    prefix (1, r_1, ..., r_{T-1}) and every leading principal block is
    the reversed-index connecting matrix of the shorter horizon, which
    is the matrix whose LDL^T factorization the inverse solvers and the
    characterization test read.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("connecting matrix must be square")
    return np.flip(C, (0, 1)).T.copy()


def connecting_via_waves(b, T):
    """Connecting matrix as the Gram matrix of basis wave fields.

    Column i of W^T is the final state of the lattice driven by the basis
    control e_i: with zero initial data, the delta-driven state at time
    T - i, bit for bit, so one simulation yields all states.  Their Gram
    matrix equals C^T, the independent oracle route for connecting_matrix.
    Requires len(b) >= T - 1.
    """
    T = check_horizon(T)
    b = as_float_array(b, "potential")
    if b.size < T - 1:
        raise ValueError("potential too short for horizon")
    delta = np.zeros(T)
    delta[0] = 1.0
    field = solve_semi_infinite(b, delta, T)
    states = field.values[1:T + 1, T - np.arange(T)]
    return states.T @ states
