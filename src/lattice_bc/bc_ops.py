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
so a stacked row and a single call give the same bits.  The fill keeps
the stack axis last and a band of ceil(K/2) sites behind a zero wall:
r_K is the boundary echo of a wave that travelled at most ceil(K/2)
sites out and back, so the wall changes no bit of r_0..r_K, and the
sites beyond the band are never read.  control_matrix reads the whole
table of order T - 1 from the same fill, with a band of T - 1 sites.
"""

from __future__ import annotations

import numpy as np

from .core import (as_float_array, check_count, check_horizon, check_kernel,
                   check_potential, convolve, float_array)
from .forward import _wave_steps, solve_goursat, solve_semi_infinite


def _response_kernels(b, K):
    """Kernel prefixes (r_0, ..., r_K) of a stack of potentials.

    b is an (M, L) float array; returns the (M, K + 1) kernels from one
    Goursat fill over the whole stack, each row the same bits as
    response_kernel(b[m], K).  The fill keeps a band of ceil(K/2)
    sites: waves move one site per step, so r_s = w_{1,s} is exact for
    s <= 2 ceil(K/2) >= K, and sites beyond the band are never read.
    """
    r = np.zeros((b.shape[0], K + 1))
    for s, w in enumerate(_wave_steps(b, K, (K + 1) // 2)):
        r[:, s] = w[1]
    r[:, 0] = 1.0
    return r


def response_kernel(b, K):
    """Kernel prefix (r_0, ..., r_K) for the potential b.

    r_0 = 1 exactly; deeper entries come from the triangular kernel's
    first row.  The potential is zero-padded as needed.  All of b is
    checked, at every order K, but the fill reads only
    b_1 .. b_ceil(K/2), the sites a wave can reach and return from by
    time K: entries beyond them cannot influence the returned prefix,
    nor overflow while it is computed.
    """
    K = check_count(K, 0, "kernel order must be nonnegative")
    b = check_potential(b)
    return _response_kernels(b[None], K)[0]


def apply_response(r, f):
    """Boundary response (R f)_t = sum_{s=0}^{t-1} r_s f_{t-1-s}, t = 1..T.

    A pure causal convolution: entry j of the output is the response
    at time j+1 to the control prefix f = (f_0, ..., f_{T-1}).
    """
    f = as_float_array(f, "control")
    T = f.size
    r = check_kernel(r, T, "kernel too short for control length")
    return convolve(r[:T], f)[:T]


def apply_response_adjoint(r, g):
    """Adjoint pairing (R^* g)_j = sum_{t=j+1}^{T} r_{t-1-j} g_t.

    g is indexed by observation times 1..T (entry j holds g_{j+1});
    the output is indexed like a control.  Implemented as the reversed
    convolution, which is the transpose of the lower-triangular
    Toeplitz form of apply_response.
    """
    g = as_float_array(g, "observation")
    T = g.size
    r = check_kernel(r, T, "kernel too short for observation length")
    return convolve(g[::-1], r[:T])[:T][::-1]


def control_matrix(b, T):
    """Dense matrix of the control-to-final-state map W^T.

    Row n (1-based) applied to a control f gives u_{n,T}: the leading
    free translation f_{T-n} plus the triangular kernel correction.
    Requires len(b) >= T - 1.  W^T J is unit upper triangular, so
    det W^T = +-1 and the map is always invertible.
    """
    T = check_horizon(T)
    b = check_potential(b, T - 1, "potential too short for horizon")
    W = np.zeros((T, T))
    W[np.arange(T), T - 1 - np.arange(T)] = 1.0
    if T >= 2:
        # row n adds u_{n,s} at column T - 1 - s; the table is +0.0
        # below the wedge s >= n, so those entries add nothing
        W[:-1] += solve_goursat(b, T - 1).table[1:, ::-1]
    return W


def connecting_matrix(r, T):
    """Connecting matrix C^T from the kernel prefix alone.

    C_{ij} = sum_{k=0}^{T - max(i,j)} r_{|i-j| + 2k}  (1-based i, j).

    Requires the kernel to cover index 2T - 2.  C is symmetric with
    C_{TT} = r_0 = 1, and its last row is the reversed kernel prefix.
    """
    T = check_horizon(T)
    r = check_kernel(r, 2 * T - 1, "kernel too short for horizon")
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
    C = float_array(C, "connecting matrix")
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("connecting matrix must be square")
    return np.flip(C, (0, 1)).T.copy()


def connecting_via_waves(b, T):
    """Connecting matrix as the Gram matrix of basis wave fields.

    Column i of W^T is the final state of the lattice driven by the basis
    control e_i: with zero initial data, the delta-driven state at time
    T - i, bit for bit, so one simulation yields all states.  Their Gram
    matrix equals C^T, the independent oracle route for connecting_matrix.
    The potential is zero-padded as needed, which by finite speed is
    exact, as in solve_semi_infinite and response_kernel.
    """
    T = check_horizon(T)
    delta = np.zeros(T)
    delta[0] = 1.0
    field = solve_semi_infinite(b, delta)
    states = field.values[1:T + 1, T - np.arange(T)]
    return states.T @ states
