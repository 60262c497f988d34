"""Shared numerical conventions: causal sequences and input checks.

All sequences are 1-D float arrays indexed from zero.  A potential
``b = (b_1, ..., b_M)`` is stored with ``b[n-1] = b_n``; boundary controls
``f = (f_0, ..., f_{T-1})`` and response kernels ``r = (r_0, r_1, ...)``
are stored at their natural offsets.

Each kind of input has one check, which every public entry point that
takes it calls: check_potential, check_kernel (r_0 = 1 and the length
its caller reads), check_count, is_real for a real parameter, and
spectral.check_spectral.  A malformed argument raises ValueError, never
numpy's TypeError, which float_array turns into one.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def float_array(values, name="values"):
    """values as a float64 array of any shape; ValueError, not numpy's
    TypeError, when they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must be real numbers") from None


def as_float_array(values, name="values"):
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    arr = float_array(values, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_potential(b, least=0, message=None):
    """The potential b as a 1-D float array of finite entries; raise
    ValueError(message) when it has fewer than least sites."""
    b = as_float_array(b, "potential")
    if b.size < least:
        raise ValueError(message)
    return b


def check_kernel(r, least=1, message=None):
    """The kernel prefix r as a 1-D float array of finite entries with
    r_0 = 1 exactly; raise ValueError(message) when it has fewer than
    least entries."""
    arr = as_float_array(r, "kernel")
    if arr.size == 0 or arr[0] != 1.0:
        raise ValueError("kernel must start with r_0 = 1")
    if arr.size < least:
        raise ValueError(message)
    return arr


def is_real(value):
    """Whether value is one real number: a float, an int within the
    float range, or a numpy scalar or 0-d array of either.  bool is an
    int subclass but, as in check_count, no number here."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    if isinstance(value, bool):
        return False
    return isinstance(value, float) or (
        isinstance(value, int) and abs(value) <= sys.float_info.max)


def check_count(value, least, message):
    """Return value as an int if it is an integer count >= least, and
    raise ValueError(message) otherwise.

    bool is an int subclass but never a count, so True and False are
    rejected.
    """
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise ValueError(message)
    return int(value)


def check_horizon(T, name="horizon"):
    """Validate a positive integer count (horizon, size, order, index)."""
    return check_count(T, 1, f"{name} must be a positive integer")


def check_det_tol(det_tol):
    """Return det_tol, the admissibility slack for the unit leading
    minors of the reversed connecting matrix, as a float if it is a
    real number (is_real), finite, nonnegative and below 1, so that
    passing the test also means positive definite; raise ValueError
    otherwise."""
    if not is_real(det_tol) or not math.isfinite(det_tol) or det_tol < 0.0:
        raise ValueError("det_tol must be finite and nonnegative")
    if det_tol >= 1.0:
        raise ValueError("det_tol must be below 1, so that unit minors "
                         "mean a positive definite matrix")
    return float(det_tol)


def convolve(a, b):
    """Full causal convolution c_t = sum_s a_s b_{t-s}.

    Output has length len(a) + len(b) - 1; empty inputs give an empty
    output.  Used for response application and Chebyshev coefficient
    sequences; both are plain Cauchy products of causal sequences.
    """
    a = as_float_array(a, "a")
    b = as_float_array(b, "b")
    if a.size == 0 or b.size == 0:
        return np.zeros(0)
    return np.convolve(a, b)


def chebyshev_seq(t_max, lam):
    """First-kind Chebyshev values with the lattice normalization.

    Returns (T_0, ..., T_{t_max}) where T_0 = 0, T_1 = 1 and
    T_{t+1} = lam * T_t - T_{t-1}.  These solve the free boundary value
    problem: for b = 0 the wave driven by a delta control is
    u_{n,t} = T_{t-n+1} shifted to the light cone.  lam may also be an
    array of points; the table then has shape (t_max + 1,) + lam.shape
    and each column is the sequence at one point.
    """
    t_max = check_horizon(t_max, "t_max")
    # numpy would read None as the point NaN
    if lam is None:
        raise ValueError("lam must be real numbers")
    lam = float_array(lam, "lam")
    out = np.empty((t_max + 1,) + lam.shape)
    out[0] = 0.0
    out[1] = 1.0
    # each new row written in place through views made once, flat so
    # that scalar and n-d points take the same loop; the arithmetic
    # stays that of lam * T_t - T_{t-1}
    rows = list(out.reshape(t_max + 1, -1))
    lam = lam.reshape(-1)
    for t in range(1, t_max):
        np.multiply(lam, rows[t], out=rows[t + 1])
        rows[t + 1] -= rows[t - 1]
    return out


def kappa_seq(T):
    """Discrete harmonic weight (kappa_0, ..., kappa_{T-1}).

    Defined backward from kappa_T = 0, kappa_{T-1} = 1 by
    kappa_{t-1} = -kappa_{t+1}; the interior identity
    kappa_{t+1} + kappa_{t-1} = 0 makes t -> kappa_t annihilate the
    second difference in time, which is what the trace extraction of
    the Krein solver needs.  Values cycle through 0, +1, 0, -1.
    """
    T = check_horizon(T)
    # kappa_{T-1-j} for j = 0, 1, 2, 3 (mod 4), with the zero signs of
    # the backward recursion from kappa_T = +0.0
    return np.array([1.0, -0.0, -1.0, 0.0])[(T - 1 - np.arange(T)) % 4]
