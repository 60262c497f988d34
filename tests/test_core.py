"""Sequence utilities: convolution, Chebyshev values, harmonic weight."""

import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from lattice_bc.bc_ops import response_kernel
from lattice_bc import cli, spectral
from lattice_bc.core import (as_float_array, chebyshev_seq, check_det_tol,
                             check_horizon, check_kernel, convolve, is_real,
                             kappa_seq)
from lattice_bc.forward import apply_representation, solve_goursat
from lattice_bc.inversion import DET_TOL, characterize_response
from lattice_bc.spectral import (build_hamiltonian, eigen_decompose,
                                 kernel_from_spectral)

# integer-valued floats keep every arithmetic step exact, so algebraic
# identities can be asserted with == rather than a tolerance
int_floats = st.integers(-5, 5).map(float)
short_seq = st.lists(int_floats, min_size=1, max_size=24)


class TestConvolve:
    def test_identity_kernel(self):
        out = convolve([1.0, 0.0, 0.0], [2.5, -1.0, 3.0])
        assert np.array_equal(out, [2.5, -1.0, 3.0, 0.0, 0.0])

    def test_pair_of_ones(self):
        assert np.array_equal(convolve([1.0, 1.0], [1.0, 1.0]),
                              [1.0, 2.0, 1.0])

    def test_known_product(self):
        # (1 - 3x)(2 + x^2) = 2 - 6x + x^2 - 3x^3, frozen from the
        # brute-force double sum
        out = convolve([1.0, -3.0], [2.0, 0.0, 1.0])
        assert np.array_equal(out, [2.0, -6.0, 1.0, -3.0])
        assert np.array_equal(out, helpers.brute_convolve(
            [1.0, -3.0], [2.0, 0.0, 1.0]))

    def test_empty(self):
        assert convolve([], [1.0, 2.0]).size == 0
        assert convolve([], []).size == 0

    @given(short_seq, short_seq)
    def test_matches_brute_force(self, a, b):
        assert np.array_equal(convolve(a, b), helpers.brute_convolve(a, b))

    @given(short_seq, short_seq)
    def test_commutative(self, a, b):
        assert np.array_equal(convolve(a, b), convolve(b, a))

    @given(short_seq, short_seq, short_seq)
    def test_distributive(self, a, b, c):
        n = max(len(b), len(c))
        bp = np.zeros(n)
        bp[:len(b)] = b
        cp = np.zeros(n)
        cp[:len(c)] = c
        left = convolve(a, bp + cp)
        right = convolve(a, bp) + convolve(a, cp)
        assert np.array_equal(left, right)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            convolve([np.nan], [1.0])


class TestChebyshev:
    def test_small_orders(self):
        lam = 1.7
        out = chebyshev_seq(3, lam)
        assert np.array_equal(out, [0.0, 1.0, lam, lam * lam - 1.0])

    def test_at_two(self):
        # lam = 2 gives the integers 0, 1, 2, 3, ...
        assert np.array_equal(chebyshev_seq(6, 2.0),
                              np.arange(7, dtype=float))

    def test_recurrence_exact_for_integer_argument(self):
        for lam in (-3.0, -1.0, 0.0, 2.0, 4.0):
            out = chebyshev_seq(20, lam)
            for t in range(1, 20):
                assert out[t + 1] + out[t - 1] - lam * out[t] == 0.0

    def test_recurrence_residual_small_for_real_argument(self):
        rng = np.random.default_rng(3)
        for lam in rng.uniform(-2.5, 2.5, 10):
            out = chebyshev_seq(24, lam)
            scale = np.max(np.abs(out))
            for t in range(1, 24):
                res = out[t + 1] + out[t - 1] - lam * out[t]
                assert abs(res) <= 4 * np.finfo(float).eps * scale

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            chebyshev_seq(0, 1.0)

    def test_array_columns_equal_scalar_calls(self):
        lam = np.concatenate(
            ([-0.0, 2.0], np.random.default_rng(5).uniform(-2.5, 2.5, 8)))
        table = chebyshev_seq(24, lam)
        assert table.shape == (25, lam.size)
        for k, point in enumerate(lam):
            assert np.array_equal(table[:, k], chebyshev_seq(24, point))


class TestKappa:
    def test_small_horizons(self):
        assert np.array_equal(kappa_seq(1), [1.0])
        assert np.array_equal(kappa_seq(2), [0.0, 1.0])
        assert np.array_equal(kappa_seq(3), [-1.0, 0.0, 1.0])
        assert np.array_equal(kappa_seq(4), [0.0, -1.0, 0.0, 1.0])
        assert np.array_equal(kappa_seq(5), [1.0, 0.0, -1.0, 0.0, 1.0])

    @given(st.integers(1, 64))
    def test_harmonic_identity(self, T):
        kap = np.append(kappa_seq(T), 0.0)  # extend by kappa_T = 0
        assert kap[T] == 0.0
        assert kap[T - 1] == 1.0
        for t in range(1, T):
            assert kap[t + 1] + kap[t - 1] == 0.0

    @given(st.integers(1, 64))
    def test_bytes_are_the_backward_recursion(self, T):
        # zero signs included: they reach the Krein right-hand sides
        want = [0.0] * (T + 1)
        want[T - 1] = 1.0
        for t in range(T - 1, 0, -1):
            want[t - 1] = -want[t + 1]
        assert kappa_seq(T).tobytes() == np.array(want[:T]).tobytes()

    @given(st.integers(1, 64))
    def test_values_cycle(self, T):
        kap = kappa_seq(T)
        assert set(np.unique(kap)).issubset({-1.0, 0.0, 1.0})


class TestValidation:
    def test_tolerances_reject_negative(self):
        with pytest.raises(ValueError):
            check_det_tol(-1e-9)
        with pytest.raises(ValueError):
            check_det_tol(float("nan"))
        assert check_det_tol(0) == 0.0

    def test_det_tol_below_one(self):
        # at det_tol >= 1 minors within det_tol of one may be zero or
        # negative, so the unit-minor test no longer means positive
        # definite
        for det_tol in (1.0, 2.0):
            with pytest.raises(ValueError, match="det_tol must be below 1"):
                check_det_tol(det_tol)
        below = np.nextafter(1.0, 0.0)
        assert check_det_tol(below) == below < 1.0
        # the finiteness check comes first, with its own message
        for det_tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="det_tol must be finite and nonnegative"):
                check_det_tol(det_tol)

    def test_tolerances_defaults(self):
        # one constant per tolerance: det_tol's default, read by both
        # functions that take it, and the fixed eigenpair residual bound
        assert DET_TOL == 1e-9
        for function in (characterize_response, cli.roundtrip_report):
            default = inspect.signature(function).parameters["det_tol"]
            assert default.default is DET_TOL
        assert spectral.EIG_TOL == 1e-10
        assert list(inspect.signature(eigen_decompose).parameters) == ["H"]

    def test_kernel_must_start_at_one(self):
        with pytest.raises(ValueError):
            check_kernel([0.999999, 0.0])
        with pytest.raises(ValueError):
            check_kernel([])
        out = check_kernel([1.0, -2.0])
        assert np.array_equal(out, [1.0, -2.0])
        # the r_0 rule comes before the length its caller reads
        with pytest.raises(ValueError, match="r_0 = 1"):
            check_kernel([0.5], 3, "too short")
        with pytest.raises(ValueError, match="too short"):
            check_kernel([1.0, 0.5], 3, "too short")
        assert np.array_equal(check_kernel([1.0, 0.5, 0.0], 3), [1, 0.5, 0])

    def test_is_real(self):
        # one number, never a bool, a string, an array of more than
        # zero dimensions or an int with no float value
        for x in (0, -3, 0.5, -0.0, np.nan, np.inf, np.float32(1.5),
                  np.int64(2), np.array(0.25), 2 ** 1000):
            assert is_real(x), x
        for x in (True, False, np.bool_(True), "0.5", None, object(),
                  [0.5], [[0.5]], np.array([0.5]), 1j, 2 ** 1024):
            assert not is_real(x), x

    def test_bool_is_not_a_count(self):
        # bool is an int subclass; True must not pass as the count 1
        for flag in (True, False):
            with pytest.raises(ValueError, match="horizon must be"):
                check_horizon(flag)
            with pytest.raises(ValueError, match="t_max must be"):
                chebyshev_seq(flag, 0.5)
            with pytest.raises(ValueError, match="size must be"):
                build_hamiltonian([0.5, 0.5], flag)
            with pytest.raises(ValueError, match="order must be"):
                solve_goursat([0.5, 0.5], flag)
            sd = eigen_decompose(build_hamiltonian([0.5], 1))
            with pytest.raises(ValueError, match="order must be"):
                kernel_from_spectral(sd, flag)
        assert check_horizon(np.int64(3)) == 3

    def test_bool_is_not_an_order_or_time_index(self):
        # the nonnegative counts: True used to pass as the order or time 1
        w = solve_goursat([0.5, 0.5], 2)
        for flag in (True, False):
            with pytest.raises(ValueError, match="order must be"):
                response_kernel([0.5], flag)
            with pytest.raises(ValueError, match="time index must be"):
                apply_representation(w, [1.0, 2.0], 1, flag)
        assert np.array_equal(response_kernel([0.5], np.int64(1)),
                              [1.0, -0.5])
        assert apply_representation(w, [1.0, 2.0], 1, np.int64(1)) == 1.0

    def test_array_coercion(self):
        with pytest.raises(ValueError):
            as_float_array([[1.0]], "x")
        with pytest.raises(ValueError):
            as_float_array([float("inf")], "x")
