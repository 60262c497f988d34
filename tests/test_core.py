"""Sequence utilities: convolution, Chebyshev values, harmonic weight."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from lattice_bc.bc_ops import response_kernel
from lattice_bc.core import (Tolerances, as_float_array, chebyshev_seq,
                             check_horizon, check_kernel, convolve, kappa_seq)
from lattice_bc.forward import apply_representation, solve_goursat
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
    def test_values_cycle(self, T):
        kap = kappa_seq(T)
        assert set(np.unique(kap)).issubset({-1.0, 0.0, 1.0})


class TestValidation:
    def test_tolerances_reject_negative(self):
        with pytest.raises(ValueError):
            Tolerances(det_tol=-1e-9)
        with pytest.raises(ValueError):
            Tolerances(eig_tol=float("nan"))

    def test_tolerances_defaults(self):
        tol = Tolerances()
        assert tol.det_tol == 1e-9
        assert tol.pivot_tol == 1e-12
        assert tol.eig_tol == 1e-10

    def test_kernel_must_start_at_one(self):
        with pytest.raises(ValueError):
            check_kernel([0.999999, 0.0])
        with pytest.raises(ValueError):
            check_kernel([])
        out = check_kernel([1.0, -2.0])
        assert np.array_equal(out, [1.0, -2.0])

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
