"""Forward dynamics: half-line solver, triangular kernel, interval solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from lattice_bc.bc_ops import _response_kernels
from lattice_bc.forward import (_wave_steps, apply_representation,
                                solve_goursat, solve_interval,
                                solve_semi_infinite,
                                interval_fourier_solution)
from lattice_bc.spectral import build_hamiltonian, eigen_decompose

int_pot = st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=10)


def delta(T):
    f = np.zeros(T)
    f[0] = 1.0
    return f


class TestSemiInfinite:
    def test_free_delta_is_moving_spike(self):
        T = 8
        fld = solve_semi_infinite(np.zeros(T), delta(T))
        expect = np.zeros((T + 1, T + 1))
        expect[0, 0] = 1.0
        for n in range(1, T + 1):
            expect[n, n] = 1.0
        assert np.array_equal(fld.values, expect)

    def test_single_site_hand_values(self):
        fld = solve_semi_infinite([1.0], delta(3))
        assert fld.values[1, 1] == 1.0
        assert fld.values[1, 2] == -1.0
        assert fld.values[2, 2] == 1.0
        assert fld.values[1, 3] == 1.0  # b_1^2 - 0 with b_1 = 1

    def test_leading_edge_carries_f0(self):
        rng = np.random.default_rng(2)
        b = rng.uniform(-2, 2, 6)
        f = rng.uniform(-1, 1, 6)
        fld = solve_semi_infinite(b, f)
        for n in range(1, 7):
            assert fld.values[n, n] == f[0]

    def test_finite_speed_exact_zeros(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(-2, 2, 7)
        f = rng.uniform(-1, 1, 7)
        fld = solve_semi_infinite(b, f)
        for n in range(1, 8):
            for t in range(n):
                assert fld.values[n, t] == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            T = int(rng.integers(1, 10))
            b = rng.uniform(-2, 2, T)
            f = rng.uniform(-1, 1, T)
            fld = solve_semi_infinite(b, f)
            oracle = helpers.wave_oracle(b, f, T)
            # the same operations in the same order: equal bytes, zero
            # signs included
            assert fld.values.tobytes() == oracle.tobytes()

    def test_short_potential_is_free_tail(self):
        # padding b with zeros is the defining semantics
        f = np.arange(1.0, 6.0)
        full = solve_semi_infinite([0.5, -0.25, 0.0, 0.0, 0.0], f)
        short = solve_semi_infinite([0.5, -0.25], f)
        assert np.array_equal(full.values, short.values)

    def test_empty_control_rejected(self):
        # the horizon is the control's length, so no control no horizon
        sd = eigen_decompose(build_hamiltonian([0.5], 1))
        for solve in (lambda f: solve_semi_infinite([0.5], f),
                      lambda f: solve_interval([0.5], 1, f),
                      lambda f: interval_fourier_solution(sd, f)):
            with pytest.raises(ValueError, match="control must be nonempty"):
                solve([])
            assert solve([1.0]).t_max == 1

    def test_linearity(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(-2, 2, 6)
        f = rng.uniform(-1, 1, 6)
        g = rng.uniform(-1, 1, 6)
        lhs = solve_semi_infinite(b, f + g).values
        rhs = (solve_semi_infinite(b, f).values
               + solve_semi_infinite(b, g).values)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_boundary_trace(self):
        fld = solve_semi_infinite([1.0], delta(3))
        assert np.array_equal(fld.boundary_trace(), [1.0, -1.0, 1.0])


class TestGoursat:
    def test_diagonal_is_minus_cumsum(self):
        b = np.array([0.3, -1.2, 0.7, 2.0])
        w = solve_goursat(b, 4)
        assert np.allclose(np.diag(w.table)[1:], -np.cumsum(b))
        assert w.table[0, 0] == 0.0

    def test_first_row_hand_values(self):
        # w_{1,2} = b_1^2 and w_{1,3} = -(b_2 + b_1^3)
        b = np.array([1.5, -0.5, 0.0])
        w = solve_goursat(b, 3)
        assert w.table[1, 1] == -1.5
        assert w.table[1, 2] == 1.5 ** 2
        assert w.table[1, 3] == -(-0.5 + 1.5 ** 3)

    def test_zero_row_and_wedge(self):
        b = np.array([0.4, 0.2, -0.3, 0.9])
        w = solve_goursat(b, 4)
        assert np.array_equal(w.table[0], np.zeros(5))
        for n in range(1, 5):
            for s in range(n):
                assert w.table[n, s] == 0.0

    @given(st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=8))
    def test_interior_recurrence_exact_for_integer_potentials(self, b):
        S = len(b)
        w = solve_goursat(b, S).table
        for s in range(2, S + 1):
            for n in range(1, s):
                up = w[n + 1, s - 1] if n + 1 <= S else 0.0
                back = w[n, s - 2]
                assert w[n, s] == up + w[n - 1, s - 1] - b[n - 1] * w[n, s - 1] - back

    def test_interior_recurrence_residual_real_potentials(self):
        rng = np.random.default_rng(6)
        b = rng.uniform(-2, 2, 12)
        w = solve_goursat(b, 12).table
        scale = np.max(np.abs(w))
        for s in range(2, 13):
            for n in range(1, s):
                res = (w[n, s] - w[n + 1, s - 1] - w[n - 1, s - 1]
                       + b[n - 1] * w[n, s - 1] + w[n, s - 2])
                assert abs(res) <= 8 * np.finfo(float).eps * scale

    def test_short_potential_rejected(self):
        with pytest.raises(ValueError):
            solve_goursat([1.0, 2.0], 3)

    @given(M=st.integers(1, 5), S=st.integers(1, 40),
           amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_fill_rows_are_single_fills(self, M, S, amplitude, seed):
        # slabs are (sites 0..S plus the wall, stack), one per step
        b = np.random.default_rng(seed).uniform(-amplitude, amplitude,
                                                (M, S + 2))
        w = np.array([slab.copy() for slab in _wave_steps(b, S, S)])
        assert w.shape == (S + 1, S + 2, M)
        assert w[:, S + 1].tobytes() == np.zeros((S + 1, M)).tobytes()
        for m in range(M):
            assert np.array_equal(w[:, :S + 1, m].T,
                                  solve_goursat(b[m], S).table)

    @given(M=st.integers(1, 5), S=st.integers(0, 40), rows=st.integers(1, 42),
           length=st.integers(0, 45), amplitude=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_controlled_slabs_are_single_runs(self, M, S, rows, length,
                                                      amplitude, seed):
        # the interval mode: a control on row 0 and a wall behind a band
        # of rows sites, with b cut or zero-padded to the band
        rng = np.random.default_rng(seed)
        b = rng.uniform(-amplitude, amplitude, (M, length))
        control = rng.normal(size=S + 1)
        u = np.array([slab.copy()
                      for slab in _wave_steps(b, S, rows, control)])
        assert u.shape == (S + 1, rows + 2, M)
        for m in range(M):
            one = np.array([slab.copy()
                            for slab in _wave_steps(b[m], S, rows, control)])
            assert one.shape == (S + 1, rows + 2)
            assert u[..., m].tobytes() == one.tobytes()

    def test_value_accessor(self):
        w = solve_goursat([1.0, 1.0], 2)
        assert w.value(2, 1) == 0.0
        assert w.value(1, 2) == 1.0
        with pytest.raises(ValueError):
            w.value(1, 3)


def scalar_fill(b, S):
    """w_{n,s}, 0 <= n, s <= S, of b cut or zero-padded to S sites: the
    Goursat recurrence one entry at a time over the whole triangle, in
    Python floats, with the fill's operation order."""
    b = [float(x) for x in b[:S]] + [0.0] * (S - min(len(b), S))
    total = list(itertools.accumulate(b))
    w = [[0.0] * (S + 1) for _ in range(S + 1)]
    for s in range(1, S + 1):
        for n in range(1, s):
            w[n][s] = (((w[n + 1][s - 1] + w[n - 1][s - 1])
                        - b[n - 1] * w[n][s - 1]) - w[n][s - 2])
        w[s][s] = -total[s - 1]
    return np.array(w)


def scalar_kernels(b, K):
    """(r_0, ..., r_K) of each row of b from the full scalar triangle."""
    r = np.zeros((len(b), K + 1))
    r[:, 0] = 1.0
    if K >= 1:
        for m, row in enumerate(b):
            r[m, 1:] = scalar_fill(row, K)[1, 1:]
    return r


class TestBandedFill:
    """The fill keeps ceil(K/2) sites behind a zero wall for a kernel of
    order K, and S sites for a table of order S; every entry it returns
    has the bits of the scalar recurrence over the whole triangle."""

    @pytest.mark.parametrize("M", [1, 3, 64])
    @pytest.mark.parametrize("K", [0, 1, 2, 3, 12, 13, 30, 31])
    def test_kernels_match_scalar_triangle(self, K, M):
        rng = np.random.default_rng(1000 * K + M)
        for length in (K // 3, K + 5):
            b = rng.uniform(-1.5, 1.5, (M, length))
            r = _response_kernels(b, K)
            assert r.tobytes() == scalar_kernels(b, K).tobytes()

    @pytest.mark.parametrize("S", [1, 2, 3, 12, 13, 30])
    def test_tables_match_scalar_triangle(self, S):
        rng = np.random.default_rng(S)
        for length in (S, S + 4):
            b = rng.uniform(-1.5, 1.5, length)
            table = solve_goursat(b, S).table
            assert table.tobytes() == scalar_fill(b, S).tobytes()

    def test_overflowing_fill_matches_scalar_triangle(self):
        # entries overflow to inf and then to nan inside the wedge; the
        # band gives them the same bits, nan payloads included
        b = np.random.default_rng(5).uniform(-1e100, 1e100, (3, 25))
        with np.errstate(over="ignore", invalid="ignore"):
            r = _response_kernels(b, 25)
            table = solve_goursat(b[0], 25).table
        assert np.isinf(r).any() and np.isnan(r).any()
        assert r.tobytes() == scalar_kernels(b, 25).tobytes()
        assert table.tobytes() == scalar_fill(b[0], 25).tobytes()


class TestRepresentation:
    def test_zero_potential_is_translation(self):
        w = solve_goursat(np.zeros(6), 6)
        f = np.array([2.0, -1.0, 0.5, 0.0, 3.0, 1.0])
        for n in range(1, 7):
            for t in range(7):
                expect = f[t - n] if 0 <= t - n < 6 else 0.0
                assert apply_representation(w, f, n, t) == expect

    def test_matches_solver(self):
        rng = np.random.default_rng(7)
        for amp, T in ((1.0, 16), (0.5, 32)):
            b = rng.uniform(-amp, amp, T)
            f = rng.uniform(-1, 1, T)
            fld = solve_semi_infinite(b, f)
            w = solve_goursat(b, max(T - 1, 1))
            worst = 0.0
            for n in range(1, T + 1):
                for t in range(T + 1):
                    rep = apply_representation(w, f, n, t)
                    worst = max(worst, abs(rep - fld.values[n, t]))
            assert worst <= 1e-10

    def test_coverage_error(self):
        w = solve_goursat([1.0, 1.0], 2)
        with pytest.raises(ValueError):
            apply_representation(w, [1.0, 0.0, 0.0, 0.0], 1, 4)
        # empty sums need no coverage
        assert apply_representation(w, [1.0, 0.0, 0.0, 0.0], 4, 4) == 1.0

    def test_index_validation(self):
        w = solve_goursat([1.0], 1)
        with pytest.raises(ValueError):
            apply_representation(w, [1.0], 0, 1)
        with pytest.raises(ValueError):
            apply_representation(w, [1.0], 1, -1)


class TestInterval:
    def test_single_site_hand_values(self):
        b1 = 0.7
        fld = solve_interval([b1], 1, delta(3))
        assert fld.values[1, 1] == 1.0
        assert fld.values[1, 2] == -b1
        assert fld.values[1, 3] == b1 * b1 - 1.0

    def test_free_two_site_reflection(self):
        fld = solve_interval(np.zeros(2), 2, delta(5))
        assert fld.values[1, 5] == -1.0  # first wall reflection arrives

    def test_wall_row_is_zero(self):
        rng = np.random.default_rng(8)
        fld = solve_interval(rng.uniform(-1, 1, 3), 3,
                             rng.uniform(-1, 1, 9))
        assert np.array_equal(fld.values[4], np.zeros(10))

    def test_agrees_with_half_line_inside_light_cone(self):
        # the wall at N+1 is first felt at (N, N+2); site n sees the
        # reflection at t = 2N + 2 - n, so agreement holds strictly
        # below that and the boundary row agrees through t = 2N
        rng = np.random.default_rng(9)
        for _ in range(4):
            N = int(rng.integers(2, 7))
            T = 3 * N
            b = rng.uniform(-1.5, 1.5, N + T)
            f = rng.uniform(-1, 1, T)
            half = solve_semi_infinite(b, f)
            box = solve_interval(b, N, f)
            for n in range(1, N + 1):
                for t in range(min(2 * N + 2 - n, T + 1)):
                    assert box.values[n, t] == pytest.approx(
                        half.values[n, t], abs=1e-12)

    def test_first_boundary_disagreement_is_reflected_spike(self):
        rng = np.random.default_rng(10)
        N = 4
        T = 2 * N + 1
        b = rng.uniform(-1.5, 1.5, N + T)
        f = rng.uniform(-1, 1, T)
        f[0] = 0.37
        half = solve_semi_infinite(b, f)
        box = solve_interval(b, N, f)
        diff = half.values[1, 2 * N + 1] - box.values[1, 2 * N + 1]
        assert diff == pytest.approx(f[0], abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            N = int(rng.integers(1, 6))
            T = int(rng.integers(1, 12))
            b = rng.uniform(-2, 2, N)
            f = rng.uniform(-1, 1, T)
            fld = solve_interval(b, N, f)
            oracle = helpers.wave_oracle(b, f, T, wall=N)
            assert fld.values.tobytes() == oracle.tobytes()

    def test_short_potential_rejected(self):
        with pytest.raises(ValueError):
            solve_interval([1.0], 2, [1.0])


class TestIntervalFourier:
    def test_zero_control_zero_field(self):
        sd = eigen_decompose(build_hamiltonian([0.5, -0.5], 2))
        fld = interval_fourier_solution(sd, np.zeros(4))
        assert np.array_equal(fld.values, np.zeros((4, 5)))

    def test_single_site_chebyshev(self):
        c = 0.8
        sd = eigen_decompose(build_hamiltonian([c], 1))
        fld = interval_fourier_solution(sd, delta(3))
        assert fld.values[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert fld.values[1, 2] == pytest.approx(-c, abs=1e-12)
        assert fld.values[1, 3] == pytest.approx(c * c - 1.0, abs=1e-12)

    def test_matches_time_stepping(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            N = int(rng.integers(1, 8))
            T = int(rng.integers(1, 3 * N + 2))
            b = rng.uniform(-1, 1, N)
            f = rng.uniform(-1, 1, T)
            sd = eigen_decompose(build_hamiltonian(b, N))
            fourier = interval_fourier_solution(sd, f)
            direct = solve_interval(b, N, f)
            assert np.allclose(fourier.values, direct.values, atol=1e-9)

    def test_coefficient_recurrence(self):
        # c^k_{t+1} + c^k_{t-1} - lambda_k c^k_t = f_t / rho_k
        from lattice_bc.core import chebyshev_seq, convolve
        rng = np.random.default_rng(13)
        N, T = 5, 12
        b = rng.uniform(-1, 1, N)
        f = rng.uniform(-1, 1, T)
        sd = eigen_decompose(build_hamiltonian(b, N))
        for k in range(N):
            lam = sd.eigenvalues[k]
            c = convolve(chebyshev_seq(T + 1, lam), f)[:T + 2] / sd.norming[k]
            for t in range(1, T):
                res = c[t + 1] + c[t - 1] - lam * c[t] - f[t] / sd.norming[k]
                assert abs(res) <= 1e-10 * max(1.0, np.abs(c).max())

    def test_requires_eigenvectors(self):
        from lattice_bc.spectral import SpectralData
        sd = SpectralData(eigenvalues=[-1.0, 1.0], norming=[2.0, 2.0])
        with pytest.raises(ValueError):
            interval_fourier_solution(sd, [1.0])
