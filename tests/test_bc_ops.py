"""Response kernel, response operator and adjoint, control and connecting
matrices, and the algebraic identities tying them together."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from lattice_bc.bc_ops import (_response_kernels, apply_response,
                               apply_response_adjoint, connecting_matrix,
                               connecting_via_waves, control_matrix,
                               response_kernel, rotated_connecting)
from lattice_bc.forward import solve_goursat, solve_semi_infinite
from lattice_bc.inversion import DET_TOL

int_seq = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=12)


def delta(T):
    f = np.zeros(T)
    f[0] = 1.0
    return f


class TestResponseKernel:
    def test_zero_potential(self):
        r = response_kernel([], 5)
        assert np.array_equal(r, [1, 0, 0, 0, 0, 0])

    @given(rows=st.integers(1, 5), length=st.integers(0, 30),
           K=st.integers(0, 60), amplitude=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_rows_are_single_kernels(self, rows, length, K, amplitude,
                                           seed):
        b = np.random.default_rng(seed).uniform(-amplitude, amplitude,
                                                (rows, length))
        r = _response_kernels(b, K)
        assert r.shape == (rows, K + 1)
        for m in range(rows):
            assert np.array_equal(r[m], response_kernel(b[m], K))

    def test_leading_entries(self):
        rng = np.random.default_rng(21)
        b = rng.uniform(-2, 2, 4)
        r = response_kernel(b, 3)
        assert r[0] == 1.0
        assert r[1] == -b[0]
        assert r[2] == b[0] * b[0]
        assert r[3] == pytest.approx(-(b[1] + b[0] ** 3), rel=1e-14)

    def test_two_site_example(self):
        assert np.array_equal(response_kernel([1.0, 0.0], 3),
                              [1.0, -1.0, 1.0, -1.0])

    def test_matches_delta_probe(self):
        # r_s = u^delta_{1, s+1}: the kernel is the boundary trace of
        # the delta-driven wave, an independent route through the
        # time-stepping solver
        rng = np.random.default_rng(22)
        b = rng.uniform(-2, 2, 8)
        K = 9
        r = response_kernel(b, K)
        fld = solve_semi_infinite(b, delta(K + 1))
        probe = fld.values[1, 1:K + 2]
        assert np.allclose(r, probe, atol=1e-10 * max(1, np.abs(r).max()))

    def test_depth_independence(self):
        # entries beyond ceil(K/2) of the potential cannot matter
        rng = np.random.default_rng(23)
        base = rng.uniform(-2, 2, 3)
        K = 5  # ceil(5/2) = 3 sites suffice
        tail = np.concatenate((base, rng.uniform(-2, 2, 4)))
        assert np.array_equal(response_kernel(base, K),
                              response_kernel(tail, K))

    def test_sites_beyond_the_band_neither_reach_nor_warn(self):
        # b_8 lies beyond the ceil(10/2) = 5 sites that r_0..r_10 can
        # feel: the fill does not read it, so it neither changes a bit
        # nor overflows (pytest turns a RuntimeWarning into an error)
        b = np.zeros(12)
        quiet = response_kernel(b, 10)
        b[7] = 1e300
        assert response_kernel(b, 10).tobytes() == quiet.tobytes()

    def test_zero_order(self):
        assert np.array_equal(response_kernel([3.0], 0), [1.0])
        assert np.array_equal(response_kernel([], 0), [1.0])
        # the potential is checked at order 0 as at every other order
        for bad in (object(), [np.nan], [[1.0]]):
            with pytest.raises(ValueError):
                response_kernel(bad, 0)
        with pytest.raises(ValueError, match="non-finite"):
            response_kernel([0.0, np.nan], 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            response_kernel([1.0], -1)


class TestApplyResponse:
    def test_delta_sifts_kernel(self):
        r = np.array([1.0, 0.5, -0.25, 0.125])
        out = apply_response(r, delta(4))
        assert np.array_equal(out, r)

    def test_identity_kernel_delays(self):
        f = np.array([3.0, -1.0, 2.0])
        out = apply_response([1.0, 0.0, 0.0], f)
        assert np.array_equal(out, f)

    def test_known_values(self):
        out = apply_response([1.0, -1.0, 1.0], [1.0, 1.0, 1.0])
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_matches_toeplitz_matrix(self):
        rng = np.random.default_rng(24)
        r = np.concatenate(([1.0], rng.uniform(-1, 1, 7)))
        f = rng.uniform(-1, 1, 8)
        M = helpers.response_toeplitz(r, 8)
        assert np.allclose(apply_response(r, f), M @ f, atol=1e-14)

    def test_short_kernel_rejected(self):
        with pytest.raises(ValueError):
            apply_response([1.0, 0.0], [1.0, 2.0, 3.0])

    def test_equals_wave_trace(self):
        # (R f)_t = u_{1,t}: response of the full simulation
        rng = np.random.default_rng(25)
        b = rng.uniform(-1, 1, 6)
        f = rng.uniform(-1, 1, 6)
        r = response_kernel(b, 5)
        fld = solve_semi_infinite(b, f)
        assert np.allclose(apply_response(r, f), fld.values[1, 1:],
                           atol=1e-12)


class TestAdjoint:
    def test_known_values(self):
        out = apply_response_adjoint([1.0, -1.0, 1.0], [1.0, 1.0, 1.0])
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_matches_toeplitz_transpose(self):
        rng = np.random.default_rng(26)
        r = np.concatenate(([1.0], rng.uniform(-1, 1, 9)))
        g = rng.uniform(-1, 1, 10)
        M = helpers.response_toeplitz(r, 10)
        assert np.allclose(apply_response_adjoint(r, g), M.T @ g,
                           atol=1e-14)

    @given(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=10),
           st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=10),
           st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=10))
    def test_pairing_identity(self, rtail, f, g):
        # (R f, g) = (f, R* g) with integer data this is exact
        T = max(len(f), len(g))
        fp = np.zeros(T)
        fp[:len(f)] = f
        gp = np.zeros(T)
        gp[:len(g)] = g
        r = np.zeros(T)
        r[0] = 1.0
        m = min(T - 1, len(rtail))
        if m > 0:
            r[1:1 + m] = rtail[:m]
        lhs = float(apply_response(r, fp) @ gp)
        rhs = float(fp @ apply_response_adjoint(r, gp))
        assert lhs == rhs

    def test_short_kernel_rejected(self):
        with pytest.raises(ValueError):
            apply_response_adjoint([1.0], [1.0, 2.0])


class TestControlMatrix:
    def test_zero_potential_reversal(self):
        W = control_matrix(np.zeros(3), 4)
        assert np.array_equal(W, np.flip(np.eye(4), 1))

    def test_rows_are_final_states(self):
        rng = np.random.default_rng(27)
        T = 9
        b = rng.uniform(-1, 1, T - 1)
        W = control_matrix(b, T)
        f = rng.uniform(-1, 1, T)
        fld = solve_semi_infinite(b, f)
        assert np.allclose(W @ f, fld.values[1:T + 1, T], atol=1e-11)

    def test_basis_columns_match_probes(self):
        rng = np.random.default_rng(28)
        T = 6
        b = rng.uniform(-1, 1, T - 1)
        W = control_matrix(b, T)
        for i in range(T):
            f = np.zeros(T)
            f[i] = 1.0
            fld = solve_semi_infinite(b, f)
            assert np.allclose(W[:, i], fld.values[1:T + 1, T], atol=1e-11)

    def test_unit_triangular_after_reversal(self):
        rng = np.random.default_rng(29)
        T = 7
        W = control_matrix(rng.uniform(-2, 2, T - 1), T)
        upper = W @ np.flip(np.eye(T), 1)
        assert np.allclose(np.diag(upper), np.ones(T))
        assert np.allclose(np.tril(upper, -1), 0.0)

    def test_determinant_unimodular(self):
        rng = np.random.default_rng(30)
        for T in (1, 2, 5, 10):
            W = control_matrix(rng.uniform(-2, 2, max(T - 1, 1)), T)
            assert abs(abs(np.linalg.det(W)) - 1.0) <= 1e-9

    def test_short_potential_rejected(self):
        with pytest.raises(ValueError):
            control_matrix([1.0], 3)

    @pytest.mark.parametrize("amplitude", [0.1, 3.0, 1e100])
    def test_bytes_are_the_row_loop(self, amplitude):
        # rows n = 1..T-1 add w_{n,s}, s >= n, one entry at a time; at
        # 1e100 the wedge holds inf and nan
        rng = np.random.default_rng(35)
        for T in (1, 2, 3, 8, 17):
            b = amplitude * rng.uniform(-1, 1, T + 1)
            with np.errstate(all="ignore"):
                W = control_matrix(b, T)
                table = solve_goursat(b, max(T - 1, 1)).table
            want = np.flip(np.eye(T), 1)
            for n in range(1, T):
                for s in range(n, T):
                    want[n - 1, T - 1 - s] += table[n, s]
            assert W.tobytes() == want.tobytes()


class TestConnecting:
    def test_trivial_kernel(self):
        assert np.array_equal(connecting_matrix([1.0, 0.0, 0.0], 2),
                              np.eye(2))

    def test_horizon_two_entries(self):
        C = connecting_matrix([1.0, 0.3, -0.2], 2)
        assert np.allclose(C, [[0.8, 0.3], [0.3, 1.0]])

    def test_matches_entry_formula(self):
        rng = np.random.default_rng(31)
        r = np.concatenate(([1.0], rng.uniform(-0.5, 0.5, 12)))
        C = connecting_matrix(r, 6)
        assert np.allclose(C, helpers.connecting_direct(r, 6), atol=1e-14)

    def test_symmetric_unit_corner(self):
        rng = np.random.default_rng(32)
        r = np.concatenate(([1.0], rng.uniform(-0.5, 0.5, 14)))
        C = connecting_matrix(r, 8)
        assert np.array_equal(C, C.T)
        assert C[7, 7] == 1.0
        assert np.array_equal(C[7], r[7::-1])

    def test_short_kernel_rejected(self):
        with pytest.raises(ValueError):
            connecting_matrix([1.0, 0.0], 2)

    def test_gram_identity(self):
        # C = (W^T)^t W^T through the kernel route, at a scale where
        # kernel growth keeps roundoff below 1e-10
        rng = np.random.default_rng(33)
        for T in (2, 5, 9, 16):
            b = rng.uniform(-0.5, 0.5, T - 1)
            W = control_matrix(b, T)
            C = connecting_matrix(response_kernel(b, 2 * T - 2), T)
            assert np.max(np.abs(W.T @ W - C)) <= 1e-10

    def test_wave_route_equals_kernel_route(self):
        rng = np.random.default_rng(34)
        for T in (1, 3, 7, 12):
            b = rng.uniform(-0.5, 0.5, max(T - 1, 1))
            C_kernel = connecting_matrix(response_kernel(b, 2 * T - 2), T)
            C_wave = connecting_via_waves(b, T)
            assert np.max(np.abs(C_kernel - C_wave)) <= 1e-9

    def test_short_potential_is_zero_padded(self):
        # finite speed makes the padding exact, as on the kernel route
        rng = np.random.default_rng(38)
        for T in range(1, 13):
            for length in range(T - 1):
                b = rng.uniform(-0.5, 0.5, length)
                padded = np.concatenate((b, np.zeros(T - 1 - length)))
                assert (connecting_via_waves(b, T).tobytes()
                        == connecting_via_waves(padded, T).tobytes())

    def test_wave_route_positive_definite(self):
        rng = np.random.default_rng(35)
        C = connecting_via_waves(rng.uniform(-1, 1, 7), 8)
        assert np.all(np.linalg.eigvalsh(C) > 0.0)

    def test_difference_identity(self):
        # C_{i,j+1} + C_{i,j-1} - C_{i+1,j} - C_{i-1,j} = 0 strictly
        # inside, with the last row pinned to the reversed kernel
        rng = np.random.default_rng(36)
        T = 9
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        C = connecting_matrix(r, T)
        for i in range(1, T - 1):
            for j in range(1, T - 1):
                res = (C[i, j + 1] + C[i, j - 1]
                       - C[i + 1, j] - C[i - 1, j])
                assert abs(res) <= 1e-12 * max(1.0, np.abs(C).max())
        assert np.array_equal(C[T - 1], r[T - 1::-1])

    def test_unit_leading_determinants_of_horizon_family(self):
        # det C^l = 1 for the connecting matrix of every horizon l,
        # equivalently for every leading block of the reversed form
        rng = np.random.default_rng(37)
        T = 10
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        for ell in range(1, T + 1):
            d = np.linalg.det(connecting_matrix(r, ell))
            assert abs(d - 1.0) <= DET_TOL
        cbar = rotated_connecting(connecting_matrix(r, T))
        minors = helpers.leading_minors(cbar)
        assert np.max(np.abs(minors - 1.0)) <= DET_TOL


class TestRotated:
    def test_identity_fixed(self):
        assert np.array_equal(rotated_connecting(np.eye(3)), np.eye(3))

    def test_horizon_two_layout(self):
        C = connecting_matrix([1.0, 0.3, -0.2], 2)
        cbar = rotated_connecting(C)
        assert np.allclose(cbar, [[1.0, 0.3], [0.3, 0.8]])

    def test_involution(self):
        rng = np.random.default_rng(38)
        C = rng.normal(size=(5, 5))
        assert np.array_equal(rotated_connecting(rotated_connecting(C)), C)

    def test_first_row_is_kernel_prefix(self):
        rng = np.random.default_rng(39)
        r = np.concatenate(([1.0], rng.uniform(-0.5, 0.5, 10)))
        cbar = rotated_connecting(connecting_matrix(r, 6))
        assert np.array_equal(cbar[0], r[:6])

    def test_matches_entry_formula(self):
        rng = np.random.default_rng(40)
        r = np.concatenate(([1.0], rng.uniform(-0.5, 0.5, 10)))
        cbar = rotated_connecting(connecting_matrix(r, 6))
        assert np.allclose(cbar, helpers.cbar_direct(r, 6), atol=1e-14)

    def test_leading_blocks_are_shorter_horizons(self):
        rng = np.random.default_rng(41)
        r = np.concatenate(([1.0], rng.uniform(-0.5, 0.5, 14)))
        C = connecting_matrix(r, 8)
        cbar = rotated_connecting(C)
        for ell in (1, 3, 6):
            small = connecting_matrix(r, ell)
            assert np.array_equal(C[8 - ell:, 8 - ell:], small)
            assert np.array_equal(cbar[:ell, :ell],
                                  rotated_connecting(small))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            rotated_connecting(np.zeros((2, 3)))
