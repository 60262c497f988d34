"""Jacobi eigendata, spectral measure, and the boundary-spectral bridge."""

import numpy as np
import pytest

from lattice_bc.bc_ops import connecting_matrix, response_kernel
from lattice_bc import spectral
from lattice_bc.core import chebyshev_seq
from lattice_bc.forward import solve_interval, solve_semi_infinite
from lattice_bc.linalg import ConvergenceFailure, tridiag_eigensystem
from lattice_bc.spectral import (Hamiltonian, SpectralData,
                                 build_hamiltonian, connecting_from_spectral,
                                 eigen_decompose, invert_spectral,
                                 kernel_from_spectral, phi_polynomial)

from helpers import decimal_eigendata


def delta(T):
    f = np.zeros(T)
    f[0] = 1.0
    return f


class TestHamiltonian:
    def test_single_site(self):
        H = build_hamiltonian([0.7], 1)
        assert np.array_equal(H.to_dense(), [[-0.7]])

    def test_free_two_site(self):
        H = build_hamiltonian(np.zeros(2), 2)
        assert np.array_equal(H.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_diagonal_is_minus_potential(self):
        b = np.array([1.0, 2.0, 3.0])
        H = build_hamiltonian(b, 3)
        assert np.array_equal(np.diag(H.to_dense()), -b)
        assert H.size == 3

    def test_short_potential_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian([1.0], 2)

    def test_norm_bound(self):
        H = build_hamiltonian([1.0, -3.0], 2)
        assert H.norm_bound() == 4.0


class TestEigenDecompose:
    def test_single_site(self):
        sd = eigen_decompose(build_hamiltonian([0.9], 1))
        assert np.array_equal(sd.eigenvalues, [-0.9])
        assert np.array_equal(sd.norming, [1.0])

    def test_free_two_site(self):
        sd = eigen_decompose(build_hamiltonian(np.zeros(2), 2))
        assert np.allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(sd.norming, [2.0, 2.0], atol=1e-10)
        assert np.allclose(sd.eigenvectors, [[1.0, -1.0], [1.0, 1.0]],
                           atol=1e-10)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(70)
        for N in (2, 5, 11, 24):
            b = rng.uniform(-2, 2, N)
            H = build_hamiltonian(b, N)
            sd = eigen_decompose(H)
            ref = np.linalg.eigvalsh(H.to_dense())
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(sd.eigenvalues - ref)) <= 1e-12 * scale

    def test_unit_mass(self):
        rng = np.random.default_rng(71)
        for N in (1, 3, 8, 20, 32):
            b = rng.uniform(-2, 2, N)
            sd = eigen_decompose(build_hamiltonian(b, N))
            assert abs(np.sum(1.0 / sd.norming) - 1.0) <= 1e-10

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(72)
        N = 16
        b = rng.uniform(-2, 2, N)
        H = build_hamiltonian(b, N)
        sd = eigen_decompose(H)
        dense = H.to_dense()
        for k in range(N):
            phi = sd.eigenvectors[k]
            res = dense @ phi - sd.eigenvalues[k] * phi
            bound = 1e-10 * H.norm_bound() * np.sqrt(phi @ phi)
            assert np.sqrt(res @ res) <= bound

    def test_first_components_rescaled(self):
        rng = np.random.default_rng(73)
        sd = eigen_decompose(build_hamiltonian(rng.uniform(-1, 1, 9), 9))
        assert np.array_equal(sd.eigenvectors[:, 0], np.ones(9))

    def test_localized_state_guard(self):
        # a deep well at the far end localizes the ground state away
        # from the boundary: its first component is about 1e-21, so
        # rho_0 is about 4e41.  The pivot floor plays no part any more;
        # the data decode and invert_spectral recovers b
        b = np.zeros(24)
        b[-1] = 8.0
        H = build_hamiltonian(b, 24)
        sd = eigen_decompose(H)
        assert sd.norming[0] > 1e41
        assert abs(np.sum(1.0 / sd.norming) - 1.0) <= 1e-10
        _, rho = decimal_eigendata(H.diag, np.linalg.eigvalsh(H.to_dense()))
        assert np.max(np.abs(sd.norming / rho - 1.0)) <= 1e-11
        assert np.max(np.abs(invert_spectral(sd) - b)) <= 1e-10

    def test_three_well_cluster(self):
        # three identical deep wells, far from the walls and from each
        # other: their ground states form one cluster, and its top
        # member's partners include one that is itself clustered
        N = 40
        b = np.zeros(N)
        b[[11, 20, 29]] = 6.0
        H = build_hamiltonian(b, N)
        sd = eigen_decompose(H)
        lam = sd.eigenvalues
        assert 0.0 < lam[2] - lam[0] <= 1e-6 * H.norm_bound() < lam[3] - lam[2]
        dense = H.to_dense()
        oracle = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(lam - oracle)) <= 1e-12 * np.abs(oracle).max()
        # rho within 1e-8 of the decimal reference: the cluster gap of
        # 1.3e-6 bounds what float64 data can give, and inverse
        # iteration stopped at the residual target was off by 1.8e-7
        _, rho = decimal_eigendata(H.diag, oracle)
        assert np.max(np.abs(sd.norming / rho - 1.0)) <= 1e-8
        for k in range(N):
            phi = sd.eigenvectors[k]
            res = dense @ phi - lam[k] * phi
            assert np.sqrt(res @ res) <= (1e-10 * H.norm_bound()
                                          * np.sqrt(phi @ phi))
        unit = sd.eigenvectors / np.sqrt(sd.norming)[:, None]
        assert np.max(np.abs(unit @ unit.T - np.eye(N))) <= 1e-8

    @pytest.mark.parametrize("N, wells, depth",
                             [(40, (10, 29), 4.0), (60, (15, 30, 45), 6.0)])
    def test_tight_clusters_decode(self, N, wells, depth):
        # eigenvalue gaps of 8.8e-12 and 1.2e-11: inverse iteration
        # stalled on the first, and the second tripped the old
        # first-component floor.  Float64 data for such a cluster fix
        # b only to about 1e-5 (exact eigendata rounded to float64 give
        # 1.4e-5 and 1.2e-5 through invert_spectral)
        b = np.zeros(N)
        b[list(wells)] = depth
        H = build_hamiltonian(b, N)
        sd = eigen_decompose(H)
        lam = sd.eigenvalues
        assert lam[len(wells) - 1] - lam[0] <= 3e-11
        dense = H.to_dense()
        oracle = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(lam - oracle)) <= 1e-12 * np.abs(oracle).max()
        unit = sd.eigenvectors / np.sqrt(sd.norming)[:, None]
        assert np.max(np.abs(unit @ unit.T - np.eye(N))) <= 1e-10
        for k in range(N):
            res = dense @ unit[k] - lam[k] * unit[k]
            assert np.sqrt(res @ res) <= 1e-13 * H.norm_bound()
        assert np.max(np.abs(invert_spectral(sd) - b)) <= 1e-4

    def test_failure_names_lowest_index(self, monkeypatch):
        # a well of 1e4 at the far end: the top eigenvector's first
        # component underflows, so rho is not finite there, and only
        # there
        b = np.zeros(200)
        b[-1] = -1e4
        with pytest.raises(ConvergenceFailure,
                           match="non-finite eigendata at eigenvalue index "
                                 "199$"):
            eigen_decompose(build_hamiltonian(b, 200))
        # identical wells too far apart for float64 to separate
        b = np.zeros(40)
        b[[10, 29]] = 8.0
        with pytest.raises(ConvergenceFailure,
                           match="eigenvalues collide at working precision "
                                 "at eigenvalue index 1$"):
            eigen_decompose(build_hamiltonian(b, 40))
        # a residual bound between the reported ones: the lowest index
        # above it is named
        rng = np.random.default_rng(81)
        H = build_hamiltonian(rng.uniform(-1, 1, 30), 30)
        eigen_decompose(H)
        norm_h = H.norm_bound()
        _, _, residual = tridiag_eigensystem(H.diag)
        eig_tol = float(np.median(residual)) / norm_h
        first = int(np.flatnonzero(residual > eig_tol * norm_h)[0])
        monkeypatch.setattr(spectral, "EIG_TOL", eig_tol)
        with pytest.raises(ConvergenceFailure,
                           match=f"eigenpair residual above eig_tol at "
                                 f"eigenvalue index {first}$"):
            eigen_decompose(H)

    @pytest.mark.parametrize("b", [[1.7976931348623157e308, 0.0],
                                   [1e308, -1e308, 0.0],
                                   [1.7e308, 1.7e308, 1.0]])
    def test_overflow_is_a_convergence_failure(self, b):
        # the Gershgorin bounds, the bisection midpoints and the twisted
        # pivots overflow; the eigensolver keeps those warnings to itself
        with pytest.raises(ConvergenceFailure,
                           match="non-finite eigendata at eigenvalue index "
                                 "0$"):
            eigen_decompose(build_hamiltonian(b, len(b)))

    def test_strong_potentials_invert(self):
        # at amplitudes 1 and 2 most eigenvectors are localized and
        # first components reach 1e-20; each draw must decode to 1e-6,
        # with rho within 3e-12 of the decimal reference (vectors taken
        # before the last Rayleigh-quotient step miss this by 5e-12)
        rng = np.random.default_rng(82)
        for amplitude in (1.0, 2.0):
            for _ in range(4):
                b = rng.uniform(-amplitude, amplitude, 64)
                H = build_hamiltonian(b, 64)
                sd = eigen_decompose(H)
                _, rho = decimal_eigendata(H.diag,
                                           np.linalg.eigvalsh(H.to_dense()))
                assert np.max(np.abs(sd.norming / rho - 1.0)) <= 3e-12
                assert np.max(np.abs(invert_spectral(sd) - b)) <= 1e-6

    def test_digits_match_the_decimal_reference(self):
        # the Rayleigh-quotient steps take over from brackets
        # _BRACKET_WIDTH of the scale wide and still reach the decimal
        # eigenvalues to 2 roundings of the largest, and rho as closely
        # as test_strong_potentials_invert asks
        eps = np.finfo(float).eps
        rng = np.random.default_rng(84)
        for amplitude in (0.1, 0.3, 1.0, 2.0):
            for _ in range(2):
                H = build_hamiltonian(rng.uniform(-amplitude, amplitude, 64),
                                      64)
                sd = eigen_decompose(H)
                lam, rho = decimal_eigendata(
                    H.diag, np.linalg.eigvalsh(H.to_dense()))
                assert (np.max(np.abs(sd.eigenvalues - lam))
                        <= 2 * eps * np.max(np.abs(lam))), amplitude
                assert np.max(np.abs(sd.norming / rho - 1.0)) <= 3e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen_decompose(np.eye(3))
        with pytest.raises(ValueError):
            SpectralData(eigenvalues=[1.0, 0.5], norming=[2.0, 2.0])
        with pytest.raises(ValueError):
            SpectralData(eigenvalues=[0.5, 1.0], norming=[2.0, -2.0])
        # the eigenvector table is checked like the other two arrays,
        # so interval_fourier_solution never synthesizes a NaN field
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eigenvectors contains "
                                                 "non-finite entries"):
                SpectralData(eigenvalues=[0.5, 1.0], norming=[2.0, 2.0],
                             eigenvectors=[[1.0, bad], [1.0, 1.0]])


class TestPhiPolynomial:
    def test_free_potential_is_chebyshev(self):
        from lattice_bc.core import chebyshev_seq
        lam = 0.37
        phi = phi_polynomial(np.zeros(6), lam, 6)
        cheb = chebyshev_seq(7, lam)
        assert np.allclose(phi, cheb, atol=1e-14)

    def test_single_site_root(self):
        c = 0.8
        phi = phi_polynomial([c], -c, 1)
        assert np.array_equal(phi, [0.0, 1.0, 0.0])

    def test_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(74)
        for N in (2, 5, 10):
            b = rng.uniform(-1.5, 1.5, N)
            sd = eigen_decompose(build_hamiltonian(b, N))
            for lam in sd.eigenvalues:
                phi = phi_polynomial(b, lam, N)
                assert abs(phi[N + 1]) <= 1e-8 * np.abs(phi).max()

    def test_matches_eigenvectors(self):
        rng = np.random.default_rng(75)
        N = 7
        b = rng.uniform(-1.5, 1.5, N)
        sd = eigen_decompose(build_hamiltonian(b, N))
        for k in range(N):
            phi = phi_polynomial(b, sd.eigenvalues[k], N)
            scale = np.abs(sd.eigenvectors[k]).max()
            assert np.allclose(phi[1:N + 1], sd.eigenvectors[k],
                               atol=1e-8 * scale)

    def test_short_potential_rejected(self):
        with pytest.raises(ValueError):
            phi_polynomial([1.0], 0.0, 2)


class TestKernelFromSpectral:
    def test_normalized_head(self):
        rng = np.random.default_rng(76)
        sd = eigen_decompose(build_hamiltonian(rng.uniform(-1, 1, 5), 5))
        r = kernel_from_spectral(sd, 9)
        assert r[0] == 1.0

    def test_single_site_values(self):
        # raw moments at N = 1 are Chebyshev values at -c; the raw
        # s = 2 value is c^2 - 1 and the +1 wall correction lifts it
        # to the half-line kernel value c^2
        c = 0.9
        sd = eigen_decompose(build_hamiltonian([c], 1))
        r = kernel_from_spectral(sd, 2, dirichlet_correction=True)
        assert np.allclose(r, [1.0, -c, c * c], atol=1e-12)
        semi = response_kernel([c, 0.0], 2)
        assert np.allclose(r, semi, atol=1e-12)
        raw = kernel_from_spectral(sd, 1)
        assert np.allclose(raw, [1.0, -c], atol=1e-12)

    def test_agreement_range_and_discrepancy(self):
        rng = np.random.default_rng(77)
        for N in (1, 3, 6, 10):
            b = rng.uniform(-0.5, 0.5, N + 2 * N)
            sd = eigen_decompose(build_hamiltonian(b, N))
            r_spec = kernel_from_spectral(sd, 2 * N - 1)
            r_semi = response_kernel(b, 2 * N)
            assert np.max(np.abs(r_spec - r_semi[:2 * N])) <= 1e-9
            corrected = kernel_from_spectral(sd, 2 * N,
                                             dirichlet_correction=True)
            raw_tail = corrected[2 * N] - 1.0
            assert r_semi[2 * N] - raw_tail == pytest.approx(1.0, abs=1e-9)

    def test_range_validation(self):
        sd = eigen_decompose(build_hamiltonian([0.5, 0.5], 2))
        kernel_from_spectral(sd, 3)
        with pytest.raises(ValueError):
            kernel_from_spectral(sd, 4)
        kernel_from_spectral(sd, 4, dirichlet_correction=True)
        with pytest.raises(ValueError):
            kernel_from_spectral(sd, 5, dirichlet_correction=True)
        with pytest.raises(ValueError):
            kernel_from_spectral(sd, -1)


def dense_connecting(sd, T):
    """The connecting matrix through a dense diagonal of the weights;
    scaling the columns instead must keep every bit."""
    cheb = chebyshev_seq(T, sd.eigenvalues)[T:0:-1]
    return cheb @ np.diag(1.0 / sd.norming) @ cheb.T


class TestConnectingFromSpectral:
    def test_single_site(self):
        sd = eigen_decompose(build_hamiltonian([0.3], 1))
        C = connecting_from_spectral(sd, 1)
        assert np.allclose(C, [[1.0]], atol=1e-12)
        assert np.array_equal(C, dense_connecting(sd, 1))

    def test_free_two_site(self):
        sd = eigen_decompose(build_hamiltonian(np.zeros(2), 2))
        C = connecting_from_spectral(sd, 1)
        assert np.allclose(C, [[1.0]], atol=1e-12)
        assert np.array_equal(C, dense_connecting(sd, 1))

    def test_matches_kernel_route(self):
        rng = np.random.default_rng(78)
        for N in (2, 5, 9, 12):
            b = rng.uniform(-0.25, 0.25, 3 * N)
            sd = eigen_decompose(build_hamiltonian(b, N))
            for T in (1, N // 2 + 1, N):
                C_spec = connecting_from_spectral(sd, T)
                C_kernel = connecting_matrix(
                    response_kernel(b, 2 * T - 2), T)
                assert np.max(np.abs(C_spec - C_kernel)) <= 1e-9
                assert np.array_equal(C_spec, dense_connecting(sd, T))

    def test_horizon_beyond_size_rejected(self):
        sd = eigen_decompose(build_hamiltonian([0.5, 0.5], 2))
        with pytest.raises(ValueError):
            connecting_from_spectral(sd, 3)


class TestSpectralMeasure:
    # the measure sum_k (1 / rho_k) delta_{lambda_k} of SpectralData
    def test_single_site_steps(self):
        sd = eigen_decompose(build_hamiltonian([0.9], 1))
        assert sd.distribution(-1.0) == 0.0
        assert sd.distribution(-0.9) == 0.0  # strictly below the jump
        assert sd.distribution(0.0) == 1.0
        assert sd.total_mass == 1.0

    def test_free_two_site_half_jumps(self):
        sd = eigen_decompose(build_hamiltonian(np.zeros(2), 2))
        assert sd.distribution(-2.0) == 0.0
        assert sd.distribution(0.0) == pytest.approx(0.5, abs=1e-10)
        assert sd.distribution(2.0) == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        # decreasing eigenvalues, and a zero weight 1 / rho
        with pytest.raises(ValueError):
            SpectralData(eigenvalues=[1.0, 0.0], norming=[2.0, 2.0])
        with pytest.raises(ValueError):
            SpectralData(eigenvalues=[0.0, 1.0], norming=[2.0, np.inf])


class TestInvertSpectral:
    def test_single_site(self):
        sd = SpectralData(eigenvalues=[-0.8], norming=[1.0])
        assert np.allclose(invert_spectral(sd), [0.8], atol=1e-12)

    def test_free_two_site(self):
        sd = SpectralData(eigenvalues=[-1.0, 1.0], norming=[2.0, 2.0])
        assert np.allclose(invert_spectral(sd), [0.0, 0.0], atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(79)
        for N in (1, 3, 6, 10, 12):
            b = rng.uniform(-0.25, 0.25, N)
            sd = eigen_decompose(build_hamiltonian(b, N))
            recovered = invert_spectral(sd)
            assert recovered.size == N
            assert np.max(np.abs(recovered - b)) <= 1e-6

    def test_deep_moderate_amplitude(self):
        # the kernels of these draws reach 1e6 to 1e14, too large for
        # the moment route to keep 1e-6 on half of them
        rng = np.random.default_rng(64)
        for _ in range(8):
            b = rng.uniform(-0.3, 0.3, 64)
            sd = eigen_decompose(build_hamiltonian(b, 64))
            assert np.max(np.abs(invert_spectral(sd) - b)) <= 1e-6

    @pytest.mark.parametrize("scale", [1e300, 1e200])
    def test_lanczos_overflow_raises(self, scale):
        # unit mass, but lambda * q overflows the Lanczos norm to inf,
        # which would zero the next vector; pytest turns a leaked
        # RuntimeWarning into an error
        sd = SpectralData(eigenvalues=[scale, 1.5 * scale],
                          norming=[2.0, 2.0])
        with pytest.raises(ValueError, match="no orthonormal Lanczos basis"):
            invert_spectral(sd)

    def test_coupling_far_from_one_raises(self):
        # unit mass, but Lanczos rebuilds the coupling 5 between the two
        # sites: no unit-coupled Jacobi matrix has these data
        sd = SpectralData(eigenvalues=[0.0, 10.0], norming=[2.0, 2.0])
        with pytest.raises(ValueError, match="couplings far from 1"):
            invert_spectral(sd)

    def test_interval_fourier_consistency(self):
        # delta-probe boundary data synthesized spectrally equals the
        # time-stepped interval solution for t <= 3N
        from lattice_bc.forward import interval_fourier_solution
        rng = np.random.default_rng(80)
        N = 6
        T = 3 * N
        b = rng.uniform(-0.25, 0.25, N)
        sd = eigen_decompose(build_hamiltonian(b, N))
        fourier = interval_fourier_solution(sd, delta(T), T)
        direct = solve_interval(b, N, delta(T), T)
        assert np.max(np.abs(fourier.values - direct.values)) <= 1e-9
