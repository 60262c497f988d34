"""The Jacobi eigensolver and its tridiagonal solve.

numpy.linalg serves as the independent oracle throughout; the library
itself never calls it.
"""

import numpy as np

from lattice_bc import linalg


class TestTridiagSolve:
    def test_matches_dense(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 8, 25):
            d = rng.normal(size=n)
            e = np.ones(n - 1)
            rhs = rng.normal(size=n)
            x = linalg.tridiag_solve(d, e, rhs, pivmin=1e-280)
            A = np.diag(d)
            if n > 1:
                A += np.diag(e, 1) + np.diag(e, -1)
            assert np.allclose(A @ x, rhs, atol=1e-9 * max(1, np.abs(rhs).max()))


class TestEigen:
    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 10, 33, 64):
            d = rng.uniform(-2, 2, n)
            e = np.ones(n - 1)
            lam = linalg.tridiag_eigenvalues(d, e)
            A = np.diag(d)
            if n > 1:
                A += np.diag(e, 1) + np.diag(e, -1)
            ref = np.linalg.eigvalsh(A)
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(lam - ref)) <= 1e-12 * scale

    def test_eigenvectors_residual_and_orthogonality(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 16, 40):
            d = rng.uniform(-2, 2, n)
            e = np.ones(n - 1)
            lam = linalg.tridiag_eigenvalues(d, e)
            A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            vs = []
            for k in range(n):
                partners = [vs[j] for j in range(k)
                            if lam[k] - lam[j] <= 1e-6 * 4]
                v = linalg.tridiag_eigenvector(d, e, lam[k], ortho=partners)
                vs.append(v)
                res = A @ v - lam[k] * v
                assert np.sqrt(res @ res) <= 1e-10 * (np.abs(d).max() + 2)
            V = np.array(vs)
            gram = V @ V.T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8

    def test_clustered_eigenvalues_stay_orthogonal(self):
        # two decoupled wells give a near-degenerate pair
        n = 24
        d = np.zeros(n)
        d[2] = -6.0
        d[21] = -6.0
        e = np.ones(n - 1)
        lam = linalg.tridiag_eigenvalues(d, e)
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(lam - ref)) <= 1e-10
        vs = []
        for k in range(n):
            partners = [vs[j] for j in range(k)
                        if lam[k] - lam[j] <= 1e-6 * 8]
            vs.append(linalg.tridiag_eigenvector(d, e, lam[k],
                                                 ortho=partners))
        V = np.array(vs)
        assert np.max(np.abs(V @ V.T - np.eye(n))) <= 1e-8

    def test_single_site(self):
        lam = linalg.tridiag_eigenvalues(np.array([4.5]), np.zeros(0))
        assert np.array_equal(lam, [4.5])
