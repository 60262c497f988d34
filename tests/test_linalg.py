"""Dense solver, nested leading-block elimination and the Jacobi eigensolver.

numpy.linalg serves as the independent oracle throughout; the library
itself never calls it.
"""

import numpy as np
import pytest

from lattice_bc import linalg


class TestSolve:
    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 13, 20):
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = linalg.solve(A, b)
            assert np.allclose(A @ x, b, atol=1e-10 * np.abs(A).max())
            assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)

    def test_pivoting_handles_zero_diagonal(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = linalg.solve(A, np.array([2.0, 3.0]))
        assert np.array_equal(x, [3.0, 2.0])

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(A, np.array([1.0, 0.0]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve(np.eye(2), np.zeros(3))


class TestDet:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 6, 10):
            A = rng.normal(size=(n, n))
            ours = linalg.leading_blocks(A)[0][-1]
            ref = np.linalg.det(A)
            assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_singular_gives_zero(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        minors, _, singular = linalg.leading_blocks(A)
        assert minors[-1] == 0.0
        assert list(singular) == [False, True]

    def test_leading_minors(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(6, 6))
        minors = linalg.leading_blocks(A)[0]
        ref = [np.linalg.det(A[:l, :l]) for l in range(1, 7)]
        assert np.allclose(minors, ref, rtol=1e-9, atol=1e-12)


class TestLeadingBlocks:
    def test_last_components_and_flags_match_solve(self):
        # small diagonals force row swaps; the integer matrix has an
        # exactly singular order-3 block and a nonsingular whole
        rng = np.random.default_rng(12)
        mats = []
        for n in (2, 5, 9):
            A = rng.normal(size=(n, n))
            A[np.diag_indices(n)] *= 1e-2
            mats.append(A)
        A = rng.integers(-5, 6, size=(7, 7)).astype(float)
        A[2, :3] = 2.0 * A[0, :3]
        mats.append(A)
        for A in mats:
            n = A.shape[0]
            _, last, singular = linalg.leading_blocks(A)
            assert last.shape == (n - 1,) and singular.shape == (n,)
            for l in range(1, n):
                try:
                    x = linalg.solve(A[:l, :l], -A[:l, l])
                except linalg.SingularMatrixError:
                    assert singular[l - 1] and np.isnan(last[l - 1])
                    continue
                assert not singular[l - 1]
                assert np.array_equal(last[l - 1], x[-1])
        assert singular[2] and not singular[-1]


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
