"""The Jacobi eigensolver and its tridiagonal solve.

numpy.linalg serves as the independent oracle throughout; the library
itself never calls it.  The one-eigenvalue-at-a-time solver in
tests/helpers.py is the reference that the batched kernels must
reproduce bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lattice_bc import linalg
from lattice_bc.linalg import ConvergenceFailure
from lattice_bc.spectral import Hamiltonian, eigen_decompose

from helpers import (reference_eigendata, reference_eigenvalues,
                     reference_eigenvector, reference_solve)


def partner_lists(d, e, lam):
    """For each k, the lower eigenvalues within eigen_decompose's
    cluster tolerance 1e-6 * (row-sum norm) of lam[k]."""
    radius = np.zeros(d.size)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    cluster_tol = 1e-6 * max(float(np.max(np.abs(d) + radius)), 1.0)
    return [[j for j in range(k) if lam[k] - lam[j] <= cluster_tol]
            for k in range(d.size)]


def outcome(fn, *args):
    """Result arrays of fn, or the type and message it raised."""
    try:
        result = fn(*args)
    except ConvergenceFailure as exc:
        return type(exc), str(exc)
    if not isinstance(result, tuple):
        result = (result.eigenvalues, result.norming, result.eigenvectors)
    return tuple(np.asarray(x).tobytes() for x in result)


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

    def test_stack_rows_are_single_solves(self):
        # rows mix both pivoting branches, zero and sub-pivmin pivots
        # and zero off-diagonals; each must be the scalar solve bit for
        # bit, a 1-D call the K = 1 stack, and the inputs untouched
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 9, 40):
            e = rng.choice((1.0, -0.5, 1e-9, 0.0), size=n - 1)
            d = rng.normal(size=(6, n)) * rng.choice((1.0, 1e-3), (6, n))
            d[0, ::2] = 0.0
            d[1, ::3] = 1e-300
            rhs = rng.normal(size=(6, n))
            inputs = d.copy(), rhs.copy()
            for pivmin in (1e-280, 1e-2):
                x = linalg.tridiag_solve(d, e, rhs, pivmin)
                assert np.array_equal(d, inputs[0])
                assert np.array_equal(rhs, inputs[1])
                for row in range(6):
                    ref = reference_solve(d[row], e, rhs[row], pivmin)
                    assert np.array_equal(x[row], ref)
                    one = linalg.tridiag_solve(d[row], e, rhs[row], pivmin)
                    assert np.array_equal(one, ref)


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
                V, ok = linalg.tridiag_eigenvector(d, e, lam[k:k + 1],
                                                   ortho=partners)
                assert ok[0]
                v = V[0]
                vs.append(v)
                res = A @ v - lam[k] * v
                assert np.sqrt(res @ res) <= 1e-10 * (np.abs(d).max() + 2)
            V = np.array(vs)
            gram = V @ V.T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8

    def test_clustered_eigenvalues_stay_orthogonal(self):
        # decoupled identical wells give a near-degenerate pair or
        # triple; in the triple the top member's partners include one
        # that is itself clustered
        for n, wells in ((24, (2, 21)), (40, (11, 20, 29))):
            d = np.zeros(n)
            d[list(wells)] = -6.0
            e = np.ones(n - 1)
            lam = linalg.tridiag_eigenvalues(d, e)
            A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            ref = np.linalg.eigvalsh(A)
            assert np.max(np.abs(lam - ref)) <= 1e-10
            vs = []
            for k in range(n):
                partners = [vs[j] for j in range(k)
                            if lam[k] - lam[j] <= 1e-6 * 8]
                if k == len(wells) - 1:
                    assert len(partners) == len(wells) - 1
                V, ok = linalg.tridiag_eigenvector(d, e, lam[k:k + 1],
                                                   ortho=partners)
                assert ok[0]
                assert np.array_equal(V[0], reference_eigenvector(
                    d, e, lam[k], ortho=partners))
                vs.append(V[0])
                res = A @ V[0] - lam[k] * V[0]
                assert np.sqrt(res @ res) <= 1e-10 * (np.abs(d).max() + 2)
            V = np.array(vs)
            assert np.max(np.abs(V @ V.T - np.eye(n))) <= 1e-8

    def test_single_site(self):
        lam = linalg.tridiag_eigenvalues(np.array([4.5]), np.zeros(0))
        assert np.array_equal(lam, [4.5])

    @settings(max_examples=40)
    @given(n=st.integers(1, 80), amplitude=st.floats(0.1, 3.0),
           copies=st.integers(1, 3), joint=st.sampled_from((1e-9, 0.0)),
           integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_one_at_a_time_reference(self, n, amplitude, copies,
                                             joint, integral, seed):
        # copies > 1 repeats one block of the diagonal, joined by
        # off-diagonals near 1e-9, so every eigenvalue sits in a
        # cluster of that many; exactly decoupled copies give equal
        # eigenvalues, whose partners swallow the iterate and force
        # restarts; integer diagonals give exact zero eigenvalues,
        # where the stopping test ends bisection mid-tree
        rng = np.random.default_rng(seed)
        block = -(-n // copies)
        d = rng.uniform(-amplitude, amplitude, block)
        if integral:
            d = np.round(d)
        d = np.tile(d, copies)[:n]
        e = np.ones(n - 1)
        joints = np.arange(block - 1, n - 1, block)
        e[joints] = joint * rng.uniform(0.5, 2.0, joints.size)
        lam = linalg.tridiag_eigenvalues(d, e)
        assert np.array_equal(lam, reference_eigenvalues(d, e))
        # the whole spectrum as one stack: each row is the lone iteration
        V, ok = linalg.tridiag_eigenvector(d, e, lam)
        for k in range(n):
            try:
                ref = reference_eigenvector(d, e, lam[k])
            except ConvergenceFailure:
                assert not ok[k]
            else:
                assert ok[k] and np.array_equal(V[k], ref)
        # then every clustered eigenvalue, in ascending order, as a
        # single row against its partners' vectors
        for k, partners in enumerate(partner_lists(d, e, lam)):
            if not partners:
                continue
            W, w_ok = linalg.tridiag_eigenvector(d, e, lam[k:k + 1],
                                                 ortho=V[partners])
            try:
                ref = reference_eigenvector(d, e, lam[k],
                                            ortho=list(V[partners]))
            except ConvergenceFailure:
                assert not w_ok[0]
            else:
                assert w_ok[0] and np.array_equal(W[0], ref)
            V[k] = W[0]
        # eigen_decompose of the unit-coupled Jacobi matrix on d:
        # identical arrays, or the same exception and message
        ones = np.ones(n - 1)
        assert (outcome(eigen_decompose, Hamiltonian(diag=d))
                == outcome(reference_eigendata, d, ones))
