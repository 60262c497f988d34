"""The Jacobi eigensolver.

numpy.linalg serves as the independent oracle throughout; the library
itself never calls it.  Eigenvalues must agree with eigvalsh to 1e-12
of the spectral scale, every row that passes its residual bound must
be an orthonormal eigenvector, and the norming constants of
eigen_decompose must agree with the decimal one-eigenvalue-at-a-time
reference in tests/helpers.py.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_bc import linalg
from lattice_bc.linalg import ConvergenceFailure
from lattice_bc.spectral import Hamiltonian, eigen_decompose

from helpers import decimal_eigendata

EPS = np.finfo(float).eps


def dense(d, e):
    A = np.diag(d)
    if d.size > 1:
        A += np.diag(e, 1) + np.diag(e, -1)
    return A


def row_sum_norm(d, e):
    radius = np.zeros(d.size)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    return max(float(np.max(np.abs(d) + radius)), 1.0)


def check_rows(d, e, lam, vectors, residual, passing):
    """The rows in passing are orthonormal eigenvectors whose residual
    is within 1e-10 |T| and within the bound the solver reported."""
    A = dense(d, e)
    norm = row_sum_norm(d, e)
    V = vectors[passing]
    for v, value, bound in zip(V, lam[passing], residual[passing]):
        r = A @ v - value * v
        assert np.sqrt(r @ r) <= min(bound + 16 * EPS * norm, 1e-10 * norm)
    assert np.max(np.abs(V @ V.T - np.eye(len(V))), initial=0.0) <= 1e-8


def gaps(values):
    """Distance from each value to its nearest neighbour."""
    out = np.full(values.size, np.inf)
    step = np.diff(values)
    out[:-1] = step
    out[1:] = np.minimum(out[1:], step)
    return out


class TestEigen:
    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 10, 33, 64):
            d = rng.uniform(-2, 2, n)
            e = np.ones(n - 1)
            lam, _, _ = linalg.tridiag_eigensystem(d, e)
            ref = np.linalg.eigvalsh(dense(d, e))
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(lam - ref)) <= 1e-12 * scale

    def test_eigenvectors_residual_and_orthogonality(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 16, 40):
            d = rng.uniform(-2, 2, n)
            e = np.ones(n - 1)
            lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
            assert np.all(residual <= 1e-10 * row_sum_norm(d, e))
            check_rows(d, e, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_clustered_eigenvalues_stay_orthogonal(self):
        # decoupled identical wells give a near-degenerate pair or
        # triple; in the triple the top member's partners include one
        # that is itself clustered
        for n, wells in ((24, (2, 21)), (40, (11, 20, 29))):
            d = np.zeros(n)
            d[list(wells)] = -6.0
            e = np.ones(n - 1)
            lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
            ref = np.linalg.eigvalsh(dense(d, e))
            assert np.max(np.abs(lam - ref)) <= 1e-10
            top = len(wells) - 1
            assert lam[top] - lam[0] <= 1e-6 * row_sum_norm(d, e)
            assert np.all(residual <= 1e-10 * row_sum_norm(d, e))
            check_rows(d, e, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_single_site(self):
        lam, vectors, residual = linalg.tridiag_eigensystem(
            np.array([4.5]), np.zeros(0))
        assert np.array_equal(lam, [4.5])
        assert np.array_equal(vectors, [[1.0]])
        assert np.array_equal(residual, [0.0])

    def test_off_diagonal_length_checked(self):
        with pytest.raises(ValueError):
            linalg.tridiag_eigensystem(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("d", [np.tile([0.5, -1.0, 0.25], 2),
                                   np.zeros(26)])
    def test_repeated_eigenvalue_is_reported(self, d):
        # two identical blocks split by a zero off-diagonal: every
        # eigenvalue is double, and the second vector of each pair is
        # the first one again, so its row must not pass.  In the free
        # chain the double eigenvalue 0 bisects to -5e-32 and 5e-32,
        # whose vectors differ by rounding only
        n = d.size
        e = np.ones(n - 1)
        e[n // 2 - 1] = 0.0
        lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
        ref = np.linalg.eigvalsh(dense(d, e))
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
        passing = residual <= 1e-10 * row_sum_norm(d, e)
        assert passing.sum() == n // 2
        check_rows(d, e, lam, vectors, residual, passing)

    @pytest.mark.parametrize("width, corrections",
                             [(1e-2, 3), (1e-4, 2), (1e-6, 1)])
    def test_safeguards_under_coarse_settings(self, monkeypatch, width,
                                              corrections):
        # wider brackets and fewer steps send rows to the bisection
        # fallback: the results still meet every oracle bound
        monkeypatch.setattr(linalg, "_BRACKET_WIDTH", width)
        monkeypatch.setattr(linalg, "_CORRECTIONS", corrections)
        rng = np.random.default_rng(10)
        for n in (7, 30, 64):
            d = rng.uniform(-1.5, 1.5, n)
            e = np.ones(n - 1)
            lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
            ref = np.linalg.eigvalsh(dense(d, e))
            assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
            assert np.all(residual <= 1e-10 * row_sum_norm(d, e))
            check_rows(d, e, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_steps_outside_the_bracket_are_refused(self, monkeypatch):
        # the first Rayleigh-quotient step of every row is forced onto
        # a neighbouring eigenvalue, where the later steps would settle;
        # only the bracket test keeps each row on its own eigenvalue
        rng = np.random.default_rng(12)
        d = rng.uniform(-1.0, 1.0, 20)
        e = np.ones(19)
        ref = np.linalg.eigvalsh(dense(d, e))
        twisted = linalg._twisted
        calls = []

        def jump(d_, e_, e2_, lam, pivmin):
            step, vectors, residual = twisted(d_, e_, e2_, lam, pivmin)
            calls.append(lam.size)
            if len(calls) == 1:
                k = np.argmin(np.abs(ref - lam[:, None]), axis=1)
                step = ref[np.where(k + 1 < ref.size, k + 1, k - 1)] - lam
            return step, vectors, residual

        monkeypatch.setattr(linalg, "_twisted", jump)
        lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
        assert calls[0] == 20
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
        check_rows(d, e, lam, vectors, residual, np.ones(20, dtype=bool))

    def test_isolated_eigenvalues_are_not_bisected(self, monkeypatch):
        # the refinement must take over from the coarse brackets: on a
        # random potential no eigenvalue is bisected to roundoff
        calls = []
        multisect = linalg._multisect

        def spy(*args, **kwargs):
            calls.append(args[2].size)
            return multisect(*args, **kwargs)

        monkeypatch.setattr(linalg, "_multisect", spy)
        rng = np.random.default_rng(11)
        for amplitude in (0.1, 0.3, 1.0):
            d = rng.uniform(-amplitude, amplitude, 64)
            linalg.tridiag_eigensystem(d, np.ones(63))
        assert calls == [64, 64, 64]

    def test_coarse_stage_takes_three_sturm_passes(self, monkeypatch):
        # the Gershgorin bracket is at most 2 scales wide, so 18 halvings
        # reach _BRACKET_WIDTH: the first pass's 10 and two passes of 4
        # or 5 over the distinct brackets
        passes = []  # Sturm passes per _multisect call
        sturm_counts, multisect = linalg._sturm_counts, linalg._multisect

        def count(*args):
            passes[-1] += 1
            return sturm_counts(*args)

        def track(*args, **kwargs):
            passes.append(0)
            return multisect(*args, **kwargs)

        monkeypatch.setattr(linalg, "_sturm_counts", count)
        monkeypatch.setattr(linalg, "_multisect", track)
        rng = np.random.default_rng(13)
        for n in (32, 64, 128, 256):
            for amplitude in (0.1, 0.3, 1.0):
                for _ in range(2):
                    passes.clear()
                    d = rng.uniform(-amplitude, amplitude, n)
                    linalg.tridiag_eigensystem(d, np.ones(n - 1))
                    assert passes[0] == 3, (n, amplitude)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 80), amplitude=st.floats(0.1, 3.0),
           copies=st.integers(1, 3), joint=st.sampled_from((1e-9, 0.0)),
           integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_one_at_a_time_reference(self, n, amplitude, copies,
                                             joint, integral, seed):
        # copies > 1 repeats one block of the diagonal, joined by
        # off-diagonals near 1e-9, so every eigenvalue sits in a
        # cluster of that many; exactly decoupled copies give equal
        # eigenvalues, whose second vectors cannot pass; integer
        # diagonals give exact zero eigenvalues and zero pivots
        rng = np.random.default_rng(seed)
        block = -(-n // copies)
        d = rng.uniform(-amplitude, amplitude, block)
        if integral:
            d = np.round(d)
        d = np.tile(d, copies)[:n]
        e = np.ones(n - 1)
        joints = np.arange(block - 1, n - 1, block)
        e[joints] = joint * rng.uniform(0.5, 2.0, joints.size)
        lam, vectors, residual = linalg.tridiag_eigensystem(d, e)
        ref = np.linalg.eigvalsh(dense(d, e))
        scale = max(1.0, np.abs(ref).max())
        assert np.max(np.abs(lam - ref)) <= 1e-12 * scale
        passing = residual <= 1e-10 * row_sum_norm(d, e)
        # a row more than the cluster tolerance from every other
        # eigenvalue always passes
        assert np.all(passing[gaps(ref) > 1e-6 * row_sum_norm(d, e)])
        check_rows(d, e, lam, vectors, residual, passing)
        # eigen_decompose of the unit-coupled Jacobi matrix on d: rho
        # within 1e-11 of the decimal reference, plus the eigenvector
        # conditioning eps |H| / gap where eigenvalues crowd; it may
        # refuse only eigenvalues that float64 cannot separate
        H = Hamiltonian(diag=d)
        norm_h = max(H.norm_bound(), 1.0)
        oracle = np.linalg.eigvalsh(H.to_dense())
        try:
            sd = eigen_decompose(H)
        except ConvergenceFailure:
            assert np.min(np.diff(oracle)) <= 1e-13 * norm_h
            return
        assert np.max(np.abs(sd.eigenvalues - oracle)) <= 1e-12 * norm_h
        if n > 1 and np.min(np.diff(oracle)) <= 1e-10 * norm_h:
            return  # guesses too close for the decimal Newton reference
        lam_ref, rho_ref = decimal_eigendata(H.diag, oracle)
        bound = 1e-11 + 100 * EPS * norm_h / gaps(lam_ref)
        assert np.all(np.abs(sd.norming / rho_ref - 1.0) <= bound)


def gershgorin_setup(d, e):
    """The squares, Gershgorin bracket, scale and pivot floor that
    tridiag_eigensystem hands to _multisect and _twisted."""
    radius = np.append(np.abs(e), 0.0) + np.append(0.0, np.abs(e))
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    scale = max(abs(lo), abs(hi), 1.0)
    pivmin = max(np.finfo(float).tiny / EPS, EPS * EPS * scale)
    return e * e, lo - 2 * EPS * scale, hi + 2 * EPS * scale, scale, pivmin


def wells(n, sites, depth):
    d = np.zeros(n)
    d[list(sites)] = -depth
    return d, np.ones(n - 1)


def split_chain(n):
    e = np.ones(n - 1)
    e[n // 2 - 1] = 0.0
    return np.zeros(n), e


class TestKernels:
    @pytest.mark.parametrize("d, e", [
        (np.random.default_rng(13).uniform(-0.3, 0.3, 64), np.ones(63)),
        wells(40, (10, 29), 4.0),
        split_chain(26),
    ], ids=["random", "wells", "split"])
    def test_brackets_do_not_depend_on_the_stack(self, d, e):
        # a stack shares one tree of midpoints among equal brackets and
        # takes shallower trees than a row alone: neither may change a
        # bit of any bracket, at the 1e-6 width or at the roundoff stop
        e2, lo, hi, scale, pivmin = gershgorin_setup(d, e)
        n = d.size
        target = np.arange(1, n + 1)
        lower, upper = linalg._multisect(d, e2, np.full(n, lo),
                                         np.full(n, hi), target, pivmin,
                                         1e-6 * scale)
        fine = linalg._multisect(d, e2, lower, upper, target, pivmin)
        for k in range(n):
            one = slice(k, k + 1)
            alone = linalg._multisect(d, e2, np.full(1, lo), np.full(1, hi),
                                      target[one], pivmin, 1e-6 * scale)
            assert np.array_equal(alone, (lower[one], upper[one]))
            alone = linalg._multisect(d, e2, lower[one], upper[one],
                                      target[one], pivmin)
            assert np.array_equal(alone, (fine[0][one], fine[1][one]))
        assert np.all(upper - lower <= 1e-6 * scale)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 64])
    def test_sturm_counts_match_site_by_site(self, n):
        # the count runs a block of sites at a time; the sizes put the
        # last site on, before and after a block edge.  Shifts at each
        # d_i make a pivot exactly 0 and the next one infinite; with
        # -0.0 at every even site, shift 0 makes every even pivot -0.0,
        # which counts as negative
        rng = np.random.default_rng(15)
        split = rng.uniform(0.25, 2.0, n - 1)
        split[::3] = 0.0
        for d in (rng.uniform(-1.0, 1.0, n),
                  np.where(np.arange(n) % 2, rng.uniform(-1.0, 1.0, n),
                           -0.0)):
            for e2 in (rng.uniform(0.25, 2.0, n - 1),
                       np.maximum(split, np.finfo(float).tiny)):
                xs = np.concatenate((d, [0.0], rng.uniform(-3.0, 3.0, 40)))
                got = linalg._sturm_counts(d, e2, xs)
                want = [site_by_site_count(d, e2, x) for x in xs.tolist()]
                assert got.tolist() == want

    def test_twisted_columns_are_independent(self):
        # shift d[0] makes the first stationary pivot exactly 0; shift 0
        # makes it 1e-40, within pivmin but not zero, and makes the
        # progressive pivot at site m exactly 0.  Both take the clamped
        # rerun.  With the last site split off, shift d[-1] makes the
        # last stationary pivot exactly 0, and it divides nothing
        rng = np.random.default_rng(14)
        n, m = 24, 9
        d = rng.uniform(-1.0, 1.0, n)
        e = rng.uniform(0.5, 1.5, n - 1)
        e2 = e * e
        d[0] = 1e-40
        pivot = d[-1]
        for i in range(n - 2, m, -1):
            pivot = d[i] - e2[i] / pivot
        d[m] = e2[m] / pivot
        lam = np.append(linalg.tridiag_eigensystem(d, e)[0][::5], [d[0], 0.0])
        check_twisted(d, e, lam, clamped=(-2, -1))
        d, e = d[:6], np.append(e[:4], 0.0)
        check_twisted(d, e, np.array([0.5, d[-1]]), clamped=(-1,))


def site_by_site_count(d, e2, x):
    """Pivots q_i = d_i - x - e2_{i-1} / q_{i-1} with a set sign bit, in
    IEEE arithmetic: a zero pivot makes the next one infinite."""
    count = 0
    q = 0.0
    for i, di in enumerate(d.tolist()):
        if i == 0:
            q = di - x
        else:
            c = float(e2[i - 1])
            q = di - x - (c / q if q else math.copysign(math.inf, q))
        count += math.copysign(1.0, q) < 0
    return count


def check_twisted(d, e, lam, clamped):
    """_twisted on the stack of shifts lam equals _twisted on each shift
    alone, and in the columns clamped a clamped recurrence."""
    e2, _, _, _, pivmin = gershgorin_setup(d, e)
    stack = linalg._twisted(d, e, e2, lam, pivmin)
    for k in range(lam.size):
        alone = linalg._twisted(d, e, e2, lam[k:k + 1], pivmin)
        for got, want in zip(stack, alone):
            assert np.array_equal(got[k:k + 1], want)
    for k in clamped:
        want = clamped_twisted(d, e, e2, lam[k], pivmin)
        for got, value in zip(stack, want):
            assert np.array_equal(got[k], value)
        assert np.all(np.isfinite(stack[1][k]))


def clamped_twisted(d, e, e2, lam, pivmin):
    """_twisted for one shift, one site at a time, with every pivot
    within pivmin of zero set to -pivmin as soon as it is formed."""
    n = d.size
    a = d - lam

    def pivots(a, e2):
        p = np.empty(n)
        for i in range(n):
            p[i] = a[i] - e2[i - 1] / p[i - 1] if i else a[i]
            if abs(p[i]) <= pivmin:
                p[i] = -pivmin
        return p

    top = pivots(a, e2)
    bottom = pivots(a[::-1], e2[::-1])[::-1]
    gamma = top + bottom - a
    r = int(np.argmin(np.abs(gamma)))
    z = np.ones(n)
    for i in range(r - 1, -1, -1):
        z[i] = z[i + 1] * (-e[i] / top[i])
    for i in range(r + 1, n):
        z[i] = z[i - 1] * (-e[i - 1] / bottom[i])
    norm2 = np.einsum("kn,kn->k", z[None], z[None])[0]
    norm = np.sqrt(norm2)
    return gamma[r] / norm2, z / norm, abs(gamma[r]) / norm


def numpy_linalg_uses(source):
    """Line numbers where source imports numpy.linalg or reads it as an
    attribute of a name bound to numpy."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == "numpy")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.linalg")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = not node.level and (
                module.startswith("numpy.linalg")
                or (module == "numpy"
                    and any(alias.name == "linalg" for alias in node.names)))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "linalg" and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


class TestIndependence:
    """numpy.linalg is the tests' oracle, so the library must not use it."""

    SOURCES = sorted((Path(__file__).resolve().parents[1]
                      / "src" / "lattice_bc").glob("*.py"))

    def test_library_never_uses_numpy_linalg(self):
        assert self.SOURCES
        found = {path.name: numpy_linalg_uses(path.read_text())
                 for path in self.SOURCES}
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("source", [
        "import numpy as np\nx = np.linalg.norm(v)",
        "import numpy\nnumpy.linalg.eigh(a)",
        "import numpy.linalg",
        "import numpy.linalg as la",
        "from numpy import linalg",
        "from numpy.linalg import norm",
    ])
    def test_guard_finds_each_form(self, source):
        assert numpy_linalg_uses(source)

    def test_guard_passes_the_own_module_and_docstrings(self):
        source = ('"""numpy.linalg is not used."""\n'
                  "import numpy as np\n"
                  "from . import linalg\n"
                  "from .linalg import ConvergenceFailure\n"
                  "linalg.tridiag_eigensystem(d, e)\n")
        assert numpy_linalg_uses(source) == []
