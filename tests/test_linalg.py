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

import helpers
from helpers import decimal_eigendata

EPS = np.finfo(float).eps


def dense(d):
    """The Jacobi matrix with diagonal d and unit off-diagonals."""
    ones = np.ones(d.size - 1)
    return np.diag(d) + np.diag(ones, 1) + np.diag(ones, -1)


def row_sum_norm(d):
    radius = np.zeros(d.size)
    radius[:-1] += 1.0
    radius[1:] += 1.0
    return max(float(np.max(np.abs(d) + radius)), 1.0)


def check_rows(d, lam, vectors, residual, passing):
    """The rows in passing are orthonormal eigenvectors whose residual
    is within 1e-10 |T| and within the bound the solver reported, and
    that bound is at working precision, 64 eps |T|: far below the
    fixed 1e-10 |T| that eigen_decompose accepts."""
    A = dense(d)
    norm = row_sum_norm(d)
    V = vectors[passing]
    for v, value, bound in zip(V, lam[passing], residual[passing]):
        assert bound <= 64 * EPS * norm
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


def wells(n, sites, depth):
    d = np.zeros(n)
    d[list(sites)] = -depth
    return d


def mirrored(block, height, sites):
    """block, a barrier of sites at height, and block reversed."""
    block = np.asarray(block, dtype=float)
    return np.concatenate((block, np.full(sites, height), block[::-1]))


class TestEigen:
    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 10, 33, 64):
            d = rng.uniform(-2, 2, n)
            lam, _, _ = linalg.tridiag_eigensystem(d)
            ref = np.linalg.eigvalsh(dense(d))
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(lam - ref)) <= 1e-12 * scale

    def test_eigenvectors_residual_and_orthogonality(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 16, 40):
            d = rng.uniform(-2, 2, n)
            lam, vectors, residual = linalg.tridiag_eigensystem(d)
            assert np.all(residual <= 1e-10 * row_sum_norm(d))
            check_rows(d, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_clustered_eigenvalues_stay_orthogonal(self):
        # decoupled identical wells give a near-degenerate pair or
        # triple; in the triple the top member's partners include one
        # that is itself clustered
        for n, sites in ((24, (2, 21)), (40, (11, 20, 29))):
            d = wells(n, sites, 6.0)
            lam, vectors, residual = linalg.tridiag_eigensystem(d)
            ref = np.linalg.eigvalsh(dense(d))
            assert np.max(np.abs(lam - ref)) <= 1e-10
            top = len(sites) - 1
            assert lam[top] - lam[0] <= 1e-6 * row_sum_norm(d)
            assert np.all(residual <= 1e-10 * row_sum_norm(d))
            check_rows(d, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_single_site(self):
        lam, vectors, residual = linalg.tridiag_eigensystem(np.array([4.5]))
        assert np.array_equal(lam, [4.5])
        assert np.array_equal(vectors, [[1.0]])
        assert np.array_equal(residual, [0.0])

    @pytest.mark.parametrize("d, message", [
        (None, "diagonal must be one-dimensional"),
        (object(), "diagonal must be real numbers"),
        ([[1.0, 2.0]], "diagonal must be one-dimensional"),
        ([], "diagonal must be nonempty"),
        ([0.5, np.inf], "diagonal contains non-finite entries"),
        ([np.nan], "diagonal contains non-finite entries"),
    ], ids=["none", "object", "2-d", "empty", "inf", "nan"])
    def test_malformed_diagonal_raises_value_error(self, d, message):
        # None would be read as the point NaN and give a NaN eigenvalue
        with pytest.raises(ValueError, match=message):
            linalg.tridiag_eigensystem(d)

    @pytest.mark.parametrize("d, repeated", [
        (mirrored([0.5, -1.0, 0.25], 1e3, 8), [1, 3, 5]),
        (mirrored(np.zeros(13), 1e3, 8), list(range(1, 26, 2))),
        (wells(40, (5, 34), 9.0), [1]),
    ], ids=["mirrored", "mirrored-free", "deep-wells"])
    def test_repeated_eigenvalue_is_reported(self, d, repeated):
        # a block and its mirror image behind eight sites at 1e3 couple
        # through them by about 1e-24, far below the roundoff of 1e3:
        # every eigenvalue of the block is double in float64, and the
        # second vector of each pair is the first one again, so its row
        # must not pass.  Two deep wells far apart share their ground
        # state the same way
        lam, vectors, residual = linalg.tridiag_eigensystem(d)
        ref = np.linalg.eigvalsh(dense(d))
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
        passing = residual <= 1e-10 * row_sum_norm(d)
        assert np.flatnonzero(~passing).tolist() == repeated
        check_rows(d, lam, vectors, residual, passing)

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
            lam, vectors, residual = linalg.tridiag_eigensystem(d)
            ref = np.linalg.eigvalsh(dense(d))
            assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
            assert np.all(residual <= 1e-10 * row_sum_norm(d))
            check_rows(d, lam, vectors, residual, np.ones(n, dtype=bool))

    def test_steps_outside_the_bracket_are_refused(self, monkeypatch):
        # the first Rayleigh-quotient step of every row is forced onto
        # a neighbouring eigenvalue, where the later steps would settle;
        # only the bracket test keeps each row on its own eigenvalue.
        # A step is gamma_r / |z|^2 of _twist, so the forced call
        # returns the step itself as gamma_r over a unit |z|^2
        rng = np.random.default_rng(12)
        d = rng.uniform(-1.0, 1.0, 20)
        ref = np.linalg.eigvalsh(dense(d))
        twist = linalg._twist
        calls = []

        def jump(d_, lam, pivmin):
            gamma, z, norm2 = twist(d_, lam, pivmin)
            calls.append(lam.size)
            if len(calls) == 1:
                k = np.argmin(np.abs(ref - lam[:, None]), axis=1)
                gamma = ref[np.where(k + 1 < ref.size, k + 1, k - 1)] - lam
                norm2 = np.ones_like(norm2)
            return gamma, z, norm2

        monkeypatch.setattr(linalg, "_twist", jump)
        lam, vectors, residual = linalg.tridiag_eigensystem(d)
        assert calls[0] == 20
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.abs(ref).max()
        check_rows(d, lam, vectors, residual, np.ones(20, dtype=bool))

    def test_isolated_eigenvalues_are_not_bisected(self, monkeypatch):
        # the refinement must take over from the coarse brackets: on a
        # random potential no eigenvalue is bisected to roundoff
        calls = []
        multisect = linalg._multisect

        def spy(*args, **kwargs):
            calls.append(args[1].size)
            return multisect(*args, **kwargs)

        monkeypatch.setattr(linalg, "_multisect", spy)
        rng = np.random.default_rng(11)
        for amplitude in (0.1, 0.3, 1.0):
            d = rng.uniform(-amplitude, amplitude, 64)
            linalg.tridiag_eigensystem(d)
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
                    linalg.tridiag_eigensystem(d)
                    assert passes[0] == 3, (n, amplitude)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 80), amplitude=st.floats(0.1, 3.0),
           barrier=st.sampled_from((None, (10.0, 2), (10.0, 4), (30.0, 6),
                                    (100.0, 8), (1e3, 6))),
           integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_one_at_a_time_reference(self, n, amplitude, barrier,
                                             integral, seed):
        # a barrier (height, sites) puts a block and its mirror image on
        # either side of it, so every eigenvalue of the block sits in a
        # pair: about 4e-5 apart at (10, 2), 5e-7 at (10, 4), 6e-12 at
        # (30, 6), and equal in float64 at (100, 8) and (1e3, 6), whose
        # second vectors cannot pass; integer diagonals give exact zero
        # eigenvalues and zero pivots
        rng = np.random.default_rng(seed)
        if barrier is None:
            d = rng.uniform(-amplitude, amplitude, n)
        else:
            height, sites = barrier
            d = rng.uniform(-amplitude, amplitude, max((n - sites) // 2, 1))
        if integral:
            d = np.round(d)
        if barrier is not None:
            d = mirrored(d, height, sites)
        lam, vectors, residual = linalg.tridiag_eigensystem(d)
        ref = np.linalg.eigvalsh(dense(d))
        norm = row_sum_norm(d)
        assert np.max(np.abs(lam - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())
        passing = residual <= 1e-10 * norm
        # a row more than the cluster tolerance from every other
        # eigenvalue always passes
        assert np.all(passing[gaps(ref) > 1e-6 * norm])
        check_rows(d, lam, vectors, residual, passing)
        # eigen_decompose: rho within 1e-11 of the decimal reference,
        # plus the eigenvector conditioning eps |H| / gap where
        # eigenvalues crowd; it may refuse only eigenvalues that float64
        # cannot separate
        H = Hamiltonian(diag=d)
        try:
            sd = eigen_decompose(H)
        except ConvergenceFailure:
            assert np.min(np.diff(ref)) <= 1e-13 * norm
            return
        assert np.max(np.abs(sd.eigenvalues - ref)) <= 1e-12 * norm
        if d.size > 1 and np.min(np.diff(ref)) <= 1e-10 * norm:
            return  # guesses too close for the decimal Newton reference
        lam_ref, rho_ref = decimal_eigendata(H.diag, ref)
        bound = 1e-11 + 100 * EPS * norm / gaps(lam_ref)
        assert np.all(np.abs(sd.norming / rho_ref - 1.0) <= bound)


def gershgorin_setup(d):
    """The Gershgorin bracket, scale and pivot floor that
    tridiag_eigensystem hands to _multisect and _twisted."""
    radius = np.full(d.size, 2.0)
    radius[[0, -1]] = 1.0
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    scale = max(abs(lo), abs(hi), 1.0)
    pivmin = max(np.finfo(float).tiny / EPS, EPS * EPS * scale)
    return lo - 2 * EPS * scale, hi + 2 * EPS * scale, scale, pivmin


class TestKernels:
    @pytest.mark.parametrize("d", [
        np.random.default_rng(13).uniform(-0.3, 0.3, 64),
        wells(40, (10, 29), 4.0),
        wells(40, (5, 34), 9.0),
    ], ids=["random", "wells", "deep-wells"])
    def test_brackets_do_not_depend_on_the_stack(self, d):
        # a stack shares one tree of midpoints among equal brackets and
        # takes shallower trees than a row alone: neither may change a
        # bit of any bracket, at the _BRACKET_WIDTH width or at the
        # roundoff stop
        lo, hi, scale, pivmin = gershgorin_setup(d)
        width = linalg._BRACKET_WIDTH * scale
        n = d.size
        target = np.arange(1, n + 1)
        lower, upper = linalg._multisect(d, np.full(n, lo), np.full(n, hi),
                                         target, pivmin, width)
        fine = linalg._multisect(d, lower, upper, target, pivmin)
        for k in range(n):
            one = slice(k, k + 1)
            alone = linalg._multisect(d, np.full(1, lo), np.full(1, hi),
                                      target[one], pivmin, width)
            assert np.array_equal(alone, (lower[one], upper[one]))
            alone = linalg._multisect(d, lower[one], upper[one],
                                      target[one], pivmin)
            assert np.array_equal(alone, (fine[0][one], fine[1][one]))
        assert np.all(upper - lower <= width)

    @pytest.mark.parametrize("cap", [None, 1, 7, 13, 30])
    def test_flat_walk_matches_the_level_walk(self, monkeypatch, cap):
        # the walk reads the raveled tree and its counts at flat
        # positions, and the width stop reads one maximum: every bit of
        # the level-by-level walk must stay, at the width stop, at the
        # roundoff stop, and under step caps that end a walk inside a
        # tree or between passes.  On the near-overflow diagonals the
        # brackets go infinite, and a NaN bracket never settles, so
        # those walks run to the cap
        if cap is not None:
            monkeypatch.setattr(linalg, "_BISECTION_STEPS", cap)
        diagonals = [d for _, d in helpers.diagonal_families()]
        diagonals += [np.array([1.7976931348623157e308, 0.0]),
                      np.array([1e308, -1e308, 0.0])]
        with np.errstate(over="ignore", invalid="ignore"):
            for i, d in enumerate(diagonals):
                lo, hi, scale, pivmin = gershgorin_setup(d)
                target = np.arange(1, d.size + 1)
                start = [np.full(d.size, lo), np.full(d.size, hi)]
                if i == 10:
                    start[1][d.size // 2] = np.nan
                width = linalg._BRACKET_WIDTH * scale
                coarse = linalg._multisect(d, *start, target, pivmin, width)
                want = helpers.level_multisect(d, *start, target, pivmin,
                                               width)
                assert all(map(helpers.same_bits, coarse, want)), d
                fine = linalg._multisect(d, *coarse, target, pivmin)
                want = helpers.level_multisect(d, *coarse, target, pivmin)
                assert all(map(helpers.same_bits, fine, want)), d

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 64])
    def test_sturm_counts_match_site_by_site(self, n):
        # the count runs a block of sites at a time; the sizes put the
        # last site on, before and after a block edge.  Shift d_0 makes
        # the first pivot exactly 0 and the next one infinite; with
        # -0.0 at every even site, shift 0 makes every even pivot -0.0,
        # which counts as negative; with d_i = 1 / q_{i-1} at every
        # third site from the second, shift 0 makes those pivots
        # exactly 0, site 7 among them, the last of the first block
        rng = np.random.default_rng(15)
        for d in (rng.uniform(-1.0, 1.0, n),
                  np.where(np.arange(n) % 2, rng.uniform(-1.0, 1.0, n),
                           -0.0),
                  zero_pivots(rng.uniform(-1.0, 1.0, n), range(1, n, 3))):
            xs = np.concatenate((d, [0.0], rng.uniform(-3.0, 3.0, 40)))
            got = linalg._sturm_counts(d, xs)
            want = [site_by_site_count(d, x) for x in xs.tolist()]
            assert got.tolist() == want

    def test_twisted_columns_are_independent(self):
        for d, lam, clamped in clamped_shifts():
            check_twisted(d, lam, clamped)

    def test_twisted_matches_the_plain_form(self):
        # _twist fills its table and the ones of its ratio tables in
        # place, _twisted makes the vectors unit in place, and the
        # pivot loops take reciprocals: every bit must stay that of the
        # plain form, and the Rayleigh-quotient step gamma_r / |z|^2
        # read from _twist alone must be _twisted's step.  The shifts
        # are the eigenvalues, the midpoints between them, points
        # across the Gershgorin bracket, d_0 and 0, and the shifts
        # that take the clamped rerun
        rng = np.random.default_rng(16)
        cases = [(d, lam) for d, lam, _ in clamped_shifts()]
        for _, d in helpers.diagonal_families():
            lo, hi, _, _ = gershgorin_setup(d)
            lam = linalg.tridiag_eigensystem(d)[0]
            cases.append((d, np.concatenate((
                lam, 0.5 * (lam[1:] + lam[:-1]), rng.uniform(lo, hi, 8),
                [d[0], 0.0]))))
        for d, lam in cases:
            *_, pivmin = gershgorin_setup(d)
            got = linalg._twisted(d, lam, pivmin)
            want = helpers.plain_twisted(d, lam, pivmin)
            assert all(map(helpers.same_bits, got, want)), d
            with np.errstate(divide="ignore", invalid="ignore"):
                gamma, _, norm2 = linalg._twist(d, lam, pivmin)
                assert helpers.same_bits(gamma / norm2, want[0]), d


def clamped_shifts():
    """(d, shifts, columns that take the clamped rerun) for the twisted
    factorization.  Shift d[0] makes the first stationary pivot exactly
    0; shift 0 makes it 1e-40, within pivmin but not zero, and makes
    the progressive pivot at site m exactly 0.  Both take the clamped
    rerun.  On six sites ending in d_5 = 1 / D_4, shift 0 makes the
    last stationary pivot exactly 0, and it divides nothing."""
    rng = np.random.default_rng(14)
    n, m = 24, 9
    d = rng.uniform(-1.0, 1.0, n)
    d[0] = 1e-40
    pivot = d[-1]
    for i in range(n - 2, m, -1):
        pivot = d[i] - 1.0 / pivot
    d[m] = 1.0 / pivot
    lam = np.append(linalg.tridiag_eigensystem(d)[0][::5], [d[0], 0.0])
    short = zero_pivots(d[1:7], [5])
    return [(d, lam, (-2, -1)), (short, np.array([0.5, 0.0]), (-1,))]


def zero_pivots(d, sites):
    """d with d_i = 1 / q_{i-1} at each of sites, so that the Sturm pivot
    q_i = d_i - 1 / q_{i-1} of shift 0 is exactly 0 there; sites are at
    least three apart, so that every q_{i-1} is finite and nonzero."""
    d = d.copy()
    q = d[0]
    for i in range(1, d.size):
        if i in sites:
            d[i] = 1.0 / q
        q = d[i] - (1.0 / q if q else math.copysign(math.inf, q))
    return d


def site_by_site_count(d, x):
    """Pivots q_i = d_i - x - 1 / q_{i-1} with a set sign bit, in IEEE
    arithmetic: a zero pivot makes the next one infinite."""
    count = 0
    q = 0.0
    for i, di in enumerate(d.tolist()):
        if i == 0:
            q = di - x
        else:
            q = di - x - (1.0 / q if q else math.copysign(math.inf, q))
        count += math.copysign(1.0, q) < 0
    return count


def check_twisted(d, lam, clamped):
    """_twisted on the stack of shifts lam equals _twisted on each shift
    alone, and in the columns clamped a clamped recurrence."""
    *_, pivmin = gershgorin_setup(d)
    stack = linalg._twisted(d, lam, pivmin)
    for k in range(lam.size):
        alone = linalg._twisted(d, lam[k:k + 1], pivmin)
        for got, want in zip(stack, alone):
            assert np.array_equal(got[k:k + 1], want)
    for k in clamped:
        want = clamped_twisted(d, lam[k], pivmin)
        for got, value in zip(stack, want):
            assert np.array_equal(got[k], value)
        assert np.all(np.isfinite(stack[1][k]))


def clamped_twisted(d, lam, pivmin):
    """_twisted for one shift, one site at a time, with every pivot
    within pivmin of zero set to -pivmin as soon as it is formed."""
    n = d.size
    a = d - lam

    def pivots(a):
        p = np.empty(n)
        for i in range(n):
            p[i] = a[i] - 1.0 / p[i - 1] if i else a[i]
            if abs(p[i]) <= pivmin:
                p[i] = -pivmin
        return p

    top = pivots(a)
    bottom = pivots(a[::-1])[::-1]
    gamma = top + bottom - a
    r = int(np.argmin(np.abs(gamma)))
    z = np.ones(n)
    for i in range(r - 1, -1, -1):
        z[i] = z[i + 1] * (-1.0 / top[i])
    for i in range(r + 1, n):
        z[i] = z[i - 1] * (-1.0 / bottom[i])
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
                  "linalg.tridiag_eigensystem(d)\n")
        assert numpy_linalg_uses(source) == []
