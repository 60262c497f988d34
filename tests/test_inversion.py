"""Inverse solvers and the admissibility characterization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from lattice_bc.bc_ops import connecting_matrix, response_kernel, \
    rotated_connecting
from lattice_bc.core import Tolerances
from lattice_bc.inversion import (CharacterizationVerdict, DegenerateTrace,
                                  InversionError, KreinConfig,
                                  SingularConnecting, SingularLeadingMinor,
                                  _krein_rhs, _moment_recursion,
                                  _solve_stack, characterize_response,
                                  invert_factorization,
                                  invert_gelfand_levitan, invert_krein)


def kernel_of(b, T):
    return response_kernel(b, 2 * T - 2)


class TestKrein:
    def test_constant_three_potential(self):
        # the lambda = 0 trace for b = (3, 3) is y = (0, 1, 3, 8)
        b = np.array([3.0, 3.0])
        recovered = invert_krein(kernel_of(b, 3), 3)
        assert np.allclose(recovered, b, atol=1e-9)
        y = helpers.lambda0_trace(b, 0.0, 1.0, 3)
        assert np.array_equal(y, [0.0, 1.0, 3.0, 8.0])

    def test_round_trip_default_boundary_data(self):
        rng = np.random.default_rng(50)
        for T in (2, 5, 9, 14):
            b = rng.uniform(-0.5, 0.5, T - 1)
            recovered = invert_krein(kernel_of(b, T), T)
            assert np.max(np.abs(recovered - b)) <= 1e-7

    def test_round_trip_general_boundary_data(self):
        # alpha != 0 exercises the adjoint pairing; potentials above 2
        # keep the trace strictly increasing, hence nondegenerate, and
        # the mild range keeps the connecting systems well conditioned
        rng = np.random.default_rng(51)
        for alpha, beta in ((1.0, 1.0), (0.3, 1.2), (2.0, 3.0)):
            T = 6
            b = rng.uniform(2.1, 2.6, T - 1)
            config = KreinConfig(alpha=alpha, beta=beta)
            recovered = invert_krein(kernel_of(b, T), T, config)
            assert np.max(np.abs(recovered - b)) <= 1e-6

    def test_trace_matches_recurrence(self):
        # recover with several boundary pairs and confirm against the
        # directly computed trace through the recovered potential
        rng = np.random.default_rng(52)
        T = 6
        b = rng.uniform(2.1, 2.6, T - 1)
        r = kernel_of(b, T)
        for alpha, beta in ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
            config = KreinConfig(alpha=alpha, beta=beta)
            recovered = invert_krein(r, T, config)
            y = helpers.lambda0_trace(b, alpha, beta, T)
            y_rec = helpers.lambda0_trace(recovered, alpha, beta, T)
            assert np.allclose(y, y_rec, atol=1e-6 * np.abs(y).max())

    def test_degenerate_dirichlet_trace(self):
        # zero potential, (alpha, beta) = (0, 1): y = (0, 1, 0, -1, ...)
        # vanishes at n = 2
        r = kernel_of(np.zeros(3), 4)
        with pytest.raises(DegenerateTrace) as info:
            invert_krein(r, 4)
        assert info.value.index == 2

    def test_degenerate_neumann_trace(self):
        # zero potential, (alpha, beta) = (1, 0): y = (1, 0, -1, ...)
        # vanishes already at n = 1
        r = kernel_of(np.zeros(2), 3)
        with pytest.raises(DegenerateTrace) as info:
            invert_krein(r, 3, KreinConfig(alpha=1.0, beta=0.0))
        assert info.value.index == 1

    def test_singular_connecting(self):
        r = np.array([1.0, 1.0, 0.0])
        with pytest.raises(SingularConnecting) as info:
            invert_krein(r, 2)
        assert info.value.horizon == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KreinConfig(alpha=0.0, beta=0.0)

    def test_trivial_horizon(self):
        assert invert_krein([1.0], 1).size == 0

    def test_errors_are_inversion_errors(self):
        assert issubclass(DegenerateTrace, InversionError)
        assert issubclass(SingularConnecting, InversionError)
        assert issubclass(SingularLeadingMinor, InversionError)


class TestFactorization:
    def test_trivial_kernel(self):
        b = invert_factorization([1.0, 0.0, 0.0, 0.0, 0.0], 3)
        assert np.array_equal(b, np.zeros(2))

    def test_single_site(self):
        assert np.allclose(invert_factorization([1.0, -1.0, 1.0], 2), [1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for T in (2, 4, 8, 16):
            b = rng.uniform(-0.5, 0.5, T - 1)
            recovered = invert_factorization(kernel_of(b, T), T)
            assert np.max(np.abs(recovered - b)) <= 1e-7

    def test_singular_leading_minor(self):
        r = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(SingularLeadingMinor) as info:
            invert_factorization(r, 3)
        assert info.value.order == 2

    def test_trivial_horizon(self):
        assert invert_factorization([1.0], 1).size == 0

    def test_diagonal_solves_cramer_determinant(self):
        # the recovered diagonal entry k_{l+1,l+1} equals minus the
        # determinant of the leading block with its last column
        # replaced by the next column of the reversed connecting
        # matrix (Cramer at unit denominators), checked by cofactor
        # expansion
        rng = np.random.default_rng(54)
        T = 5
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = kernel_of(b, T)
        cbar = rotated_connecting(connecting_matrix(r, T))
        kdiag = np.concatenate(([0.0], np.cumsum(invert_factorization(r, T))))
        for n in range(1, T):
            columns = [cbar[:n, j] for j in range(n - 1)]
            columns.append(cbar[:n, n])
            M = np.column_stack(columns)
            expect = -helpers.minor_det(M)
            assert kdiag[n] == pytest.approx(expect, abs=1e-9)

    def test_tail_garbage_cannot_leak(self):
        rng = np.random.default_rng(55)
        T = 8
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = kernel_of(b, T)
        noisy = np.concatenate((r, rng.uniform(-100, 100, 6)))
        assert np.array_equal(invert_factorization(r, T),
                              invert_factorization(noisy, T))


class TestGelfandLevitan:
    def test_trivial_kernel(self):
        b = invert_gelfand_levitan([1.0, 0.0, 0.0, 0.0, 0.0], 3)
        assert np.array_equal(b, np.zeros(2))

    def test_round_trip(self):
        rng = np.random.default_rng(56)
        for T in (2, 4, 8, 16):
            b = rng.uniform(-0.5, 0.5, T - 1)
            recovered = invert_gelfand_levitan(kernel_of(b, T), T)
            assert np.max(np.abs(recovered - b)) <= 1e-7

    def test_diagonal_matches_factorization(self):
        rng = np.random.default_rng(57)
        T = 10
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = kernel_of(b, T)
        kdiag_f = np.cumsum(invert_factorization(r, T))
        kdiag_g = np.cumsum(invert_gelfand_levitan(r, T))
        assert np.array_equal(kdiag_f, kdiag_g)

    def test_singular_system(self):
        r = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(SingularLeadingMinor):
            invert_gelfand_levitan(r, 3)

    def test_trivial_horizon(self):
        assert invert_gelfand_levitan([1.0], 1).size == 0


class TestCrossMethod:
    def test_three_methods_agree(self):
        rng = np.random.default_rng(58)
        for T in (3, 6, 12):
            b = rng.uniform(-0.5, 0.5, T - 1)
            r = kernel_of(b, T)
            bf = invert_factorization(r, T)
            bg = invert_gelfand_levitan(r, T)
            bk = invert_krein(r, T)
            assert np.max(np.abs(bf - bg)) <= 1e-6
            assert np.max(np.abs(bf - bk)) <= 1e-6

    def test_all_methods_ignore_tail_garbage(self):
        rng = np.random.default_rng(59)
        T = 7
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = kernel_of(b, T)
        noisy = np.concatenate((r, np.full(5, 1e6)))
        assert np.array_equal(invert_krein(r, T), invert_krein(noisy, T))
        assert np.array_equal(invert_gelfand_levitan(r, T),
                              invert_gelfand_levitan(noisy, T))

    def test_kernel_coverage_required(self):
        with pytest.raises(ValueError):
            invert_factorization([1.0, 0.5, 0.3], 3)  # needs 2T-2 = 4
        with pytest.raises(ValueError):
            invert_krein([1.0, 0.5, 0.3], 3)

    def test_kernel_must_be_normalized(self):
        with pytest.raises(ValueError):
            invert_factorization([2.0, 0.0, 0.0], 2)


def outcome(solver, *args):
    try:
        return solver(*args)
    except InversionError as exc:
        return type(exc).__name__, str(exc)


def same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def kernel_stack(kinds, T, amplitude, rng):
    """One kernel per kind: genuine, corrupted at an odd index, an exact
    zero pivot at order 2, or random noise."""
    r = np.zeros((len(kinds), 2 * T - 1))
    r[:, 0] = 1.0
    for m, kind in enumerate(kinds):
        if kind in ("genuine", "corrupted"):
            b = rng.uniform(-amplitude, amplitude, T - 1)
            r[m] = kernel_of(b, T)
            if kind == "corrupted" and T > 1:
                r[m, 2 * int(rng.integers(0, T - 1)) + 1] += 0.5
        elif kind == "singular" and T > 1:
            r[m, 2] = -1.0
        elif kind == "noise":
            r[m, 1:] = rng.normal(size=2 * T - 2) * 10.0 ** rng.uniform(-3, 6)
    return r


class TestStack:
    kinds = st.lists(st.sampled_from(("genuine", "corrupted", "singular",
                                      "noise")), min_size=1, max_size=6)

    @given(T=st.integers(1, 40), kinds=kinds, amplitude=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_recursion_columns_are_single_recursions(self, T, kinds,
                                                     amplitude, seed):
        r = kernel_stack(kinds, T, amplitude, np.random.default_rng(seed))
        g = _krein_rhs(r, T, KreinConfig(alpha=0.3, beta=1.2))
        rec = _moment_recursion(r, T, g)
        for m in range(len(kinds)):
            one = _moment_recursion(r[m:m + 1], T, g[m:m + 1])
            stop = one.stop[0]
            assert (rec.stop[m], rec.floor_fail[m]) == (stop,
                                                        one.floor_fail[0])
            # long double compared by value: equal 80-bit values may
            # differ in their padding bytes
            assert np.array_equal(rec.alpha[:stop, m], one.alpha[:stop, 0])
            assert np.array_equal(rec.d[:stop + 1, m], one.d[:stop + 1, 0])
            if one.floor_fail[0] == T:
                assert np.array_equal(rec.z[:, m], one.z[:, 0])

    @given(T=st.integers(1, 40), kinds=kinds, amplitude=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_outcomes_are_single_calls(self, T, kinds, amplitude,
                                             seed):
        r = kernel_stack(kinds, T, amplitude, np.random.default_rng(seed))
        tol = Tolerances()
        for m, (verdict, fact, krein) in enumerate(_solve_stack(r, T, tol)):
            one = characterize_response(r[m], T, tol)
            assert (verdict.admissible, verdict.first_failing_order) == (
                one.admissible, one.first_failing_order)
            assert np.array_equal(verdict.minor_values, one.minor_values)
            assert np.array_equal(verdict.pivot_values, one.pivot_values)
            if isinstance(fact, InversionError):
                fact = type(fact).__name__, str(fact)
            if isinstance(krein, InversionError):
                krein = type(krein).__name__, str(krein)
            assert same_outcome(fact, outcome(invert_factorization, r[m], T))
            assert same_outcome(krein, outcome(invert_krein, r[m], T))


# Agreement with the exact LDL^T of the same float kernel: relative to
# the largest exact value and to the kernel scale max |r|, which bounds
# the growth of C-bar's entries and of the rounding they carry.
EXACT_REL = 1e-12


def exact_close(got, exact, r):
    exact = np.asarray(exact, dtype=float)
    bound = EXACT_REL * np.max(np.abs(r)) * np.max(np.abs(exact))
    return got.shape == exact.shape and np.max(np.abs(got - exact)) <= bound


class TestExactLDL:
    def kernels(self, seed, low=-0.5, high=0.5, horizons=(2, 3, 5, 8, 12)):
        rng = np.random.default_rng(seed)
        for T in horizons:
            for _ in range(3):
                yield kernel_of(rng.uniform(low, high, T - 1), T), T

    def test_minors_and_pivots(self):
        for r, T in self.kernels(64):
            _, d = helpers.exact_ldl(helpers.exact_cbar(r, T))
            verdict = characterize_response(r, T)
            assert exact_close(verdict.pivot_values, d, r)
            assert exact_close(verdict.minor_values, np.cumprod(
                np.array(d, dtype=object)), r)

    def test_factorization(self):
        for r, T in self.kernels(65):
            assert exact_close(invert_factorization(r, T),
                               helpers.exact_factorization(r, T), r)

    def test_krein_default_boundary_data(self):
        for r, T in self.kernels(66):
            assert exact_close(invert_krein(r, T),
                               helpers.exact_krein(r, T, 0.0, 1.0), r)

    def test_krein_general_boundary_data(self):
        # potentials above 2 keep the alpha != 0 trace nondegenerate
        config = KreinConfig(alpha=0.3, beta=1.2)
        for r, T in self.kernels(67, 2.1, 2.6, (2, 4, 6)):
            assert exact_close(invert_krein(r, T, config),
                               helpers.exact_krein(r, T, 0.3, 1.2), r)

    def test_zero_pivot_stops_the_verdict(self):
        # C-bar's order-2 block [[1, 1], [1, 1]] is exactly singular
        r = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        _, d = helpers.exact_ldl(helpers.exact_cbar(r, 3))
        verdict = characterize_response(r, 3)
        assert d == [1, 0]
        assert verdict.first_failing_order == 2
        assert np.array_equal(verdict.pivot_values, [1.0, 0.0])
        assert np.array_equal(verdict.minor_values, [1.0, 0.0])

    @given(st.lists(st.one_of(st.integers(-2, 2).map(float),
                              st.floats(-2.0, 2.0)),
                    min_size=2, max_size=16))
    def test_krein_raises_where_factorization_does(self, tail):
        # one pivot sequence: the Krein systems include every leading
        # block the factorization eliminates
        T = (len(tail) + 2) // 2
        r = np.concatenate(([1.0], tail[:2 * T - 2]))
        try:
            invert_factorization(r, T)
        except SingularLeadingMinor as exc:
            with pytest.raises(SingularConnecting) as info:
                invert_krein(r, T)
            assert info.value.horizon == exc.order


class TestCharacterize:
    def test_trivial_admissible(self):
        verdict = characterize_response([1.0, 0.0, 0.0], 2)
        assert verdict.admissible
        assert verdict.first_failing_order is None
        assert np.allclose(verdict.minor_values, [1.0, 1.0])
        assert np.allclose(verdict.pivot_values, [1.0, 1.0])

    def test_known_inadmissible(self):
        verdict = characterize_response([1.0, 2.0, 0.0, 0.0, 0.0], 2)
        assert not verdict.admissible
        assert verdict.first_failing_order == 2
        assert verdict.minor_values[1] == pytest.approx(-3.0, abs=1e-12)

    def test_generated_kernels_accepted(self):
        rng = np.random.default_rng(60)
        for T in (2, 5, 9, 16):
            b = rng.uniform(-0.5, 0.5, T - 1)
            verdict = characterize_response(kernel_of(b, T), T)
            assert verdict.admissible
            assert np.max(np.abs(verdict.minor_values - 1.0)) <= 1e-9

    def test_odd_entry_perturbation_rejected(self):
        rng = np.random.default_rng(61)
        T = 8
        b = rng.uniform(-0.5, 0.5, T - 1)
        base = kernel_of(b, T)
        for idx in range(1, 2 * T - 2, 2):
            for sign in (1.0, -1.0):
                bad = base.copy()
                bad[idx] += 0.5 * sign
                verdict = characterize_response(bad, T)
                assert not verdict.admissible
                assert verdict.first_failing_order is not None

    def test_constructed_candidates_accepted_and_inverted(self):
        rng = np.random.default_rng(62)
        for T in (2, 4, 7):
            r = helpers.build_admissible_kernel(rng, T)
            verdict = characterize_response(r, T)
            assert verdict.admissible
            b = invert_factorization(r, T)
            again = kernel_of(b, T)
            assert np.max(np.abs(again - r)) <= 1e-7

    def test_negative_definite_direction(self):
        # minors exactly one but a negative pivot: impossible, so
        # build data with an early negative minor instead and check
        # the first failing order is the earliest violation
        r = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        verdict = characterize_response(r, 4)
        assert not verdict.admissible
        assert verdict.first_failing_order == \
            int(np.argmax((np.abs(verdict.minor_values - 1.0) > 1e-9)
                          | (verdict.pivot_values <= 1e-12))) + 1

    def test_tolerances_are_respected(self):
        rng = np.random.default_rng(63)
        T = 6
        b = rng.uniform(-0.5, 0.5, T - 1)
        bad = kernel_of(b, T)
        bad[2] += 1e-6
        strict = characterize_response(bad, T)
        assert not strict.admissible
        loose = characterize_response(bad, T, Tolerances(det_tol=1e-3))
        assert loose.admissible

    def test_rejects_unnormalized_kernel(self):
        with pytest.raises(ValueError):
            characterize_response([1.0 + 1e-12, 0.0, 0.0], 2)

    def test_single_horizon(self):
        verdict = characterize_response([1.0], 1)
        assert verdict.admissible
        assert np.array_equal(verdict.minor_values, [1.0])

    def test_verdict_is_dataclass(self):
        verdict = characterize_response([1.0, 0.0, 0.0], 2)
        assert isinstance(verdict, CharacterizationVerdict)
