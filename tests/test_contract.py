"""Input contract of the public API: a malformed argument raises ValueError.

Every public function and constructor in lattice_bc.__all__ that takes
input, and cli.roundtrip_report, is called once with valid arguments
and then with each array, count, real and data-object argument in turn
replaced by values that are none of these.  Each such call must raise
ValueError, never numpy's TypeError or an AttributeError or IndexError
from reading the value, and the valid call must give the same bytes
after the rejected calls as before them.  Flags such as
dirichlet_correction are not arguments of this kind and keep their
truthiness.
"""

import dataclasses

import numpy as np
import pytest

import lattice_bc
from lattice_bc import (GoursatKernel, Hamiltonian, KreinConfig, SpectralData,
                        WaveField, cli)

# a regular nested list is malformed for a 1-D array, a scalar or a
# count; the points of chebyshev_seq may have any shape, so only a
# ragged list is malformed there, and a table must be 2-D
BAD = {
    "array": (object(), "x", None, [[0.5]]),
    "points": (object(), "x", None, [[0.5], [0.5, 1.0]]),
    "table": (object(), "x", None, [[[0.5]]]),
    # None stands for "no eigenvectors"
    "optional table": (object(), "x", [[[0.5]]]),
    "count": (object(), "x", None, [[1]], True, 1.5),
    "real": (object(), "x", None, [[0.5]], True),
    "data": (object(), "x", None, [[0.5]]),
}

B = [0.5, -0.25]
F = [1.0, 0.5]
R = [1.0, -0.5, 0.25]  # response_kernel(B, 2)
KERNEL = GoursatKernel([[0.0, 0.0], [0.0, -0.5]])  # solve_goursat(B, 1)
SD = SpectralData([0.5], [1.0], [[1.0]])  # of the potential [-0.5]

# (name, function, valid arguments, kind of each argument); the
# arguments are dyadic, so every result is exact
CASES = [
    ("chebyshev_seq", lattice_bc.chebyshev_seq, (3, 0.5),
     ("count", "points")),
    ("convolve", lattice_bc.convolve, (F, [0.5]), ("array", "array")),
    ("kappa_seq", lattice_bc.kappa_seq, (3,), ("count",)),
    ("WaveField", WaveField, ([[1.0, 0.0], [0.0, 1.0]],), ("table",)),
    ("GoursatKernel", GoursatKernel, (KERNEL.table,), ("table",)),
    ("GoursatKernel.value", KERNEL.value, (1, 1), ("count", "count")),
    ("apply_representation", lattice_bc.apply_representation,
     (KERNEL, F, 1, 2), ("data", "array", "count", "count")),
    ("interval_fourier_solution", lattice_bc.interval_fourier_solution,
     (SD, F, 2), ("data", "array", "count")),
    ("solve_goursat", lattice_bc.solve_goursat, (B, 2), ("array", "count")),
    ("solve_interval", lattice_bc.solve_interval, (B, 2, F, 2),
     ("array", "count", "array", "count")),
    ("solve_semi_infinite", lattice_bc.solve_semi_infinite, (B, F, 2),
     ("array", "array", "count")),
    ("apply_response", lattice_bc.apply_response, (R, F),
     ("array", "array")),
    ("apply_response_adjoint", lattice_bc.apply_response_adjoint, (R, F),
     ("array", "array")),
    ("connecting_matrix", lattice_bc.connecting_matrix, (R, 2),
     ("array", "count")),
    ("connecting_via_waves", lattice_bc.connecting_via_waves, (B, 2),
     ("array", "count")),
    ("control_matrix", lattice_bc.control_matrix, (B, 2),
     ("array", "count")),
    ("response_kernel", lattice_bc.response_kernel, (B, 2),
     ("array", "count")),
    ("rotated_connecting", lattice_bc.rotated_connecting,
     ([[1.0, 0.5], [0.5, 1.0]],), ("table",)),
    ("KreinConfig", KreinConfig, (0.25, 1.0), ("real", "real")),
    ("characterize_response", lattice_bc.characterize_response,
     (R, 2, 1e-9), ("array", "count", "real")),
    ("invert_factorization", lattice_bc.invert_factorization, (R, 2),
     ("array", "count")),
    ("invert_gelfand_levitan", lattice_bc.invert_gelfand_levitan, (R, 2),
     ("array", "count")),
    ("invert_krein", lattice_bc.invert_krein, (R, 2, KreinConfig()),
     ("array", "count", "data")),
    ("Hamiltonian", Hamiltonian, ([0.5],), ("array",)),
    ("SpectralData", SpectralData, ([0.5], [1.0], [[1.0]]),
     ("array", "array", "optional table")),
    ("build_hamiltonian", lattice_bc.build_hamiltonian, (B, 2),
     ("array", "count")),
    ("eigen_decompose", lattice_bc.eigen_decompose, (Hamiltonian([0.5]),),
     ("data",)),
    ("connecting_from_spectral", lattice_bc.connecting_from_spectral,
     (SD, 1), ("data", "count")),
    ("invert_spectral", lattice_bc.invert_spectral, (SD,), ("data",)),
    ("kernel_from_spectral", lattice_bc.kernel_from_spectral,
     (SD, 1, False), ("data", "count", None)),
    ("phi_polynomial", lattice_bc.phi_polynomial, (B, 0.5, 2),
     ("array", "real", "count")),
    # the seed goes to numpy's generator as it is
    ("roundtrip_report", cli.roundtrip_report, (0, 2, 2, 0.5, 1e-9),
     (None, "count", "count", "real", "real")),
]

# results and failures: no input of theirs comes from a caller
NOT_INPUTS = {"CharacterizationVerdict", "DegenerateTrace", "InversionError",
              "SingularConnecting", "SingularLeadingMinor",
              "ConvergenceFailure"}


def _bytes(result):
    """The result as bytes, arrays with their shapes and dtypes."""
    if dataclasses.is_dataclass(result):
        return _bytes(dataclasses.astuple(result))
    if isinstance(result, (tuple, list)):
        return b"|".join(_bytes(x) for x in result)
    if isinstance(result, dict):
        return _bytes(list(result.items()))
    arr = np.asarray(result)
    if arr.dtype == object or arr.dtype.kind in "US":
        return repr(result).encode()
    return repr((arr.shape, arr.dtype.str)).encode() + arr.tobytes()


def test_every_public_name_is_covered():
    covered = {name.split(".")[0] for name, *_ in CASES}
    assert covered | NOT_INPUTS >= set(lattice_bc.__all__)


@pytest.mark.parametrize("name, function, args, kinds", CASES,
                         ids=[case[0] for case in CASES])
def test_malformed_arguments_raise_value_error(name, function, args, kinds):
    valid = _bytes(function(*args))
    for i, kind in enumerate(kinds):
        for bad in BAD.get(kind, ()):
            call = args[:i] + (bad,) + args[i + 1:]
            with pytest.raises(ValueError):
                function(*call)
    assert _bytes(function(*args)) == valid
