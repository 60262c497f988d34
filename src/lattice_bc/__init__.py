"""Boundary control method for the 1-D discrete Schrodinger operator.

Forward lattice dynamics driven by a boundary control, the response /
control / connecting operators built from the boundary data, three
dynamical inverse solvers (Krein, triangular factorization,
Gelfand-Levitan), a characterization test for admissible response
data, and the bridge between boundary data and the spectral data of
the finite Jacobi operator.
"""

from .core import chebyshev_seq, convolve, kappa_seq
from .forward import (GoursatKernel, WaveField, apply_representation,
                      interval_fourier_solution, solve_goursat,
                      solve_interval, solve_semi_infinite)
from .bc_ops import (apply_response, apply_response_adjoint,
                     connecting_matrix, connecting_via_waves,
                     control_matrix, response_kernel, rotated_connecting)
from .inversion import (CharacterizationVerdict, DegenerateTrace,
                        InversionError, KreinConfig, SingularConnecting,
                        SingularLeadingMinor, characterize_response,
                        invert_factorization, invert_gelfand_levitan,
                        invert_krein)
from .spectral import (ConvergenceFailure, Hamiltonian, SpectralData,
                       build_hamiltonian, eigen_decompose,
                       connecting_from_spectral, invert_spectral,
                       kernel_from_spectral, phi_polynomial)

__all__ = [
    "chebyshev_seq", "convolve", "kappa_seq",
    "GoursatKernel", "WaveField", "apply_representation",
    "interval_fourier_solution", "solve_goursat", "solve_interval",
    "solve_semi_infinite",
    "apply_response", "apply_response_adjoint", "connecting_matrix",
    "connecting_via_waves", "control_matrix", "response_kernel",
    "rotated_connecting",
    "CharacterizationVerdict", "DegenerateTrace", "InversionError",
    "KreinConfig", "SingularConnecting", "SingularLeadingMinor",
    "characterize_response", "invert_factorization",
    "invert_gelfand_levitan", "invert_krein",
    "ConvergenceFailure", "Hamiltonian", "SpectralData",
    "build_hamiltonian", "eigen_decompose", "connecting_from_spectral",
    "invert_spectral", "kernel_from_spectral", "phi_polynomial",
]

__version__ = "0.1.0"
