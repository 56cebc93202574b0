"""Covariant phase observables on truncated Hardy space."""

from .errors import PhaseObsError, PrecisionError, ValidationError
from .hardy import (
    TWO_PI,
    HardyState,
    PhaseWindow,
    evaluate,
    normalize,
    phase_shift,
    superpose,
)
from .observable import (
    KrausFamily,
    PhaseMatrix,
    ValidationReport,
    kraus_decompose,
    kraus_reconstruct,
    validate,
)
from .distribution import (
    SchurToeplitz,
    check_covariance,
    check_interference,
    density,
    density_grid,
    exact_cdf,
    fourier_window_integral,
    kernel_C,
    kernel_apply,
    sample,
    window_operator,
    window_probability,
)
from .spectral import (
    Localization,
    first_moment,
    localization,
    localization_max,
    localization_sweep,
    moment_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "PhaseObsError",
    "PrecisionError",
    "ValidationError",
    "TWO_PI",
    "HardyState",
    "PhaseWindow",
    "evaluate",
    "normalize",
    "phase_shift",
    "superpose",
    "KrausFamily",
    "PhaseMatrix",
    "ValidationReport",
    "kraus_decompose",
    "kraus_reconstruct",
    "validate",
    "SchurToeplitz",
    "check_covariance",
    "check_interference",
    "density",
    "density_grid",
    "exact_cdf",
    "fourier_window_integral",
    "kernel_C",
    "kernel_apply",
    "sample",
    "window_operator",
    "window_probability",
    "Localization",
    "first_moment",
    "localization",
    "localization_max",
    "localization_sweep",
    "moment_spectrum",
]
