"""Covariant phase observables on truncated Hardy space."""

from .errors import PhaseObsError, ValidationError
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
    WindowOperator,
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
    MomentOperator,
    first_moment,
    localization_max,
    localization_sweep,
    moment_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "PhaseObsError",
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
    "WindowOperator",
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
    "MomentOperator",
    "first_moment",
    "localization_max",
    "localization_sweep",
    "moment_spectrum",
]
