"""Covariant phase observables on truncated Hardy space.

Each public name is imported from its layer module on first access (PEP
562), so a process that needs one layer, such as a CLI child, compiles and
runs only that layer and the ones it imports.
"""

import importlib

_LAYERS = {
    "errors": ("PhaseObsError", "PrecisionError", "ValidationError"),
    "hardy": (
        "TWO_PI",
        "HardyState",
        "PhaseWindow",
        "evaluate",
        "normalize",
        "phase_shift",
        "superpose",
    ),
    "observable": (
        "KrausFamily",
        "PhaseMatrix",
        "ValidationReport",
        "kraus_decompose",
        "kraus_reconstruct",
        "validate",
    ),
    "distribution": (
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
    ),
    "spectral": (
        "Localization",
        "first_moment",
        "localization",
        "moment_spectrum",
    ),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
