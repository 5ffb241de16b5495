"""pqdkit: phase-space quasiprobability estimators for linear-optical
circuit probabilities and the matrix functions they encode."""

__version__ = "0.1.0"

from . import bounds, errors, estimator, fpras, linear_optics, oracles, phase_space

__all__ = [
    "bounds",
    "errors",
    "estimator",
    "fpras",
    "linear_optics",
    "oracles",
    "phase_space",
    "__version__",
]
