"""Per-mode shifted-factor machinery: input exponents, normalizations, and
measurement-factor suprema.

A measurement factor is f(beta) = N * piW(|beta|^2) * exp(-rate*|beta|^2)
where ``rate`` is the raw Gaussian shift (positive = forward, negative =
reverse) and N the normalization constant of the paired input factor.  All
profiles are radial, so a supremum is a maximum over b = |beta|^2 >= 0,
taken exactly at b = 0 and at the stationary points that
``phase_space.RadialFactor.sup`` finds: a closed form for the threshold
factor, the real roots of a degree-m Laguerre series for m photons (and
the Gaussian factors, m = 0).  No grid is searched.
"""

from __future__ import annotations

import numpy as np

from .errors import ShiftOutOfRange, SingularOrdering
from .phase_space import MeasurementOutcome, pi_w_profile

FREEZE_TOL = 1e-12


def input_exponents(covs, s: float, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifted input exponents and normalizations of every mode at once.

    Returns the exponent c of each of the 2M quadratures (x of every mode,
    then p; NaN marks a frozen delta axis, whose variance is within
    FREEZE_TOL of s) and log N_i of each mode's shifted input factor, to
    which a frozen quadrature contributes 0.
    """
    m = len(covs)
    a = np.array([c.a_plus for c in covs] + [c.a_minus for c in covs], dtype=float)
    d = a - s
    if d.min(initial=0.0) < -FREEZE_TOL:
        raise SingularOrdering(f"s = {s} exceeds variance {a[np.argmin(d)]}")
    free = d > FREEZE_TOL
    d = np.where(free, d, np.nan)  # NaN carries a frozen axis through, silently
    c = 2.0 / d - rate
    if (c <= 0.0).any():
        k = np.argmax(c <= 0.0)
        raise ShiftOutOfRange(
            f"shifted input exponent {c[k]} nonpositive (a = {a[k]}, s = {s}, rate = {rate})"
        )
    log_q = np.where(free, 0.5 * (np.log(2.0 / d) - np.log(c)), 0.0)
    return c, log_q[:m] + log_q[m:]


def measurement_sup(
    outcome: MeasurementOutcome, s: float, rate: float, n_j: float = 1.0
) -> float:
    """sup_b |f(b)| of the shifted factor (``RadialFactor.sup``); inf when a
    reverse shift makes it unbounded."""
    return n_j * pi_w_profile(outcome, s).sup(rate)
