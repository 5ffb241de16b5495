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


def unshifted_exponents(covs, s: float) -> np.ndarray:
    """The exponent 2/(a - s) of each of the 2M input quadratures (x of
    every mode, then p) before any shift; NaN marks a frozen delta axis,
    whose variance a is within FREEZE_TOL of s."""
    a = np.array([c.a_plus for c in covs] + [c.a_minus for c in covs], dtype=float)
    d = a - s
    if d.min(initial=0.0) < -FREEZE_TOL:
        raise SingularOrdering(f"s = {s} exceeds variance {a[np.argmin(d)]}")
    return 2.0 / np.where(d > FREEZE_TOL, d, np.nan)  # NaN carries a frozen axis through


def shift_exponents(c0: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The shifted exponents c0 - rate of the quadratures whose unshifted
    exponents are ``c0`` (``unshifted_exponents``), and log N_i of each
    mode's shifted input factor, to which a frozen quadrature contributes 0.
    """
    c = c0 - rate
    if (c <= 0.0).any():
        k = np.argmax(c <= 0.0)
        raise ShiftOutOfRange(f"shifted input exponent {c[k]} nonpositive (unshifted {c0[k]}, rate = {rate})")
    free = ~np.isnan(c0)
    log_q = np.where(free, 0.5 * (np.log(c0) - np.log(c)), 0.0)
    m = len(c0) // 2
    return c, log_q[:m] + log_q[m:]


def input_exponents(covs, s: float, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifted input exponents and log normalizations of every mode at once
    (``shift_exponents`` of ``unshifted_exponents``)."""
    return shift_exponents(unshifted_exponents(covs, s), rate)


def measurement_sup(
    outcome: MeasurementOutcome, s: float, rate: float, n_j: float = 1.0
) -> float:
    """sup_b |f(b)| of the shifted factor (``RadialFactor.sup``); inf when a
    reverse shift makes it unbounded."""
    return n_j * pi_w_profile(outcome, s).sup(rate)
