"""Per-mode shifted-factor machinery: radial profiles, normalizations, and
supremum searches.

A measurement factor is f(beta) = N * piW(|beta|^2) * exp(-rate*|beta|^2)
where ``rate`` is the raw Gaussian shift (positive = forward, negative =
reverse) and N the normalization constant of the paired input factor.  All
profiles are radial, so suprema reduce to 1-D searches over b = |beta|^2;
the photon-number (m = 0, 1) and threshold families have analytic
stationary points, everything else falls back to a dense grid with
golden-section refinement.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ShiftOutOfRange, SingularOrdering
from .phase_space import MeasurementOutcome, ModeCovariance, pi_w_profile

FREEZE_TOL = 1e-12
B_MAX = 400.0  # |beta| <= 20


def quadrature_exponents(cov: ModeCovariance, s: float, rate: float):
    """Shifted exponents per quadrature; None marks a frozen (delta) axis."""
    out = []
    for a in (cov.a_plus, cov.a_minus):
        d = a - s
        if d < -FREEZE_TOL:
            raise SingularOrdering(f"s = {s} exceeds variance {a}")
        if d <= FREEZE_TOL:
            out.append(None)
            continue
        c = 2.0 / d - rate
        if c <= 0.0:
            raise ShiftOutOfRange(
                f"shifted input exponent {c} nonpositive (a = {a}, s = {s}, rate = {rate})"
            )
        out.append(c)
    return tuple(out)


def mode_lognorm(cov: ModeCovariance, s: float, rate: float) -> float:
    """log N_i of the shifted input factor; frozen quadratures contribute 0."""
    total = 0.0
    for a, c in zip((cov.a_plus, cov.a_minus), quadrature_exponents(cov, s, rate)):
        if c is None:
            continue
        total += 0.5 * (math.log(2.0 / (a - s)) - math.log(c))
    return total


def shifted_factor_profile(
    outcome: MeasurementOutcome, s: float, rate: float, n_j: float = 1.0
) -> Callable:
    """Full shifted measurement factor over b = |beta|^2."""
    base = pi_w_profile(outcome, s)

    def profile(b):
        b = np.asarray(b, dtype=float)
        return n_j * base(b) * np.exp(-rate * b)

    return profile


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def numeric_sup(profile: Callable, b_max: float = B_MAX, n_grid: int = 4001) -> float:
    """Supremum of |profile| on [0, b_max]: dense grid plus golden refinement."""
    grid = np.linspace(0.0, b_max, n_grid)
    vals = np.abs(profile(grid))
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, n_grid - 1)]
    _, peak = _golden_max(lambda b: float(np.abs(profile(b))), lo, hi)
    return max(float(vals[k]), peak)


def measurement_sup(
    outcome: MeasurementOutcome, s: float, rate: float, n_j: float = 1.0
) -> float:
    """sup_b |f(b)| of the shifted measurement factor.

    Uses the analytic stationary points of the vacuum, single-photon, and
    threshold families; higher photon numbers use the numeric search.
    Returns inf when a reverse shift makes the factor unbounded.
    """
    sp = s + 1.0
    if outcome.kind == "marginal":
        return n_j if rate >= 0.0 else math.inf
    if outcome.kind == "noclick" or (outcome.kind == "photon" and outcome.m == 0):
        if 2.0 / sp + rate <= 0.0:
            return math.inf
        return n_j * 2.0 / sp
    if outcome.kind == "click":
        if rate < 0.0:
            return math.inf
        b_coef = 2.0 / sp
        candidates = [abs(1.0 - b_coef)]
        if rate == 0.0:
            candidates.append(1.0)
        else:
            arg = b_coef * (b_coef + rate) / rate
            if arg > 1.0:
                b_star = (sp / 2.0) * math.log(arg)
                candidates.append(
                    (1.0 - b_coef * math.exp(-2.0 * b_star / sp))
                    * math.exp(-rate * b_star)
                )
        return n_j * max(candidates)
    # photon number m >= 1
    m = outcome.m
    c = 2.0 / sp + rate
    if c <= 0.0:
        return math.inf
    if m == 1:
        a_coef = 2.0 * (s * s - 1.0)
        candidates = [abs(a_coef) / sp**3]
        b_star = 1.0 / c - a_coef / 8.0
        if b_star > 0.0:
            candidates.append(
                (8.0 * b_star + a_coef) * math.exp(-c * b_star) / sp**3
            )
        return n_j * max(candidates)
    return n_j * numeric_sup(shifted_factor_profile(outcome, s, rate))
