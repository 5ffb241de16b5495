"""Per-mode shifted-factor machinery: input exponents, normalizations, and
measurement-factor suprema.

A measurement factor is f(beta) = N * piW(|beta|^2) * exp(-rate*|beta|^2)
where ``rate`` is the raw Gaussian shift (positive = forward, negative =
reverse) and N the normalization constant of the paired input factor.  All
profiles are radial, so a supremum is a maximum over b = |beta|^2 >= 0,
taken exactly at b = 0 and at the stationary points: closed forms for the
vacuum, single-photon and threshold factors, the real roots of a degree-m
Laguerre series for m >= 2 photons.  No grid is searched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShiftOutOfRange, SingularOrdering
from .phase_space import MeasurementOutcome, ModeCovariance, laguerre

FREEZE_TOL = 1e-12


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


def measurement_sup(
    outcome: MeasurementOutcome, s: float, rate: float, n_j: float = 1.0
) -> float:
    """sup_b |f(b)| of the shifted measurement factor.

    Uses the analytic stationary points of the vacuum, single-photon, and
    threshold families and the exact stationary points of higher photon
    numbers.  Returns inf when a reverse shift makes the factor unbounded.
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
    # photon number m >= 1: f(b) = (2/sp) ((s-1)/sp)^m L_m(k b) exp(-c b)
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
    # f'(b) = 0 where k L_m'(x) = c L_m(x), x = k b; L_m' = -(L_0 + ... +
    # L_{m-1}) in the Laguerre basis.  Real parts of every root are probed
    # (a complex root's is a harmless extra point), f -> 0 as b -> inf.
    k = 4.0 / (1.0 - s * s)
    x = np.polynomial.laguerre.lagroots([-k] * m + [-c]).real
    x = np.concatenate(([0.0], x[x / k >= 0.0]))
    peak = np.max(np.abs(laguerre(m, x) * np.exp(-c * x / k)))
    return n_j * (2.0 / sp) * abs((s - 1.0) / sp) ** m * float(peak)
