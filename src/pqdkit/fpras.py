"""Log-concavity certificates and a desk-scale multiplicative-error
estimator.

The certificates implement two sufficient conditions: a quadratic-prefactor
family (a + b*q(x))*exp(-c*q(x)) is log-concave when c*a >= b, and a
threshold family (a - b*exp(-b*q(x)))*exp(-c*q(x)) when a >= (b^2 + 2bc)/c.
The quadratic condition is tight.  The threshold condition is conservative:
an actual violating line exists only when a < b + b^2/c (the supremum of the
line-restricted second derivative is attained at the origin), so
certificates in the conservative band report no witness.

The multiplicative estimator importance-samples the full 2M-dimensional
integrand with its Laplace Gaussian at the origin, the mode of every
certified (log-concave, centered) integrand.  The proposal is the additive
sampler's Laplace fold, whose precision is the closed-form negative
log-Hessian there, so no derivative is taken numerically; the additive
reduction ``estimator.chunk_sums`` draws and checks its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    NegativeCoefficient,
    NonConvergent,
    NonPositiveFactor,
    NotLogConcave,
    NotPositiveDefinite,
    OrderingOutOfRange,
    TooLarge,
    ZeroEigenvalue,
)
from .estimator import (
    FORWARD,
    S_MAX_MARGIN,
    EstimatorConfig,
    build_folded_sampler,
    chunk_sums,
)
from .linear_optics import CircuitSpec
from .phase_space import pi_w_profile

ESS_PER_EPS_SQ = 50.0
# EstimatorConfig fields of the additive estimator only; the multiplicative
# one reads ``seed`` and rejects these unless they keep their defaults
ADDITIVE_FIELDS = ("n_samples", "s", "gamma_mode", "chunks")
SAMPLE_CAP = 10**8
CHUNK = 1 << 12  # samples per chunk stream


@dataclass(frozen=True)
class LogConcavityCertificate:
    holds: bool
    family: str  # "QuadraticFactor" | "ThresholdFactor"
    margin: float
    witness_line: Optional[tuple] = None  # (offset q0, second derivative)


# relative rounding allowance of the quadratic certificate's margin c*a - b
QUADRATIC_MARGIN_RTOL = 1e-12


def check_quadratic_factor(a: float, b: float, c: float) -> LogConcavityCertificate:
    """Certificate for (a + b*q)*exp(-c*q): holds iff c*a >= b (tight).

    A margin down to -QUADRATIC_MARGIN_RTOL * (c*a + b) is accepted: that
    covers only the rounding of coefficients computed from a rescaled
    spectrum (a permanent spectrum ratio of exactly 2 lands at margin
    -1.8e-15), not a real violation.
    """
    if a < 0.0 or b < 0.0 or c < 0.0:
        raise NegativeCoefficient("coefficients must be nonnegative")
    margin = c * a - b
    if margin >= -QUADRATIC_MARGIN_RTOL * (c * a + b):
        return LogConcavityCertificate(True, "QuadraticFactor", margin)
    if a > 0.0:
        q0 = 0.0
    else:
        # log(b*q) is convex near any positive offset smaller than 1/c
        q0 = 0.25 / c if c > 0.0 else 0.25
    gpp = 2.0 * b / (a + b * q0) - 2.0 * c
    return LogConcavityCertificate(False, "QuadraticFactor", margin, ("offset", q0, gpp))


def check_threshold_factor(a: float, b: float, c: float) -> LogConcavityCertificate:
    """Certificate for (a - b*exp(-b*q))*exp(-c*q): holds iff a >= (b^2+2bc)/c.

    Sufficient only; a violating line exists exactly when a < b + b^2/c, in
    which case the witness is the line through the origin.
    """
    if a < 0.0 or b < 0.0 or c < 0.0:
        raise NegativeCoefficient("coefficients must be nonnegative")
    if c <= 0.0:
        raise NegativeCoefficient("c must be positive for the threshold family")
    if a <= b:
        raise NonPositiveFactor(f"need a > b for a positive factor, got a={a}, b={b}")
    margin = a - (b * b + 2.0 * b * c) / c
    witness = None
    if a < b + b * b / c:
        gpp = 2.0 * b * b / (a - b) - 2.0 * c
        witness = ("offset", 0.0, gpp)
    return LogConcavityCertificate(margin >= 0.0, "ThresholdFactor", margin, witness)


# ---------------------------------------------------------------------------
# coefficient extraction per condition family
# ---------------------------------------------------------------------------


def permanent_coefficients(lambda_min: float, lambda_max: float):
    """(a, b, c) of the single-photon factor for thermal inputs at full
    forward shift and s at the classicality; the spectrum must be rescaled
    into (0, 1) as ``embed_permanent`` does."""
    if not (0.0 < lambda_min <= lambda_max < 1.0):
        raise ValueError("need 0 < lambda_min <= lambda_max < 1")
    n_min = lambda_min / (1.0 - lambda_min)
    n_max = lambda_max / (1.0 - lambda_max)
    s = 2.0 * n_min + 1.0
    gap = n_max - n_min
    c = 1.0 / (n_min + 1.0) + (math.inf if gap <= 0.0 else 1.0 / gap)
    return 2.0 * (s * s - 1.0), 8.0, c


def hafnian_st_coefficients(n: float, r_max: float):
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    a_max = (2.0 * n + 1.0) * math.exp(2.0 * r_max)
    gap = a_max - s
    c = 2.0 / (s + 1.0) + (math.inf if gap <= 0.0 else 2.0 / gap)
    return 2.0 * (s * s - 1.0), 8.0, c


def tor_thermal_coefficients(lambda_min: float, lambda_max: float):
    n_min = lambda_min / (1.0 - lambda_min)
    n_max = lambda_max / (1.0 - lambda_max)
    s = 2.0 * n_min + 1.0
    gap = n_max - n_min
    c = math.inf if gap <= 0.0 else 1.0 / gap
    return 1.0, 2.0 / (s + 1.0), c


def tor_st_coefficients(n: float, r_max: float):
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    a_max = (2.0 * n + 1.0) * math.exp(2.0 * r_max)
    gap = a_max - s
    c = math.inf if gap <= 0.0 else 2.0 / gap
    return 1.0, 2.0 / (s + 1.0), c


def gbs_noise_coefficients(eta: float, r_max: float, n_th: float):
    env = (1.0 - eta) * (2.0 * n_th + 1.0)
    s = eta * math.exp(-2.0 * r_max) + env
    a_max = eta * math.exp(2.0 * r_max) + env
    gap = a_max - s
    c = math.inf if gap <= 0.0 else 2.0 / gap
    return 1.0, 2.0 / (s + 1.0), c


def _threshold_condition(a: float, b: float, c: float) -> bool:
    if a <= b:
        return False
    if math.isinf(c):
        return a >= 2.0 * b
    return a >= (b * b + 2.0 * b * c) / c


def _quadratic_condition(a: float, b: float, c: float) -> bool:
    if a <= 0.0:
        return False
    if math.isinf(c):
        return True
    return c * a >= b


def fpras_condition_permanent(lambdas) -> bool:
    """True iff lambda_max / lambda_min <= 2 (strictly positive spectrum)."""
    lam = np.asarray(lambdas, dtype=float)
    if np.min(lam) <= 0.0:
        raise ZeroEigenvalue("a zero eigenvalue puts the permanent outside this scheme")
    return float(np.max(lam)) / float(np.min(lam)) <= 2.0


def fpras_condition_hafnian(n: float, r_max: float) -> bool:
    """Shared-occupation threshold for the squeezed-thermal hafnian family."""
    threshold = 0.25 * (
        6.0 * math.sinh(2.0 * r_max)
        + math.sqrt(18.0 * math.cosh(4.0 * r_max) - 14.0)
        - 2.0
    )
    return n >= threshold


def fpras_condition_tor_thermal(lambda_min: float, lambda_max: float) -> bool:
    if not (0.0 <= lambda_min <= lambda_max < 1.0):
        raise ValueError("need 0 <= lambda_min <= lambda_max < 1")
    if lambda_min < 0.5:
        return False
    return lambda_max <= (-lambda_min**2 + 3.0 * lambda_min - 1.0) / lambda_min


def fpras_condition_tor_st(n: float, r_max: float) -> bool:
    threshold = 0.5 * (
        math.exp(2.0 * r_max) * math.sqrt(math.exp(8.0 * r_max) + 3.0)
        + math.exp(6.0 * r_max)
        - 1.0
    )
    return n >= threshold


def gbs_noise_threshold(eta: float, r_max: float) -> float:
    """Smallest environment occupation enabling multiplicative estimation."""
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must lie in [0, 1) for a finite noise threshold")
    return (
        math.exp(-r_max) * eta * math.sinh(r_max)
        + math.sqrt(1.0 + eta * math.sinh(2.0 * r_max))
    ) / (1.0 - eta)


def fpras_condition_gbs_noise(eta: float, r_max: float, n_th: float) -> bool:
    return n_th >= gbs_noise_threshold(eta, r_max)


# ---------------------------------------------------------------------------
# multiplicative-error estimation
# ---------------------------------------------------------------------------


_CHECKS = {"QuadraticFactor": check_quadratic_factor, "ThresholdFactor": check_threshold_factor}


def circuit_certificates(circuit: CircuitSpec) -> list[LogConcavityCertificate]:
    """Per-mode log-concavity certificates at full forward shift and the
    circuit's exact classicality."""
    s = circuit.s_max
    gap = circuit.a_max - s
    rate = math.inf if gap <= 0.0 else 2.0 / gap
    certs = []
    for out in circuit.pattern:
        if out.is_gaussian:
            certs.append(LogConcavityCertificate(True, "QuadraticFactor", math.inf))
            continue
        try:
            family, coefs = pi_w_profile(out, s).certificate_form(rate)
        except OrderingOutOfRange as err:  # s = 1: a photon factor vanishes at b = 0
            raise NotLogConcave(f"{err}; it vanishes at unit classicality") from err
        certs.append(_CHECKS[family](*coefs))
    return certs


@dataclass
class MultiplicativeEstimate:
    value: float
    rel_radius: float
    n_used: int
    ess: float
    certificates: list

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "rel_radius": self.rel_radius,
            "n_used": self.n_used,
            "ess": self.ess,
        }


def estimate_multiplicative(
    circuit: CircuitSpec,
    epsilon: float,
    delta: float,
    config: EstimatorConfig = EstimatorConfig(),
    threads: Optional[int] = None,
) -> MultiplicativeEstimate:
    """Relative-error estimate of the circuit probability for certified
    log-concave integrands.

    Proposal: the Laplace Gaussian at the origin, the integrand's mode
    (centered inputs make the log-integrand even, the certificates make it
    concave), drawn by ``build_folded_sampler(..., laplace=True)``; the
    importance weight is exp(log_prefactor) times the sampler's weight,
    which log-concavity bounds by its value w(0) at the origin (a larger one
    raises ``BoundViolation``), so the sums stay in linear space.  Doubling
    batches of ``CHUNK``-sample chunks go through ``estimator.chunk_sums``
    on ``threads`` workers; after each that can reach the ESS target,
    stopping is on ESS and the normal-theory relative radius.
    """
    fixed = [
        f.name
        for f in fields(config)
        if f.name in ADDITIVE_FIELDS and getattr(config, f.name) != f.default
    ]
    if fixed:
        raise ValueError(f"the multiplicative estimator sets {', '.join(fixed)} itself")
    if circuit.m > 12:
        raise TooLarge("multiplicative estimation limited to 12 modes at desk scale")
    certs = circuit_certificates(circuit)
    for cert in certs:
        if not cert.holds:
            raise NotLogConcave(
                f"certificate failed with margin {cert.margin:.3e} ({cert.family})"
            )
    if all(out.kind == "marginal" for out in circuit.pattern):
        return MultiplicativeEstimate(1.0, 0.0, 0, math.inf, certs)

    try:
        sampler = build_folded_sampler(
            circuit, circuit.s_max - S_MAX_MARGIN, 1.0 - 1e-9, FORWARD, laplace=True
        )
    except NotPositiveDefinite as exc:
        # certified but not strictly log-concave: on the condition's boundary
        # (a permanent spectrum ratio of exactly 2) the log-Hessian at the
        # origin is singular, so no Laplace Gaussian exists
        raise NotLogConcave(
            "the log-integrand's Hessian at the origin is singular: the circuit sits "
            "on the boundary of its log-concavity condition"
        ) from exc
    w_origin = sampler.scale * math.prod(float(p(0.0)) for p in sampler.polys if p is not None)
    z_score = NormalDist().inv_cdf(1.0 - delta / 2.0)
    ess_target = ESS_PER_EPS_SQ / epsilon**2
    s1 = s2 = 0.0  # sums of weights and of squared weights
    n_used = n_check = 0
    batch = CHUNK
    while n_check < SAMPLE_CAP:
        n_check += batch
        batch = min(batch * 2, 1 << 20, SAMPLE_CAP - n_check)
        if n_check < ess_target:
            continue  # ESS <= n (Cauchy-Schwarz), so the rule cannot stop yet
        sizes = [min(CHUNK, n_check - n) for n in range(n_used, n_check, CHUNK)]
        sum_w, sum_sq = chunk_sums(sampler, config.seed, sizes, n_used // CHUNK, threads, w_origin)
        s1, s2 = sum(sum_w.tolist(), s1), sum(sum_sq.tolist(), s2)  # in chunk order
        n_used = n_check
        if not math.isfinite(s2):
            raise FloatingPointError(f"importance weights overflowed (sum of squares {s2})")
        ess = s1 * s1 / s2 if s2 > 0.0 else 0.0
        mean = s1 / n_used
        var = max(s2 / n_used - mean * mean, 0.0)
        rel_se = math.sqrt(var / n_used) / mean if mean > 0.0 else math.inf
        if ess >= ess_target and z_score * rel_se <= epsilon:
            value = math.exp(sampler.log_prefactor) * mean
            return MultiplicativeEstimate(value, z_score * rel_se, n_used, ess, certs)
    raise NonConvergent(
        f"effective sample size target {ess_target:.0f} unmet at the {SAMPLE_CAP} cap"
    )
