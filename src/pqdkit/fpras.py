"""Log-concavity certificates, the paper's closed-form conditions, and a
desk-scale multiplicative-error estimator.

The certificates implement two sufficient conditions: a quadratic-prefactor
family (a + b*q(x))*exp(-c*q(x)) is log-concave when c*a >= b, and a
threshold family (a - b*exp(-b*q(x)))*exp(-c*q(x)) when a >= (b^2 + 2bc)/c.
The quadratic condition is tight.  The threshold condition is conservative:
an actual violating line exists only when a < b + b^2/c (the supremum of the
line-restricted second derivative is attained at the origin), so
certificates in the conservative band report no witness.  A factor that is
not positive at the origin fails with that margin (a, or a - b).

Every (a, b, c) comes from ``RadialFactor.certificate_form`` of a circuit's
shifted factors (``circuit_certificates``).  A closed-form condition is
checked on the circuit of extreme modes it is stated for
(``CONDITION_CIRCUITS``, ``check_condition``), so a condition and the
certificates ``estimate_multiplicative`` requires cannot disagree.

The multiplicative estimator importance-samples the circuit's integrand
with the sampler an additive estimate of the same circuit builds: the
folded proposal at the searched shift (``estimator.resolve_gamma``), whose
weights its ``bound`` bounds.  The estimator's one sampling loop,
``estimator.running_sums``, draws and checks them, and the stopping rule
is checked on its sums after every chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from . import estimator as est
from ._blas import one_blas_thread
from .errors import ConditionFailure, SchemaError
from .linear_optics import CircuitSpec, identity_interferometer
from .phase_space import CLICK, photon, pi_w_profile

ESS_PER_EPS_SQ = 50.0
# EstimatorConfig fields of the additive estimator only, each with its CLI
# flag's pointer, in flag order; the multiplicative one reads ``seed`` and
# ``threads`` and rejects these unless they keep their defaults
ADDITIVE_FIELDS = {"n_samples": "/samples", "s": "/s", "gamma": "/gamma"}
SAMPLE_CAP = 10**8


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

    A factor that is not positive at the origin (a <= 0) fails with margin
    a.  An infinite c (the full shift of equal input variances) gives the
    limit margin +inf.  A margin down to -QUADRATIC_MARGIN_RTOL * (c*a + b)
    is accepted: that covers only the rounding of coefficients computed from
    a rescaled spectrum (a permanent spectrum ratio of exactly 2 lands at
    margin -1.8e-15), not a real violation.
    """
    if b < 0.0 or c < 0.0:
        raise ValueError("need b >= 0 and c >= 0 for the quadratic family")
    if a <= 0.0:
        return LogConcavityCertificate(False, "QuadraticFactor", a)
    margin = c * a - b
    if margin >= -QUADRATIC_MARGIN_RTOL * (c * a + b):
        return LogConcavityCertificate(True, "QuadraticFactor", margin)
    gpp = 2.0 * b / a - 2.0 * c  # along the line through the origin
    return LogConcavityCertificate(False, "QuadraticFactor", margin, ("offset", 0.0, gpp))


def check_threshold_factor(a: float, b: float, c: float) -> LogConcavityCertificate:
    """Certificate for (a - b*exp(-b*q))*exp(-c*q): holds iff a >= (b^2+2bc)/c.

    A factor that is not positive at the origin (a <= b) fails with margin
    a - b; an infinite c gives the limit margin a - 2b.  Sufficient only: a
    violating line exists exactly when a < b + b^2/c, in which case the
    witness is the line through the origin.
    """
    if b < 0.0 or c <= 0.0:
        raise ValueError("need b >= 0 and c > 0 for the threshold family")
    if a <= b:
        return LogConcavityCertificate(False, "ThresholdFactor", a - b)
    margin = a - 2.0 * b if c == math.inf else a - (b * b + 2.0 * b * c) / c
    witness = None
    if a < b + b * b / c:
        gpp = 2.0 * b * b / (a - b) - 2.0 * c
        witness = ("offset", 0.0, gpp)
    return LogConcavityCertificate(margin >= 0.0, "ThresholdFactor", margin, witness)


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
        except SchemaError as err:  # s = 1: a photon factor vanishes at b = 0
            raise ConditionFailure(f"{err.message}; it vanishes at unit classicality") from err
        certs.append(_CHECKS[family](*coefs))
    return certs


# ---------------------------------------------------------------------------
# condition families, each checked on the extreme-mode circuit it is stated for
# ---------------------------------------------------------------------------


def fpras_condition_permanent(lambdas) -> bool:
    """True iff lambda_max / lambda_min <= 2 (strictly positive spectrum)."""
    lam = np.asarray(lambdas, dtype=float)
    if np.min(lam) <= 0.0:
        raise SchemaError("/lambdas", "a zero eigenvalue puts the permanent outside this scheme")
    return float(np.max(lam)) / float(np.min(lam)) <= 2.0


def fpras_condition_hafnian(n: float, r_max: float) -> bool:
    """Shared-occupation threshold for the squeezed-thermal hafnian family."""
    threshold = 0.25 * (
        6.0 * math.sinh(2.0 * r_max)
        + math.sqrt(18.0 * math.cosh(4.0 * r_max) - 14.0)
        - 2.0
    )
    return n >= threshold


def _check_thermal_pair(lambda_min: float, lambda_max: float) -> None:
    if not (0.0 <= lambda_min <= lambda_max < 1.0):
        pointer = "/lambda-max" if lambda_min >= 0.0 else "/lambda-min"
        raise SchemaError(pointer, "need 0 <= lambda_min <= lambda_max < 1")


def fpras_condition_tor_thermal(lambda_min: float, lambda_max: float) -> bool:
    _check_thermal_pair(lambda_min, lambda_max)
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
        raise SchemaError("/eta", "eta must lie in [0, 1) for a finite noise threshold")
    return (
        math.exp(-r_max) * eta * math.sinh(r_max)
        + math.sqrt(1.0 + eta * math.sinh(2.0 * r_max))
    ) / (1.0 - eta)


def fpras_condition_gbs_noise(eta: float, r_max: float, n_th: float) -> bool:
    return n_th >= gbs_noise_threshold(eta, r_max)


def _circuit(modes, outcome, eta: float = 1.0, n_th: float = 0.0) -> CircuitSpec:
    """Modes ``(r, n)`` on the identity interferometer, each measured by
    ``outcome``."""
    m = len(modes)
    return CircuitSpec(tuple(modes), identity_interferometer(m), (outcome,) * m, eta, n_th)


def _thermal_pair(lambda_min: float, lambda_max: float, outcome) -> CircuitSpec:
    """Thermal modes of eigenvalues lambda_min and lambda_max, occupation
    lambda / (1 - lambda); a permanent's spectrum must first be rescaled
    into (0, 1) as ``embed_permanent`` does."""
    _check_thermal_pair(lambda_min, lambda_max)
    return _circuit([(0.0, x / (1.0 - x)) for x in (lambda_min, lambda_max)], outcome)


def _noisy_mode(eta: float, r_max: float, n_th: float) -> CircuitSpec:
    """One squeezed vacuum through a transmissivity-eta channel; at eta = 0
    only the environment's thermal mode is left."""
    if eta == 0.0:
        return _circuit([(0.0, n_th)], CLICK)
    return _circuit([(r_max, 0.0)], CLICK, eta, n_th)


# condition family -> (closed-form condition, the circuit of extreme modes it
# is stated for); a family's certificate coefficients are that circuit's
CONDITION_CIRCUITS = {
    "permanent": (
        fpras_condition_permanent,
        lambda lambdas: _thermal_pair(min(lambdas), max(lambdas), photon(1)),
    ),
    "hafnian": (fpras_condition_hafnian, lambda n, r_max: _circuit([(r_max, n)], photon(1))),
    "tor-thermal": (
        fpras_condition_tor_thermal,
        lambda lambda_min, lambda_max: _thermal_pair(lambda_min, lambda_max, CLICK),
    ),
    "tor-squeezed-thermal": (fpras_condition_tor_st, lambda n, r_max: _circuit([(r_max, n)], CLICK)),
    "gbs-noise": (fpras_condition_gbs_noise, _noisy_mode),
}


def check_condition(family: str, *params) -> tuple[bool, LogConcavityCertificate]:
    """A condition family's closed form at ``params`` and the certificate of
    its extreme-mode circuit, the one ``estimate_multiplicative`` requires
    (every measured mode of that circuit has the same one)."""
    condition, circuit = CONDITION_CIRCUITS[family]
    return condition(*params), circuit_certificates(circuit(*params))[0]


# ---------------------------------------------------------------------------
# multiplicative-error estimation
# ---------------------------------------------------------------------------


@dataclass
class MultiplicativeEstimate:
    value: float
    rel_radius: float
    n_used: int
    ess: float

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
    config: est.EstimatorConfig = est.EstimatorConfig(),
) -> MultiplicativeEstimate:
    """Relative-error estimate of the circuit probability for certified
    log-concave integrands.

    Proposal: the folded sampler of ``estimator.estimate_probability`` at
    its searched shift, ``build_folded_sampler(setup, resolve_gamma(setup))``;
    the importance weight is exp(log_prefactor) times the sampler's weight,
    which the sampler's ``bound`` bounds (a larger one raises
    ``ConditionFailure``), so the sums stay in linear space.  The rule
    ESS >= ESS_PER_EPS_SQ / epsilon^2 and z * SE / mean <= epsilon is
    checked on the running sums of ``estimator.running_sums`` after every
    chunk from the ESS target on, and the estimate stops at the first chunk
    that meets it; ``config.threads`` changes no result.  The estimator
    sets its own sample count, ordering and shift: a config that sets one
    (``ADDITIVE_FIELDS``) raises ``SchemaError`` at the first one's CLI
    pointer, and one whose epsilon or delta is neither the argument nor the
    default raises it at ``/epsilon`` or ``/delta``.
    """
    checked = est.EstimatorConfig(epsilon=epsilon, delta=delta)  # both must lie in (0, 1)
    for name, pointer in ADDITIVE_FIELDS.items():
        if getattr(config, name) != getattr(checked, name):
            raise SchemaError(pointer, "is not used by --multiplicative")
    for name in ("epsilon", "delta"):
        value, argument = getattr(config, name), getattr(checked, name)
        if value not in (argument, getattr(est.EstimatorConfig, name)):
            raise SchemaError(f"/{name}", f"the config's {value} contradicts the argument {argument}")
    for cert in circuit_certificates(circuit):
        if not cert.holds:
            raise ConditionFailure(
                f"certificate failed with margin {cert.margin:.3e} ({cert.family})"
            )
    if all(out.kind == "marginal" for out in circuit.pattern):
        return MultiplicativeEstimate(1.0, 0.0, 0, math.inf)

    setup = est.Setup(circuit)
    with one_blas_thread():  # one thread-count switch for the search and the build
        sampler = est.build_folded_sampler(setup, est.resolve_gamma(setup))
    z_score = NormalDist().inv_cdf(1.0 - delta / 2.0)
    ess_target = ESS_PER_EPS_SQ / epsilon**2
    sums = est.running_sums(sampler, config.seed, config.threads, math.ceil(ess_target), SAMPLE_CAP)
    for n_used, s1, s2 in sums:  # sums past the stopping chunk are discarded
        if n_used < ess_target:  # ESS <= n (Cauchy-Schwarz): no stop yet
            continue
        if not math.isfinite(s2):
            raise FloatingPointError(f"importance weights overflowed (sum of squares {s2})")
        ess = s1 * s1 / s2 if s2 > 0.0 else 0.0
        mean = s1 / n_used
        var = max(s2 / n_used - mean * mean, 0.0)
        rel_se = math.sqrt(var / n_used) / mean if mean > 0.0 else math.inf
        if ess >= ess_target and z_score * rel_se <= epsilon:
            value = math.exp(sampler.log_prefactor) * mean
            return MultiplicativeEstimate(value, z_score * rel_se, n_used, ess)
    raise ConditionFailure(
        f"effective sample size target {ess_target:.0f} unmet at the {SAMPLE_CAP} cap"
    )
