"""Closed-form s-parameterized quasiprobability distributions.

Everything here is a pure function of its arguments.  The conventions are
dimensionless quadrature variances ``a_plus = 2*V_xx`` and ``a_minus =
2*V_yy`` so that the vacuum has ``a_plus == a_minus == 1``; ordering ``s``
gives the Glauber-Sudarshan P, Wigner, and Husimi Q distributions at
``s = 1, 0, -1``.

Measurement PQDs are radial, so each is written once over b = |beta|^2 as
a ``RadialFactor`` const * poly(b) * exp(-decay * b) (``pi_w_profile``),
with its log-slope at the origin (``pi_w_log_slope``) beside it; the
samplers add every weighted mode's decay into one exp per sample.  The
Gaussian-factor shift that moves ``exp(rate*|alpha|^2)`` from the input to
the measurement side lives in ``factors`` (per-mode exponents,
normalizations, suprema) and ``estimator._rate`` (normalized gamma in
[0, 1) plus a direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DomainError, OrderingOutOfRange, SingularOrdering

_PHYS_TOL = 1e-12


@dataclass(frozen=True)
class ModeCovariance:
    """Diagonal single-mode covariance in dimensionless form.

    ``a_plus``/``a_minus`` are twice the quadrature variances; physicality
    requires ``a_plus >= a_minus > 0`` and ``a_plus * a_minus >= 1``.
    """

    a_plus: float
    a_minus: float

    def __post_init__(self):
        if not (self.a_plus >= self.a_minus > 0.0):
            raise ValueError(
                f"need a_plus >= a_minus > 0, got ({self.a_plus}, {self.a_minus})"
            )
        if self.a_plus * self.a_minus < 1.0 - 1e-10:
            raise ValueError(
                f"uncertainty violation: a_plus*a_minus = {self.a_plus * self.a_minus}"
            )


VACUUM = ModeCovariance(1.0, 1.0)


def squeezed_thermal_covariance(r: float, n: float) -> ModeCovariance:
    """Covariance of a squeezed thermal state with mean photons ``n``."""
    u = 2.0 * n + 1.0
    return ModeCovariance(u * math.exp(2.0 * r), u * math.exp(-2.0 * r))


def lossy_covariance(r: float, n: float, eta: float, n_th: float) -> ModeCovariance:
    """Squeezed thermal state sent through a transmissivity-``eta`` channel
    whose environment carries ``n_th`` mean thermal photons."""
    u = 2.0 * n + 1.0
    env = (1.0 - eta) * (2.0 * n_th + 1.0)
    return ModeCovariance(
        eta * u * math.exp(2.0 * r) + env, eta * u * math.exp(-2.0 * r) + env
    )


@dataclass(frozen=True)
class MeasurementOutcome:
    """Per-mode detector outcome tag."""

    kind: str  # "photon" | "click" | "noclick" | "marginal"
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("photon", "click", "noclick", "marginal"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if self.kind == "photon" and (self.m < 0 or self.m != int(self.m)):
            raise ValueError("photon count must be a nonnegative integer")

    @property
    def is_gaussian(self) -> bool:
        """True when the measurement factor is Gaussian (analytically
        integrable): vacuum projection, no-click, or a marginalized mode."""
        return self.kind in ("noclick", "marginal") or (
            self.kind == "photon" and self.m == 0
        )


def photon(m: int) -> MeasurementOutcome:
    return MeasurementOutcome("photon", m)


CLICK = MeasurementOutcome("click")
NOCLICK = MeasurementOutcome("noclick")
MARGINAL = MeasurementOutcome("marginal")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, ``w*exp(w) = x``.

    Halley iteration from a log-based starting point; residual below 1e-14
    over the whole branch domain ``x >= -1/e``.
    """
    if x < -_INV_E:
        raise DomainError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x < -_INV_E + 1e-290:
        return -1.0
    # starting guess
    if x < 1.0:
        # series around 0 is adequate here
        w = x * (1.0 - x)
    else:
        lx = math.log(x)
        llx = math.log(lx) if lx > 0 else 0.0
        w = lx - llx
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


W_INV_E = lambert_w0(_INV_E)  # W(1/e) = 0.27846...


def laguerre(m: int, x):
    """Laguerre polynomial L_m(x) by the stable three-term recurrence.

    Accepts scalars or numpy arrays for ``x``.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if m == 0:
        prev = np.ones_like(x)
        return prev if prev.ndim else float(prev)
    prev, cur = 1.0, 1.0 - x
    for k in range(1, m):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
    return cur if cur.ndim else float(cur)


# ---------------------------------------------------------------------------
# state and measurement PQDs
# ---------------------------------------------------------------------------


def classicality(covs: Iterable[ModeCovariance]) -> float:
    """Largest ordering for which every input PQD stays a proper Gaussian."""
    return min(c.a_minus for c in covs)


def spqd_gaussian(cov: ModeCovariance, s: float, alpha: complex) -> float:
    """s-PQD of a centered Gaussian state at phase-space point ``alpha``."""
    ap, am = cov.a_plus - s, cov.a_minus - s
    if am <= _PHYS_TOL:
        raise SingularOrdering(
            f"s = {s} reaches a_minus = {cov.a_minus}; distribution is singular"
        )
    ax, ay = alpha.real, alpha.imag
    return (
        2.0
        / (math.pi * math.sqrt(ap * am))
        * math.exp(-2.0 * ax * ax / ap - 2.0 * ay * ay / am)
    )


@dataclass(frozen=True)
class RadialFactor:
    """pi * W^(-s) of one outcome over b = |beta|^2, written once as
    ``const * poly(b) * exp(-decay * b)``.

    ``poly`` is the Laguerre polynomial L_m(4b/(1 - s^2)) of m >= 1 photons
    and 1 - (2/(s+1)) exp(-2b/(s+1)) for a click, which keeps its own exp;
    it is None (the constant 1) for vacuum, no-click and marginal factors.
    Callable on scalars or arrays of b.
    """

    const: float
    decay: float
    poly: Optional[Callable] = None

    def __call__(self, b):
        b = np.asarray(b, dtype=float)
        out = self.const * np.exp(-self.decay * b)
        return out if self.poly is None else out * self.poly(b)


def pi_w_profile(outcome: MeasurementOutcome, s: float) -> RadialFactor:
    """pi * W^(-s) of the outcome as a function of b = |beta|^2; 1 for a
    marginalized mode.  Orderings outside a factor's range raise
    ``OrderingOutOfRange``: s <= -1, and s = 1 for m >= 1 photons."""
    if outcome.kind == "marginal":
        return RadialFactor(1.0, 0.0)
    if s <= -1.0:
        raise OrderingOutOfRange(f"{outcome.kind} factor needs s > -1, got {s}")
    sp = s + 1.0
    decay = 2.0 / sp
    if outcome.kind == "click":
        return RadialFactor(1.0, 0.0, lambda b: 1.0 - decay * np.exp(-decay * b))
    m = 0 if outcome.kind == "noclick" else outcome.m
    if m == 0:
        return RadialFactor(decay, decay)
    if s == 1.0:
        raise OrderingOutOfRange(f"s = 1 is outside the range of the {m}-photon factor")
    k = 4.0 / (1.0 - s * s)
    return RadialFactor(decay * ((s - 1.0) / sp) ** m, decay, lambda b: laguerre(m, k * b))


def pi_w_log_slope(outcome: MeasurementOutcome, s: float) -> float:
    """d/db log(pi W^(-s))(b) at b = 0 for the profile of ``pi_w_profile``:
    the exponent kappa with pi W(b) ~ pi W(0) * exp(kappa*b) near the origin."""
    if outcome.kind == "marginal":
        return 0.0
    if outcome.kind == "click":
        return 4.0 / (s * s - 1.0)
    m = 0 if outcome.kind == "noclick" else outcome.m
    if m == 0:
        return -2.0 / (s + 1.0)
    # L_m(x) = 1 - m*x + O(x^2) at x = 4b/(1 - s^2)
    return 4.0 * m / (s * s - 1.0) - 2.0 / (s + 1.0)


def pqd_photon_number(m: int, s: float, beta):
    """(-s)-PQD of the photon-number projector ``|m><m|``.

    Not multiplied by pi.  The s = 1 limit is only defined for m = 0 here;
    higher counts at s = 1 are served by the hafnian route instead.
    """
    val = np.asarray(pi_w_profile(photon(m), s)(np.abs(np.asarray(beta)) ** 2) / math.pi)
    return val if val.ndim else float(val)


def pqd_threshold_click(s: float, beta):
    """(-s)-PQD of the click POVM element, already multiplied by pi."""
    val = np.asarray(pi_w_profile(CLICK, s)(np.abs(np.asarray(beta)) ** 2))
    return val if val.ndim else float(val)
