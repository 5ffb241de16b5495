"""Closed-form s-parameterized quasiprobability distributions.

Everything here is a pure function of its arguments.  Ordering ``s`` gives
the Glauber-Sudarshan P, Wigner, and Husimi Q distributions at ``s = 1, 0,
-1``; the Gaussian inputs are described by their quadrature variances
(``linear_optics.CircuitSpec.variances``).

Measurement PQDs are radial, so each is written once over b = |beta|^2 as
a ``RadialFactor`` const * (L_m(k*b) - a*exp(-a*b)) * exp(-decay*b)
(``pi_w_profile``), which also gives its shifted supremum and its
log-concavity certificate form; the samplers add every weighted mode's
decay into one exp per sample.  The Gaussian-factor
shift that moves ``exp(rate*|alpha|^2)`` from the input to the measurement
side lives in ``factors`` (per-mode exponents, normalizations, suprema) and
``estimator._rate`` (the rate of a signed shift gamma in (-1, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConditionFailure, SchemaError


@dataclass(frozen=True)
class MeasurementOutcome:
    """Per-mode detector outcome tag."""

    kind: str  # "photon" | "click" | "noclick" | "marginal"
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("photon", "click", "noclick", "marginal"):
            raise SchemaError("/pattern", f"unknown outcome kind {self.kind!r}")
        if self.kind == "photon" and (self.m < 0 or self.m != int(self.m)):
            raise SchemaError("/pattern", "photon count must be a nonnegative integer")

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


@dataclass(frozen=True)
class RadialFactor:
    """pi * W^(-s) of one outcome over b = |beta|^2, written once as
    ``const * (L_m(k*b) - a*exp(-a*b)) * exp(-decay*b)``: m photons with
    k = 4/(1 - s^2), a = 2/(s+1) for a click (decay 0), and m = k = a = 0
    for vacuum, no-click and marginal factors.  Its value, shifted supremum
    and certificate form derive from these numbers.  Callable on scalars or
    arrays of b.
    """

    const: float
    decay: float
    m: int = 0
    k: float = 0.0
    a: float = 0.0

    def __call__(self, b):
        b = np.asarray(b, dtype=float)
        out = self.const * np.exp(-self.decay * b)
        return out if self.poly is None else out * self.poly(b)

    @property
    def poly(self) -> Optional[Callable]:
        """L_m(k*b) - a*exp(-a*b) as the samplers evaluate it (a click has
        m = 0), or None for the constant 1."""
        m, k, a = self.m, self.k, self.a
        if a:
            return lambda b: 1.0 - a * np.exp(-a * b)
        return (lambda b: laguerre(m, k * b)) if m else None

    def sup(self, rate: float) -> float:
        """sup_b |pi W(b) * exp(-rate*b)| over b >= 0, inf when unbounded
        (c = decay + rate < 0, or c = 0 cancelling a decay).

        The supremum is at b = 0 or at a stationary point: in closed form for
        a click, else where k L_m'(x) = c L_m(x) at x = k*b, with L_m' =
        -(L_0 + ... + L_{m-1}) in the Laguerre basis (none for m = 0, solved
        directly for m = 1).  Real parts of all roots are probed (a complex
        root's is a harmless extra point).
        """
        c = self.decay + rate
        if c < 0.0 or c == 0.0 < self.decay:
            return math.inf
        a = self.a
        if a:  # stationary where exp(a*b) = a*(a + c)/c
            peak = abs(1.0 - a) if c else max(abs(1.0 - a), 1.0)
            arg = a * (a + c) / c if c else 0.0
            if arg > 1.0:
                b_star = math.log(arg) / a
                peak = max(peak, (1.0 - a * math.exp(-a * b_star)) * math.exp(-c * b_star))
            return abs(self.const) * peak
        m, k = self.m, self.k
        peak = 1.0  # L_m(0) at b = 0; stationary points count at b = x/k > 0
        if m == 1:  # degree 1: x = (k + c)/c
            x = (k + c) / c
            if x * k > 0.0:
                peak = max(peak, abs(1.0 - x) * math.exp(-c * x / k))
        elif m > 1:
            x = np.polynomial.laguerre.lagroots([-k] * m + [-c]).real
            x = x[x * k > 0.0]
            peak = float(np.max(np.abs(laguerre(m, x) * np.exp(-c * x / k)), initial=peak))
        return abs(self.const) * peak

    def certificate_form(self, rate: float) -> tuple[str, tuple[float, float, float]]:
        """The log-concavity certificate family of the shifted factor and its
        (a, b, c), up to a positive constant: a click's (1 - b*exp(-b*q)) *
        exp(-c*q) with a = 1 ("ThresholdFactor"), one photon's (a + b*q) *
        exp(-c*q) scaled to b = 8 ("QuadraticFactor").  A factor that is not
        positive at the origin keeps its form; its check fails with the
        positivity margin.  Raises ``ConditionFailure`` for photon counts
        other than one, which no family covers."""
        c = self.decay + rate
        if self.a:
            return "ThresholdFactor", (1.0, self.a, c)
        if self.m != 1:
            raise ConditionFailure(f"no log-concavity certificate for photon count {self.m}")
        return "QuadraticFactor", (-8.0 / self.k, 8.0, c)


def pi_w_profile(outcome: MeasurementOutcome, s: float) -> RadialFactor:
    """pi * W^(-s) of the outcome as a function of b = |beta|^2; 1 for a
    marginalized mode.  Orderings outside a factor's range raise
    ``SchemaError`` at ``/s``: s <= -1, and s = 1 for m >= 1 photons."""
    if outcome.kind == "marginal":
        return RadialFactor(1.0, 0.0)
    if s <= -1.0:
        raise SchemaError("/s", f"{outcome.kind} factor needs s > -1, got {s}")
    sp = s + 1.0
    decay = 2.0 / sp
    if outcome.kind == "click":
        return RadialFactor(1.0, 0.0, a=decay)
    m = 0 if outcome.kind == "noclick" else outcome.m
    if m == 0:
        return RadialFactor(decay, decay)
    if s == 1.0:
        raise SchemaError("/s", f"s = 1 is outside the range of the {m}-photon factor")
    return RadialFactor(decay * ((s - 1.0) / sp) ** m, decay, m, 4.0 / (1.0 - s * s))
