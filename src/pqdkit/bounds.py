"""Analytic sandwich bounds on the matrix functions reachable through
Gaussian circuits.

Additive-error budgets are not computed here: a matrix estimate's budget is
the bound of the sampler it ran (``estimator.budget_factors``), which at
s_max is at most the paper's closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SchemaError
from .linear_optics import squeezed_thermal_k


@dataclass(frozen=True)
class BoundReport:
    lower: Optional[float]
    upper: Optional[float]
    family: str
    formula_id: str


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------


def _sandwich(lower_modes, upper_modes, family: str, formula_id: str) -> BoundReport:
    """The bounds, products of per-mode lower and upper factors."""
    return BoundReport(float(np.prod(lower_modes)), float(np.prod(upper_modes)), family, formula_id)


def permanent_bounds(lambdas) -> BoundReport:
    """Per(B) sandwich: lam_min^2/lam_i from below, lam_max^2/lam_i from above.

    The upper bound is the widest-input relaxation evaluated at unit
    ordering, the only ordering at which that relaxation stays finite when
    the smallest eigenvalue is attained; it mirrors the lower bound.
    """
    lam = np.asarray(lambdas, dtype=float)
    lam_max = float(np.max(lam))
    lam_min = float(np.min(lam))
    if lam_min <= 0.0:
        raise SchemaError("/lambdas", "permanent bounds need strictly positive eigenvalues")
    return _sandwich(lam_min**2 / lam, lam_max**2 / lam, "permanent", "bounds.permanent")


def _squeezed_thermal_ratio(n: float, r_list) -> tuple[np.ndarray, float]:
    """sqrt(k+_i / k-_i) of the squeezed-thermal family and r_max, once
    a_min = (2n + 1) e^{-2 r_max} >= 1 and every k-_i > 0 are checked."""
    r_list = np.asarray(r_list, dtype=float)
    r_max = float(np.max(r_list))
    a_min = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    if a_min < 1.0:
        raise SchemaError("/r-list", f"a_min = {a_min:.6f} < 1; bound derivation does not apply")
    k_plus, k_minus = squeezed_thermal_k(n, r_list)
    if np.min(k_minus) <= 0.0:
        raise SchemaError("/r-list", "degenerate boundary a_min = 1 with r_i = r_max; bound diverges")
    return np.sqrt(k_plus / k_minus), r_max


def hafnian_bounds(n: float, r_list) -> BoundReport:
    """Haf(A) sandwich for the squeezed-thermal block family (a_min >= 1)."""
    ratio, r_max = _squeezed_thermal_ratio(n, r_list)
    u = 2.0 * n + 1.0
    low_pref = ((math.exp(2.0 * r_max) - u) / (math.exp(2.0 * r_max) + u)) ** 2
    up_pref = (
        (math.exp(r_max) * n + math.sinh(r_max))
        / ((1.0 + n) * math.cosh(r_max) + n * math.sinh(r_max))
    ) ** 2
    return _sandwich(low_pref * ratio, up_pref * ratio, "hafnian_block_a", "bounds.hafnian.block_a")


def torontonian_bounds(
    family: str, lambdas=None, n: Optional[float] = None, r_list=None
) -> BoundReport:
    """Torontonian sandwich: thermal closed forms or the squeezed-thermal
    family under a_min >= 1.  The pure-squeezed family has no known bounds."""
    if family == "squeezed":
        raise ValueError("no bounds are known for the pure-squeezed family")
    if family == "thermal":
        lam = np.asarray(lambdas, dtype=float)
        lam_max = float(np.max(lam))
        lam_min = float(np.min(lam))
        if lam_min <= 0.0:
            raise SchemaError("/lambdas", "thermal Torontonian bounds need lambda > 0")
        if lam_max >= 1.0:  # each mode's factor divides by 1 - lambda
            raise SchemaError("/lambdas", f"thermal Torontonian bounds need lambda < 1, got {lam_max}")
        lower_modes = lam_min**2 / (lam * (1.0 - lam_min))
        upper_modes = lam_max**2 / (lam * (1.0 - lam_max))
        return _sandwich(lower_modes, upper_modes, "torontonian_thermal", "bounds.torontonian.thermal")
    if family == "squeezed_thermal":
        ratio, r_max = _squeezed_thermal_ratio(n, r_list)
        u = 2.0 * n + 1.0
        low_pref = (
            math.exp(-2.0 * r_max)
            * (u - math.exp(2.0 * r_max)) ** 2
            / (2.0 * (1.0 + math.exp(2.0 * r_max) + 2.0 * n))
        )
        up_pref = (
            math.exp(r_max)
            * (math.exp(r_max) * n + math.sinh(r_max)) ** 2
            / ((1.0 + n) * math.cosh(r_max) + n * math.sinh(r_max))
        )
        return _sandwich(low_pref * ratio, up_pref * ratio, "torontonian_block_a", "bounds.torontonian.block_a")
    raise ValueError(f"unknown Torontonian bound family {family!r}")
