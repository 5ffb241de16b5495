"""Closed-form additive-error budgets and analytic sandwich bounds on the
matrix functions reachable through Gaussian circuits.

Budgets are per-mode products; each per-mode factor is the exact supremum of
the optimally shifted measurement factor multiplied by that mode's share of
the circuit-to-matrix prefactor, so a Hoeffding radius at the optimal shift
never exceeds the reported budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionAminBelowOne, UnsupportedBound, ZeroEigenvalue
from .factors import measurement_sup, mode_lognorm
from .phase_space import (
    CLICK,
    W_INV_E,
    ModeCovariance,
    photon,
    squeezed_thermal_covariance,
)


@dataclass(frozen=True)
class Budget:
    """Per-mode additive-error factors and their product (epsilon excluded)."""

    factors: np.ndarray
    product: float
    formula_id: str


@dataclass(frozen=True)
class BoundReport:
    lower: Optional[float]
    upper: Optional[float]
    family: str
    formula_id: str
    lower_factors: Optional[np.ndarray] = None
    upper_factors: Optional[np.ndarray] = None


def reference_constants() -> dict:
    """Named constants reproduced from the Lambert-W machinery."""
    w = W_INV_E
    return {
        "compressed_budget_rate": 1.0 / math.sqrt(1.0 - 2.0 * w),  # 1.502
        "sparse_budget_rate": 1.0 / (1.0 - w),  # 1.386
        "shift_branch_point": w / (1.0 - w),  # 0.386
        "thermal_budget_rate": 4.0 / math.e,  # 1.472
        "thermal_budget_floor": 2.0 / math.e,  # 0.736
        "max_squeezing_ideal": 0.5 * math.log(2.0 + math.sqrt(5.0)),  # 0.722
        "max_transmissivity": 3.0 - math.sqrt(5.0),  # 0.764
        "classicality_floor": math.sqrt(5.0) - 2.0,  # 0.236
    }


# ---------------------------------------------------------------------------
# additive-error budgets (per-mode products multiplying epsilon)
# ---------------------------------------------------------------------------


def budget_hafnian(lambdas) -> Budget:
    """|Haf(R)|^2 budget: lam_max^2 / sqrt(lam_max^2 (1-W)^2 - lam_i^2 W^2)."""
    lam = np.asarray(lambdas, dtype=float)
    lam_max = float(np.max(lam))
    w = W_INV_E
    factors = lam_max**2 / np.sqrt(lam_max**2 * (1.0 - w) ** 2 - lam**2 * w**2)
    return Budget(factors, float(np.prod(factors)), "budget.hafnian_sq")


def budget_permanent(lambdas) -> Budget:
    """Per(B) budget: the rank-deficient closed form when the spectrum
    touches zero, the discriminant form otherwise."""
    lam = np.asarray(lambdas, dtype=float)
    lam_max = float(np.max(lam))
    lam_min = float(np.min(lam))
    if lam_min < 1e-12:
        factors = 4.0 * lam_max**2 / (math.e * (2.0 * lam_max - lam))
        return Budget(factors, float(np.prod(factors)), "budget.permanent.rank_deficient")
    if lam_max - lam_min <= 1e-9 * lam_max:
        # degenerate-spectrum limit of the discriminant form
        factors = lam_max**2 / (2.0 * lam_max - lam)
        return Budget(factors, float(np.prod(factors)), "budget.permanent.full_rank")
    disc = math.sqrt(4.0 * lam_max**2 - 8.0 * lam_max * lam_min + 5.0 * lam_min**2)
    expo = math.exp((lam_min - disc) / (2.0 * lam_max - 2.0 * lam_min))
    numer = 4.0 * lam_min**2 * expo * (lam_max - lam_min) ** 2
    denom = (disc - 2.0 * lam_max + lam_min) * (
        lam_min * (disc - 4.0 * lam_max + 3.0 * lam_min)
        - lam * (disc - 2.0 * lam_max + lam_min)
    )
    factors = numer / denom
    return Budget(factors, float(np.prod(factors)), "budget.permanent.full_rank")


def _st_k_plus(n: float, r_list: np.ndarray) -> np.ndarray:
    return 0.5 + n * (n + 1.0) + (n + 0.5) * np.cosh(2.0 * r_list)


def _forward_rate(gamma: float, gap: float) -> float:
    # degenerate gap means every input is a delta in phase space; the shift
    # is then immaterial and the unshifted factors apply
    return 0.0 if gap <= 1e-12 else 2.0 * gamma / gap


def _shifted_sups(covs, outcome, s: float, rate: float) -> np.ndarray:
    """Per-mode sup of the shifted measurement factor, each mode's input
    normalization included."""
    return np.array(
        [measurement_sup(outcome, s, rate, math.exp(mode_lognorm(c, s, rate))) for c in covs]
    )


def budget_hafnian_block_a(n: float, r_list) -> Budget:
    """Haf(A) budget for the squeezed-thermal block family: per-mode factor
    sqrt|V_Q|_i times the supremum of the reverse-shifted single-photon
    factor at its optimal shift."""
    r_arr = np.asarray(r_list, dtype=float)
    r_max = float(np.max(r_arr))
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    gamma = math.exp(-math.tanh(r_max)) * n / (n + 1.0)
    rate = -2.0 * gamma / (s + 1.0)
    covs = [squeezed_thermal_covariance(float(r), n) for r in r_arr]
    factors = _shifted_sups(covs, photon(1), s, rate) * np.sqrt(_st_k_plus(n, r_arr))
    return Budget(factors, float(np.prod(factors)), "budget.hafnian.block_a")


def budget_torontonian(
    family: str, lambdas=None, n: Optional[float] = None, r_list=None
) -> Budget:
    """Torontonian budgets for the squeezed (R'), thermal (B'), and
    squeezed-thermal (A') families at their optimal forward shifts."""
    if family == "squeezed":
        lam = np.asarray(lambdas, dtype=float)
        lam_max = float(np.max(lam))
        e2r = (1.0 + lam) / (1.0 - lam)
        s = (1.0 - lam_max) / (1.0 + lam_max)
        gamma = 0.5 * (1.0 - lam_max)
        rate = _forward_rate(gamma, float(np.max(e2r)) - s)
        covs = [ModeCovariance(float(e), float(1.0 / e)) for e in e2r]
        factors = _shifted_sups(covs, CLICK, s, rate) / np.sqrt(1.0 - lam**2)
        return Budget(factors, float(np.prod(factors)), "budget.torontonian.squeezed")
    if family == "thermal":
        lam = np.asarray(lambdas, dtype=float)
        lam_max = float(np.max(lam))
        n_list = lam / (1.0 - lam)
        s = 2.0 * float(np.min(n_list)) + 1.0
        gamma = 0.5 * (1.0 - lam_max)
        rate = _forward_rate(gamma, 2.0 * float(np.max(n_list)) + 1.0 - s)
        covs = [ModeCovariance(float(a), float(a)) for a in 2.0 * n_list + 1.0]
        factors = _shifted_sups(covs, CLICK, s, rate) / (1.0 - lam)
        return Budget(factors, float(np.prod(factors)), "budget.torontonian.thermal")
    if family == "squeezed_thermal":
        r_arr = np.asarray(r_list, dtype=float)
        r_max = float(np.max(r_arr))
        s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
        a_max = (2.0 * n + 1.0) * math.exp(2.0 * r_max)
        gamma = math.exp(-math.tanh(r_max)) / (n + 1.0)
        rate = _forward_rate(gamma, a_max - s)
        covs = [squeezed_thermal_covariance(float(r), n) for r in r_arr]
        factors = _shifted_sups(covs, CLICK, s, rate) * np.sqrt(_st_k_plus(n, r_arr))
        return Budget(
            factors, float(np.prod(factors)), "budget.torontonian.squeezed_thermal"
        )
    raise ValueError(f"unknown Torontonian family {family!r}")


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------


def _sandwich(lower_factors, upper_factors, family: str, formula_id: str) -> BoundReport:
    """Per-mode lower/upper factors and their products."""
    lower, upper = float(np.prod(lower_factors)), float(np.prod(upper_factors))
    return BoundReport(lower, upper, family, formula_id, lower_factors, upper_factors)


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
        raise ZeroEigenvalue("permanent bounds need strictly positive eigenvalues")
    return _sandwich(lam_min**2 / lam, lam_max**2 / lam, "permanent", "bounds.permanent")


def _st_k_minus(n: float, r_list: np.ndarray) -> np.ndarray:
    return 0.5 + n * (n + 1.0) - (n + 0.5) * np.cosh(2.0 * r_list)


def _require_amin(n: float, r_arr: np.ndarray) -> None:
    r_max = float(np.max(r_arr))
    a_min = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    if a_min < 1.0:
        raise PreconditionAminBelowOne(
            f"a_min = {a_min:.6f} < 1; bound derivation does not apply"
        )
    if np.min(_st_k_minus(n, r_arr)) <= 0.0:
        raise PreconditionAminBelowOne(
            "degenerate boundary a_min = 1 with r_i = r_max; bound diverges"
        )


def hafnian_bounds(n: float, r_list) -> BoundReport:
    """Haf(A) sandwich for the squeezed-thermal block family (a_min >= 1)."""
    r_arr = np.asarray(r_list, dtype=float)
    _require_amin(n, r_arr)
    r_max = float(np.max(r_arr))
    u = 2.0 * n + 1.0
    ratio = np.sqrt(_st_k_plus(n, r_arr) / _st_k_minus(n, r_arr))
    low_pref = ((math.exp(2.0 * r_max) - u) / (math.exp(2.0 * r_max) + u)) ** 2
    lower_factors = low_pref * ratio
    up_pref = (
        (math.exp(r_max) * n + math.sinh(r_max))
        / ((1.0 + n) * math.cosh(r_max) + n * math.sinh(r_max))
    ) ** 2
    upper_factors = up_pref * ratio
    return _sandwich(lower_factors, upper_factors, "hafnian_block_a", "bounds.hafnian.block_a")


def torontonian_bounds(
    family: str, lambdas=None, n: Optional[float] = None, r_list=None
) -> BoundReport:
    """Torontonian sandwich: thermal closed forms or the squeezed-thermal
    family under a_min >= 1.  The pure-squeezed family has no known bounds."""
    if family == "squeezed":
        raise UnsupportedBound("no bounds are known for the pure-squeezed family")
    if family == "thermal":
        lam = np.asarray(lambdas, dtype=float)
        if np.min(lam) <= 0.0:
            raise ZeroEigenvalue("thermal Torontonian bounds need lambda > 0")
        lam_max = float(np.max(lam))
        lam_min = float(np.min(lam))
        lower_factors = lam_min**2 / (lam * (1.0 - lam_min))
        upper_factors = lam_max**2 / (lam * (1.0 - lam_max))
        return _sandwich(lower_factors, upper_factors, "torontonian_thermal", "bounds.torontonian.thermal")
    if family == "squeezed_thermal":
        r_arr = np.asarray(r_list, dtype=float)
        _require_amin(n, r_arr)
        r_max = float(np.max(r_arr))
        u = 2.0 * n + 1.0
        ratio = np.sqrt(_st_k_plus(n, r_arr) / _st_k_minus(n, r_arr))
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
        lower_factors = low_pref * ratio
        upper_factors = up_pref * ratio
        return _sandwich(lower_factors, upper_factors, "torontonian_block_a", "bounds.torontonian.block_a")
    raise ValueError(f"unknown Torontonian bound family {family!r}")


def hafnian_sq_bounds(*_args, **_kwargs):
    """|Haf(R)|^2 sandwich bounds are unknown for general complex symmetric R."""
    raise UnsupportedBound("no bounds are known for |Haf(R)|^2")
