"""Exact brute-force references for permanents, hafnians, Torontonians, and
circuit probabilities.

These exist to be obviously correct at desk scale, not fast.  Hard size
limits are enforced so a typo cannot silently start a week-long loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    OddDimension,
    SingularSubmatrix,
    TooLarge,
)
from .linear_optics import CircuitSpec, gbs_A_matrix, husimi_covariance
from .phase_space import MeasurementOutcome


@dataclass(frozen=True)
class OracleLimits:
    max_permanent_dim: int = 20
    max_hafnian_dim: int = 16
    max_torontonian_modes: int = 12


LIMITS = OracleLimits()


def permanent_exact(a_mat: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion with Gray-code row-sum updates."""
    a_mat = np.asarray(a_mat, dtype=complex)
    n = a_mat.shape[0]
    if a_mat.shape != (n, n):
        raise DimensionMismatch("permanent needs a square matrix")
    if n > LIMITS.max_permanent_dim:
        raise TooLarge(f"permanent limited to {LIMITS.max_permanent_dim}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        j = changed.bit_length() - 1
        if gray & changed:
            row_sums += a_mat[:, j]
        else:
            row_sums -= a_mat[:, j]
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sums)
        prev_gray = gray
    return complex(((-1.0) ** n) * total)


def hafnian_exact(a_mat: np.ndarray) -> complex:
    """Loopless hafnian: sum over perfect matchings, diagonal ignored.

    Memoized recursion over index subsets; exact up to float rounding.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    n = a_mat.shape[0]
    if a_mat.shape != (n, n):
        raise DimensionMismatch("hafnian needs a square matrix")
    if n % 2:
        raise OddDimension(f"hafnian needs even dimension, got {n}")
    if n > LIMITS.max_hafnian_dim:
        raise TooLarge(f"hafnian limited to {LIMITS.max_hafnian_dim}, got {n}")
    if n == 0:
        return 1.0 + 0.0j

    @lru_cache(maxsize=None)
    def rec(mask: int) -> complex:
        if mask == 0:
            return 1.0 + 0.0j
        first = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << first)
        total = 0.0 + 0.0j
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            aij = a_mat[first, j]
            if aij != 0.0:
                total += aij * rec(rest & ~(1 << j))
        return total

    result = rec((1 << n) - 1)
    rec.cache_clear()
    return complex(result)


def _sqrt_positive_det(mat: np.ndarray) -> float:
    """sqrt(det) for matrices whose determinant must be positive real.

    The square root is taken as the product of principal square roots of the
    eigenvalues (arguments in (-pi, pi]); the positivity of the result is
    asserted rather than assumed.
    """
    eig = np.linalg.eigvals(mat)
    if np.min(np.abs(eig)) < 1e-13:
        raise SingularSubmatrix("singular submatrix in Torontonian term")
    root = complex(np.prod(np.sqrt(eig.astype(complex))))
    if abs(root.imag) > 1e-8 * max(1.0, abs(root.real)) or root.real <= 0.0:
        raise SingularSubmatrix(
            f"determinant square root is not positive real: {root}"
        )
    return root.real


def torontonian_exact(a_prime: np.ndarray) -> float:
    """Torontonian by the power-set sum over deleted mode subsets.

    For Z in P([M]) the term deletes rows/columns {j, j+M : j in Z}; the
    all-deleted term contributes (-1)^M via the empty determinant = 1.
    """
    a_prime = np.asarray(a_prime, dtype=complex)
    dim = a_prime.shape[0]
    if dim % 2:
        raise DimensionMismatch("Torontonian matrices have even dimension")
    m = dim // 2
    if m > LIMITS.max_torontonian_modes:
        raise TooLarge(
            f"Torontonian limited to {LIMITS.max_torontonian_modes} modes, got {m}"
        )
    total = 0.0
    for z_mask in range(1 << m):
        keep = [j for j in range(m) if not (z_mask >> j) & 1]
        sign = -1.0 if (z_mask.bit_count() & 1) else 1.0
        if not keep:
            total += sign
            continue
        idx = keep + [j + m for j in keep]
        sub = a_prime[np.ix_(idx, idx)]
        term = 1.0 / _sqrt_positive_det(np.eye(2 * len(keep)) - sub)
        total += sign * term
    return total


# ---------------------------------------------------------------------------
# exact circuit probabilities
# ---------------------------------------------------------------------------


def exact_probability(circuit: CircuitSpec, pattern) -> float:
    """Exact photon-number probability Haf(A_S) / (m! sqrt|V_Q|).

    ``pattern`` holds nonnegative integers, with "marginal" (or a
    MeasurementOutcome of that kind) marking modes to trace out; marginals
    are handled exactly by reducing the Gaussian state first.
    """
    counts: list[int] = []
    kept: list[int] = []
    for j, entry in enumerate(pattern):
        if isinstance(entry, MeasurementOutcome):
            if entry.kind == "marginal":
                continue
            if entry.kind != "photon":
                raise ValueError("exact_probability handles photon-number patterns")
            kept.append(j)
            counts.append(entry.m)
        elif entry == "marginal":
            continue
        else:
            kept.append(j)
            counts.append(int(entry))
    if any(c < 0 for c in counts):
        raise ValueError("photon counts must be nonnegative")
    total = sum(counts)
    if 2 * total > LIMITS.max_hafnian_dim:
        raise TooLarge(f"sum of photon counts {total} exceeds the hafnian limit")

    a_mat, sigma_q = gbs_A_matrix(circuit, kept)
    norm = math.sqrt(abs(np.linalg.det(sigma_q).real))
    if total == 0:
        return 1.0 / norm
    rep = [i for i, c in enumerate(counts) for _ in range(c)]
    idx = rep + [i + len(kept) for i in rep]
    a_sub = a_mat[np.ix_(idx, idx)]
    haf = hafnian_exact(a_sub)
    fact = math.prod(math.factorial(c) for c in counts)
    value = haf.real / (fact * norm)
    return float(value)


def exact_threshold_probability(circuit: CircuitSpec, pattern) -> float:
    """Exact threshold-detector probability by inclusion-exclusion.

    ``pattern`` entries are "click", "noclick", or "marginal" (strings or
    MeasurementOutcome).  Every click subset folds into a vacuum-marginal
    evaluation 1/sqrt(det sigma_Q[T]).
    """
    if circuit.m > LIMITS.max_torontonian_modes:
        raise TooLarge("threshold oracle limited to 12 modes")
    clicks: list[int] = []
    noclicks: list[int] = []
    for j, entry in enumerate(pattern):
        kind = entry.kind if isinstance(entry, MeasurementOutcome) else entry
        if kind == "click":
            clicks.append(j)
        elif kind == "noclick":
            noclicks.append(j)
        elif kind != "marginal":
            raise ValueError(f"unsupported threshold pattern entry {entry!r}")

    def vacuum_prob(modes: list[int]) -> float:
        if not modes:
            return 1.0
        det = np.linalg.det(husimi_covariance(circuit, sorted(modes)))
        return 1.0 / math.sqrt(abs(det.real))

    total = 0.0
    for mask in range(1 << len(clicks)):
        subset = [clicks[i] for i in range(len(clicks)) if (mask >> i) & 1]
        sign = -1.0 if (len(subset) & 1) else 1.0
        total += sign * vacuum_prob(subset + noclicks)
    return total
