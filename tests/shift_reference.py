"""The paper's closed-form shifts, its named constants and the search's
objective, kept as reference formulas.

The estimator picks every shift by one rule, a search of the weight bound
over the instance's own spectrum (``estimator.resolve_gamma``).  The forms
here read one or two numbers off the spectrum (lambda_max, or lambda_min and
lambda_max); the tests check that the searched budget is never larger than
the budget at these shifts, and that the forms meet the paper's balance
conditions.  Each returns the signed shift gamma, below 0 in reverse.  ``reference_constants``
lists the paper's named constants, which the shifts' branch point and
budget rates derive from W(1/e).  ``log_effective_bound`` is the weight
bound a run samples under, which the search's probe (``Setup.log_bound``)
must equal.  ``block_a`` is the hafnian block matrix of a squeezed thermal
state and its sqrt|V_Q|, the reference for Haf(A) = p * sqrt|V_Q|.
"""

import math

import numpy as np

from pqdkit import estimator as est
from pqdkit import linear_optics as lo

W_INV_E = 0.2784645427610738  # W(1/e) of the principal Lambert W branch: w * exp(w) = 1/e
SQUEEZED_BRANCH_POINT = W_INV_E / (1.0 - W_INV_E)  # ~= 0.386


def reference_constants() -> dict:
    """The paper's named constants, from W(1/e) and closed forms."""
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


def optimal_gamma_squeezed(lambdas, lambda_max=None):
    """Balance-optimal shift for pure squeezed inputs with all-single-photon
    detection: forward below the branch point, reverse above it."""
    lam = float(lambda_max if lambda_max is not None else max(lambdas))
    if lam <= 0.0:
        return 0.0
    if lam <= SQUEEZED_BRANCH_POINT:
        return (2.0 * (1.0 + lam) * W_INV_E - 2.0 * lam) / (1.0 - lam)
    return -(lam - (1.0 + lam) * W_INV_E) / lam


def optimal_gamma_thermal(lambda_min, lambda_max):
    """Optimal shift for thermal inputs with all-single-photon detection:
    the closed two-branch rule at lambda_min = 0, else the discriminant
    branch."""
    if not (0.0 <= lambda_min <= lambda_max < 1.0):
        raise ValueError("need 0 <= lambda_min <= lambda_max < 1")
    if lambda_min < 1e-12:
        if lambda_max < 0.5:
            return (1.0 - 2.0 * lambda_max) / (2.0 * (1.0 - lambda_max))
        return -(2.0 * lambda_max - 1.0) / (2.0 * lambda_max)
    if lambda_max - lambda_min <= 1e-9:
        limit = (2.0 * lambda_max - 1.0) / lambda_max
        if limit >= 0.0:
            return -min(limit, 1.0 - 1e-12)
        return 0.0
    disc = math.sqrt(4.0 * lambda_max**2 - 8.0 * lambda_max * lambda_min + 5.0 * lambda_min**2)
    num = (
        lambda_min
        + lambda_max * (4.0 * lambda_min - 2.0)
        + disc
        - lambda_min * (3.0 * lambda_min + disc)
    )
    # the same raw shift has a reverse parametrization when num >= 0 and a
    # forward one when num < 0 (lambda_min approaching 1/2)
    if num >= 0.0:
        gamma = num / (2.0 * lambda_min * (lambda_max - lambda_min))
        return -min(gamma, 1.0 - 1e-12)
    gamma = num / (2.0 * lambda_min * (lambda_max - 1.0))
    return min(gamma, 1.0 - 1e-12)


def optimal_gamma_threshold(lambda_max):
    """Optimal forward shift for all-click detection on squeezed or thermal
    inputs."""
    return 0.5 * (1.0 - lambda_max)


def optimal_gamma_threshold_st(n, r_max):
    """Optimal forward shift for all-click detection on squeezed thermal
    inputs with shared occupation n."""
    return math.exp(-math.tanh(r_max)) / (n + 1.0)


def optimal_gamma_st(n, r_max):
    """Optimal reverse shift for single-photon detection on squeezed thermal
    inputs with shared occupation n."""
    return -math.exp(-math.tanh(r_max)) * n / (n + 1.0)


def circuit_spectrum(circuit):
    """lambda_j = (a_j - 1) / (a_j + 1) of every mode's x variance a_j:
    tanh r_j of a squeezed input, n_j / (n_j + 1) of a thermal one."""
    return [(a - 1.0) / (a + 1.0) for a in circuit.variances[: circuit.m].tolist()]


def analytic_shift(emb):
    """The closed-form shift of an embedding's family: Haf and Per read
    lambda off their circuit, the Torontonian families take the matrix's
    own spectrum, and the squeezed thermal families their (n, r_max)."""
    circuit = emb.circuit
    if emb.family == "hafnian_sq":
        return optimal_gamma_squeezed(circuit_spectrum(circuit))
    if emb.family == "permanent":
        lam = circuit_spectrum(circuit)
        return optimal_gamma_thermal(min(lam), max(lam))
    if emb.family in ("torontonian.squeezed", "torontonian.thermal"):
        return optimal_gamma_threshold(float(np.max(emb.lambdas)))
    n, r_max = circuit.modes[0][1], max(r for r, _ in circuit.modes)
    if emb.family == "torontonian.squeezed_thermal":
        return optimal_gamma_threshold_st(n, r_max)
    assert emb.family == "hafnian.block_a", emb.family
    return optimal_gamma_st(n, r_max)


def analytic_budget(emb, s=None):
    """Per-mode budget factors of ``emb`` at its family's closed-form shift
    and s (default s_max), in the embedding's mode order."""
    s = emb.circuit.s_max if s is None else s
    return est.budget_factors(emb, est.mode_sups(est.Setup(emb.circuit, s), analytic_shift(emb)))


def searched_budget(emb, s):
    """Per-mode budget factors of ``emb`` at ordering s and its searched
    shift (``estimator.resolve_gamma``), in the embedding's mode order."""
    setup = est.Setup(emb.circuit, s)
    return est.budget_factors(emb, est.mode_sups(setup, est.resolve_gamma(setup)))


def precision_root(setup, gamma):
    """A lower-triangular square root of the proposal's precision at the
    shift, Lambda(rate) = base + rate * slope (``Setup.precision``): its
    Cholesky factor, or the diagonal of square roots when nothing folds."""
    base, slope = setup.precision
    lam = base + setup.rate(gamma) * slope
    return np.diag(np.sqrt(lam)) if lam.ndim == 1 else np.linalg.cholesky(lam)


def log_effective_bound(setup, gamma):
    """log B_eff at a shift: the weight bound of the sampler a run of the
    setup's proposal builds, its log prefactor plus the log suprema of its
    weighted modes, from which ``estimate_probability`` sets N and the
    radius."""
    sampler = est.build_folded_sampler(setup, gamma)
    sups = est.mode_sups(setup, gamma)[list(sampler.active_modes)]
    return sampler.log_prefactor + float(np.sum(np.log(sups)))


def block_a(n, r_list, interf):
    """A = [[R, B], [B^T, R*]] of squeezed thermal modes of shared
    occupation n and squeezing ``r_list`` behind ``interf`` (the A' of
    ``block_a_prime`` with its block rows swapped), and sqrt|V_Q| =
    prod_i sqrt k+_i; Haf(A) is sqrt|V_Q| times the state's probability of
    one photon in every mode."""
    a_prime = lo.block_a_prime(n, r_list, interf).data
    m = interf.m
    sqrt_vq = float(np.prod(np.sqrt(lo.squeezed_thermal_k(n, r_list)[0])))
    return np.concatenate([a_prime[m:], a_prime[:m]]), sqrt_vq
