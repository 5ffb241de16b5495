"""The paper's closed-form shifts, kept as reference formulas.

The estimator picks every shift by one rule, a search of the weight bound
over the instance's own spectrum (``estimator.resolve_gamma``).  The forms
here read one or two numbers off the spectrum (lambda_max, or lambda_min and
lambda_max); the tests check that the searched budget is never larger than
the budget at these shifts, and that the forms meet the paper's balance
conditions.  Each returns (gamma, direction).
"""

import math

import numpy as np

from pqdkit import estimator as est
from pqdkit.phase_space import W_INV_E

SQUEEZED_BRANCH_POINT = W_INV_E / (1.0 - W_INV_E)  # ~= 0.386


def optimal_gamma_squeezed(lambdas, lambda_max=None):
    """Balance-optimal shift for pure squeezed inputs with all-single-photon
    detection: forward below the branch point, reverse above it."""
    lam = float(lambda_max if lambda_max is not None else max(lambdas))
    if lam <= 0.0:
        return 0.0, est.FORWARD
    if lam <= SQUEEZED_BRANCH_POINT:
        return (2.0 * (1.0 + lam) * W_INV_E - 2.0 * lam) / (1.0 - lam), est.FORWARD
    return (lam - (1.0 + lam) * W_INV_E) / lam, est.REVERSE


def optimal_gamma_thermal(lambda_min, lambda_max):
    """Optimal shift for thermal inputs with all-single-photon detection:
    the closed two-branch rule at lambda_min = 0, else the discriminant
    branch."""
    if not (0.0 <= lambda_min <= lambda_max < 1.0):
        raise ValueError("need 0 <= lambda_min <= lambda_max < 1")
    if lambda_min < 1e-12:
        if lambda_max < 0.5:
            return (1.0 - 2.0 * lambda_max) / (2.0 * (1.0 - lambda_max)), est.FORWARD
        return (2.0 * lambda_max - 1.0) / (2.0 * lambda_max), est.REVERSE
    if lambda_max - lambda_min <= 1e-9:
        limit = (2.0 * lambda_max - 1.0) / lambda_max
        if limit >= 0.0:
            return min(limit, 1.0 - 1e-12), est.REVERSE
        return 0.0, est.FORWARD
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
        return min(gamma, 1.0 - 1e-12), est.REVERSE
    gamma = num / (2.0 * lambda_min * (lambda_max - 1.0))
    return min(gamma, 1.0 - 1e-12), est.FORWARD


def optimal_gamma_threshold(lambda_max):
    """Optimal forward shift for all-click detection on squeezed or thermal
    inputs."""
    return 0.5 * (1.0 - lambda_max), est.FORWARD


def optimal_gamma_threshold_st(n, r_max):
    """Optimal forward shift for all-click detection on squeezed thermal
    inputs with shared occupation n."""
    return math.exp(-math.tanh(r_max)) / (n + 1.0), est.FORWARD


def optimal_gamma_st(n, r_max):
    """Optimal reverse shift for single-photon detection on squeezed thermal
    inputs with shared occupation n."""
    return math.exp(-math.tanh(r_max)) * n / (n + 1.0), est.REVERSE


def circuit_spectrum(circuit):
    """lambda_j = (a+_j - 1) / (a+_j + 1) of every mode: tanh r_j of a
    squeezed input, n_j / (n_j + 1) of a thermal one."""
    return [(c.a_plus - 1.0) / (c.a_plus + 1.0) for c in circuit.covariances()]


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
    return est.budget_factors(emb, est.mode_sups(est.Setup(emb.circuit, s), *analytic_shift(emb)))


def searched_budget(emb, s):
    """Per-mode budget factors of ``emb`` at ordering s and its searched
    shift (``estimator.resolve_gamma``), in the embedding's mode order."""
    setup = est.Setup(emb.circuit, s)
    return est.budget_factors(emb, est.mode_sups(setup, *est.resolve_gamma(setup)))
