"""The paper's five closed-form log-concavity conditions, kept as reference
formulas.

pqdkit decides a condition family by one rule, the certificate of the
circuit of extreme modes the family's condition is stated for
(``fpras.check_condition``).  The forms here are the paper's statements of
the same conditions; the tests check that each agrees with the certificate
on random parameters and at the boundaries the paper names.  Each takes the
parameters ``check_condition`` takes for its family and returns whether the
condition holds.
"""

import math

from pqdkit import fpras


def permanent(lambdas) -> bool:
    """lambda_max / lambda_min <= 2 of a strictly positive spectrum."""
    return max(lambdas) / min(lambdas) <= 2.0


def hafnian(n: float, r_max: float) -> bool:
    """Shared-occupation threshold of the squeezed-thermal hafnian family."""
    threshold = 0.25 * (
        6.0 * math.sinh(2.0 * r_max)
        + math.sqrt(18.0 * math.cosh(4.0 * r_max) - 14.0)
        - 2.0
    )
    return n >= threshold


def tor_thermal(lambda_min: float, lambda_max: float) -> bool:
    """lambda_min >= 1/2 and lambda_max <= (3 lambda_min - lambda_min^2 - 1) / lambda_min."""
    if lambda_min < 0.5:
        return False
    return lambda_max <= (-lambda_min**2 + 3.0 * lambda_min - 1.0) / lambda_min


def tor_squeezed_thermal(n: float, r_max: float) -> bool:
    """Shared-occupation threshold of the squeezed-thermal Torontonian family."""
    threshold = 0.5 * (
        math.exp(2.0 * r_max) * math.sqrt(math.exp(8.0 * r_max) + 3.0)
        + math.exp(6.0 * r_max)
        - 1.0
    )
    return n >= threshold


def gbs_noise(eta: float, r_max: float, n_th: float) -> bool:
    """Environment occupation at least the noise threshold."""
    return n_th >= fpras.gbs_noise_threshold(eta, r_max)


# check_condition's family name -> its closed form
CONDITIONS = {
    "permanent": permanent,
    "hafnian": hafnian,
    "tor-thermal": tor_thermal,
    "tor-squeezed-thermal": tor_squeezed_thermal,
    "gbs-noise": gbs_noise,
}
