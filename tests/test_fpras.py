"""Log-concavity certificates, condition families, multiplicative estimation."""

import math

import numpy as np
import pytest

from pqdkit import estimator as est, fpras, linear_optics as lo, oracles
from pqdkit import phase_space as ps
from pqdkit.errors import (
    NegativeCoefficient,
    NonPositiveFactor,
    NotLogConcave,
    TooLarge,
    ZeroEigenvalue,
)
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon


def second_difference_scan(profile, q_max=8.0, step=1e-3):
    """Max second difference of log(profile) along central-offset lines."""
    worst = -np.inf
    for offset in np.linspace(0.0, 3.0, 7):
        taus = np.arange(-2.0, 2.0, step)
        q = offset**2 + taus**2
        vals = profile(q)
        if np.any(vals <= 0):
            return np.inf
        g = np.log(vals)
        second = g[2:] - 2.0 * g[1:-1] + g[:-2]
        worst = max(worst, float(np.max(second)))
    return worst


class TestQuadraticCertificate:
    def test_pure_gaussian(self):
        cert = fpras.check_quadratic_factor(1.0, 0.0, 1.0)
        assert cert.holds and cert.margin == pytest.approx(1.0)

    def test_boundary(self):
        cert = fpras.check_quadratic_factor(1.0, 1.0, 1.0)
        assert cert.holds and cert.margin == pytest.approx(0.0)

    def test_just_over_boundary_fails_with_witness(self):
        cert = fpras.check_quadratic_factor(1.0, 1.001, 1.0)
        assert not cert.holds and cert.witness_line is not None
        a, b, c = 1.0, 1.001, 1.0
        prof = lambda q: (a + b * q) * np.exp(-c * q)
        assert second_difference_scan(prof) > 0.0

    def test_negative_coefficient(self):
        with pytest.raises(NegativeCoefficient):
            fpras.check_quadratic_factor(-0.1, 1.0, 1.0)

    def test_passing_certificates_concave(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = float(rng.uniform(0.5, 3.0))
            c = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(0.0, c * a))
            assert fpras.check_quadratic_factor(a, b, c).holds
            prof = lambda q: (a + b * q) * np.exp(-c * q)
            assert second_difference_scan(prof) <= 1e-8


class TestThresholdCertificate:
    def test_pure_gaussian_limit(self):
        cert = fpras.check_threshold_factor(1.0, 0.0 + 1e-12, 1.0)
        assert cert.holds

    def test_boundary(self):
        b, c = 0.5, 1.0
        a = (b * b + 2.0 * b * c) / c
        cert = fpras.check_threshold_factor(a, b, c)
        assert cert.holds and cert.margin == pytest.approx(0.0, abs=1e-14)

    def test_below_true_boundary_violation_found(self):
        # the true boundary b + b^2/c is 0.75 here; the witness line through
        # the origin has a positive second derivative of log f below it
        b, c = 0.5, 1.0
        a = 0.9 * 0.75
        cert = fpras.check_threshold_factor(a, b, c)
        assert not cert.holds and cert.witness_line is not None
        assert cert.witness_line[2] > 0.0
        edge = fpras.check_threshold_factor(0.75 * (1.0 + 1e-9), b, c)
        assert edge.witness_line is None
        prof = lambda q: (a - b * np.exp(-b * q)) * np.exp(-c * q)
        assert second_difference_scan(prof) > 0.0

    def test_conservative_band_is_still_concave(self):
        # between the true boundary b + b^2/c and the certificate boundary
        # (b^2 + 2bc)/c the certificate declines but no violating line exists
        b, c = 0.5, 1.0
        a = 0.5 * (0.75 + (b * b + 2 * b * c) / c)
        cert = fpras.check_threshold_factor(a, b, c)
        assert not cert.holds and cert.witness_line is None
        prof = lambda q: (a - b * np.exp(-b * q)) * np.exp(-c * q)
        assert second_difference_scan(prof) <= 1e-8

    def test_nonpositive_factor(self):
        with pytest.raises(NonPositiveFactor):
            fpras.check_threshold_factor(0.4, 0.5, 1.0)


class TestConditionFamilies:
    def test_permanent_ratio_boundary(self):
        assert fpras.fpras_condition_permanent([0.4, 0.8])
        assert not fpras.fpras_condition_permanent([0.3, 0.7])
        assert fpras.fpras_condition_permanent([0.55, 0.55, 0.55])

    def test_permanent_zero_eigenvalue(self):
        with pytest.raises(ZeroEigenvalue):
            fpras.fpras_condition_permanent([0.0, 0.5])

    def test_permanent_boundary_margin_zero(self):
        a, b, c = fpras.permanent_coefficients(0.4, 0.8)
        assert c * a - b == pytest.approx(0.0, abs=1e-12)

    def test_hafnian_zero_squeezing_threshold(self):
        # threshold at r = 0 is (sqrt(4) - 2)/4 = 0
        assert fpras.fpras_condition_hafnian(0.0, 0.0)
        assert fpras.fpras_condition_hafnian(0.1, 0.0)
        assert not fpras.fpras_condition_hafnian(0.0, 0.5)

    def test_tor_thermal_boundary(self):
        assert fpras.fpras_condition_tor_thermal(0.5, 0.5)
        assert not fpras.fpras_condition_tor_thermal(0.4, 0.45)
        want = (-0.6**2 + 3 * 0.6 - 1.0) / 0.6
        assert fpras.fpras_condition_tor_thermal(0.6, want - 1e-12)
        assert not fpras.fpras_condition_tor_thermal(0.6, want + 1e-9)

    def test_tor_st_zero_squeezing(self):
        # threshold at r = 0 is (2 + 1 - 1)/2 = 1
        assert fpras.fpras_condition_tor_st(1.0, 0.0)
        assert not fpras.fpras_condition_tor_st(0.99, 0.0)
        assert not fpras.fpras_condition_tor_st(1.0, 0.3)

    def test_gbs_noise_reference_points(self):
        assert fpras.gbs_noise_threshold(0.5, 1.0) == pytest.approx(3.79, abs=5e-3)
        assert fpras.gbs_noise_threshold(1e-12, 1.0) == pytest.approx(1.0, abs=1e-6)
        val = fpras.gbs_noise_threshold(0.9, 0.2)
        expected = (
            math.exp(-0.2) * 0.9 * math.sinh(0.2) + math.sqrt(1 + 0.9 * math.sinh(0.4))
        ) / 0.1
        assert val == pytest.approx(expected, rel=1e-12)

    def test_condition_coefficient_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            lam = np.sort(rng.uniform(0.02, 0.98, 2))
            closed = lam[1] / lam[0] <= 2.0
            a, b, c = fpras.permanent_coefficients(float(lam[0]), float(lam[1]))
            assert closed == fpras._quadratic_condition(a, b, c)

            n = float(rng.uniform(0.0, 6.0))
            r_max = float(rng.uniform(0.01, 1.0))
            a, b, c = fpras.hafnian_st_coefficients(n, r_max)
            assert fpras.fpras_condition_hafnian(n, r_max) == fpras._quadratic_condition(a, b, c)

            a, b, c = fpras.tor_thermal_coefficients(float(lam[0]), float(lam[1]))
            assert fpras.fpras_condition_tor_thermal(
                float(lam[0]), float(lam[1])
            ) == fpras._threshold_condition(a, b, c)

            n2 = float(rng.uniform(0.0, 30.0))
            r2 = float(rng.uniform(0.01, 0.5))
            a, b, c = fpras.tor_st_coefficients(n2, r2)
            assert fpras.fpras_condition_tor_st(n2, r2) == fpras._threshold_condition(a, b, c)

            eta = float(rng.uniform(0.0, 0.95))
            nth = float(rng.uniform(0.0, 30.0))
            a, b, c = fpras.gbs_noise_coefficients(eta, r_max, nth)
            assert fpras.fpras_condition_gbs_noise(eta, r_max, nth) == fpras._threshold_condition(a, b, c)

    def test_passing_hafnian_condition_implies_certificates(self):
        n, r_max = 1.2, 0.2
        assert fpras.fpras_condition_hafnian(n, r_max)
        circuit = lo.CircuitSpec(
            ((r_max, n), (0.1, n)), lo.haar_unitary(2, 3), (photon(1),) * 2
        )
        certs = fpras.circuit_certificates(circuit)
        assert all(c.holds for c in certs)

    def test_passing_tor_st_condition_implies_certificates(self):
        n, r_max = 20.0, 0.2
        assert fpras.fpras_condition_tor_st(n, r_max)
        circuit = lo.CircuitSpec(
            ((r_max, n), (0.15, n)), lo.haar_unitary(2, 4), (CLICK,) * 2
        )
        certs = fpras.circuit_certificates(circuit)
        assert all(c.holds for c in certs)


class TestMultiplicative:
    def test_all_marginal_is_exactly_one(self):
        circuit = lo.CircuitSpec(
            ((0.5, 1.0),) * 2, lo.haar_unitary(2, 5), (MARGINAL,) * 2
        )
        res = fpras.estimate_multiplicative(circuit, 0.1, 0.05)
        assert res.value == 1.0 and res.rel_radius == 0.0

    def test_permanent_in_band(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(1.0, 2.0, 4)
        q = lo.haar_unitary(4, 7).u
        b_mat = (q * lam) @ q.conj().T
        b_mat = (b_mat + b_mat.conj().T) / 2.0
        exact = oracles.permanent_exact(b_mat).real
        emb = lo.embed_permanent(b_mat)
        res = fpras.estimate_multiplicative(
            emb.circuit, 0.1, 0.05, est.EstimatorConfig(seed=8)
        )
        assert abs(emb.prefactor * res.value / exact - 1.0) <= 0.1

    def test_block_a_hafnian(self):
        n, r_list = 1.2, [0.1, 0.18, 0.15, 0.12]
        assert fpras.fpras_condition_hafnian(n, max(r_list))
        u = lo.haar_unitary(4, 9)
        mat, sq_vq = lo.build_block_A(n, r_list, u)
        exact = oracles.hafnian_exact(mat.data).real
        circuit = lo.CircuitSpec(
            tuple((float(r), n) for r in r_list), u, (photon(1),) * 4
        )
        res = fpras.estimate_multiplicative(
            circuit, 0.1, 0.05, est.EstimatorConfig(seed=10)
        )
        assert abs(sq_vq * res.value / exact - 1.0) <= 0.1

    def test_not_log_concave_raises(self):
        # pure squeezed inputs sit far below unit classicality
        circuit = lo.CircuitSpec(
            ((0.5, 0.0),) * 2, lo.haar_unitary(2, 11), (photon(1),) * 2
        )
        with pytest.raises(NotLogConcave):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_high_photon_counts_unsupported(self):
        circuit = lo.CircuitSpec(
            ((0.1, 5.0),) * 2, lo.haar_unitary(2, 12), (photon(2),) * 2
        )
        with pytest.raises(NotLogConcave):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_mode_count_guard(self):
        circuit = lo.CircuitSpec(
            ((0.0, 2.0),) * 13, lo.haar_unitary(13, 13), (photon(1),) * 13
        )
        with pytest.raises(TooLarge):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_deterministic(self):
        circuit = lo.CircuitSpec(
            ((0.0, 1.5), (0.0, 2.0)), lo.haar_unitary(2, 14), (photon(1),) * 2
        )
        a = fpras.estimate_multiplicative(circuit, 0.1, 0.05, est.EstimatorConfig(seed=3))
        b = fpras.estimate_multiplicative(circuit, 0.1, 0.05, est.EstimatorConfig(seed=3))
        assert a.value == b.value and a.n_used == b.n_used

    def test_noisy_threshold_circuit_follows_noise_condition(self):
        # below the environment-occupation threshold the certificate fails;
        # above it the multiplicative estimate lands within tolerance
        eta, r_max = 0.6, 0.4
        threshold = fpras.gbs_noise_threshold(eta, r_max)
        low = lo.CircuitSpec(
            ((r_max, 0.0), (0.3, 0.0)),
            lo.haar_unitary(2, 17),
            (CLICK, CLICK),
            eta=eta,
            n_th=threshold * 0.6,
        )
        with pytest.raises(NotLogConcave):
            fpras.estimate_multiplicative(low, 0.1, 0.05)
        high = lo.CircuitSpec(
            ((r_max, 0.0), (0.3, 0.0)),
            lo.haar_unitary(2, 17),
            (CLICK, CLICK),
            eta=eta,
            n_th=threshold * 1.1,
        )
        exact = oracles.exact_threshold_probability(high, high.pattern)
        res = fpras.estimate_multiplicative(
            high, 0.1, 0.05, est.EstimatorConfig(seed=18)
        )
        assert abs(res.value / exact - 1.0) <= 0.1

    def test_thermal_torontonian_in_band(self):
        lam = np.array([0.55, 0.6, 0.58])
        assert fpras.fpras_condition_tor_thermal(float(lam.min()), float(lam.max()))
        q = lo.haar_unitary(3, 15).u
        b_mat = (q * lam) @ q.conj().T
        b_mat = (b_mat + b_mat.conj().T) / 2.0
        mat = lo.block_b_prime(b_mat)
        exact = oracles.torontonian_exact(mat.data)
        n_list = lam / (1.0 - lam)
        circuit = lo.CircuitSpec(
            tuple((0.0, float(n)) for n in n_list),
            lo.Interferometer(3, q),
            (CLICK,) * 3,
        )
        res = fpras.estimate_multiplicative(
            circuit, 0.1, 0.05, est.EstimatorConfig(seed=16)
        )
        z_prime = float(np.prod(1.0 + n_list))
        assert abs(z_prime * res.value / exact - 1.0) <= 0.1


def log_integrand(circuit, s, x):
    """log of the unshifted integrand at real coordinates x = [Re a; Im a],
    built from the input s-PQDs and the measurement profiles (the shift
    cancels between the two sides)."""
    m = circuit.m
    alpha = x[:m] + 1j * x[m:]
    total = sum(
        math.log(ps.spqd_gaussian(cov, s, complex(a)))
        for cov, a in zip(circuit.covariances(), alpha)
    )
    beta = circuit.unitary.u @ alpha
    for out, b in zip(circuit.pattern, beta):
        total += math.log(abs(float(ps.pi_w_profile(out, s)(abs(b) ** 2))))
    return total


def central_hessian(fn, dim, h=1e-4):
    hess = np.empty((dim, dim))
    eye = np.eye(dim) * h
    for i in range(dim):
        for j in range(dim):
            hess[i, j] = (
                fn(eye[i] + eye[j]) - fn(eye[i] - eye[j]) - fn(eye[j] - eye[i]) + fn(-eye[i] - eye[j])
            ) / (4.0 * h * h)
    return hess


LAPLACE_CASES = [
    lo.CircuitSpec(((0.0, 1.5), (0.0, 2.0)), lo.haar_unitary(2, 14), (photon(1), CLICK)),
    lo.CircuitSpec(((0.05, 1.8), (0.0, 1.6), (0.05, 2.0)), lo.haar_unitary(3, 21), (photon(1), MARGINAL, CLICK)),
    lo.CircuitSpec(((0.0, 1.7), (0.0, 1.9), (0.0, 1.5)), lo.haar_unitary(3, 5), (CLICK, NOCLICK, photon(1))),
]


class TestLaplaceFold:
    @pytest.mark.parametrize("case", range(len(LAPLACE_CASES)))
    def test_precision_is_negative_log_hessian_at_origin(self, case):
        circuit = LAPLACE_CASES[case]
        s = circuit.s_max - 0.5
        fold = est._fold(circuit, s, 0.5, est.FORWARD, laplace=True)
        assert len(fold.free_idx) == 2 * circuit.m
        precision = fold.chol_lower @ fold.chol_lower.T
        hess = central_hessian(lambda x: log_integrand(circuit, s, x), 2 * circuit.m)
        np.testing.assert_allclose(precision, -hess, rtol=1e-5, atol=1e-5 * np.abs(hess).max())
        kappas = [ps.pi_w_log_slope(circuit.pattern[j], s) for j in fold.active_modes]
        assert fold.rates == tuple(kappas)

    @pytest.mark.parametrize("case", range(len(LAPLACE_CASES)))
    def test_weight_is_integrand_over_proposal(self, case):
        # f(x) = exp(log_prefactor) * q(x) * w(x) with q the folded Gaussian
        circuit = LAPLACE_CASES[case]
        s = circuit.s_max - 0.5
        fold = est._fold(circuit, s, 0.5, est.FORWARD, laplace=True)
        sampler = est.build_folded_sampler(circuit, s, 0.5, est.FORWARD, laplace=True)
        dim = 2 * circuit.m
        z = np.random.default_rng(case).standard_normal((dim, 5))
        b = sampler.beta_sq(z)
        w = sampler.scale * np.prod(
            [prof(b_j) * np.exp(-rate * b_j) for prof, rate, b_j in zip(sampler.profiles, sampler.rates, b)],
            axis=0,
        )
        x = np.linalg.solve(fold.chol_lower.T, z)
        log_q = (
            -0.5 * np.sum(z * z, axis=0)
            + float(np.sum(np.log(np.diagonal(fold.chol_lower))))
            - 0.5 * dim * math.log(2.0 * math.pi)
        )
        for k in range(z.shape[1]):
            expected = log_integrand(circuit, s, x[:, k]) - log_q[k]
            assert sampler.log_prefactor + math.log(w[k]) == pytest.approx(expected, abs=1e-9)


def hpsd_with_spectrum(q, lam):
    b_mat = (q * lam) @ q.conj().T
    return (b_mat + b_mat.conj().T) / 2.0


# the circuits the multiplicative tests above certify and estimate
CERTIFIED = {
    "permanent": lo.embed_permanent(
        hpsd_with_spectrum(lo.haar_unitary(4, 7).u, np.random.default_rng(6).uniform(1.0, 2.0, 4))
    ).circuit,
    "block-a": lo.CircuitSpec(
        tuple((r, 1.2) for r in (0.1, 0.18, 0.15, 0.12)), lo.haar_unitary(4, 9), (photon(1),) * 4
    ),
    "thermal": lo.CircuitSpec(
        ((0.0, 1.5), (0.0, 2.0)), lo.haar_unitary(2, 14), (photon(1),) * 2
    ),
    "noisy-threshold": lo.CircuitSpec(
        ((0.4, 0.0), (0.3, 0.0)),
        lo.haar_unitary(2, 17),
        (CLICK, CLICK),
        eta=0.6,
        n_th=fpras.gbs_noise_threshold(0.6, 0.4) * 1.1,
    ),
    "thermal-threshold": lo.CircuitSpec(
        tuple((0.0, x / (1.0 - x)) for x in (0.55, 0.6, 0.58)), lo.haar_unitary(3, 15), (CLICK,) * 3
    ),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_laplace_weights_peak_at_origin(name):
    # log-concave profiles with their tangent exponent removed peak at b = 0,
    # which is what lets the multiplicative sums stay in linear space
    circuit = CERTIFIED[name]
    assert all(cert.holds for cert in fpras.circuit_certificates(circuit))
    sampler = est.build_folded_sampler(
        circuit, circuit.s_max - est.S_MAX_MARGIN, 1.0 - 1e-9, est.FORWARD, laplace=True
    )
    peak = sampler.scale * math.prod(float(prof(0.0)) for prof in sampler.profiles)
    w = sampler.draw(np.random.default_rng(0), 20_000)
    assert np.all(w > 0.0)
    assert float(np.max(w)) <= peak * (1.0 + 1e-12)
