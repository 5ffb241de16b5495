"""Log-concavity certificates, condition families, multiplicative estimation."""

import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqdkit import cli, estimator as est, fpras, linear_optics as lo, oracles
from pqdkit import phase_space as ps
from pqdkit.errors import ConditionFailure, SchemaError
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon

import condition_reference as cond
import shift_reference as ref


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
        # a factor negative at the origin fails with its positivity margin a
        cert = fpras.check_quadratic_factor(-0.1, 1.0, 1.0)
        assert (cert.holds, cert.margin, cert.witness_line) == (False, -0.1, None)
        with pytest.raises(ValueError):
            fpras.check_quadratic_factor(1.0, -0.1, 1.0)

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
        # a <= b: the factor is not positive at the origin; margin a - b
        cert = fpras.check_threshold_factor(0.4, 0.5, 1.0)
        assert (cert.holds, cert.witness_line) == (False, None)
        assert cert.margin == pytest.approx(-0.1, rel=1e-12)


def decided(family, *params) -> bool:
    """The family's reference closed form at ``params``, checked against the
    certificate that decides the family."""
    holds = cond.CONDITIONS[family](*params)
    assert fpras.check_condition(family, *params).holds == holds
    return holds


class TestConditionFamilies:
    def test_permanent_ratio_boundary(self):
        assert decided("permanent", [0.4, 0.8])
        assert not decided("permanent", [0.3, 0.7])
        assert decided("permanent", [0.55, 0.55, 0.55])

    def test_permanent_zero_eigenvalue(self):
        with pytest.raises(SchemaError, match="^/lambdas: "):
            fpras.check_condition("permanent", [0.0, 0.5])

    def test_permanent_boundary_margin_zero(self):
        cert = fpras.check_condition("permanent", [0.4, 0.8])
        assert cond.permanent([0.4, 0.8]) and cert.holds
        assert cert.margin == pytest.approx(0.0, abs=1e-12)

    def test_hafnian_zero_squeezing_threshold(self):
        # threshold at r = 0 is (sqrt(4) - 2)/4 = 0; the vacuum (n = 0) has
        # no certificate (unit classicality)
        assert cond.hafnian(0.0, 0.0)
        assert decided("hafnian", 0.1, 0.0)
        assert not decided("hafnian", 0.0, 0.5)

    def test_tor_thermal_boundary(self):
        assert decided("tor-thermal", 0.5, 0.5)
        assert not decided("tor-thermal", 0.4, 0.45)
        want = (-0.6**2 + 3 * 0.6 - 1.0) / 0.6
        assert decided("tor-thermal", 0.6, want - 1e-12)
        assert not decided("tor-thermal", 0.6, want + 1e-9)

    def test_tor_st_zero_squeezing(self):
        # threshold at r = 0 is (2 + 1 - 1)/2 = 1
        assert decided("tor-squeezed-thermal", 1.0, 0.0)
        assert not decided("tor-squeezed-thermal", 0.99, 0.0)
        assert not decided("tor-squeezed-thermal", 1.0, 0.3)

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
            assert (lam[1] / lam[0] <= 2.0) == decided("permanent", lam)

            n = float(rng.uniform(0.0, 6.0))
            r_max = float(rng.uniform(0.01, 1.0))
            decided("hafnian", n, r_max)

            decided("tor-thermal", float(lam[0]), float(lam[1]))

            n2 = float(rng.uniform(0.0, 30.0))
            r2 = float(rng.uniform(0.01, 0.5))
            decided("tor-squeezed-thermal", n2, r2)

            eta = float(rng.uniform(0.0, 0.95))
            nth = float(rng.uniform(0.0, 30.0))
            decided("gbs-noise", eta, r_max, nth)

    def test_passing_hafnian_condition_implies_certificates(self):
        n, r_max = 1.2, 0.2
        assert cond.hafnian(n, r_max)
        circuit = lo.CircuitSpec(
            ((r_max, n), (0.1, n)), lo.haar_unitary(2, 3), (photon(1),) * 2
        )
        certs = fpras.circuit_certificates(circuit)
        assert all(c.holds for c in certs)

    def test_passing_tor_st_condition_implies_certificates(self):
        n, r_max = 20.0, 0.2
        assert cond.tor_squeezed_thermal(n, r_max)
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

    def test_all_noclick_is_exact_without_a_draw(self, monkeypatch):
        # nothing to weigh: the exact value comes before the ESS target's
        # refusal, and no sample is drawn
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(est.FoldedSampler, "draw", no_draw)
        circuit = lo.CircuitSpec(
            ((0.4, 0.1), (0.3, 0.0)), lo.haar_unitary(2, 6), (NOCLICK,) * 2, eta=0.8, n_th=0.1
        )
        exact = oracles.exact_probability(circuit, [0, 0])
        for epsilon in (0.1, 1e-9):
            res = fpras.estimate_multiplicative(circuit, epsilon, 0.05)
            assert (res.n_used, res.rel_radius, res.ess) == (0, 0.0, math.inf)
            assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)

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
        assert cond.hafnian(n, max(r_list))
        u = lo.haar_unitary(4, 9)
        mat, sq_vq = ref.block_a(n, r_list, u)
        exact = oracles.hafnian_exact(mat).real
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
        with pytest.raises(ConditionFailure):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_high_photon_counts_unsupported(self):
        circuit = lo.CircuitSpec(
            ((0.1, 5.0),) * 2, lo.haar_unitary(2, 12), (photon(2),) * 2
        )
        with pytest.raises(ConditionFailure):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_sixteen_modes_match_the_oracle(self):
        # no mode cap: the folded sampler costs the same at any M
        b_mat = hpsd_with_spectrum(lo.haar_unitary(16, 13).u, np.linspace(1.0, 1.5, 16))
        emb = lo.embed_permanent(b_mat)
        res = fpras.estimate_multiplicative(emb.circuit, 0.1, 0.05)
        assert abs(emb.prefactor * res.value / oracles.permanent_exact(b_mat).real - 1.0) <= 0.1

    def test_rejects_additive_config_fields(self):
        # the multiplicative estimator chooses its own sample count, ordering
        # and shift; a config that sets them is refused at the first one's
        # pointer, in the CLI's flag order
        circuit = lo.CircuitSpec(
            ((0.0, 1.5), (0.0, 2.0)), lo.haar_unitary(2, 14), (photon(1),) * 2
        )
        cases = [
            ({"n_samples": 10}, "/samples"),
            ({"s": 0.5}, "/s"),
            ({"gamma": 0.3}, "/gamma"),
            ({"n_samples": 10, "s": 0.5, "gamma": 0.3}, "/samples"),
        ]
        for fields, pointer in cases:
            with pytest.raises(SchemaError, match=rf"^{pointer}: is not used by --multiplicative$"):
                fpras.estimate_multiplicative(circuit, 0.1, 0.05, est.EstimatorConfig(**fields))
        # seed may be set, and epsilon and delta repeat the arguments
        cfg = est.EstimatorConfig(epsilon=0.1, delta=0.05, seed=3)
        assert fpras.estimate_multiplicative(circuit, 0.1, 0.05, cfg).n_used > 0

    def test_config_epsilon_and_delta_must_match_the_arguments(self):
        # a config may keep the default or repeat the argument, as the CLI
        # does; any other value would be ignored, so it is refused at its
        # pointer
        circuit = CERTIFIED["thermal"]
        default = fpras.estimate_multiplicative(circuit, 0.1, 0.02, est.EstimatorConfig(seed=3))
        cfg = est.EstimatorConfig(epsilon=0.1, delta=0.02, seed=3)
        assert fpras.estimate_multiplicative(circuit, 0.1, 0.02, cfg) == default
        for fields, pointer in [({"epsilon": 0.3}, "/epsilon"), ({"delta": 0.01}, "/delta")]:
            with pytest.raises(SchemaError, match=rf"^{pointer}: the config's .* contradicts the argument"):
                fpras.estimate_multiplicative(circuit, 0.1, 0.02, est.EstimatorConfig(seed=3, **fields))

    @pytest.mark.parametrize(
        "epsilon, delta",
        [(0.0, 0.05), (-0.1, 0.05), (math.nan, 0.05)]
        + [(0.1, 0.0), (0.1, 1.0), (0.1, 1.5), (0.1, math.nan)],
    )
    def test_rejects_epsilon_and_delta_outside_unit_interval(self, epsilon, delta):
        # the config's check and message, per field: past it epsilon = 0
        # divides by zero, delta = 0 fails in NormalDist, delta > 1 gives a
        # negative radius and a negative epsilon draws up to MAX_SAMPLES
        name, value = ("delta", delta) if 0.0 < epsilon < 1.0 else ("epsilon", epsilon)
        with pytest.raises(SchemaError, match=rf"^/{name}: must lie in \(0, 1\), got {value}$"):
            fpras.estimate_multiplicative(CERTIFIED["thermal"], epsilon, delta)

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
        with pytest.raises(ConditionFailure):
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
        assert cond.tor_thermal(float(lam.min()), float(lam.max()))
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
    total = 0.0
    for var_x, var_p, a in zip(circuit.variances[:m], circuit.variances[m:], alpha):
        # the s-PQD of a centered Gaussian input, in closed form
        ap, am = var_x - s, var_p - s
        total += math.log(2.0 / (math.pi * math.sqrt(ap * am))) - 2.0 * (a.real**2 / ap + a.imag**2 / am)
    beta = circuit.unitary.u @ alpha
    for out, b in zip(circuit.pattern, beta):
        total += math.log(abs(float(ps.pi_w_profile(out, s)(abs(b) ** 2))))
    return total


FOLDED_CASES = [
    lo.CircuitSpec(((0.0, 1.5), (0.0, 2.0)), lo.haar_unitary(2, 14), (photon(1), CLICK)),
    lo.CircuitSpec(((0.05, 1.8), (0.0, 1.6), (0.05, 2.0)), lo.haar_unitary(3, 21), (photon(1), MARGINAL, CLICK)),
    lo.CircuitSpec(((0.0, 1.7), (0.0, 1.9), (0.0, 1.5)), lo.haar_unitary(3, 5), (CLICK, NOCLICK, photon(1))),
]


class TestFoldedProposal:
    """The multiplicative estimate's proposal: the folded sampler at the
    searched shift, whose Gaussian factors fold into the precision."""

    @pytest.mark.parametrize("case", range(len(FOLDED_CASES)))
    def test_weight_is_integrand_over_proposal(self, case):
        # f(x) = exp(log_prefactor) * q(x) * w(x) with q the folded Gaussian
        circuit = FOLDED_CASES[case]
        s = circuit.s_max - 0.5
        setup = est.Setup(circuit, s)
        assert len(setup.free_idx) == 2 * circuit.m
        gamma = est.resolve_gamma(setup)
        root = ref.precision_root(setup, gamma)
        sampler = est.build_folded_sampler(setup, gamma)
        dim = 2 * circuit.m
        z = np.random.default_rng(case).standard_normal((dim, 5))
        x = np.linalg.solve(root.T, z)
        # |beta|^2 of the weighted modes at x, without the (possibly
        # rank-reduced) kernel
        beta = circuit.unitary.u @ (x[: circuit.m] + 1j * x[circuit.m :])
        b = np.abs(beta[list(sampler.active_modes)]) ** 2
        w = sampler.scale * np.exp(-sampler.exponents @ b)
        for poly, b_j in zip(sampler.polys, b):
            if poly is not None:
                w = w * poly(b_j)
        log_q = (
            -0.5 * np.sum(z * z, axis=0)
            + float(np.sum(np.log(np.diagonal(root))))
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
def test_weights_lie_below_the_mode_sups(name):
    # the bound a multiplicative estimate checks every weight against: the
    # product of the weighted modes' suprema at the searched shift, which
    # the weights of these certified circuits come within 0.1% of
    circuit = CERTIFIED[name]
    assert all(cert.holds for cert in fpras.circuit_certificates(circuit))
    setup = est.Setup(circuit)
    gamma = est.resolve_gamma(setup)
    sampler = est.build_folded_sampler(setup, gamma)
    bound = float(np.prod(est.mode_sups(setup, gamma)[list(sampler.active_modes)]))
    assert sampler.bound == bound
    w = sampler.draw(np.random.default_rng(0), 20_000)
    assert np.all(w > 0.0)
    assert 0.999 * bound < float(np.max(w)) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
@pytest.mark.parametrize("delta", [0.05, 1e-6])
def test_rel_radius_is_below_the_ess_bound(name, delta):
    # rel_se^2 = 1/ESS - 1/n, so an estimate that meets the ESS target has a
    # radius below z*eps/sqrt(ESS_PER_EPS_SQ), which is below eps for every
    # delta above ~1.6e-12: checking after every chunk cannot pass the
    # radius check by chance
    epsilon = 0.1
    z_score = NormalDist().inv_cdf(1.0 - delta / 2.0)
    first = est.CHUNK * math.ceil(fpras.ESS_PER_EPS_SQ / epsilon**2 / est.CHUNK)
    for seed in range(4):
        cfg = est.EstimatorConfig(seed=seed)
        res = fpras.estimate_multiplicative(CERTIFIED[name], epsilon, delta, cfg)
        assert res.n_used % est.CHUNK == 0 and res.n_used >= first
        assert res.ess >= fpras.ESS_PER_EPS_SQ / epsilon**2
        assert res.rel_radius < z_score * epsilon / math.sqrt(fpras.ESS_PER_EPS_SQ)


def boundary_permanent(ratio):
    """The 8-mode permanent circuit whose spectrum runs from 1 to ``ratio``."""
    lam = np.linspace(1.0, ratio, 8)
    return lam, lo.embed_permanent(hpsd_with_spectrum(lo.haar_unitary(8, 3).u, lam)).circuit


def near_boundary_permanent():
    """A 4-mode permanent circuit with spectrum ratio 1.998: on seeds 1 and
    2 it stops at chunk 33 at eps = 0.02 and at chunk 132 (540672 samples)
    at eps = 0.01."""
    lam = np.linspace(1.0, 1.998, 4)
    return lo.embed_permanent(hpsd_with_spectrum(lo.haar_unitary(4, 3).u, lam)).circuit


def first_stopping_chunk(circuit, epsilon, delta, seed, chunks):
    """The first chunk count at which the stopping rule holds on the running
    sums, scanned over ``chunk_sums`` of the first ``chunks`` chunks, drawn
    by the sampler the estimator builds."""
    setup = est.Setup(circuit)
    sampler = est.build_folded_sampler(setup, est.resolve_gamma(setup))
    sums = est.chunk_sums(sampler, seed, 0, [est.CHUNK] * chunks, 1)
    s1, s2 = np.cumsum(sums, axis=1)  # running sums, added in chunk order
    n = est.CHUNK * np.arange(1, chunks + 1)
    ess, mean = s1 * s1 / s2, s1 / n
    rel_se = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0) / n) / mean
    target = fpras.ESS_PER_EPS_SQ / epsilon**2
    z_score = NormalDist().inv_cdf(1.0 - delta / 2.0)
    stops = np.flatnonzero((n >= target) & (ess >= target) & (z_score * rel_se <= epsilon))
    assert stops.size, f"the rule holds at none of the first {chunks} chunks"
    return int(stops[0]) + 1


def record_passes(monkeypatch) -> list:
    """(first chunk, sizes) of every ``chunk_sums`` call the estimator
    loop makes from here on, one per pass."""
    passes, chunk_sums = [], est.chunk_sums

    def recorded(sampler, seed, first, sizes, threads):
        passes.append((first, list(sizes)))
        return chunk_sums(sampler, seed, first, sizes, threads)

    monkeypatch.setattr(est, "chunk_sums", recorded)
    return passes


class TestMultiplicativeReduction:
    def test_threads_do_not_change_result(self, monkeypatch):
        circuit, epsilon = near_boundary_permanent(), 0.02
        # the first chunk boundary where the rule holds, whatever the passes
        stop = first_stopping_chunk(circuit, epsilon, 0.05, 2, 64)
        chunk_sums, passes = est.chunk_sums, record_passes(monkeypatch)
        runs = [
            fpras.estimate_multiplicative(circuit, epsilon, 0.05, est.EstimatorConfig(seed=2, threads=t))
            for t in (1, 2, 4)
        ]
        assert runs[0].n_used == est.CHUNK * stop
        first = math.ceil(fpras.ESS_PER_EPS_SQ / epsilon**2 / est.CHUNK)
        # the pass that holds the stopping chunk ends past it, so a check at
        # pass ends only would stop later
        end = min(start + len(sizes) for start, sizes in passes if start + len(sizes) >= stop)
        assert end > stop > first

        def one_chunk_per_call(sampler, seed, first, sizes, threads):
            return np.hstack([chunk_sums(sampler, seed, first + i, [n], threads) for i, n in enumerate(sizes)])

        monkeypatch.setattr(est, "chunk_sums", one_chunk_per_call)
        runs.append(
            fpras.estimate_multiplicative(circuit, epsilon, 0.05, est.EstimatorConfig(seed=2, threads=2))
        )
        assert len({json.dumps(run.as_dict()) for run in runs}) == 1

    def test_first_check_stop_draws_one_pass_of_two_chunks(self, monkeypatch):
        # at eps = 0.1 the ESS target of 5000 samples rounds up to 2 chunks,
        # drawn in one pass; an estimate that stops there draws no more
        passes = record_passes(monkeypatch)
        res = fpras.estimate_multiplicative(CERTIFIED["permanent"], 0.1, 0.05)
        assert res.n_used == 2 * est.CHUNK and passes == [(0, [est.CHUNK] * 2)]

    def test_ess_target_above_the_cap_raises_without_drawing(self, monkeypatch):
        def no_chunks(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(est, "chunk_sums", no_chunks)
        # 50 / eps^2 = 5e9 samples, above MAX_SAMPLES = 2^32: an input error,
        # as an additive estimate's Hoeffding count above it is
        with pytest.raises(SchemaError, match=r"^/epsilon: the effective sample size target 50/epsilon\^2 exceeds 2\^32 at 0.0001$"):
            fpras.estimate_multiplicative(CERTIFIED["permanent"], 1e-4, 0.05)

    def test_passes_run_in_chunk_order_to_the_cap(self, monkeypatch):
        # weights that never meet the stopping rule drive the passes to 2^20
        # samples and on to a lowered cap; each pass starts at the first
        # chunk not yet drawn
        batches = []

        def never_converging(sampler, seed, first, sizes, threads):
            assert (seed, first) == (3, sum(batches))
            batches.append(len(sizes))
            return np.zeros((2, len(sizes)))

        monkeypatch.setattr(est, "chunk_sums", never_converging)
        monkeypatch.setattr(est, "MAX_SAMPLES", 1 << 24)
        with pytest.raises(ConditionFailure, match=r"unmet at the 2\^32 cap$"):
            fpras.estimate_multiplicative(CERTIFIED["thermal"], 0.1, 0.05, est.EstimatorConfig(seed=3))
        assert sum(batches) == (1 << 24) // est.CHUNK and max(batches) == (1 << 20) // est.CHUNK
        # the first pass runs to the first boundary that can reach the ESS target
        assert batches[0] == math.ceil(fpras.ESS_PER_EPS_SQ / 0.1**2 / est.CHUNK)

    def test_memory_does_not_grow_with_samples(self):
        circuit = near_boundary_permanent()
        cfg = est.EstimatorConfig(seed=1, threads=2)
        tracemalloc.start()
        try:
            res = fpras.estimate_multiplicative(circuit, 0.01, 0.05, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a worker holds about 1 MB, while the weights of all 540672 samples
        # alone would take 4.3 MB (and their normals 35 MB)
        assert peak < 4 * 2**20 < 8 * res.n_used


class TestMultiplicativeWeightLimit:
    """Every weight is checked against the product of the weighted modes'
    ``mode_sups`` at the searched shift, the additive path's bound, which
    the weights come close to; a halved product must trip the check."""

    @staticmethod
    def halve_limit(monkeypatch):
        monkeypatch.setattr(est, "WEIGHT_BOUND_RTOL", -0.5)

    def test_halved_limit_raises(self, monkeypatch):
        circuit = CERTIFIED["permanent"]
        fpras.estimate_multiplicative(circuit, 0.1, 0.05)
        self.halve_limit(monkeypatch)
        with pytest.raises(ConditionFailure):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)

    def test_halved_limit_exits_2(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            '{"modes": [{"n": 1.5}, {"n": 2.0}, {"n": 1.8}, {"n": 1.6}],'
            ' "unitary": {"haar_seed": 5}, "pattern": [1, 1, 1, 1]}'
        )
        argv = ["estimate-prob", "--circuit", str(path), "--multiplicative"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        self.halve_limit(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the claimed bound" in captured.err


class TestConditionBoundary:
    def test_margin_tolerance_covers_rounding_only(self):
        assert fpras.check_quadratic_factor(1.0, 1.0 + 1e-15, 1.0).holds
        assert not fpras.check_quadratic_factor(1.0, 1.0 + 1e-10, 1.0).holds

    def test_ratio_two_certifies(self):
        # the embedding's rescaling rounds the margin to -1.8e-15
        lam, circuit = boundary_permanent(2.0)
        assert cond.permanent(lam)
        certs = fpras.circuit_certificates(circuit)
        assert all(cert.holds for cert in certs)
        assert min(cert.margin for cert in certs) < 0.0

    def test_ratio_two_estimates(self):
        # certified on the boundary, where the log-integrand is not strictly
        # concave; the folded proposal needs no Hessian
        b_mat = hpsd_with_spectrum(lo.haar_unitary(8, 3).u, np.linspace(1.0, 2.0, 8))
        emb = lo.embed_permanent(b_mat)
        exact = oracles.permanent_exact(b_mat).real
        for seed in range(3):
            res = fpras.estimate_multiplicative(emb.circuit, 0.1, 0.05, est.EstimatorConfig(seed=seed))
            assert res.n_used == 2 * est.CHUNK
            assert abs(emb.prefactor * res.value / exact - 1.0) <= 0.1

    def test_ratio_above_two_rejected(self):
        lam, circuit = boundary_permanent(2.01)
        assert not cond.permanent(lam)
        with pytest.raises(ConditionFailure, match="certificate failed"):
            fpras.estimate_multiplicative(circuit, 0.1, 0.05)


def case_certificates(circuit):
    """(family, a, b, c) of every non-Gaussian mode, written per outcome
    kind at the circuit's classicality and full forward shift."""
    s = circuit.s_max
    gap = circuit.a_max - s
    rate = math.inf if gap <= 0.0 else 2.0 / gap
    out = []
    for outcome in circuit.pattern:
        if outcome.kind == "click":
            out.append((fpras.check_threshold_factor, 1.0, 2.0 / (s + 1.0), rate))
        elif not outcome.is_gaussian:
            a = 2.0 * (s * s - 1.0)
            out.append((fpras.check_quadratic_factor, a, 8.0, 2.0 / (s + 1.0) + rate))
    return out


class TestCertificateCoefficients:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        s=st.floats(1.001, 6.0),
        rate=st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
    )
    def test_factor_coefficients_match_case_forms(self, s, rate):
        sp = s + 1.0
        click = ps.pi_w_profile(CLICK, s).certificate_form(rate)
        assert click == ("ThresholdFactor", (1.0, 2.0 / sp, rate))
        family, (a, b, c) = ps.pi_w_profile(photon(1), s).certificate_form(rate)
        assert (family, b, c) == ("QuadraticFactor", 8.0, 2.0 / sp + rate)
        assert a == pytest.approx(2.0 * (s * s - 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "name", sorted(CERTIFIED) + ["ratio-1.5", "ratio-1.9", "ratio-2", "ratio-2.01"]
    )
    def test_circuit_margins_match_case_forms(self, name):
        circuit = CERTIFIED[name] if name in CERTIFIED else boundary_permanent(float(name[6:]))[1]
        got = [cert for cert in fpras.circuit_certificates(circuit) if cert.margin != math.inf]
        ref = [check(a, b, c) for check, a, b, c in case_certificates(circuit)]
        assert len(got) == len(ref)
        for cert, want, (_, a, b, c) in zip(got, ref, case_certificates(circuit)):
            assert (cert.family, cert.holds) == (want.family, want.holds)
            scale = abs(c * a) + b  # the margin is a difference of terms of this size
            assert cert.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize(
        "outcome, s, match",
        [
            (photon(2), 1.5, "photon count 2"),
            (photon(0), 1.5, "photon count 0"),
            (NOCLICK, 1.5, "photon count 0"),
            (MARGINAL, 1.5, "photon count 0"),
        ],
    )
    def test_factors_without_a_form_are_rejected(self, outcome, s, match):
        with pytest.raises(ConditionFailure, match=match):
            ps.pi_w_profile(outcome, s).certificate_form(0.3)

    @pytest.mark.parametrize(
        "outcome, s, margin",
        [
            (photon(1), 0.8, 2.0 * (0.8**2 - 1.0)),  # changes sign: a < 0
            (CLICK, 1.0, 0.0),  # vanishes at the origin: a = b
            (CLICK, 0.5, 1.0 - 2.0 / 1.5),  # negative at the origin: a < b
        ],
        ids=["photon1-0.8", "click-1.0", "click-0.5"],
    )
    def test_nonpositive_factor_margins(self, outcome, s, margin):
        family, coefs = ps.pi_w_profile(outcome, s).certificate_form(0.3)
        cert = fpras._CHECKS[family](*coefs)
        assert (cert.holds, cert.witness_line) == (False, None)
        assert cert.margin == pytest.approx(margin, rel=1e-12, abs=1e-15)

    def test_unit_classicality_photon_is_not_log_concave(self):
        # vacuum inputs put s_max at 1, where one photon's factor vanishes at b = 0
        circuit = lo.CircuitSpec(((0.0, 0.0), (0.0, 1.0)), lo.haar_unitary(2, 3), (photon(1),) * 2)
        assert circuit.s_max == 1.0
        with pytest.raises(ConditionFailure, match="unit classicality"):
            fpras.circuit_certificates(circuit)


# Reference copies of the closed-form coefficients each condition family was
# derived from, in photon-number units; the code takes every family's
# coefficients from its extreme-mode circuit instead.
def permanent_coefficients(lambda_min, lambda_max):
    n_min = lambda_min / (1.0 - lambda_min)
    n_max = lambda_max / (1.0 - lambda_max)
    s = 2.0 * n_min + 1.0
    gap = n_max - n_min
    c = 1.0 / (n_min + 1.0) + (math.inf if gap <= 0.0 else 1.0 / gap)
    return 2.0 * (s * s - 1.0), 8.0, c


def hafnian_st_coefficients(n, r_max):
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    gap = (2.0 * n + 1.0) * math.exp(2.0 * r_max) - s
    c = 2.0 / (s + 1.0) + (math.inf if gap <= 0.0 else 2.0 / gap)
    return 2.0 * (s * s - 1.0), 8.0, c


def tor_thermal_coefficients(lambda_min, lambda_max):
    n_min = lambda_min / (1.0 - lambda_min)
    n_max = lambda_max / (1.0 - lambda_max)
    s = 2.0 * n_min + 1.0
    gap = n_max - n_min
    return 1.0, 2.0 / (s + 1.0), math.inf if gap <= 0.0 else 1.0 / gap


def tor_st_coefficients(n, r_max):
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    gap = (2.0 * n + 1.0) * math.exp(2.0 * r_max) - s
    return 1.0, 2.0 / (s + 1.0), math.inf if gap <= 0.0 else 2.0 / gap


def gbs_noise_coefficients(eta, r_max, n_th):
    env = (1.0 - eta) * (2.0 * n_th + 1.0)
    s = eta * math.exp(-2.0 * r_max) + env
    gap = eta * math.exp(2.0 * r_max) + env - s
    return 1.0, 2.0 / (s + 1.0), math.inf if gap <= 0.0 else 2.0 / gap


def quadratic_condition(a, b, c):
    return a > 0.0 and (math.isinf(c) or c * a >= b)


def threshold_condition(a, b, c):
    if a <= b:
        return False
    return a >= 2.0 * b if math.isinf(c) else a >= (b * b + 2.0 * b * c) / c


# family -> (reference coefficients, certificate family, reference condition)
HAND_FORMS = {
    "permanent": (lambda lam: permanent_coefficients(min(lam), max(lam)), "QuadraticFactor", quadratic_condition),
    "hafnian": (hafnian_st_coefficients, "QuadraticFactor", quadratic_condition),
    "tor-thermal": (tor_thermal_coefficients, "ThresholdFactor", threshold_condition),
    "tor-squeezed-thermal": (tor_st_coefficients, "ThresholdFactor", threshold_condition),
    "gbs-noise": (gbs_noise_coefficients, "ThresholdFactor", threshold_condition),
}

_UNIT = st.floats(0.02, 0.98)
# acceptance C7's parameter ranges per family
C7_PARAMS = {
    "permanent": st.tuples(st.lists(_UNIT, min_size=2, max_size=2)),
    "hafnian": st.tuples(st.floats(0.0, 6.0), st.floats(0.01, 1.0)),
    "tor-thermal": st.lists(_UNIT, min_size=2, max_size=2).map(sorted).map(tuple),
    "tor-squeezed-thermal": st.tuples(st.floats(0.0, 30.0), st.floats(0.01, 0.5)),
    "gbs-noise": st.tuples(st.floats(0.0, 0.95), st.floats(0.01, 1.0), st.floats(0.0, 30.0)),
}


def circuit_form(circuit):
    """(family, (a, b, c)) of the circuit's first mode at its classicality
    and full forward shift."""
    s = circuit.s_max
    gap = circuit.a_max - s
    return ps.pi_w_profile(circuit.pattern[0], s).certificate_form(
        math.inf if gap <= 0.0 else 2.0 / gap
    )


class TestConditionCircuits:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), family=st.sampled_from(sorted(C7_PARAMS)))
    def test_circuit_forms_match_reference_coefficients(self, data, family):
        params = data.draw(C7_PARAMS[family])
        coefficients, kind, condition = HAND_FORMS[family]
        want = coefficients(*params)
        got_kind, got = circuit_form(fpras.CONDITION_CIRCUITS[family](*params))
        assert got_kind == kind
        for x, y in zip(got, want):
            assert x == y or abs(x - y) <= 1e-12 * abs(y)
        cert = fpras.check_condition(family, *params)
        assert cert.holds == condition(*want) == cond.CONDITIONS[family](*params)

    @pytest.mark.parametrize(
        "family, params, exact",
        [
            ("tor-thermal", (0.6, 0.6), 0.36),
            ("tor-squeezed-thermal", (3.0, 0.0), 0.75),
            ("gbs-noise", (0.5, 0.0, 3.0), 0.6),
        ],
    )
    def test_degenerate_spectra_certify_and_estimate(self, family, params, exact):
        # equal input variances put the full forward shift at c = inf
        cert = fpras.check_condition(family, *params)
        assert cond.CONDITIONS[family](*params) and cert.holds and cert.margin > 0.0
        circuit = fpras.CONDITION_CIRCUITS[family](*params)
        assert oracles.exact_threshold_probability(circuit, circuit.pattern) == pytest.approx(exact)
        res = fpras.estimate_multiplicative(circuit, 0.1, 0.05, est.EstimatorConfig(seed=1))
        assert abs(res.value / exact - 1.0) <= 0.1

    def test_permanent_spectrum_must_be_rescaled(self):
        with pytest.raises(ValueError, match="lambda_max < 1"):
            fpras.check_condition("permanent", [1.0, 1.5])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        a=st.floats(0.0, 1e6),
        b=st.floats(0.0, 1e6),
        c=st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.just(math.inf)),
    )
    def test_margins_are_never_nan(self, a, b, c):
        for check in (fpras.check_quadratic_factor, fpras.check_threshold_factor):
            cert = check(a, b, c)
            assert not math.isnan(cert.margin)
            assert cert.witness_line is None or not math.isnan(cert.witness_line[2])

    def test_infinite_rate_takes_the_limit(self):
        assert fpras.check_threshold_factor(1.0, 0.4, math.inf).margin == pytest.approx(0.2)
        assert not fpras.check_threshold_factor(1.0, 0.6, math.inf).holds
        cert = fpras.check_quadratic_factor(0.5, 8.0, math.inf)
        assert cert.holds and cert.margin == math.inf
