"""Budgets against the paper's closed forms, envelopes, oracle sandwiches."""

import math

import numpy as np
import pytest

from pqdkit import bounds, estimator as est, factors, linear_optics as lo, oracles
from pqdkit.errors import SchemaError
from pqdkit.phase_space import CLICK, MARGINAL, photon, pi_w_profile

from shift_reference import (
    W_INV_E,
    analytic_budget,
    block_a,
    optimal_gamma_st,
    optimal_gamma_threshold,
    reference_constants,
    searched_budget,
)


class TestPaperConstants:
    def test_values_to_three_decimals(self):
        consts = reference_constants()
        assert round(consts["compressed_budget_rate"], 3) == 1.502
        assert round(consts["sparse_budget_rate"], 3) == 1.386
        assert round(consts["shift_branch_point"], 3) == 0.386
        assert round(consts["thermal_budget_rate"], 3) == 1.472
        assert round(consts["thermal_budget_floor"], 3) == 0.736
        assert round(consts["max_squeezing_ideal"], 3) == 0.722
        assert round(consts["max_transmissivity"], 3) == 0.764
        assert round(consts["classicality_floor"], 3) == 0.236


# ---------------------------------------------------------------------------
# the paper's closed-form budgets, kept here as reference formulas: each
# per-mode factor is the supremum of the optimally shifted measurement
# factor at s = s_max times the mode's share of the matrix-to-circuit
# prefactor.  The estimator computes every budget from the sampler it ran
# (``est.budget_factors``); at s_max and the analytic shift the two agree.
# ---------------------------------------------------------------------------


def ref_hafnian(lam):
    """|Haf(R)|^2: lam_max^2 / sqrt(lam_max^2 (1-W)^2 - lam_i^2 W^2)."""
    lam = np.asarray(lam, dtype=float)
    lam_max, w = float(np.max(lam)), W_INV_E
    return lam_max**2 / np.sqrt(lam_max**2 * (1.0 - w) ** 2 - lam**2 * w**2)


def ref_permanent(lam):
    """Per(B): the rank-deficient form when the spectrum touches zero, the
    discriminant form otherwise (its limit at a degenerate spectrum)."""
    lam = np.asarray(lam, dtype=float)
    lmx, lmn = float(np.max(lam)), float(np.min(lam))
    if lmn < 1e-12:
        return 4.0 * lmx**2 / (math.e * (2.0 * lmx - lam))
    if lmx - lmn <= 1e-9 * lmx:
        return lmx**2 / (2.0 * lmx - lam)
    disc = math.sqrt(4.0 * lmx**2 - 8.0 * lmx * lmn + 5.0 * lmn**2)
    expo = math.exp((lmn - disc) / (2.0 * lmx - 2.0 * lmn))
    numer = 4.0 * lmn**2 * expo * (lmx - lmn) ** 2
    return numer / (
        (disc - 2.0 * lmx + lmn)
        * (lmn * (disc - 4.0 * lmx + 3.0 * lmn) - lam * (disc - 2.0 * lmx + lmn))
    )


def squeezed_thermal_variances(n, r):
    """The 2M variances (x of every mode, then p) of lossless squeezed
    thermal inputs of squeezing r_i and shared occupation n."""
    modes = tuple((float(x), n) for x in r)
    return lo.CircuitSpec(modes, lo.identity_interferometer(len(modes)), (MARGINAL,) * len(modes)).variances


def _k_plus(n, r):
    return 0.5 + n * (n + 1.0) + (n + 0.5) * np.cosh(2.0 * r)


def _ref_sups(variances, outcome, s, rate):
    """Per-mode sup of the shifted factor, input normalization included."""
    return pi_w_profile(outcome, s).sup(rate) * np.exp(
        factors.shift_exponents(factors.unshifted_exponents(variances, s), rate)[1]
    )


def _ref_forward_rate(gamma, gap):
    # a degenerate gap leaves every input a delta in phase space at s_max
    return 0.0 if gap <= 1e-12 else 2.0 * gamma / gap


def ref_torontonian(family, lam=None, n=None, r=None):
    """Tor: the R', B' and A' families at their optimal forward shifts."""
    if family == "squeezed":
        lam = np.asarray(lam, dtype=float)
        lmx = float(np.max(lam))
        e2r = (1.0 + lam) / (1.0 - lam)
        s = (1.0 - lmx) / (1.0 + lmx)
        rate = _ref_forward_rate(0.5 * (1.0 - lmx), float(np.max(e2r)) - s)
        return _ref_sups(np.concatenate([e2r, 1.0 / e2r]), CLICK, s, rate) / np.sqrt(1.0 - lam**2)
    if family == "thermal":
        lam = np.asarray(lam, dtype=float)
        n_list = lam / (1.0 - lam)
        s = 2.0 * float(np.min(n_list)) + 1.0
        rate = _ref_forward_rate(0.5 * (1.0 - np.max(lam)), 2.0 * float(np.max(n_list)) + 1.0 - s)
        a = 2.0 * n_list + 1.0
        return _ref_sups(np.concatenate([a, a]), CLICK, s, rate) / (1.0 - lam)
    r = np.asarray(r, dtype=float)
    r_max = float(np.max(r))
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    gamma = math.exp(-math.tanh(r_max)) / (n + 1.0)
    rate = _ref_forward_rate(gamma, (2.0 * n + 1.0) * math.exp(2.0 * r_max) - s)
    return _ref_sups(squeezed_thermal_variances(n, r), CLICK, s, rate) * np.sqrt(_k_plus(n, r))


def ref_block_a(n, r):
    """Haf(A): sqrt k+_i times the reverse-shifted single-photon supremum."""
    r = np.asarray(r, dtype=float)
    r_max = float(np.max(r))
    s = (2.0 * n + 1.0) * math.exp(-2.0 * r_max)
    rate = -2.0 * math.exp(-math.tanh(r_max)) * n / (n + 1.0) / (s + 1.0)
    return _ref_sups(squeezed_thermal_variances(n, r), photon(1), s, rate) * np.sqrt(_k_plus(n, r))


def spectral(family, lam):
    """Embedding of the diagonal matrix of ``lam`` (sorted descending, the
    order the decompositions return)."""
    diag = np.diag(lam)
    if family == "hafnian":
        return lo.embed_hafnian(diag)
    if family == "permanent":
        return lo.embed_permanent(diag)
    if family == "squeezed":
        return lo.embed_torontonian(lo.block_r_prime(diag))
    return lo.embed_torontonian(lo.block_b_prime(diag))


def squeezed_thermal(n, r):
    return lo.embed_torontonian(lo.block_a_prime(n, r, lo.identity_interferometer(len(r))))


def descending(rng, low, high, m):
    return np.sort(rng.uniform(low, high, m))[::-1]


class TestReferenceFormulas:
    """The budget rule reproduces the paper's closed forms mode by mode."""

    def test_five_families_and_block_a_at_s_max(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            lam = descending(rng, 0.05, 0.9, m)
            for family, ref in (
                ("hafnian", ref_hafnian(lam)),
                ("permanent", ref_permanent(lam)),
                ("squeezed", ref_torontonian("squeezed", lam)),
                ("thermal", ref_torontonian("thermal", lam)),
            ):
                got = analytic_budget(spectral(family, lam))
                assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, family
            # in descending order, the order the A' recovery returns
            n, r = float(rng.uniform(0.0, 3.0)), np.sort(rng.uniform(0.0, 0.5, m))[::-1]
            got = analytic_budget(squeezed_thermal(n, r))
            assert np.max(np.abs(got / ref_torontonian("squeezed_thermal", n=n, r=r) - 1.0)) <= 1e-12
            got = analytic_budget(lo.embed_hafnian_block_a(n, r))
            assert np.max(np.abs(got / ref_block_a(n, r) - 1.0)) <= 1e-12

    def test_rank_deficient_permanent_below_s_max(self):
        # s_max = 1 there, where no single-photon factor exists; the sampler
        # runs at s_max - S_MAX_MARGIN
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            lam = descending(rng, 0.05, 0.9, m)
            lam[int(rng.integers(1, m)) :] = 0.0
            emb = spectral("permanent", lam)
            assert emb.circuit.s_max == 1.0
            got = analytic_budget(emb, 1.0 - est.S_MAX_MARGIN)
            assert np.max(np.abs(got / ref_permanent(lam) - 1.0)) <= 1e-9

    def test_estimate_budget_is_the_sampled_rule(self):
        # a default estimate samples at s_max - S_MAX_MARGIN and its searched
        # shift; its budget is at most the closed form, up to the margin
        rng = np.random.default_rng(13)
        lam = descending(rng, 0.1, 0.6, 4)
        q = lo.haar_unitary(4, 3).u
        b_mat = (q * lam) @ q.conj().T
        res = est.estimate_permanent_hpsd((b_mat + b_mat.conj().T) / 2.0, est.EstimatorConfig())
        emb = lo.embed_permanent((b_mat + b_mat.conj().T) / 2.0)
        assert res.report.s == emb.circuit.s_max - est.S_MAX_MARGIN
        s = res.report.s
        assert np.array_equal(res.budget_factors, searched_budget(emb, s))
        assert res.budget == 0.05 * float(np.prod(res.budget_factors))
        assert np.sum(np.log(res.budget_factors)) <= np.sum(np.log(ref_permanent(emb.lambdas))) + 1e-6


class TestBudgetHafnian:
    def test_uniform_spectrum_envelope(self):
        lam = 0.6
        product = float(np.prod(analytic_budget(spectral("hafnian", [lam] * 4))))
        rate = lam / math.sqrt(1.0 - 2.0 * W_INV_E)
        assert product == pytest.approx(rate**4, rel=1e-12)

    def test_sparse_spectrum_envelope(self):
        lam = 0.6
        got = analytic_budget(spectral("hafnian", [lam, 0.0, 0.0]))
        assert got[1] == pytest.approx(lam / (1.0 - W_INV_E), rel=1e-12)

    def test_mixed_spectrum_between_envelopes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = descending(rng, 0.0, 0.9, 5)
            lam_max = float(np.max(lam))
            product = float(np.prod(analytic_budget(spectral("hafnian", lam))))
            low = (lam_max / (1.0 - W_INV_E)) ** 5
            high = (lam_max / math.sqrt(1.0 - 2.0 * W_INV_E)) ** 5
            assert low * (1 - 1e-12) <= product <= high * (1 + 1e-12)


class TestBudgetPermanent:
    def test_rank_deficient_envelopes(self):
        lam = 0.5
        got = analytic_budget(spectral("permanent", [lam] * 3 + [0.0]), 1.0 - est.S_MAX_MARGIN)
        assert got[0] == pytest.approx(4.0 * lam / math.e, rel=1e-9)
        assert got[-1] == pytest.approx(2.0 * lam / math.e, rel=1e-9)

    def test_full_rank_discriminant_form(self):
        lam = np.array([0.55, 0.4, 0.25])
        got = analytic_budget(spectral("permanent", lam))
        lmx, lmn = 0.55, 0.25
        disc = math.sqrt(4 * lmx**2 - 8 * lmx * lmn + 5 * lmn**2)
        expo = math.exp((lmn - disc) / (2 * lmx - 2 * lmn))
        for li, factor in zip(lam, got):
            expected = (
                4.0 * lmn**2 * expo * (lmx - lmn) ** 2
                / (
                    (disc - 2 * lmx + lmn)
                    * (lmn * (disc - 4 * lmx + 3 * lmn) - li * (disc - 2 * lmx + lmn))
                )
            )
            assert factor == pytest.approx(expected, rel=1e-12)

    def test_budget_matches_estimator_sups(self):
        # an estimate's budget factors are its prefactor shares times the
        # suprema it sampled with, mode by mode
        rng = np.random.default_rng(1)
        for _ in range(5):
            lam = np.sort(rng.uniform(0.1, 0.9, 3))
            q = lo.haar_unitary(3, int(rng.integers(0, 2**31))).u
            b_mat = (q * lam) @ q.conj().T
            b_mat = (b_mat + b_mat.conj().T) / 2.0
            a = 1.001
            res = est.estimate_permanent_hpsd(b_mat, est.EstimatorConfig(n_samples=16), a)
            emb = lo.embed_permanent(b_mat, a)
            rep = res.report
            sups = est.mode_sups(est.Setup(emb.circuit, rep.s), rep.shift)
            recon = a * emb.lambdas.max() * sups / (1.0 - emb.lambdas / emb.rescale)
            assert np.max(np.abs(res.budget_factors / recon - 1.0)) <= 1e-12
            assert np.sum(np.log(res.budget_factors)) <= np.sum(np.log(ref_permanent(emb.lambdas))) + 1e-6

    def test_hafnian_budget_matches_estimator_sups(self):
        rng = np.random.default_rng(2)
        r_mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r_mat = r_mat + r_mat.T
        a = 1.001
        res = est.estimate_hafnian_sq(r_mat, est.EstimatorConfig(n_samples=16), a)
        emb = lo.embed_hafnian(r_mat, a)
        rep = res.report
        sups = est.mode_sups(est.Setup(emb.circuit, rep.s), rep.shift)
        recon = a * emb.lambdas.max() * sups / np.sqrt(1.0 - (emb.lambdas / emb.rescale) ** 2)
        assert np.max(np.abs(res.budget_factors / recon - 1.0)) <= 1e-12
        assert np.max(np.abs(res.budget_factors / ref_hafnian(emb.lambdas) - 1.0)) <= 1e-7


class TestBudgetTorontonian:
    def test_families_finite_positive(self):
        for emb in (
            spectral("squeezed", [0.5, 0.35, 0.2]),
            spectral("thermal", [0.6, 0.4, 0.2]),
            squeezed_thermal(1.0, [0.1, 0.2, 0.3]),
        ):
            got = analytic_budget(emb)
            assert np.all(np.isfinite(got))
            assert np.all(got > 0.0)

    def test_thermal_closed_form(self):
        # exact stationary evaluation agrees with the bracketed closed form
        lam = np.array([0.5, 0.35, 0.2])
        lam_max, lam_min = 0.5, 0.2
        got = analytic_budget(spectral("thermal", lam))
        base = (1 - lam_max) ** 2 / ((1 - lam_min) * (1 + lam_max**2 - 2 * lam_min))
        expo = (1 + lam_max**2 - 2 * lam_min) / (2 * lam_max - 2 * lam_min)
        for li, factor in zip(lam, got):
            num = 4 * (lam_max - lam_min) ** 2 * base**expo * (lam_min - 1)
            den = (1 - lam_max) ** 2 * (
                li * (1 + lam_max**2 - 2 * lam_min)
                + lam_min
                - lam_max * (2 + (lam_max - 2) * lam_min)
            )
            assert factor == pytest.approx(num / den, rel=1e-9)

    def test_squeezed_budget_matches_sup_product(self):
        lam = np.array([0.5, 0.35, 0.2])
        got = analytic_budget(spectral("squeezed", lam))
        circuit = lo.CircuitSpec(
            tuple((float(np.arctanh(v)), 0.0) for v in lam),
            lo.haar_unitary(3, 3),
            (CLICK,) * 3,
        )
        sups = est.mode_sups(est.Setup(circuit, circuit.s_max), optimal_gamma_threshold(0.5))
        recon = sups / np.sqrt(1.0 - lam**2)
        assert np.max(np.abs(got / recon - 1.0)) <= 1e-9


class TestPermanentBounds:
    def test_diagonal_equality_at_uniform_spectrum(self):
        lam = 0.7
        rep = bounds.permanent_bounds([lam] * 4)
        assert rep.lower == pytest.approx(lam**4, rel=1e-12)
        assert rep.upper == pytest.approx(lam**4, rel=1e-12)

    def test_sandwich_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            lam = rng.uniform(0.05, 0.95, m)
            q = lo.haar_unitary(m, int(rng.integers(0, 2**31))).u
            b_mat = (q * lam) @ q.conj().T
            b_mat = (b_mat + b_mat.conj().T) / 2.0
            lam_s = np.linalg.eigvalsh(b_mat).clip(min=1e-12)
            rep = bounds.permanent_bounds(lam_s)
            per = oracles.permanent_exact(b_mat).real
            assert rep.lower * (1 - 1e-9) <= per <= rep.upper * (1 + 1e-9)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(SchemaError, match="^/lambdas: "):
            bounds.permanent_bounds([0.0, 0.5])


class TestHafnianBounds:
    def test_sandwich(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = float(rng.uniform(1.5, 4.0))
            r_list = rng.uniform(0.02, 0.3, 3)
            u = lo.haar_unitary(3, int(rng.integers(0, 2**31)))
            mat, _ = block_a(n, r_list, u)
            haf = oracles.hafnian_exact(mat).real
            rep = bounds.hafnian_bounds(n, r_list)
            assert rep.lower * (1 - 1e-9) <= haf <= rep.upper * (1 + 1e-9)

    def test_thermal_limit_matches_permanent_route(self):
        n = 2.0
        u = lo.haar_unitary(3, 5)
        mat, _ = block_a(n, [0.0, 0.0, 0.0], u)
        haf = oracles.hafnian_exact(mat).real
        rep = bounds.hafnian_bounds(n, [1e-12] * 3)
        assert rep.lower * (1 - 1e-6) <= haf <= rep.upper * (1 + 1e-6)

    def test_precondition(self):
        with pytest.raises(SchemaError, match="^/r-list: a_min = "):
            bounds.hafnian_bounds(0.1, [0.5])


class TestTorontonianBounds:
    def test_single_mode_collapse(self):
        lam = 0.45
        rep = bounds.torontonian_bounds("thermal", lambdas=[lam])
        assert rep.lower == pytest.approx(lam / (1.0 - lam), rel=1e-12)
        assert rep.upper == pytest.approx(lam / (1.0 - lam), rel=1e-12)

    def test_thermal_sandwich(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            lam = rng.uniform(0.05, 0.9, 3)
            q = lo.haar_unitary(3, int(rng.integers(0, 2**31))).u
            b_mat = (q * lam) @ q.conj().T
            b_mat = (b_mat + b_mat.conj().T) / 2.0
            mat = lo.block_b_prime(b_mat)
            tor = oracles.torontonian_exact(mat.data)
            rep = bounds.torontonian_bounds(
                "thermal", lambdas=np.linalg.eigvalsh(b_mat).clip(min=1e-12)
            )
            assert rep.lower * (1 - 1e-9) <= tor <= rep.upper * (1 + 1e-9)

    def test_squeezed_thermal_sandwich(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = float(rng.uniform(1.5, 4.0))
            r_list = rng.uniform(0.02, 0.3, 2)
            u = lo.haar_unitary(2, int(rng.integers(0, 2**31)))
            mat = lo.block_a_prime(n, r_list, u)
            tor = oracles.torontonian_exact(mat.data)
            rep = bounds.torontonian_bounds("squeezed_thermal", n=n, r_list=r_list)
            assert rep.lower * (1 - 1e-9) <= tor <= rep.upper * (1 + 1e-9)

    def test_unsupported_families(self):
        with pytest.raises(ValueError, match="pure-squeezed"):
            bounds.torontonian_bounds("squeezed", lambdas=[0.3])

    @pytest.mark.parametrize("lam_max", [1.0, 1.5])
    def test_thermal_rejects_eigenvalue_at_least_one(self, lam_max):
        # each mode's factor divides by 1 - lambda: at 1.5 two negative
        # factors used to multiply to a positive sandwich, at 1.0 to inf
        with pytest.raises(SchemaError, match="^/lambdas: .*lambda < 1"):
            bounds.torontonian_bounds("thermal", lambdas=[0.5, lam_max])


class TestBlockABudget:
    def test_factors_positive_and_tight_against_radius(self):
        n, r_list = 3.0, np.array([0.1, 0.2, 0.15])
        u = lo.haar_unitary(3, 8)
        emb = lo.embed_hafnian_block_a(n, r_list, u)
        got = analytic_budget(emb)
        assert np.all(got > 0.0)
        # the budget is the realized sampling bound of the estimator: the
        # mode suprema at the analytic reverse shift times sqrt|V_Q|
        gamma = optimal_gamma_st(n, float(np.max(r_list)))
        sups = est.mode_sups(est.Setup(emb.circuit, emb.circuit.s_max), gamma)
        sq_vq = float(np.prod(np.sqrt(lo.squeezed_thermal_k(n, r_list)[0])))
        assert sq_vq * float(np.prod(sups)) == pytest.approx(float(np.prod(got)), rel=1e-12)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_boundary_estimates_within_budget(self, n):
        # a_min = (2n + 1) e^{-2 r_max} = 1, where k_minus = 0 for r_i =
        # r_max (n = 0: the vacuum); the sampler runs at s_max - S_MAX_MARGIN
        # as anywhere else, and both families land within their budget or
        # radius of the oracle
        r_max = 0.5 * math.log(2.0 * n + 1.0)
        r_list, interf = [r_max, 0.2 * r_max], lo.haar_unitary(2, 3)
        config = est.EstimatorConfig(n_samples=20000, seed=1)
        a_prime = lo.block_a_prime(n, r_list, interf)
        tor = est.estimate_torontonian(a_prime, config)
        assert abs(tor.value - oracles.torontonian_exact(a_prime.data)) <= tor.budget
        circuit = lo.embed_hafnian_block_a(n, r_list, interf).circuit
        prob = est.estimate_probability(circuit, config)
        assert abs(prob.estimate - oracles.exact_probability(circuit, circuit.pattern)) <= prob.conf_radius
