"""Budgets and sandwich bounds: closed forms, envelopes, oracle sandwiches."""

import math

import numpy as np
import pytest

from pqdkit import bounds, estimator as est, linear_optics as lo, oracles
from pqdkit.errors import (
    PreconditionAminBelowOne,
    UnsupportedBound,
    ZeroEigenvalue,
)
from pqdkit.phase_space import CLICK, W_INV_E, photon


class TestPaperConstants:
    def test_values_to_three_decimals(self):
        consts = bounds.reference_constants()
        assert round(consts["compressed_budget_rate"], 3) == 1.502
        assert round(consts["sparse_budget_rate"], 3) == 1.386
        assert round(consts["shift_branch_point"], 3) == 0.386
        assert round(consts["thermal_budget_rate"], 3) == 1.472
        assert round(consts["thermal_budget_floor"], 3) == 0.736
        assert round(consts["max_squeezing_ideal"], 3) == 0.722
        assert round(consts["max_transmissivity"], 3) == 0.764
        assert round(consts["classicality_floor"], 3) == 0.236


class TestBudgetHafnian:
    def test_uniform_spectrum_envelope(self):
        lam = 0.6
        budget = bounds.budget_hafnian([lam] * 4)
        rate = lam / math.sqrt(1.0 - 2.0 * W_INV_E)
        assert budget.product == pytest.approx(rate**4, rel=1e-12)

    def test_sparse_spectrum_envelope(self):
        lam = 0.6
        budget = bounds.budget_hafnian([lam, 0.0, 0.0])
        assert budget.factors[1] == pytest.approx(lam / (1.0 - W_INV_E), rel=1e-12)

    def test_mixed_spectrum_between_envelopes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(0.0, 0.9, 5)
            lam_max = float(np.max(lam))
            budget = bounds.budget_hafnian(lam)
            low = (lam_max / (1.0 - W_INV_E)) ** 5
            high = (lam_max / math.sqrt(1.0 - 2.0 * W_INV_E)) ** 5
            assert low - 1e-12 <= budget.product <= high + 1e-12


class TestBudgetPermanent:
    def test_rank_deficient_envelopes(self):
        lam = 0.5
        uniform = bounds.budget_permanent([0.0] + [lam] * 3)
        assert uniform.factors[-1] == pytest.approx(4.0 * lam / math.e, rel=1e-12)
        assert uniform.factors[0] == pytest.approx(2.0 * lam / math.e, rel=1e-12)

    def test_full_rank_discriminant_form(self):
        lam = np.array([0.25, 0.4, 0.55])
        budget = bounds.budget_permanent(lam)
        lmx, lmn = 0.55, 0.25
        disc = math.sqrt(4 * lmx**2 - 8 * lmx * lmn + 5 * lmn**2)
        expo = math.exp((lmn - disc) / (2 * lmx - 2 * lmn))
        for li, factor in zip(lam, budget.factors):
            expected = (
                4.0 * lmn**2 * expo * (lmx - lmn) ** 2
                / (
                    (disc - 2 * lmx + lmn)
                    * (lmn * (disc - 4 * lmx + 3 * lmn) - li * (disc - 2 * lmx + lmn))
                )
            )
            assert factor == pytest.approx(expected, rel=1e-12)

    def test_budget_matches_estimator_sups(self):
        # the closed form reproduces the supremum product realized by the
        # estimator at its automatic shift, mode by mode
        rng = np.random.default_rng(1)
        for _ in range(5):
            lam = np.sort(rng.uniform(0.1, 0.9, 3))
            q = lo.haar_unitary(3, int(rng.integers(0, 2**31))).u
            b_mat = (q * lam) @ q.conj().T
            b_mat = (b_mat + b_mat.conj().T) / 2.0
            a = 1.001
            emb = lo.embed_permanent(b_mat, a)
            s = emb.circuit.s_max - 1e-9
            gamma, direction = est.resolve_gamma(emb.circuit, s)[:2]
            sups = est.mode_sups(emb.circuit, s, gamma, direction)
            recon = a * emb.lambdas.max() * sups / (1.0 - emb.lambdas_scaled)
            budget = bounds.budget_permanent(emb.lambdas)
            assert np.max(np.abs(np.sort(budget.factors) / np.sort(recon) - 1.0)) <= 1e-6

    def test_hafnian_budget_matches_estimator_sups(self):
        rng = np.random.default_rng(2)
        r_mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r_mat = r_mat + r_mat.T
        a = 1.001
        emb = lo.embed_hafnian(r_mat, a)
        s = emb.circuit.s_max - 1e-9
        gamma, direction = est.resolve_gamma(emb.circuit, s)[:2]
        sups = est.mode_sups(emb.circuit, s, gamma, direction)
        recon = a * emb.lambdas.max() * sups / np.sqrt(1.0 - emb.lambdas_scaled**2)
        budget = bounds.budget_hafnian(emb.lambdas)
        assert np.max(np.abs(np.sort(budget.factors) / np.sort(recon) - 1.0)) <= 1e-6


class TestBudgetTorontonian:
    def test_families_finite_positive(self):
        for family, kwargs in (
            ("squeezed", {"lambdas": [0.2, 0.35, 0.5]}),
            ("thermal", {"lambdas": [0.2, 0.4, 0.6]}),
            ("squeezed_thermal", {"n": 1.0, "r_list": [0.1, 0.2, 0.3]}),
        ):
            budget = bounds.budget_torontonian(family, **kwargs)
            assert np.all(np.isfinite(budget.factors))
            assert np.all(budget.factors > 0.0)

    def test_thermal_closed_form(self):
        # exact stationary evaluation agrees with the bracketed closed form
        lam = np.array([0.2, 0.35, 0.5])
        lam_max, lam_min = 0.5, 0.2
        budget = bounds.budget_torontonian("thermal", lambdas=lam)
        base = (1 - lam_max) ** 2 / ((1 - lam_min) * (1 + lam_max**2 - 2 * lam_min))
        expo = (1 + lam_max**2 - 2 * lam_min) / (2 * lam_max - 2 * lam_min)
        for li, factor in zip(lam, budget.factors):
            num = 4 * (lam_max - lam_min) ** 2 * base**expo * (lam_min - 1)
            den = (1 - lam_max) ** 2 * (
                li * (1 + lam_max**2 - 2 * lam_min)
                + lam_min
                - lam_max * (2 + (lam_max - 2) * lam_min)
            )
            assert factor == pytest.approx(num / den, rel=1e-9)

    def test_squeezed_budget_matches_sup_product(self):
        lam = np.array([0.2, 0.35, 0.5])
        budget = bounds.budget_torontonian("squeezed", lambdas=lam)
        circuit = lo.CircuitSpec(
            tuple((float(np.arctanh(v)), 0.0) for v in lam),
            lo.haar_unitary(3, 3),
            (CLICK,) * 3,
        )
        gamma, direction = est.optimal_gamma_threshold(0.5)[:2]
        sups = est.mode_sups(circuit, circuit.s_max, gamma, direction)
        recon = sups / np.sqrt(1.0 - lam**2)
        assert np.max(np.abs(np.sort(budget.factors) / np.sort(recon) - 1.0)) <= 1e-9


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
        with pytest.raises(ZeroEigenvalue):
            bounds.permanent_bounds([0.0, 0.5])


class TestHafnianBounds:
    def test_sandwich(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = float(rng.uniform(1.5, 4.0))
            r_list = rng.uniform(0.02, 0.3, 3)
            u = lo.haar_unitary(3, int(rng.integers(0, 2**31)))
            mat, _ = lo.build_block_A(n, r_list, u)
            haf = oracles.hafnian_exact(mat.data).real
            rep = bounds.hafnian_bounds(n, r_list)
            assert rep.lower * (1 - 1e-9) <= haf <= rep.upper * (1 + 1e-9)

    def test_thermal_limit_matches_permanent_route(self):
        n = 2.0
        u = lo.haar_unitary(3, 5)
        mat, _ = lo.build_block_A(n, [0.0, 0.0, 0.0], u)
        haf = oracles.hafnian_exact(mat.data).real
        rep = bounds.hafnian_bounds(n, [1e-12] * 3)
        assert rep.lower * (1 - 1e-6) <= haf <= rep.upper * (1 + 1e-6)

    def test_precondition(self):
        with pytest.raises(PreconditionAminBelowOne):
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
        with pytest.raises(UnsupportedBound):
            bounds.torontonian_bounds("squeezed", lambdas=[0.3])
        with pytest.raises(UnsupportedBound):
            bounds.hafnian_sq_bounds([0.3, 0.2])


class TestBlockABudget:
    def test_factors_positive_and_tight_against_radius(self):
        n, r_list = 3.0, np.array([0.1, 0.2, 0.15])
        budget = bounds.budget_hafnian_block_a(n, r_list)
        assert np.all(budget.factors > 0.0)
        # budget dominates the realized sampling radius of the estimator
        u = lo.haar_unitary(3, 8)
        circuit = lo.CircuitSpec(
            tuple((float(r), n) for r in r_list), u, (photon(1),) * 3
        )
        gamma, direction = est.optimal_gamma_st(n, float(np.max(r_list)))[:2]
        s = circuit.s_max
        sups = est.mode_sups(circuit, s, gamma, direction)
        sq_vq = lo.sqrt_vq_factor(n, r_list)
        assert sq_vq * float(np.prod(sups)) <= budget.product * (1 + 1e-9)
