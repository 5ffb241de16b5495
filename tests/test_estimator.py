"""Monte-Carlo estimator: bounds, shifts, folding, coverage, matrix targets."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from pqdkit import bounds, cli, estimator as est, linear_optics as lo, oracles
from pqdkit import factors
from pqdkit.errors import BoundViolation, BudgetOverflow, ShiftOutOfRange, SingularOrdering
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon, pi_w_profile


def squeezed_circuit(r_list, seed, pattern=None, eta=1.0):
    m = len(r_list)
    pattern = pattern or (photon(1),) * m
    return lo.CircuitSpec(
        modes=tuple((float(r), 0.0) for r in r_list),
        unitary=lo.haar_unitary(m, seed),
        pattern=tuple(pattern),
        eta=eta,
    )


def shifted_profile(outcome, s, rate, n_j=1.0):
    """Reference shifted measurement factor n_j * pi W(b) * exp(-rate * b)."""
    base = pi_w_profile(outcome, s)
    return lambda b: n_j * base(b) * np.exp(-rate * np.asarray(b, dtype=float))


def photon_factor(m, s, rate):
    """pi W of photon(m) times exp(-rate * b) with the two exponents combined,
    so that reverse rates do not overflow; scipy's Laguerre polynomial."""
    sp = s + 1.0
    c = 2.0 / sp + rate
    k = 4.0 / (1.0 - s * s)
    return lambda b: (2.0 / sp) * ((s - 1.0) / sp) ** m * eval_laguerre(m, k * b) * np.exp(-c * b)


def dense_sup(profile, grid, n_fine=2_001):
    """Reference supremum of |profile| over a dense sorted grid, refined by a
    second dense grid around each of its local maxima."""
    v = np.abs(profile(grid))
    left = np.concatenate(([-np.inf], v[:-1]))
    right = np.concatenate((v[1:], [-np.inf]))
    best = float(np.max(v))
    for i in np.flatnonzero((v > left) & (v >= right)):
        fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], n_fine)
        best = max(best, float(np.max(np.abs(profile(fine)))))
    return best


class TestNegativityBound:
    def test_vacuum_all_zero_photons_at_unit_ordering(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.0),) * 3, lo.haar_unitary(3, 1), (photon(0),) * 3
        )
        assert est.negativity_bound(circuit, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_high_squeezing_grows_exponentially(self):
        r = 0.9  # above the ideal-circuit squeezing cap 0.722
        for m in (2, 4, 6):
            circuit = squeezed_circuit([r] * m, 2)
            s = circuit.s_max
            bound = est.negativity_bound(circuit, s)
            lam = math.tanh(r)
            per_mode = lam * (1.0 + lam)  # |f(0)| of the single-photon factor
            assert per_mode > 1.0
            assert bound == pytest.approx(per_mode**m, rel=1e-9)

    def test_below_cap_stays_bounded(self):
        circuit = squeezed_circuit([0.5] * 4, 3, eta=0.5)
        s_max = circuit.s_max
        assert s_max >= math.sqrt(5.0) - 2.0
        assert est.negativity_bound(circuit, s_max) <= 1.0 + 1e-12

    def test_golden_section_matches_stationary_points(self):
        r = 0.3
        circuit = squeezed_circuit([r], 4)
        s = circuit.s_max
        analytic = est.negativity_bound(circuit, s)
        numeric = dense_sup(shifted_profile(photon(1), s, 0.0), np.linspace(0.0, 400.0, 4001))
        assert analytic == pytest.approx(numeric, abs=1e-9)

    def test_rejects_super_classical_ordering(self):
        circuit = squeezed_circuit([0.5], 5)
        with pytest.raises(SingularOrdering):
            est.negativity_bound(circuit, circuit.s_max + 0.1)


class TestModifiedNegativityBound:
    def test_zero_shift_equality(self):
        circuit = squeezed_circuit([0.4, 0.6], 6)
        s = circuit.s_max - 1e-9
        assert est.modified_negativity_bound(
            circuit, s, 0.0, est.FORWARD
        ) == pytest.approx(est.negativity_bound(circuit, s), rel=1e-9)

    def test_optimal_shift_below_one_per_mode(self):
        for r in (0.3, 0.9, 1.5):
            circuit = squeezed_circuit([r] * 3, 7)
            s = circuit.s_max
            lam = math.tanh(r)
            gamma, direction = est.optimal_gamma_squeezed([lam] * 3)[:2]
            sups = est.mode_sups(circuit, s, gamma, direction)
            assert np.all(sups < 1.0)
            expected = lam * math.sqrt(1.0 - lam * lam) / math.sqrt(
                1.0 - 2.0 * est.W_INV_E
            )
            assert np.max(np.abs(sups - expected)) <= 1e-9

    def test_scan_minimum_matches_family_optimum(self):
        lam = 0.55
        circuit = squeezed_circuit([math.atanh(lam)] * 2, 8)
        s = circuit.s_max
        gamma_opt, d_opt = est.optimal_gamma_squeezed([lam, lam])[:2]
        best = est.modified_negativity_bound(circuit, s, gamma_opt, d_opt)
        grid = np.linspace(0.0, 0.95, 96)
        for d in (est.FORWARD, est.REVERSE):
            for g in grid:
                assert est.modified_negativity_bound(circuit, s, float(g), d) >= best - 1e-9


class TestOptimalGammas:
    def test_branch_point_continuity(self):
        lam = est.SQUEEZED_BRANCH_POINT
        g_f, d_f = est.optimal_gamma_squeezed([lam - 1e-9])[:2]
        g_r, d_r = est.optimal_gamma_squeezed([lam + 1e-9])[:2]
        assert d_f == est.FORWARD and d_r == est.REVERSE
        assert abs(g_f) < 1e-7 and abs(g_r) < 1e-7  # both close at the boundary

    def test_balance_condition_numeric_root(self):
        lam = 0.2
        gamma, direction = est.optimal_gamma_squeezed([lam])[:2]
        assert direction == est.FORWARD
        e2r = (1.0 + lam) / (1.0 - lam)
        s = 1.0 / e2r

        def imbalance(g: float) -> float:
            rate = 2.0 * g / (e2r - s)
            c = 2.0 / (s + 1.0) + rate
            a_coef = 2.0 * (s * s - 1.0)
            b_star = 1.0 / c - a_coef / 8.0
            sp3 = (s + 1.0) ** 3
            return (8.0 * b_star + a_coef) * math.exp(-c * b_star) / sp3 - abs(a_coef) / sp3

        lo_g, hi_g = 0.0, 0.9
        for _ in range(200):
            mid = 0.5 * (lo_g + hi_g)
            if imbalance(lo_g) * imbalance(mid) <= 0:
                hi_g = mid
            else:
                lo_g = mid
        assert gamma == pytest.approx(0.5 * (lo_g + hi_g), abs=1e-9)

    def test_thermal_quarter(self):
        gamma, direction = est.optimal_gamma_thermal(0.0, 0.25)[:2]
        assert direction == est.FORWARD
        assert gamma == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_thermal_forward_branch_closes(self):
        gamma, direction = est.optimal_gamma_thermal(0.0, 0.5 - 1e-9)[:2]
        assert direction == est.FORWARD
        assert gamma == pytest.approx(0.0, abs=1e-8)

    def test_thermal_discriminant_branch_beats_rank_deficient_rule(self):
        lam_min, lam_max = 0.3, 0.6
        choice = est.optimal_gamma_thermal(lam_min, lam_max)
        budget_d = bounds.budget_permanent([lam_min, lam_max]).factors
        budget_0 = 4.0 * lam_max**2 / (math.e * (2.0 * lam_max - np.array([lam_min, lam_max])))
        assert np.all(budget_d <= budget_0 + 1e-12)
        assert not choice.fpras_recommended

    def test_thermal_fpras_hint(self):
        assert est.optimal_gamma_thermal(0.6, 0.9).fpras_recommended

    def test_threshold_family_values(self):
        gamma, direction = est.optimal_gamma_threshold(0.5)[:2]
        assert (gamma, direction) == (0.25, est.FORWARD)
        g_st, d_st = est.optimal_gamma_threshold_st(1.0, 0.4)[:2]
        assert g_st == pytest.approx(math.exp(-math.tanh(0.4)) / 2.0, rel=1e-12)
        assert d_st == est.FORWARD


class TestFactorBound:
    def test_pure_squeezed_analytic_vs_numeric(self):
        lam = 0.3
        circuit = squeezed_circuit([math.atanh(lam)] * 2, 9)
        s = circuit.s_max
        gamma, direction = est.optimal_gamma_squeezed([lam, lam])[:2]
        sups = est.mode_sups(circuit, s, gamma, direction)
        rate = 2.0 * gamma / ((1.0 + lam) / (1.0 - lam) - s)
        for j, sup in enumerate(sups):
            cov = circuit.covariances()[j]
            n_j = math.exp(factors.mode_lognorm(cov, s, rate))
            numeric = dense_sup(
                shifted_profile(photon(1), s, rate, n_j), np.linspace(0.0, 400.0, 4001)
            )
            assert sup <= numeric + 1e-9
            assert sup == pytest.approx(numeric, abs=1e-9)

    def test_thermal_rank_deficient_top_factor(self):
        lam = 0.4
        budget = bounds.budget_permanent([0.0, lam])
        assert budget.factors[-1] == pytest.approx(4.0 * lam / math.e, rel=1e-9)
        assert budget.factors[0] == pytest.approx(2.0 * lam / math.e, rel=1e-9)

    def test_threshold_squeezed_budget_value(self):
        lam_max = 0.5
        budget = bounds.budget_torontonian("squeezed", lambdas=[lam_max])
        # per-mode budget equals Z * sup of the shifted click factor
        circuit = squeezed_circuit([math.atanh(lam_max)], 11, pattern=(CLICK,))
        s = circuit.s_max
        sups = est.mode_sups(circuit, s, 0.25, est.FORWARD)
        assert budget.factors[0] == pytest.approx(
            sups[0] / math.sqrt(1.0 - lam_max**2), rel=1e-9
        )


class TestPhotonSuprema:
    """Exact suprema of the shifted photon(m >= 2) factors against a dense
    reference that reaches the peak near b = m / c."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        m=st.integers(2, 8),
        s=st.floats(-0.95, 3.0),
        g=st.floats(-0.999, 2.0),  # rate = g * 2/(s+1): c = 2/(s+1) + rate > 0
    )
    def test_matches_dense_reference(self, m, s, g):
        assume(abs(s - 1.0) > 1e-3)
        sp = s + 1.0
        rate = g * 2.0 / sp
        c = 2.0 / sp + rate
        k = 4.0 / (1.0 - s * s)
        # b = 50/c covers the far peak; a finer grid covers the Laguerre
        # oscillations, whose roots lie below x = k b = 4m + 2
        grid = np.union1d(
            np.linspace(0.0, 50.0 / c, 20_001),
            np.linspace(0.0, min(50.0 / c, (4 * m + 10) / abs(k)), 20_001),
        )
        ref = dense_sup(photon_factor(m, s, rate), grid)
        sup = factors.measurement_sup(photon(m), s, rate)
        assert sup >= ref * (1.0 - 1e-13)  # equal up to the rounding of two evaluations
        assert sup == pytest.approx(ref, rel=1e-9)

    def test_reference_matches_sampler_profile(self):
        for m, s, rate in [(2, 0.4, 0.3), (3, -0.5, -0.2), (5, 1.5, 0.1)]:
            b = np.linspace(0.0, 30.0, 301)
            expected = shifted_profile(photon(m), s, rate)(b)
            np.testing.assert_allclose(photon_factor(m, s, rate)(b), expected, rtol=1e-9)

    def test_unbounded_without_decay(self):
        assert factors.measurement_sup(photon(2), 0.5, -2.0 / 1.5) == math.inf

    def test_reverse_shift_near_limit(self, tmp_path, capsys):
        # the peak sits near b = m/c ~ 1.5e3, far outside |beta| <= 20
        path = tmp_path / "c.json"
        path.write_text(
            '{"modes": [{"r": 0.3}, {"r": 0.3}], "unitary": {"haar_seed": 1},'
            ' "pattern": [2, "marginal"]}'
        )
        argv = ["estimate-prob", "--circuit", str(path), "--gamma", "0.999",
                "--direction", "reverse", "--samples", "2000"]
        assert cli.main(argv) == 0
        rep = json.loads(capsys.readouterr().out)["result"]
        circuit = cli.circuit_file_parse(str(path))
        s = rep["s"]
        sup = est.mode_sups(circuit, s, 0.999, est.REVERSE)[0]
        assert sup == pytest.approx(4.317e5, rel=1e-3)
        rate = est._rate(s, 0.999, est.REVERSE, circuit.a_max)
        n_0 = math.exp(factors.mode_lognorm(circuit.covariances()[0], s, rate))
        c = 2.0 / (s + 1.0) + rate
        ref = n_0 * dense_sup(photon_factor(2, s, rate), np.linspace(0.0, 50.0 / c, 20_001))
        assert sup == pytest.approx(ref, rel=1e-9)
        # Hoeffding radius B_eff * sqrt(2 ln(2/delta) / n) at the default delta = 0.05
        sampler = est.build_folded_sampler(circuit, s, 0.999, est.REVERSE)
        radius = math.exp(sampler.log_prefactor) * sup * math.sqrt(2.0 * math.log(40.0) / 2000)
        assert rep["conf_radius"] == pytest.approx(radius, rel=1e-12)

    def test_strong_reverse_shift_does_not_overflow(self, tmp_path, capsys):
        # rate < -709/400: exp(-rate * b) alone overflows where the factor is bounded
        path = tmp_path / "c.json"
        path.write_text(
            '{"modes": [{}, {}, {"r": 1.8911, "n": 1.6150}],'
            ' "unitary": {"m": 3, "re": [[1,0,0],[0,1,0],[0,0,1]]},'
            ' "pattern": [3, "marginal", "click"]}'
        )
        assert cli.main(["estimate-prob", "--circuit", str(path), "--samples", "64"]) == 0
        rep = json.loads(capsys.readouterr().out)["result"]
        s = rep["s"]
        rate = -0.98 * 2.0 / (s + 1.0)
        assert rate < -709.0 / 400.0
        sup = factors.measurement_sup(photon(3), s, rate)
        c = 2.0 / (s + 1.0) + rate
        ref = dense_sup(photon_factor(3, s, rate), np.linspace(0.0, 50.0 / c, 20_001))
        assert math.isfinite(sup) and sup == pytest.approx(ref, rel=1e-9)


def generic_circuits():
    """Mixed patterns and lossy inputs, outside every analytic shift rule."""
    lossy = dict(eta=0.5, n_th=0.1)
    out = []
    for m, seed in ((3, 40), (4, 41)):
        u = lo.haar_unitary(m, seed)
        specs = ((photon(1),), (photon(2),), (photon(1), photon(2)), (CLICK,), (CLICK, NOCLICK))
        for spec in specs:
            pattern = spec + (MARGINAL,) * (m - len(spec))
            out.append(lo.CircuitSpec(((0.5, 0.0),) * m, u, pattern, **lossy))
    u3 = lo.haar_unitary(3, 7)
    mixed = ((0.3, 0.1), (0.6, 0.3), (0.2, 0.0))
    out.append(lo.CircuitSpec(((0.4, 0.2),), lo.haar_unitary(1, 1), (NOCLICK,)))
    out.append(lo.CircuitSpec(mixed, u3, (photon(1), photon(1), CLICK)))
    out.append(lo.CircuitSpec(mixed, u3, (CLICK, CLICK, NOCLICK)))
    out.append(lo.CircuitSpec(((0.3, 0.0), (0.6, 0.0)), lo.haar_unitary(2, 3), (photon(1), CLICK)))
    # minima on the reverse side
    for modes, seed, pattern in (
        (((0.9, 0.0), (0.9, 0.0), (0.5, 0.0)), 8, (photon(1), photon(1), NOCLICK)),
        (((0.0, 2.0), (0.0, 3.0)), 9, (photon(1), photon(2))),
        (((1.0, 0.0), (0.8, 0.0)), 10, (photon(2), photon(2))),
        (((0.5, 1.0), (0.3, 1.0), (0.2, 1.0)), 11, (photon(1), photon(1), NOCLICK)),
    ):
        out.append(lo.CircuitSpec(modes, lo.haar_unitary(len(modes), seed), pattern))
    return out


class TestShiftSearch:
    @pytest.mark.parametrize("index", range(len(generic_circuits())))
    def test_not_worse_than_dense_rate_scan(self, index):
        circuit = generic_circuits()[index]
        s = circuit.s_max - est.S_MAX_MARGIN
        a_max = circuit.a_max

        def log_b(rate):
            if rate >= 0.0:
                shift = (rate * (a_max - s) / 2.0, est.FORWARD)
            else:
                shift = (-rate * (s + 1.0) / 2.0, est.REVERSE)
            try:
                return est._log_effective_bound(circuit, s, *shift)
            except (ShiftOutOfRange, est.NotPositiveDefinite):
                return math.inf

        rates = np.linspace(-0.98 * 2.0 / (s + 1.0), 0.98 * 2.0 / (a_max - s), 801)
        scan = min(log_b(float(r)) for r in rates)
        gamma, direction = est._numeric_gamma(circuit, s)[:2]
        assert est._log_effective_bound(circuit, s, gamma, direction) <= scan + 1e-6


class TestWeightBound:
    @staticmethod
    def halve_sups(monkeypatch):
        true_sup = est.measurement_sup
        monkeypatch.setattr(est, "measurement_sup", lambda *args: 0.5 * true_sup(*args))

    def test_planted_wrong_supremum_raises(self, monkeypatch):
        circuit = squeezed_circuit([0.4, 0.3], 17, pattern=(photon(1), CLICK))
        cfg = est.EstimatorConfig(n_samples=4000, gamma_mode=(0.2, est.FORWARD))
        for method in ("folded", "naive"):
            est.estimate_probability(circuit, cfg, method=method)
        self.halve_sups(monkeypatch)
        for method in ("folded", "naive"):
            with pytest.raises(BoundViolation):
                est.estimate_probability(circuit, cfg, method=method)

    def test_planted_wrong_supremum_exits_2(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            '{"modes": [{"r": 0.4}, {"r": 0.3}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]}'
        )
        argv = ["estimate-prob", "--circuit", str(path), "--samples", "4000"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        self.halve_sups(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the claimed bound" in captured.err


class TestSampleCount:
    """Hoeffding rule N = ceil(2 C^{2M} ln(2/delta) / eps^2) for per-mode
    factor bound C over M modes, i.e. log B = M ln C."""

    def test_unit_bound(self):
        assert est._hoeffding_count(4 * math.log(1.0), 0.1, 0.05) == 738

    def test_floor_one(self):
        assert est._hoeffding_count(30 * math.log(0.2), 0.5, 0.5) == 1

    def test_overflow(self):
        with pytest.raises(BudgetOverflow):
            est._hoeffding_count(300 * math.log(1.2), 0.01, 0.05)

    def test_log_space_large(self):
        n = est._hoeffding_count(30 * math.log(1.2), 0.01, 0.05)
        expected = 2.0 * 1.2 ** 60 * math.log(40.0) / 1e-4
        assert n == pytest.approx(expected, rel=1e-9)


def reference_beta_sq(circuit, stds, fold, z):
    """|beta|^2 of every mode by the per-batch path the kernel replaces:
    triangular solve (folded) or per-coordinate scale (naive), scatter into
    all 2M coordinates, complex pushforward."""
    from scipy.linalg import solve_triangular

    m = circuit.m
    if fold is None:
        alpha = z * stds[:, None]
    else:
        alpha = np.zeros((2 * m, z.shape[1]))
        if len(fold.free_idx):
            alpha[fold.free_idx] = solve_triangular(fold.chol_lower.T, z, lower=False)
    beta = (alpha[:m] + 1j * alpha[m:]).T @ circuit.unitary.u.T
    return (np.abs(beta) ** 2).T


def naive_stds(circuit, s, rate):
    m = circuit.m
    stds = np.zeros(2 * m)
    for i, cov in enumerate(circuit.covariances()):
        for k, c in zip((i, m + i), factors.quadrature_exponents(cov, s, rate)):
            stds[k] = 0.0 if c is None else math.sqrt(1.0 / (2.0 * c))
    return stds


KERNEL_CASES = {
    # s = s_max freezes one quadrature of the squeezed modes
    "frozen-squeezed": (
        lo.CircuitSpec(((0.5, 0.0), (0.3, 0.0)), lo.haar_unitary(2, 32), (photon(2), photon(0))),
        "s_max",
        (0.2, est.FORWARD),
    ),
    # s = s_max freezes both quadratures of the least classical thermal mode
    "frozen-thermal": (
        lo.CircuitSpec(((0.0, 0.8), (0.0, 0.3)), lo.haar_unitary(2, 31), (photon(1),) * 2),
        "s_max",
        (0.1, est.REVERSE),
    ),
    "noclick-marginal": (
        lo.CircuitSpec(
            ((0.4, 0.0), (0.5, 0.0), (0.3, 0.0), (0.2, 0.1)),
            lo.haar_unitary(4, 33),
            (CLICK, NOCLICK, MARGINAL, photon(1)),
            eta=0.7,
        ),
        None,
        (0.2, est.FORWARD),
    ),
    "all-marginal": (
        lo.CircuitSpec(((0.5, 0.1), (0.2, 0.0)), lo.haar_unitary(2, 12), (MARGINAL, MARGINAL)),
        None,
        (0.4, est.FORWARD),
    ),
}


class TestSamplingKernel:
    @pytest.mark.parametrize("method", ["folded", "naive"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_matches_reference_pushforward(self, case, method):
        circuit, s_spec, (gamma, direction) = KERNEL_CASES[case]
        s = circuit.s_max if s_spec == "s_max" else circuit.s_max - est.S_MAX_MARGIN
        if method == "folded":
            sampler = est.build_folded_sampler(circuit, s, gamma, direction)
            fold = est._fold(circuit, s, gamma, direction)
            stds = None
            assert sampler.active_modes == fold.active_modes
        else:
            sampler = est._build_naive_sampler(circuit, s, gamma, direction)
            fold = None
            assert np.all(sampler.rates == sampler.rates[0])
            stds = naive_stds(circuit, s, float(sampler.rates[0]))
            assert sampler.active_modes == tuple(range(circuit.m))
        z = np.random.default_rng(5).standard_normal((sampler.kernel.shape[1], 3000))
        expected = reference_beta_sq(circuit, stds, fold, z)[list(sampler.active_modes)]
        got = sampler.beta_sq(z)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)

    def test_all_marginal_has_no_weighted_mode(self):
        circuit, _, gamma_mode = KERNEL_CASES["all-marginal"]
        s = circuit.s_max - est.S_MAX_MARGIN
        sampler = est.build_folded_sampler(circuit, s, *gamma_mode)
        assert sampler.active_modes == () and sampler.kernel.shape[0] == 0
        assert np.array_equal(sampler.draw(np.random.default_rng(1), 7), np.ones(7))
        rep = est.estimate_probability(circuit, est.EstimatorConfig(gamma_mode=gamma_mode))
        assert rep.n_used == 1

    def test_fused_batches_match_per_chunk_draws(self):
        # fusing chunks into one batch leaves each chunk's samples unchanged
        circuit = squeezed_circuit([0.3, 0.4, 0.2], 22)
        cfg = est.EstimatorConfig(n_samples=30_001, seed=9, chunks=7, gamma_mode=(0.2, est.FORWARD))
        rep = est.estimate_probability(circuit, cfg)
        sampler = est.build_folded_sampler(circuit, rep.s, rep.gamma, rep.direction)
        running, n_done = 0.0, 0
        for chunk, size in enumerate(est._chunk_sizes(cfg.n_samples, cfg.chunks)):
            running += float(np.sum(sampler.draw(est._chunk_rng(cfg.seed, chunk), size)))
            n_done += size
            assert rep.trace[chunk][:2] == (n_done, math.exp(sampler.log_prefactor) * running / n_done)


class TestFoldedSampler:
    def test_all_marginal_is_exact_unity(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.1), (0.2, 0.0)), lo.haar_unitary(2, 12), (MARGINAL, MARGINAL)
        )
        for gamma_mode in [(0.0, est.FORWARD), (0.4, est.FORWARD), (0.3, est.REVERSE)]:
            rep = est.estimate_probability(
                circuit, est.EstimatorConfig(gamma_mode=gamma_mode, seed=1)
            )
            assert rep.estimate == pytest.approx(1.0, abs=1e-10)
            assert rep.n_used == 1  # deterministic, no sampling variance

    def test_vacuum_all_zero_photons(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.0),) * 3, lo.haar_unitary(3, 13), (photon(0),) * 3
        )
        rep = est.estimate_probability(circuit, est.EstimatorConfig(seed=2))
        assert rep.estimate == pytest.approx(1.0, abs=1e-9)

    def test_marginalized_mode_matches_oracle(self):
        circuit = lo.CircuitSpec(
            ((0.4, 0.0), (0.3, 0.0), (0.5, 0.0)),
            lo.haar_unitary(3, 14),
            (photon(1), photon(1), MARGINAL),
        )
        exact = oracles.exact_probability(circuit, [1, 1, "marginal"])
        rep = est.estimate_probability(
            circuit, est.EstimatorConfig(n_samples=400_000, seed=3)
        )
        assert abs(rep.estimate - exact) <= max(rep.conf_radius, 5e-4)

    def test_folding_matches_naive(self):
        circuit = lo.CircuitSpec(
            ((0.4, 0.0), (0.6, 0.0), (0.2, 0.0)),
            lo.haar_unitary(3, 15),
            (photon(0), photon(1), MARGINAL),
            eta=0.8,
        )
        cfg = est.EstimatorConfig(n_samples=200_000, seed=4, gamma_mode=(0.2, est.FORWARD))
        rep_f = est.estimate_probability(circuit, cfg, method="folded")
        rep_n = est.estimate_probability(circuit, cfg, method="naive")
        assert abs(rep_f.estimate - rep_n.estimate) <= rep_f.conf_radius + rep_n.conf_radius
        # folding absorbs the Gaussian factors exactly, cutting the bound
        assert rep_f.conf_radius <= rep_n.conf_radius + 1e-12


class TestEstimateProbability:
    def test_odd_parity_outcome(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0),), lo.identity_interferometer(1), (photon(1),)
        )
        rep = est.estimate_probability(circuit, est.EstimatorConfig(seed=5))
        assert abs(rep.estimate) <= rep.conf_radius

    def test_two_mode_hafnian_link(self):
        lam = 0.45
        r_mat = np.array([[0.0, lam], [lam, 0.0]], dtype=complex)
        u, lams = lo.takagi(r_mat)
        circuit = lo.CircuitSpec(
            tuple((float(math.atanh(v)), 0.0) for v in lams),
            lo.Interferometer(2, u),
            (photon(1),) * 2,
        )
        # p = |Haf(R)|^2 / Z = lam^2 (1 - lam^2)
        target = lam**2 * (1.0 - lam**2)
        rep = est.estimate_probability(
            circuit, est.EstimatorConfig(n_samples=400_000, seed=6)
        )
        assert rep.estimate == pytest.approx(target, abs=3 * rep.conf_radius + 1e-4)

    def test_threshold_coverage_against_torontonian(self):
        r_list = [0.3, 0.45, 0.25, 0.4]
        circuit = squeezed_circuit(r_list, 16, pattern=(CLICK,) * 4)
        exact = oracles.exact_threshold_probability(circuit, (CLICK,) * 4)
        hits = 0
        for k in range(50):
            rep = est.estimate_probability(
                circuit, est.EstimatorConfig(epsilon=0.02, delta=0.1, seed=k)
            )
            if abs(rep.estimate - exact) <= rep.conf_radius:
                hits += 1
        assert hits >= 45

    def test_gamma_invariance(self):
        circuit = squeezed_circuit([0.3, 0.5], 17)
        agree = 0
        for k in range(30):
            rep_a = est.estimate_probability(
                circuit,
                est.EstimatorConfig(gamma_mode=(0.15, est.FORWARD), n_samples=20_000, seed=2 * k),
            )
            rep_b = est.estimate_probability(
                circuit,
                est.EstimatorConfig(gamma_mode=(0.35, est.REVERSE), n_samples=20_000, seed=2 * k + 1),
            )
            if abs(rep_a.estimate - rep_b.estimate) <= rep_a.conf_radius + rep_b.conf_radius:
                agree += 1
        assert agree >= 29

    def test_unbiasedness(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.7), (0.0, 0.4)), lo.haar_unitary(2, 18), (photon(1),) * 2
        )
        exact = oracles.exact_probability(circuit, [1, 1])
        vals = [
            est.estimate_probability(
                circuit, est.EstimatorConfig(n_samples=4000, seed=k)
            ).estimate
            for k in range(100)
        ]
        vals = np.array(vals)
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 3.0 * sem + 1e-12

    def test_hoeffding_coverage(self):
        circuit = lo.CircuitSpec(
            ((0.4, 0.0), (0.2, 0.1)), lo.haar_unitary(2, 19), (photon(1),) * 2
        )
        exact = oracles.exact_probability(circuit, [1, 1])
        delta = 0.1
        hits = 0
        runs = 200
        for k in range(runs):
            rep = est.estimate_probability(
                circuit, est.EstimatorConfig(epsilon=0.03, delta=delta, seed=k)
            )
            if abs(rep.estimate - exact) <= rep.conf_radius:
                hits += 1
        assert hits >= math.ceil((1.0 - delta) * runs)

    def test_deterministic_given_seed_and_chunks(self):
        circuit = squeezed_circuit([0.3, 0.4], 20)
        cfg = est.EstimatorConfig(n_samples=50_000, seed=7, chunks=8)
        a = est.estimate_probability(circuit, cfg).estimate
        b = est.estimate_probability(circuit, cfg).estimate
        assert a == b

    def test_threads_do_not_change_output(self):
        circuit = squeezed_circuit([0.3, 0.4], 20)
        cap = est.FUSED_BATCH
        for n_samples, chunks in [
            (50_000, 8),
            (2 * cap + 123, 2),  # chunks larger than the fused cap
            (50_001, 7),  # n not divisible by chunks
            (4 * cap, 16),  # several fused batches in one call
        ]:
            cfg = est.EstimatorConfig(n_samples=n_samples, seed=7, chunks=chunks)
            reps = [est.estimate_probability(circuit, cfg, threads=t) for t in (1, 2, 4)]
            for rep in reps[1:]:
                assert rep.estimate == reps[0].estimate
                assert rep.trace == reps[0].trace

    def test_trace_is_cumulative(self):
        circuit = squeezed_circuit([0.3], 21)
        cfg = est.EstimatorConfig(n_samples=16_000, seed=8, chunks=4)
        rep = est.estimate_probability(circuit, cfg)
        ns = [row[0] for row in rep.trace]
        assert ns == [4000, 8000, 12000, 16000]
        assert rep.trace[-1][1] == pytest.approx(rep.estimate)


class TestSingularOrderingBranch:
    def test_exact_classicality_freezes_delta_modes(self):
        # at s = s_max the least-classical mode's input collapses to a point;
        # the sampler pins its coordinates and stays unbiased
        circuit = lo.CircuitSpec(
            ((0.0, 0.8), (0.0, 0.3)), lo.haar_unitary(2, 31), (photon(1),) * 2
        )
        exact = oracles.exact_probability(circuit, [1, 1])
        cfg = est.EstimatorConfig(s=circuit.s_max, n_samples=400_000, seed=21)
        rep = est.estimate_probability(circuit, cfg)
        assert abs(rep.estimate - exact) <= max(rep.conf_radius, 3e-4)

    def test_exact_classicality_squeezed_freezes_one_quadrature(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0), (0.3, 0.0)), lo.haar_unitary(2, 32), (photon(2), photon(0))
        )
        exact = oracles.exact_probability(circuit, [2, 0])
        cfg = est.EstimatorConfig(s=circuit.s_max, n_samples=400_000, seed=22)
        rep = est.estimate_probability(circuit, cfg)
        assert abs(rep.estimate - exact) <= max(rep.conf_radius, 5e-4)
        cfg_naive = est.EstimatorConfig(s=circuit.s_max, n_samples=400_000, seed=23)
        rep_n = est.estimate_probability(circuit, cfg_naive, method="naive")
        assert abs(rep_n.estimate - exact) <= max(rep_n.conf_radius, 5e-4)


class TestMixedAndNoisyCircuits:
    def test_mixed_threshold_pattern_matches_oracle(self):
        circuit = lo.CircuitSpec(
            ((0.4, 0.0), (0.5, 0.0), (0.3, 0.0)),
            lo.haar_unitary(3, 33),
            (CLICK, NOCLICK, MARGINAL),
        )
        exact = oracles.exact_threshold_probability(circuit, circuit.pattern)
        rep = est.estimate_probability(
            circuit, est.EstimatorConfig(n_samples=400_000, seed=24)
        )
        assert abs(rep.estimate - exact) <= max(rep.conf_radius, 5e-4)

    def test_noisy_circuit_clicks_match_oracle(self):
        circuit = lo.CircuitSpec(
            ((0.4, 0.0), (0.3, 0.0)),
            lo.haar_unitary(2, 34),
            (CLICK, CLICK),
            eta=0.6,
            n_th=2.0,
        )
        assert circuit.s_max > 1.0
        exact = oracles.exact_threshold_probability(circuit, circuit.pattern)
        rep = est.estimate_probability(
            circuit, est.EstimatorConfig(n_samples=400_000, seed=25)
        )
        assert abs(rep.estimate - exact) <= max(rep.conf_radius, 5e-4)


class TestMatrixEstimators:
    def test_hafnian_swap_matrix(self):
        r_mat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = est.EstimatorConfig(epsilon=0.02, delta=0.05, seed=9)
        res = est.estimate_hafnian_sq(r_mat, cfg)
        assert abs(res.value - 1.0) <= res.budget

    def test_hafnian_odd_dimension(self):
        rng = np.random.default_rng(22)
        r_mat = rng.standard_normal((3, 3))
        r_mat = (r_mat + r_mat.T).astype(complex)
        cfg = est.EstimatorConfig(epsilon=0.05, delta=0.05, seed=10)
        res = est.estimate_hafnian_sq(r_mat, cfg)
        assert abs(res.value) <= res.budget

    def test_permanent_scalar(self):
        cfg = est.EstimatorConfig(epsilon=0.02, delta=0.05, seed=11)
        res = est.estimate_permanent_hpsd(np.array([[0.7]], dtype=complex), cfg)
        assert abs(res.value - 0.7) <= res.budget

    def test_permanent_two_by_two(self):
        cfg = est.EstimatorConfig(epsilon=0.02, delta=0.05, seed=12)
        res = est.estimate_permanent_hpsd(
            np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), cfg
        )
        assert abs(res.value - 5.0) <= res.budget
        assert res.gurvits_beaten is not None

    def test_torontonian_single_mode_thermal(self):
        n = 0.9
        lam = n / (n + 1.0)
        mat = lo.block_b_prime(np.array([[lam]], dtype=complex))
        cfg = est.EstimatorConfig(epsilon=0.02, delta=0.05, seed=13)
        res = est.estimate_torontonian(mat, cfg)
        assert abs(res.value - lam / (1.0 - lam)) <= res.budget

    def test_torontonian_block_a_within_budget(self):
        u = lo.haar_unitary(3, 23)
        mat = lo.block_a_prime(0.8, [0.2, 0.3, 0.25], u)
        exact = oracles.torontonian_exact(mat.data)
        cfg = est.EstimatorConfig(epsilon=0.05, delta=0.05, seed=14)
        res = est.estimate_torontonian(mat, cfg)
        assert abs(res.value - exact) <= res.budget

    def test_torontonian_zero_matrix(self):
        mat = lo.block_r_prime(np.zeros((2, 2)))
        cfg = est.EstimatorConfig(epsilon=0.05, delta=0.05, seed=15)
        res = est.estimate_torontonian(mat, cfg)
        assert abs(res.value) <= max(res.budget, 1e-9)

    def test_torontonian_rejects_wrong_tag(self):
        mat = lo.MatrixClass(lo.MatrixTag.HPSD_B, np.eye(2) * 0.5)
        with pytest.raises(ValueError):
            est.estimate_torontonian(mat, est.EstimatorConfig(seed=0))

    def test_gamma_window_rejected(self):
        circuit = squeezed_circuit([0.3], 24)
        with pytest.raises(ShiftOutOfRange):
            est.estimate_probability(
                circuit, est.EstimatorConfig(gamma_mode=(1.2, est.FORWARD))
            )


def _torontonian_case(family, seed, m=3):
    """Block matrix of one Torontonian family and the (n, r) it was built from."""
    rng = np.random.default_rng(seed)
    u = lo.haar_unitary(m, seed).u
    lam = rng.uniform(0.1, 0.5, m)
    if family == "R'":
        r_mat = (u * lam) @ u.T
        return lo.block_r_prime((r_mat + r_mat.T) / 2.0), None
    if family == "B'":
        b_mat = (u * lam) @ u.conj().T
        return lo.block_b_prime((b_mat + b_mat.conj().T) / 2.0), None
    n, r_list = (0.0 if family == "A' n=0" else 0.7), rng.uniform(0.1, 0.3, m)
    return lo.block_a_prime(n, r_list, lo.Interferometer(m, u)), (n, r_list)


class TestTorontonianShift:
    """Each Torontonian family runs at the analytic shift its budget is
    derived at, not at the automatic choice for its circuit; the seeds are
    instances where the two differ (in the last bit for R', B' and A' with
    n > 0, where the automatic rule re-derives lambda from the circuit)."""

    @pytest.mark.parametrize(
        "family, seed", [("R'", 3), ("B'", 0), ("A' n=0", 0), ("A' n>0", 0)]
    )
    def test_analytic_shift(self, family, seed):
        mat, st_params = _torontonian_case(family, seed)
        if st_params is None:
            expected = est.optimal_gamma_threshold(float(np.max(mat.decompose()[1])))
        else:
            n, r_list = st_params
            expected = est.optimal_gamma_threshold_st(n, float(np.max(r_list)))
        circuit = lo.embed_torontonian(mat).circuit
        auto = est.resolve_gamma(circuit, circuit.s_max - est.S_MAX_MARGIN)
        assert tuple(auto[:2]) != tuple(expected[:2])

        cfg = est.EstimatorConfig(n_samples=100, seed=1)
        report = est.estimate_torontonian(mat, cfg).report
        assert (report.gamma, report.direction) == tuple(expected[:2])
        fixed = est.estimate_torontonian(mat, replace(cfg, gamma_mode=(0.1, est.REVERSE)))
        assert (fixed.report.gamma, fixed.report.direction) == (0.1, est.REVERSE)


class TestSampleOverride:
    def test_nonpositive_rejected(self):
        for n in (0, -5):
            with pytest.raises(ValueError):
                est.EstimatorConfig(n_samples=n)

    def test_probability_and_matrix_paths_agree(self):
        cfg = est.EstimatorConfig(n_samples=7, seed=2)
        circuit = squeezed_circuit([0.3, 0.2], 5)
        assert est.estimate_probability(circuit, cfg).n_used == 7
        b_mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert est.estimate_permanent_hpsd(b_mat, cfg).report.n_used == 7
