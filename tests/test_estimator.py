"""Monte-Carlo estimator: bounds, shifts, folding, coverage, matrix targets."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from pqdkit import cli, estimator as est, fpras, linear_optics as lo, oracles
from pqdkit import phase_space as ps
from pqdkit.errors import ConditionFailure, SchemaError
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon, pi_w_profile

import shift_reference as ref


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


def log_norm(circuit, j, s, rate):
    """log N of mode j's shifted input factor: that of a one-mode circuit
    of the same input (r, n), losses and thermal noise."""
    one = lo.CircuitSpec(
        (circuit.modes[j],), lo.identity_interferometer(1), (MARGINAL,), circuit.eta, circuit.n_th
    )
    return float(est.Setup(one, s).shifted_inputs(rate)[1][0])


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
        assert est.negativity_bound(est.Setup(circuit, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_high_squeezing_grows_exponentially(self):
        r = 0.9  # above the ideal-circuit squeezing cap 0.722
        for m in (2, 4, 6):
            circuit = squeezed_circuit([r] * m, 2)
            s = circuit.s_max
            bound = est.negativity_bound(est.Setup(circuit, s))
            lam = math.tanh(r)
            per_mode = lam * (1.0 + lam)  # |f(0)| of the single-photon factor
            assert per_mode > 1.0
            assert bound == pytest.approx(per_mode**m, rel=1e-9)

    def test_below_cap_stays_bounded(self):
        circuit = squeezed_circuit([0.5] * 4, 3, eta=0.5)
        s_max = circuit.s_max
        assert s_max >= math.sqrt(5.0) - 2.0
        assert est.negativity_bound(est.Setup(circuit, s_max)) <= 1.0 + 1e-12

    def test_golden_section_matches_stationary_points(self):
        r = 0.3
        circuit = squeezed_circuit([r], 4)
        s = circuit.s_max
        analytic = est.negativity_bound(est.Setup(circuit, s))
        numeric = dense_sup(shifted_profile(photon(1), s, 0.0), np.linspace(0.0, 400.0, 4001))
        assert analytic == pytest.approx(numeric, abs=1e-9)

    def test_rejects_super_classical_ordering(self):
        circuit = squeezed_circuit([0.5], 5)
        with pytest.raises(SchemaError, match="^/s: .*exceeds variance"):
            est.negativity_bound(est.Setup(circuit, circuit.s_max + 0.1))


class TestModifiedNegativityBound:
    def test_zero_shift_equality(self):
        circuit = squeezed_circuit([0.4, 0.6], 6)
        setup = est.Setup(circuit, circuit.s_max - 1e-9)
        modified = float(np.prod(est.mode_sups(setup, 0.0)))
        assert modified == pytest.approx(est.negativity_bound(setup), rel=1e-9)

    def test_optimal_shift_below_one_per_mode(self):
        for r in (0.3, 0.9, 1.5):
            circuit = squeezed_circuit([r] * 3, 7)
            s = circuit.s_max
            lam = math.tanh(r)
            gamma = ref.optimal_gamma_squeezed([lam] * 3)
            sups = est.mode_sups(est.Setup(circuit, s), gamma)
            assert np.all(sups < 1.0)
            expected = lam * math.sqrt(1.0 - lam * lam) / math.sqrt(
                1.0 - 2.0 * ref.W_INV_E
            )
            assert np.max(np.abs(sups - expected)) <= 1e-9

    def test_scan_minimum_matches_family_optimum(self):
        lam = 0.55
        circuit = squeezed_circuit([math.atanh(lam)] * 2, 8)
        s = circuit.s_max
        gamma_opt = ref.optimal_gamma_squeezed([lam, lam])
        setup = est.Setup(circuit, s)
        best = float(np.prod(est.mode_sups(setup, gamma_opt)))
        grid = np.linspace(0.0, 0.95, 96)
        for sign in (1.0, -1.0):
            for g in grid:
                assert float(np.prod(est.mode_sups(setup, sign * float(g)))) >= best - 1e-9


class TestOptimalGammas:
    def test_branch_point_continuity(self):
        lam = ref.SQUEEZED_BRANCH_POINT
        g_f = ref.optimal_gamma_squeezed([lam - 1e-9])
        g_r = ref.optimal_gamma_squeezed([lam + 1e-9])
        assert g_f >= 0.0 > g_r  # forward below the branch point, reverse above
        assert abs(g_f) < 1e-7 and abs(g_r) < 1e-7  # both close at the boundary

    def test_balance_condition_numeric_root(self):
        lam = 0.2
        gamma = ref.optimal_gamma_squeezed([lam])
        assert gamma >= 0.0
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
        gamma = ref.optimal_gamma_thermal(0.0, 0.25)
        assert gamma >= 0.0
        assert gamma == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_thermal_forward_branch_closes(self):
        gamma = ref.optimal_gamma_thermal(0.0, 0.5 - 1e-9)
        assert gamma >= 0.0
        assert gamma == pytest.approx(0.0, abs=1e-8)

    def test_thermal_discriminant_branch_beats_rank_deficient_rule(self):
        lam_min, lam_max = 0.3, 0.6
        budget_d = ref.analytic_budget(lo.embed_permanent(np.diag([lam_max, lam_min])))
        budget_0 = 4.0 * lam_max**2 / (math.e * (2.0 * lam_max - np.array([lam_max, lam_min])))
        assert np.all(budget_d <= budget_0 + 1e-12)

    def test_threshold_family_values(self):
        assert ref.optimal_gamma_threshold(0.5) == 0.25
        g_st = ref.optimal_gamma_threshold_st(1.0, 0.4)
        assert g_st == pytest.approx(math.exp(-math.tanh(0.4)) / 2.0, rel=1e-12)


class TestFactorBound:
    def test_pure_squeezed_analytic_vs_numeric(self):
        lam = 0.3
        circuit = squeezed_circuit([math.atanh(lam)] * 2, 9)
        s = circuit.s_max
        gamma = ref.optimal_gamma_squeezed([lam, lam])
        sups = est.mode_sups(est.Setup(circuit, s), gamma)
        rate = 2.0 * gamma / ((1.0 + lam) / (1.0 - lam) - s)
        for j, sup in enumerate(sups):
            n_j = math.exp(log_norm(circuit, j, s, rate))
            numeric = dense_sup(
                shifted_profile(photon(1), s, rate, n_j), np.linspace(0.0, 400.0, 4001)
            )
            assert sup <= numeric + 1e-9
            assert sup == pytest.approx(numeric, abs=1e-9)

    def test_one_supremum_per_distinct_outcome(self, monkeypatch):
        circuit = squeezed_circuit([0.3] * 8, 9, pattern=(photon(1),) * 6 + (CLICK, photon(1)))
        s = circuit.s_max - est.S_MAX_MARGIN
        expected = est.mode_sups(est.Setup(circuit, s), 0.2)
        calls = []
        true_sup = ps.RadialFactor.sup
        monkeypatch.setattr(ps.RadialFactor, "sup", lambda f, rate: calls.append(rate) or true_sup(f, rate))
        got = est.mode_sups(est.Setup(circuit, s), 0.2)
        assert len(calls) == 2
        assert np.array_equal(got, expected)
        rate = est.Setup(circuit, s).rate(0.2)
        for j in range(circuit.m):
            n_j = math.exp(log_norm(circuit, j, s, rate))
            assert got[j] == pytest.approx(n_j * pi_w_profile(circuit.pattern[j], s).sup(rate), rel=1e-14)

    def test_thermal_rank_deficient_top_factor(self):
        lam = 0.4
        budget = ref.analytic_budget(lo.embed_permanent(np.diag([lam, 0.0])), 1.0 - est.S_MAX_MARGIN)
        assert budget[0] == pytest.approx(4.0 * lam / math.e, rel=1e-9)
        assert budget[-1] == pytest.approx(2.0 * lam / math.e, rel=1e-9)

    def test_threshold_squeezed_budget_value(self):
        lam_max = 0.5
        budget = ref.analytic_budget(lo.embed_torontonian(lo.block_r_prime(np.diag([lam_max]))))
        # per-mode budget equals Z * sup of the shifted click factor
        circuit = squeezed_circuit([math.atanh(lam_max)], 11, pattern=(CLICK,))
        s = circuit.s_max
        sups = est.mode_sups(est.Setup(circuit, s), 0.25)
        assert budget[0] == pytest.approx(
            sups[0] / math.sqrt(1.0 - lam_max**2), rel=1e-9
        )


def case_sup(outcome, s, rate):
    """sup_b |pi W(b)| exp(-rate * b) in closed form, written per outcome
    kind: vacuum, no-click, marginal, one photon and click."""
    sp = s + 1.0
    if outcome.kind == "marginal":
        return 1.0 if rate >= 0.0 else math.inf
    if outcome.kind == "click":
        if rate < 0.0:
            return math.inf
        b_coef = 2.0 / sp
        candidates = [abs(1.0 - b_coef)]
        if rate == 0.0:
            candidates.append(1.0)
        else:
            arg = b_coef * (b_coef + rate) / rate
            if arg > 1.0:
                b_star = (sp / 2.0) * math.log(arg)
                candidates.append(
                    (1.0 - b_coef * math.exp(-2.0 * b_star / sp)) * math.exp(-rate * b_star)
                )
        return max(candidates)
    c = 2.0 / sp + rate
    if c <= 0.0:
        return math.inf
    if outcome.kind == "noclick" or outcome.m == 0:
        return 2.0 / sp
    assert outcome.m == 1
    a_coef = 2.0 * (s * s - 1.0)
    candidates = [abs(a_coef) / sp**3]
    b_star = 1.0 / c - a_coef / 8.0
    if b_star > 0.0:
        candidates.append((8.0 * b_star + a_coef) * math.exp(-c * b_star) / sp**3)
    return max(candidates)


class TestPhotonSuprema:
    """Exact suprema of the shifted photon(m), no-click and marginal factors
    against a dense reference that reaches the peak near b = m / c, and of
    every closed-form case against its own formula."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        outcome=st.one_of(st.integers(0, 8).map(photon), st.sampled_from([NOCLICK, MARGINAL])),
        s=st.floats(-0.95, 3.0),
        g=st.floats(-0.999, 2.0),  # rate = g * 2/(s+1): c = 2/(s+1) + rate > 0
    )
    def test_matches_dense_reference(self, outcome, s, g):
        assume(abs(s - 1.0) > 1e-3)
        sp = s + 1.0
        rate = g * 2.0 / sp
        sup = pi_w_profile(outcome, s).sup(rate)
        if outcome == MARGINAL:
            # exp(-rate * b) peaks at b = 0 unless the shift is reversed
            assert sup == (1.0 if rate >= 0.0 else math.inf)
            return
        m = outcome.m  # a no-click factor is the vacuum projection's
        c = 2.0 / sp + rate
        k = 4.0 / (1.0 - s * s)
        # b = 50/c covers the far peak; a finer grid covers the Laguerre
        # oscillations, whose roots lie below x = k b = 4m + 2
        grid = np.union1d(
            np.linspace(0.0, 50.0 / c, 20_001),
            np.linspace(0.0, min(50.0 / c, (4 * m + 10) / abs(k)), 20_001),
        )
        ref = dense_sup(photon_factor(m, s, rate), grid)
        assert sup >= ref * (1.0 - 1e-13)  # equal up to the rounding of two evaluations
        assert sup == pytest.approx(ref, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        outcome=st.sampled_from([photon(0), photon(1), NOCLICK, MARGINAL, CLICK]),
        s=st.floats(-0.95, 3.5),
        # rate = g * 2/(s+1), forward and reverse, across c = 0 (g = -1)
        g=st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 0.0])),
        n_j=st.floats(0.1, 10.0),
    )
    @example(outcome=photon(1), s=1.0, g=0.5, n_j=1.0)
    @example(outcome=photon(0), s=1.0, g=-1.0, n_j=2.0)
    @example(outcome=NOCLICK, s=1.0, g=0.0, n_j=1.0)
    @example(outcome=MARGINAL, s=1.0, g=-0.5, n_j=1.0)
    @example(outcome=CLICK, s=1.0, g=0.5, n_j=3.0)
    def test_matches_case_closed_forms(self, outcome, s, g, n_j):
        assume(s == 1.0 or abs(s - 1.0) > 1e-3)
        rate = g * 2.0 / (s + 1.0)
        if s == 1.0 and outcome == photon(1):
            # the case form reads exp(-1)/c here, but no photon factor exists at s = 1
            with pytest.raises(SchemaError, match="^/s: "):
                n_j * pi_w_profile(outcome, s).sup(rate)
            return
        sup = n_j * pi_w_profile(outcome, s).sup(rate)
        ref = n_j * case_sup(outcome, s, rate)
        if math.isinf(ref):
            assert sup == math.inf
        else:
            assert sup == pytest.approx(ref, rel=1e-12)

    def test_reference_matches_sampler_profile(self):
        for m, s, rate in [(2, 0.4, 0.3), (3, -0.5, -0.2), (5, 1.5, 0.1)]:
            b = np.linspace(0.0, 30.0, 301)
            expected = shifted_profile(photon(m), s, rate)(b)
            np.testing.assert_allclose(photon_factor(m, s, rate)(b), expected, rtol=1e-9)

    def test_unbounded_without_decay(self):
        assert pi_w_profile(photon(2), 0.5).sup(-2.0 / 1.5) == math.inf

    def test_reverse_shift_near_limit(self, tmp_path, capsys):
        # the peak sits near b = m/c ~ 1.5e3, far outside |beta| <= 20
        path = tmp_path / "c.json"
        path.write_text(
            '{"modes": [{"r": 0.3}, {"r": 0.3}], "unitary": {"haar_seed": 1},'
            ' "pattern": [2, "marginal"]}'
        )
        argv = ["estimate-prob", "--circuit", str(path), "--gamma", "-0.999", "--samples", "2000"]
        assert cli.main(argv) == 0
        rep = json.loads(capsys.readouterr().out)["result"]
        circuit = cli.circuit_file_parse(str(path))
        s = rep["s"]
        sup = est.mode_sups(est.Setup(circuit, s), -0.999)[0]
        assert sup == pytest.approx(4.317e5, rel=1e-3)
        rate = est.Setup(circuit, s).rate(-0.999)
        n_0 = math.exp(log_norm(circuit, 0, s, rate))
        c = 2.0 / (s + 1.0) + rate
        ref = n_0 * dense_sup(photon_factor(2, s, rate), np.linspace(0.0, 50.0 / c, 20_001))
        assert sup == pytest.approx(ref, rel=1e-9)
        # Hoeffding radius B_eff * sqrt(2 ln(2/delta) / n) at the default delta = 0.05
        sampler = est.build_folded_sampler(est.Setup(circuit, s), -0.999)
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
        sup = pi_w_profile(photon(3), s).sup(rate)
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
        # for each proposal the search minimizes that proposal's bound, and
        # an estimate at its automatic shift runs with a finite radius
        circuit = generic_circuits()[index]
        for method in ("folded", "naive"):
            setup = est.Setup(circuit, method=method)
            rates = np.linspace(setup.rate(-0.98), setup.rate(0.98), 801)

            def log_b(rate):
                try:
                    return ref.log_effective_bound(setup, setup.shift(rate))
                except ConditionFailure:
                    return math.inf

            scan = min(log_b(float(r)) for r in rates)
            gamma = est._numeric_gamma(setup)
            assert ref.log_effective_bound(setup, gamma) <= scan + 1e-6
            cfg = est.EstimatorConfig(n_samples=64, seed=1)
            assert math.isfinite(est.estimate_probability(circuit, cfg, method).conf_radius)

    def test_naive_search_keeps_every_factor_bounded(self):
        # marginal factors are unbounded at every reverse rate, but the
        # folded bound, which integrates them out, has its minimum there;
        # the naive estimate searches its own bound and runs where it is finite
        circuit = lo.CircuitSpec(((0.5, 0.0),) * 3, lo.haar_unitary(3, 2), (photon(1), MARGINAL, MARGINAL))
        cfg = est.EstimatorConfig(n_samples=4096, seed=1)
        folded = est.estimate_probability(circuit, cfg)
        assert folded.shift < 0.0 and math.isfinite(folded.conf_radius)
        naive = est.estimate_probability(circuit, cfg, method="naive")
        assert naive.shift >= 0.0 and math.isfinite(naive.conf_radius)
        setup = est.Setup(circuit, method="naive")
        assert setup.log_bound()(setup.rate(folded.shift)) == math.inf
        with pytest.raises(SchemaError, match="^/gamma: .*mode 1's weighted factor unbounded"):
            est.estimate_probability(circuit, replace(cfg, gamma=folded.shift), method="naive")

    def test_probe_reads_inf_where_the_cholesky_fails(self, monkeypatch):
        # the folded precision is positive definite at every feasible rate;
        # a factorization that fails anyway (rounding) marks the rate infeasible
        setup = est.Setup(generic_circuits()[10])
        assert setup.precision[0].ndim == 2
        probe = setup.log_bound()
        assert math.isfinite(probe(0.1))

        def fails(matrix):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        assert probe(0.1) == math.inf

    @pytest.mark.parametrize(
        "name",
        [f"generic-{i}" for i in range(len(generic_circuits()))]
        + [f"{family}-{m}" for m in (4, 16) for family in ("haf", "per", "torR", "torB", "torA")],
    )
    def test_probe_equals_the_run_bound(self, name):
        # the search minimizes the bound a run samples under: at every rate
        # each proposal's probe is its built sampler's log prefactor plus the
        # log suprema of its weighted modes (to 1e-12 relative, and 1e-13
        # absolute for a log near 0), inf where that sampler cannot be built
        family, number = name.rsplit("-", 1)
        if family == "generic":
            circuit = generic_circuits()[int(number)]
        else:
            circuit = matrix_embedding(family, int(number))
        for method in ("folded", "naive"):
            setup = est.Setup(circuit, method=method)
            log_bound, finite = setup.log_bound(), 0
            for end in (-2.0 / (setup.s + 1.0), 2.0 / (setup.a_max - setup.s)):
                for frac in (0.9, 0.5, 0.1, 1e-3):
                    probe = log_bound(frac * end)
                    try:
                        bound = ref.log_effective_bound(setup, setup.shift(frac * end))
                    except ConditionFailure:
                        bound = math.inf
                    if probe == math.inf:
                        assert bound == math.inf
                    else:
                        finite += 1
                        assert bound == pytest.approx(probe, rel=1e-12, abs=1e-13)
            assert finite >= 4


class TestWeightBound:
    @staticmethod
    def halve_sups(monkeypatch):
        # the claimed suprema, not the ones the shift search minimizes
        true_sups = est.Setup.unit_sups
        monkeypatch.setattr(est.Setup, "unit_sups", lambda setup, rate: 0.5 * true_sups(setup, rate))

    def test_planted_wrong_supremum_raises(self, monkeypatch):
        circuit = squeezed_circuit([0.4, 0.3], 17, pattern=(photon(1), CLICK))
        cfg = est.EstimatorConfig(n_samples=4000, gamma=0.2)
        for method in ("folded", "naive"):
            est.estimate_probability(circuit, cfg, method=method)
        self.halve_sups(monkeypatch)
        for method in ("folded", "naive"):
            with pytest.raises(ConditionFailure):
                est.estimate_probability(circuit, cfg, method=method)

    @pytest.mark.parametrize("method", ["folded", "naive"])
    def test_builder_refuses_an_unbounded_factor(self, method):
        # a reverse shift leaves the click factor unbounded: no sampler with
        # an infinite bound is built, so none is drawn from unchecked
        circuit = squeezed_circuit([0.4, 0.3], 17, pattern=(photon(1), CLICK))
        setup = est.Setup(circuit, method=method)
        with pytest.raises(SchemaError, match="^/gamma: the shift -0.3 leaves mode 1's weighted factor unbounded$"):
            est.build_folded_sampler(setup, -0.3)

    def test_failed_factorization_refuses_before_the_unbounded_factor(self, monkeypatch):
        # the builder checks the bound after its Cholesky factor: a shift
        # that both refuse fails at the factorization
        setup = est.Setup(squeezed_circuit([0.4, 0.3], 17, pattern=(NOCLICK, CLICK)))

        def fails(matrix):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        with pytest.raises(ConditionFailure, match="positive definiteness"):
            est.build_folded_sampler(setup, -0.3)

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

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_failed_chunk_stops_its_pass(self, monkeypatch, threads):
        # weights above the bound in chunks 30 and 290 of a 400-chunk pass:
        # no worker takes a chunk after the first failure, where the others
        # used to draw on to chunk 290 (two workers) or to the end (four)
        drawn = []

        class Planted:
            bound = 1.0

            def draw(self, chunk, n):  # a draw that waits, as a fill of normals does
                drawn.append(chunk)
                time.sleep(1e-3)
                return np.full(n, 2.0 if chunk in (30, 290) else 0.5)

        monkeypatch.setattr(est, "_chunk_rng", lambda seed, chunk: chunk)
        with pytest.raises(ConditionFailure, match="exceeds the claimed bound"):
            est.chunk_sums(Planted(), 1, 0, [est.CHUNK] * 400, threads)
        if threads == 1:
            assert drawn == list(range(31))
        else:
            assert 31 <= len(drawn) < 100


class TestSampleCount:
    """Hoeffding rule N = ceil(2 C^{2M} ln(2/delta) / eps^2) for per-mode
    factor bound C over M modes, i.e. log B = M ln C."""

    def test_unit_bound(self):
        assert est._hoeffding_count(4 * math.log(1.0), 0.1, 0.05) == 738

    def test_floor_one(self):
        assert est._hoeffding_count(30 * math.log(0.2), 0.5, 0.5) == 1

    def test_overflow(self):
        with pytest.raises(SchemaError, match="^/epsilon: "):
            est._hoeffding_count(300 * math.log(1.2), 0.01, 0.05)

    def test_log_space_large(self):
        n = est._hoeffding_count(30 * math.log(1.2), 0.01, 0.05)
        expected = 2.0 * 1.2 ** 60 * math.log(40.0) / 1e-4
        assert n == pytest.approx(expected, rel=1e-9)


def reference_beta_sq(circuit, stds, setup, root, z):
    """|beta|^2 of every mode by the per-batch path the kernel replaces:
    triangular solve with the precision's lower root (folded) or
    per-coordinate scale (naive, ``root`` None), scatter into all 2M
    coordinates (a frozen one, std 0, stays at 0), complex pushforward."""
    from scipy.linalg import solve_triangular

    m = circuit.m
    alpha = np.zeros((2 * m, z.shape[1]))
    if root is None:
        free = np.flatnonzero(stds)
        alpha[free] = z * stds[free, None]
    elif len(setup.free_idx):
        alpha[setup.free_idx] = solve_triangular(root.T, z, lower=False)
    beta = (alpha[:m] + 1j * alpha[m:]).T @ circuit.unitary.u.T
    return (np.abs(beta) ** 2).T


def non_gaussian_modes(circuit):
    """The modes a folded sampler weighs: those with a non-Gaussian factor."""
    return tuple(j for j, out in enumerate(circuit.pattern) if not out.is_gaussian)


def naive_stds(setup, rate):
    exponents = setup.shifted_inputs(rate)[0]
    return np.array([0.0 if math.isnan(c) else math.sqrt(1.0 / (2.0 * c)) for c in exponents])


KERNEL_CASES = {
    # s = s_max freezes one quadrature of the squeezed modes
    "frozen-squeezed": (
        lo.CircuitSpec(((0.5, 0.0), (0.3, 0.0)), lo.haar_unitary(2, 32), (photon(2), photon(0))),
        "s_max",
        0.2,
    ),
    # s = s_max freezes both quadratures of the least classical thermal mode
    "frozen-thermal": (
        lo.CircuitSpec(((0.0, 0.8), (0.0, 0.3)), lo.haar_unitary(2, 31), (photon(1),) * 2),
        "s_max",
        -0.1,
    ),
    "noclick-marginal": (
        lo.CircuitSpec(
            ((0.4, 0.0), (0.5, 0.0), (0.3, 0.0), (0.2, 0.1)),
            lo.haar_unitary(4, 33),
            (CLICK, NOCLICK, MARGINAL, photon(1)),
            eta=0.7,
        ),
        None,
        0.2,
    ),
    "all-marginal": (
        lo.CircuitSpec(((0.5, 0.1), (0.2, 0.0)), lo.haar_unitary(2, 12), (MARGINAL, MARGINAL)),
        None,
        0.4,
    ),
}


def reference_covariance(circuit, setup, chol, modes):
    """Covariance of [Re beta; Im beta] of ``modes`` under the folded
    Gaussian of precision root ``chol``: the free coordinates have
    covariance (L L^T)^{-1}, the frozen ones are pinned to zero, and
    beta = U alpha."""
    m = circuit.m
    cov_alpha = np.zeros((2 * m, 2 * m))
    free = setup.free_idx
    cov_alpha[np.ix_(free, free)] = np.linalg.inv(chol @ chol.T)
    u = circuit.unitary.u
    push = np.block([[u.real, -u.imag], [u.imag, u.real]])
    rows = list(modes) + [m + j for j in modes]
    return push[rows] @ cov_alpha @ push[rows].T


class TestSamplingKernel:
    @pytest.mark.parametrize("method", ["folded", "naive"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_matches_reference_pushforward(self, case, method):
        circuit, s_spec, gamma = KERNEL_CASES[case]
        s = circuit.s_max if s_spec == "s_max" else circuit.s_max - est.S_MAX_MARGIN
        setup = est.Setup(circuit, s, method)
        if method == "folded":
            sampler = est.build_folded_sampler(setup, gamma)
            root = ref.precision_root(setup, gamma)
            stds = None
            width = len(setup.free_idx)
            assert sampler.active_modes == non_gaussian_modes(circuit)
        else:
            sampler = est.build_folded_sampler(setup, gamma)
            root = None
            stds = naive_stds(setup, setup.rate(gamma))
            width = np.count_nonzero(stds)  # one normal per free coordinate
            assert sampler.active_modes == tuple(range(circuit.m))
        rows, cols = sampler.kernel.shape
        if cols < width:
            # rank-reduced kernel: the same law from fewer normals
            assert method == "folded" and cols == rows
            expected = reference_covariance(circuit, setup, root, sampler.active_modes)
            got = sampler.kernel @ sampler.kernel.T
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
            return
        z = np.random.default_rng(5).standard_normal((width, 3000))
        expected = reference_beta_sq(circuit, stds, setup, root, z)[list(sampler.active_modes)]
        got = sampler.beta_sq(z)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)

    # all-marginal has no rows (test_all_marginal_has_no_weighted_mode)
    @pytest.mark.parametrize("case", sorted(set(KERNEL_CASES) - {"all-marginal"}))
    def test_wide_kernels_are_reduced(self, case):
        # 2A rows never need more than 2A normals
        circuit, s_spec, gamma = KERNEL_CASES[case]
        s = circuit.s_max if s_spec == "s_max" else circuit.s_max - est.S_MAX_MARGIN
        setup = est.Setup(circuit, s)
        rows = 2 * len(non_gaussian_modes(circuit))
        sampler = est.build_folded_sampler(setup, gamma)
        assert sampler.kernel.shape == (rows, min(rows, setup.free_idx.size))

    def test_all_marginal_has_no_weighted_mode(self):
        circuit, _, gamma = KERNEL_CASES["all-marginal"]
        s = circuit.s_max - est.S_MAX_MARGIN
        sampler = est.build_folded_sampler(est.Setup(circuit, s), gamma)
        assert sampler.active_modes == () and sampler.kernel.shape[0] == 0
        assert np.array_equal(sampler.draw(np.random.default_rng(1), 7), np.ones(7))
        rep = est.estimate_probability(circuit, est.EstimatorConfig(gamma=gamma))
        assert (rep.n_used, rep.conf_radius, rep.trace) == (0, 0.0, [])

    def test_naive_sampler_at_rate_0_weighs_the_measured_modes(self):
        # a marginal factor at rate 0 is identically 1: it leaves the kernel,
        # and the bound, prefactor and law of the weight are those of a
        # kernel over every mode (the builder before the rule)
        circuit = lo.CircuitSpec(
            ((0.4, 0.1), (0.3, 0.0), (0.5, 0.2), (0.2, 0.0)),
            lo.haar_unitary(4, 43),
            (MARGINAL, photon(1), MARGINAL, NOCLICK),
            eta=0.8,
            n_th=0.1,
        )
        setup = est.Setup(circuit, method="naive")
        sampler = est.build_folded_sampler(setup, 0.0)
        assert sampler.active_modes == (1, 3) and sampler.kernel.shape == (4, 4)
        assert sampler.bound == float(np.prod(est.mode_sups(setup, 0.0)))
        assert sampler.log_prefactor == 0.0
        base, slope = setup.precision
        every = setup.rows(range(circuit.m)) / np.sqrt(base)
        block = [1, 3, 5, 7]  # [Re beta; Im beta] of modes 1 and 3
        expected = (every @ every.T)[np.ix_(block, block)]
        np.testing.assert_allclose(sampler.kernel @ sampler.kernel.T, expected, rtol=0.0, atol=1e-12)

    def test_fused_batches_match_per_chunk_draws(self):
        # each trace row is one chunk: one draw from its own stream, summed
        circuit = squeezed_circuit([0.3, 0.4, 0.2], 22)
        cfg = est.EstimatorConfig(n_samples=30_001, seed=9, gamma=0.2)
        rep = est.estimate_probability(circuit, cfg)
        sampler = est.build_folded_sampler(est.Setup(circuit, rep.s), rep.shift)
        full, rest = divmod(cfg.n_samples, est.CHUNK)
        sizes = [est.CHUNK] * full + [rest]
        assert len(rep.trace) == len(sizes) == 8
        running, n_done = 0.0, 0
        for chunk, size in enumerate(sizes):
            running += float(sampler.draw(est._chunk_rng(cfg.seed, chunk), size).sum())
            n_done += size
            assert rep.trace[chunk][:2] == (n_done, math.exp(sampler.log_prefactor) * running / n_done)

    def test_chunk_sums_match_per_chunk_draws(self):
        # full chunks, partial ones, one larger than a chunk and a single
        # sample, from chunk 3 on: each chunk's sums are those of one draw
        # from its own stream
        circuit = squeezed_circuit([0.3, 0.4, 0.2], 22)
        sampler = est.build_folded_sampler(
            est.Setup(circuit, circuit.s_max - est.S_MAX_MARGIN), 0.2
        )
        sizes = [est.CHUNK, 3000, est.CHUNK, 8 * est.CHUNK + 7, 1]
        sums = est.chunk_sums(sampler, 9, 3, sizes, 2)
        assert sums.shape == (2, len(sizes))
        for i, size in enumerate(sizes):
            w = sampler.draw(est._chunk_rng(9, 3 + i), size)
            assert sums[0, i] == np.sum(w)
            assert sums[1, i] == np.sum(w * w)

    def test_chunk_sizes_do_not_scale_with_chunk_count(self):
        # sample i is in chunk i // CHUNK: a fixed count of n samples is one
        # pass of its full chunks and the remainder
        chunk = est.CHUNK
        sampler = est.build_folded_sampler(est.Setup(squeezed_circuit([0.3, 0.4, 0.2], 22)), 0.2)
        cases = [
            (3 * chunk + 5, [chunk, 2 * chunk, 3 * chunk, 3 * chunk + 5]),
            (2 * chunk, [chunk, 2 * chunk]),
            (100, [100]),
            (0, []),
        ]
        for n, ends in cases:
            assert [row[0] for row in est.running_sums(sampler, 1, 1, n, n)] == ends

    def test_additive_and_multiplicative_chunks_agree(self):
        # chunk c has one stream and one size however the loop's passes
        # group it: a run of passes from a first pass of 2 chunks reproduces
        # the running sums of one pass bit for bit, and later passes draw
        # whole chunks only, so they stop at the last full chunk below cap
        circuit = squeezed_circuit([0.3, 0.4, 0.2], 22)
        sampler = est.build_folded_sampler(
            est.Setup(circuit, circuit.s_max - est.S_MAX_MARGIN), 0.2
        )
        n = 6 * est.CHUNK + 11
        one_pass = list(est.running_sums(sampler, 5, 1, n, n))
        passes = list(est.running_sums(sampler, 5, 2, 2 * est.CHUNK, n))
        assert len(one_pass) == 7 and passes == one_pass[:6]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(rows=st.integers(1, 64), f=st.integers(1, 64))
    def test_panels_tile_a_chunk(self, rows, f):
        sampler = est.FoldedSampler(
            kernel=np.zeros((rows, f)),
            exponents=np.zeros(0),
            polys=(),
            scale=1.0,
            log_prefactor=0.0,
            active_modes=(),
            mode_sups=np.zeros(0),
        )
        panel = sampler.panel
        assert panel & (panel - 1) == 0 and est.CHUNK % panel == 0
        assert panel == 1 or rows * f * panel <= est.GEMM_PANEL_MNK
        # the largest such power of two
        assert 2 * panel > est.CHUNK or rows * f * 2 * panel > est.GEMM_PANEL_MNK


def outer_product_precision(circuit, s, gamma, naive=False):
    """The proposal's precision on the free coordinates, assembled as one
    outer product per folded mode (the Gaussian ones, or none for the naive
    proposal): Q_j = Re(a a^H) with a = [U_j, i U_j]."""
    setup = est.Setup(circuit, s)
    rate = setup.rate(gamma)
    exponents = setup.shifted_inputs(rate)[0]
    lam = np.diag(np.nan_to_num(2.0 * exponents))
    for j, out in enumerate(circuit.pattern):
        if out.is_gaussian and not naive:
            a_vec = np.concatenate([circuit.unitary.u[j], 1j * circuit.unitary.u[j]])
            decay = ps.pi_w_profile(out, s).decay  # pi W(b) = pi W(0) * exp(-decay * b)
            lam += 2.0 * (rate + decay) * np.real(np.outer(a_vec, a_vec.conj()))
    free = np.flatnonzero(~np.isnan(exponents))
    return lam[np.ix_(free, free)]


def cholesky_reference(circuit, s, gamma):
    """(K K^T, log_prefactor) of the folded sampler through a Cholesky factor
    L of the precision and the solve K = W_af L^{-T}."""
    m = circuit.m
    setup = est.Setup(circuit, s)
    exponents, log_norms = setup.shifted_inputs(setup.rate(gamma))
    free = np.flatnonzero(~np.isnan(exponents))
    chol = np.linalg.cholesky(outer_product_precision(circuit, s, gamma))
    log_k = sum(
        log_norms[j] + (0.0 if out.kind == "marginal" else math.log(2.0 / (s + 1.0)))
        for j, out in enumerate(circuit.pattern)
        if out.is_gaussian
    )
    logdet_in = float(np.sum(np.log(2.0 * exponents[free])))
    log_prefactor = log_k + 0.5 * logdet_in - float(np.sum(np.log(np.diagonal(chol))))
    active = [j for j, out in enumerate(circuit.pattern) if not out.is_gaussian]
    w_af = lo.real_pushforward(circuit.unitary.u)[active + [m + j for j in active]][:, free]
    kernel = np.linalg.solve(chol, w_af.T).T
    return kernel @ kernel.T, log_prefactor


def matrix_embedding(name, m):
    """The circuit of one of the five matrix embeddings at M = m."""
    rng = np.random.default_rng(m)
    q = lo.haar_unitary(m, 60 + m)
    lam = rng.uniform(0.2, 0.6, m)
    symmetric = (q.u * lam) @ q.u.T
    hpsd = (q.u * lam) @ q.u.conj().T
    hpsd = (hpsd + hpsd.conj().T) / 2.0
    if name == "haf":
        return lo.embed_hafnian(symmetric).circuit
    if name == "per":
        return lo.embed_permanent(hpsd).circuit
    if name == "torR":
        return lo.embed_torontonian(lo.block_r_prime(symmetric)).circuit
    if name == "torB":
        return lo.embed_torontonian(lo.block_b_prime(hpsd)).circuit
    return lo.embed_torontonian(lo.block_a_prime(1.0, 0.1 + 0.4 * lam, q)).circuit


class TestFoldPaths:
    @pytest.mark.parametrize(
        "name, m",
        [(name, m) for m in (4, 16) for name in ("haf", "per", "torR", "torB", "torA")]
        + [("frozen-thermal", 2)],
    )
    def test_diagonal_fold_matches_cholesky_path(self, name, m):
        # nothing is folded for matrix embeddings (all-photon or all-click)
        if name == "frozen-thermal":
            circuit, _, gamma = KERNEL_CASES[name]
            s = circuit.s_max  # freezes both quadratures of one mode
        else:
            circuit = matrix_embedding(name, m)
            s = circuit.s_max - est.S_MAX_MARGIN
            gamma = est.resolve_gamma(est.Setup(circuit, s))
        setup = est.Setup(circuit, s)
        assert setup.precision[0].ndim == 1
        assert len(setup.free_idx) == (2 * m - 2 if name == "frozen-thermal" else 2 * m)
        sampler = est.build_folded_sampler(est.Setup(circuit, s), gamma)
        cov, log_prefactor = cholesky_reference(circuit, s, gamma)
        got = sampler.kernel @ sampler.kernel.T
        np.testing.assert_allclose(got, cov, rtol=0.0, atol=1e-12 * np.abs(cov).max())
        assert sampler.log_prefactor == pytest.approx(log_prefactor, abs=1e-12)

    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("case", ["frozen-squeezed", "noclick-marginal"])
    def test_one_product_fold_matches_outer_products(self, case, naive):
        # the naive proposal folds nothing, so its precision stays diagonal
        circuit, s_spec, gamma = KERNEL_CASES[case]
        s = circuit.s_max if s_spec == "s_max" else circuit.s_max - est.S_MAX_MARGIN
        setup = est.Setup(circuit, s, "naive" if naive else "folded")
        base, slope = setup.precision
        assert base.ndim == (1 if naive else 2)
        expected = outer_product_precision(circuit, s, gamma, naive)
        got = base + setup.rate(gamma) * slope
        got = np.diag(got) if naive else got
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


class TestChunkStreams:
    def test_chunk_draws_from_the_spawned_child(self):
        # column i of chunk_sums is one draw from chunk first + i's stream,
        # SFC64 seeded by the child (seed, chunk) that spawn gives
        sampler = est.build_folded_sampler(est.Setup(squeezed_circuit([0.3, 0.4, 0.2], 22)), 0.2)
        sizes = [100, 50]
        sums = est.chunk_sums(sampler, 11, 2, sizes, 1)
        spawned = np.random.SeedSequence(11).spawn(4)
        for i, size in enumerate(sizes):
            child = np.random.SeedSequence(11, spawn_key=(2 + i,))
            assert np.array_equal(child.generate_state(4), spawned[2 + i].generate_state(4))
            w = sampler.draw(np.random.Generator(np.random.SFC64(child)), size)
            assert sums[0, i] == np.sum(w) and sums[1, i] == np.sum(w * w)

    def test_stream_does_not_depend_on_chunk_count(self):
        # a chunk's sums are the same in a call of 4 chunks and one of 64
        sampler = est.build_folded_sampler(est.Setup(squeezed_circuit([0.3, 0.4, 0.2], 22)), 0.2)
        few = est.chunk_sums(sampler, 7, 0, [8] * 4, 1)
        many = est.chunk_sums(sampler, 7, 0, [8] * 64, 2)
        assert np.array_equal(few, many[:, :4])
        for chunk in range(4):
            a = est._chunk_rng(7, chunk).standard_normal(8)
            b = est._chunk_rng(7, chunk).standard_normal(8)
            assert np.array_equal(a, b)

    def test_streams_differ_pairwise(self):
        firsts = {tuple(est._chunk_rng(7, chunk).standard_normal(4)) for chunk in range(16)}
        assert len(firsts) == 16


def wide_naive_sampler():
    """Naive sampler of a 16-mode circuit: F = 32 normals and 16 weighted
    modes (photon, click and no-click factors) per sample."""
    m = 16
    rng = np.random.default_rng(3)
    circuit = lo.CircuitSpec(
        tuple((float(r), 0.2) for r in rng.uniform(0.1, 0.5, m)),
        lo.haar_unitary(m, 4),
        (photon(1), CLICK, photon(2)) + (NOCLICK,) * (m - 3),
    )
    s = circuit.s_max - est.S_MAX_MARGIN
    sampler = est.build_folded_sampler(est.Setup(circuit, s, "naive"), 0.2)
    assert sampler.kernel.shape == (32, 32)
    return sampler


class TestDrawPieces:
    @pytest.mark.parametrize("piece", [1, 7, 4096])
    def test_draw_does_not_depend_on_piece_size(self, piece):
        # one stream's draw split into pieces of ``piece`` samples gives the
        # weights of one draw, one fill of all n samples
        sampler = wide_naive_sampler()
        n = est.CHUNK + 9
        reference = sampler.draw(est._chunk_rng(3, 2), n)
        gen = est._chunk_rng(3, 2)
        pieces = [sampler.draw(gen, min(piece, n - k)) for k in range(0, n, piece)]
        assert np.array_equal(np.concatenate(pieces), reference)
        # sample-major: the samples take the stream's normals in (n, F) order
        z = est._chunk_rng(3, 2).standard_normal((n, sampler.kernel.shape[1]))
        b = sampler.beta_sq(z.T)
        expected = sampler.scale * np.exp(-sampler.exponents @ b)
        for poly, b_j in zip(sampler.polys, b):
            if poly is not None:
                expected *= poly(b_j)
        np.testing.assert_allclose(reference, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())

    def test_draw_memory_is_bounded_by_the_piece(self):
        import tracemalloc

        sampler = wide_naive_sampler()
        rng = est._chunk_rng(0, 0)
        sampler.draw(rng, 64)
        tracemalloc.start()
        try:
            sampler.draw(rng, est.CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk's draw, the largest ``running_sums`` asks for, holds its
        # (CHUNK, F) normals (1 MB) and the weighted modes' |beta|^2 (0.5 MB);
        # a second copy of the normals would take it past 2.5 MB
        assert peak < 2 * 2**20


FUSED_OUTCOMES = [photon(m) for m in range(5)] + [CLICK, NOCLICK, MARGINAL]


class TestFusedWeight:
    """The sampler evaluates one exp of the summed exponents per sample and
    multiplies the polynomial parts; the reference is each mode's factor
    n_j * pi W_j(b) * exp(-rate * b) as ``pi_w_profile`` writes it."""

    @pytest.mark.parametrize("gamma", [0.6, -0.6], ids=["forward", "reverse"])
    @pytest.mark.parametrize(
        "outcome", FUSED_OUTCOMES, ids=lambda o: f"{o.kind}{o.m if o.kind == 'photon' else ''}"
    )
    def test_fused_weight_matches_profile_times_reweight(self, outcome, gamma):
        # one mode through the naive sampler: the weight is the whole factor
        circuit = lo.CircuitSpec(((0.3, 0.4),), lo.identity_interferometer(1), (outcome,))
        s = 0.5
        setup = est.Setup(circuit, s, "naive")
        rate = setup.rate(gamma)
        n_j = math.exp(log_norm(circuit, 0, s, rate))
        sup = n_j * pi_w_profile(outcome, s).sup(rate)
        if sup == math.inf:  # a reverse shift leaves click and marginal factors unbounded
            with pytest.raises(SchemaError, match="^/gamma: .*mode 0's weighted factor unbounded"):
                est.build_folded_sampler(setup, gamma)
            return
        sampler = est.build_folded_sampler(setup, gamma)
        # sample-major normals: a sample's two normals are consecutive
        b = sampler.beta_sq(np.random.default_rng(7).standard_normal((4000, 2)).T)[0]
        got = sampler.draw(np.random.default_rng(7), 4000)
        expected = shifted_profile(outcome, s, rate, n_j)(b)
        assert np.all(np.abs(got - expected) <= 1e-12 * sup)

    def test_wide_marginal_circuit_draws_two_normals(self):
        m = 16
        circuit = lo.CircuitSpec(
            tuple((float(r), 0.2) for r in np.linspace(0.1, 0.5, m)),
            lo.haar_unitary(m, 41),
            (photon(1), NOCLICK) + (MARGINAL,) * (m - 2),
        )
        s = circuit.s_max - est.S_MAX_MARGIN
        gamma = est.resolve_gamma(est.Setup(circuit, s))
        assert est.build_folded_sampler(est.Setup(circuit, s), gamma).kernel.shape == (2, 2)
        cfg = est.EstimatorConfig(n_samples=200_000, seed=8)
        reports = [est.estimate_probability(circuit, replace(cfg, threads=k)) for k in (1, 2, 4)]
        blobs = {json.dumps(rep.as_dict()) for rep in reports}
        assert len(blobs) == 1
        exact = oracles.exact_probability(circuit, [1, 0] + ["marginal"] * (m - 2))
        assert abs(reports[0].estimate - exact) <= reports[0].conf_radius


class TestFoldedSampler:
    def test_all_gaussian_pattern_skips_the_shift_search(self, monkeypatch):
        # nothing is weighed, so the estimate is exact at any shift
        def no_search(*args):
            raise AssertionError("the shift search ran")

        monkeypatch.setattr(est, "_numeric_gamma", no_search)
        circuit = lo.CircuitSpec(
            ((0.4, 0.1), (0.3, 0.0), (0.5, 0.2)),
            lo.haar_unitary(3, 42),
            (photon(0), photon(0), MARGINAL),
            eta=0.8,
            n_th=0.1,
        )
        rep = est.estimate_probability(circuit, est.EstimatorConfig(seed=3))
        assert (rep.gamma, rep.direction, rep.n_used) == (0.0, "forward", 0)
        exact = oracles.exact_probability(circuit, [0, 0, "marginal"])
        assert rep.estimate == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("method", ["folded", "naive"])
    def test_nothing_to_weigh_is_exact_without_a_draw(self, method, monkeypatch):
        # the folded proposal weighs no Gaussian factor, and the naive one
        # at its searched rate 0 leaves out the marginal factors; a fixed
        # sample count and an undrawable epsilon change nothing
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(est.FoldedSampler, "draw", no_draw)
        circuit = lo.CircuitSpec(
            ((0.4, 0.1), (0.3, 0.0), (0.5, 0.2)),
            lo.haar_unitary(3, 44),
            (NOCLICK, NOCLICK, MARGINAL) if method == "folded" else (MARGINAL,) * 3,
            eta=0.8,
            n_th=0.1,
        )
        exact = oracles.exact_probability(circuit, [0, 0, "marginal"] if method == "folded" else ["marginal"] * 3)
        for cfg in (est.EstimatorConfig(seed=3), est.EstimatorConfig(n_samples=5, epsilon=1e-9)):
            rep = est.estimate_probability(circuit, cfg, method=method)
            assert (rep.n_used, rep.conf_radius, rep.trace, rep.active_modes) == (0, 0.0, [], ())
            assert rep.estimate == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_all_marginal_is_exact_unity(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.1), (0.2, 0.0)), lo.haar_unitary(2, 12), (MARGINAL, MARGINAL)
        )
        for gamma in [0.0, 0.4, -0.3]:
            rep = est.estimate_probability(circuit, est.EstimatorConfig(gamma=gamma, seed=1))
            assert rep.estimate == pytest.approx(1.0, abs=1e-10)
            assert rep.n_used == 0  # exact, nothing drawn

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
        cfg = est.EstimatorConfig(n_samples=200_000, seed=4, gamma=0.2)
        rep_f = est.estimate_probability(circuit, cfg, method="folded")
        rep_n = est.estimate_probability(circuit, cfg, method="naive")
        assert abs(rep_f.estimate - rep_n.estimate) <= rep_f.conf_radius + rep_n.conf_radius
        # folding absorbs the Gaussian factors exactly, cutting the bound
        assert rep_f.conf_radius <= rep_n.conf_radius + 1e-12


class TestEstimateProbability:
    def test_active_modes_are_the_weighed_modes(self):
        # the folded sampler weighs the non-Gaussian modes, the naive one
        # every mode but those whose factor is identically 1, as a marginal
        # mode's is at rate 0
        circuit = squeezed_circuit([0.4, 0.3, 0.2], 5, (photon(1), NOCLICK, MARGINAL))
        for method, gamma, modes in (("folded", None, (0,)), ("naive", 0.2, (0, 1, 2)), ("naive", 0.0, (0, 1))):
            cfg = est.EstimatorConfig(n_samples=256, seed=1, gamma=gamma)
            rep = est.estimate_probability(circuit, cfg, method=method)
            assert rep.active_modes == modes and rep.as_dict()["active_modes"] == list(modes)
            assert rep.method == method

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
                est.EstimatorConfig(gamma=0.15, n_samples=20_000, seed=2 * k),
            )
            rep_b = est.estimate_probability(
                circuit,
                est.EstimatorConfig(gamma=-0.35, n_samples=20_000, seed=2 * k + 1),
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
        cfg = est.EstimatorConfig(n_samples=50_000, seed=7)
        a = est.estimate_probability(circuit, cfg).estimate
        b = est.estimate_probability(circuit, cfg).estimate
        assert a == b

    def test_threads_do_not_change_output(self):
        circuit = squeezed_circuit([0.3, 0.4], 20)
        per_worker = est.SAMPLES_PER_WORKER
        for n_samples in [
            50_000,  # a partial last chunk, two workers
            2 * per_worker,  # whole chunks only
            4 * per_worker + 1,  # a one-sample last chunk, more chunks than workers
        ]:
            cfg = est.EstimatorConfig(n_samples=n_samples, seed=7)
            reps = [est.estimate_probability(circuit, replace(cfg, threads=t)) for t in (1, 2, 4)]
            for rep in reps[1:]:
                assert rep.estimate == reps[0].estimate
                assert rep.trace == reps[0].trace

    def test_default_threads_match_one_thread(self):
        circuit = squeezed_circuit([0.3, 0.4], 20)
        cfg = est.EstimatorConfig(n_samples=3 * est.SAMPLES_PER_WORKER, seed=5)
        blobs = {
            json.dumps(rep.as_dict())
            for rep in (
                est.estimate_probability(circuit, cfg),
                est.estimate_probability(circuit, replace(cfg, threads=1)),
            )
        }
        assert len(blobs) == 1

    @pytest.mark.parametrize("threads", [0, -2])
    def test_nonpositive_threads_rejected(self, threads):
        # by the config, before any estimator runs
        with pytest.raises(SchemaError, match=f"^/threads: must be a positive integer, got {threads}$"):
            est.EstimatorConfig(n_samples=100, threads=threads)

    @pytest.mark.parametrize("method", ["laplace", "bogus"])
    def test_unknown_method_rejected(self, method):
        # only the folded and naive proposals exist
        circuit = squeezed_circuit([0.3], 21)
        with pytest.raises(ValueError, match="method"):
            est.estimate_probability(circuit, est.EstimatorConfig(n_samples=100), method=method)

    @pytest.mark.parametrize("gamma", [None, 0.2], ids=["auto", "fixed"])
    def test_nan_ordering_rejected(self, gamma):
        # Setup checks s: NaN is outside every factor's range
        circuit = squeezed_circuit([0.4, 0.3], 17)
        cfg = est.EstimatorConfig(s=math.nan, n_samples=64, gamma=gamma)
        with pytest.raises(SchemaError, match="^/s: "):
            est.estimate_probability(circuit, cfg)
        with pytest.raises(SchemaError, match="^/s: "):
            est.estimate_hafnian_sq(np.array([[0.0, 0.3], [0.3, 0.0]]), cfg)

    @pytest.mark.parametrize("s", [math.inf, -math.inf])
    def test_infinite_ordering_rejected(self, s):
        # -inf used to pass Setup and fail later as a shift out of range
        circuit = squeezed_circuit([0.4, 0.3], 17, pattern=(photon(1), MARGINAL))
        with pytest.raises(SchemaError, match="^/s: .*finite"):
            est.Setup(circuit, s)

    @pytest.mark.parametrize("method", ["laplace", "bogus", "Folded"])
    def test_setup_rejects_unknown_method(self, method):
        # the proposal is chosen once, when the Setup is built
        circuit = squeezed_circuit([0.3], 21)
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            est.Setup(circuit, method=method)

    def test_trace_is_cumulative(self):
        circuit = squeezed_circuit([0.3], 21)
        cfg = est.EstimatorConfig(n_samples=16_000, seed=8)
        rep = est.estimate_probability(circuit, cfg)
        ns = [row[0] for row in rep.trace]
        assert ns == [4096, 8192, 12288, 16000]
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

    def test_overflowing_value_raises(self):
        # an infinite rescale makes the prefactor inf and the value -inf
        b_mat = np.array([[0.5, 0.1], [0.1, 0.4]])
        with pytest.raises(FloatingPointError, match="a factor overflowed"):
            est.estimate_permanent_hpsd(b_mat, est.EstimatorConfig(n_samples=10), a=math.inf)

    @pytest.mark.parametrize(
        "b_mat, a", [([[0.5, 0.1], [0.1, 0.4]], 1e308), ([[1e308]], 1.001), ([[1e308]], 1e308)]
    )
    def test_finite_overflow_raises_without_warning(self, b_mat, a):
        # a finite rescale or normalization past the float range: the
        # prefactor overflows to inf without numpy's RuntimeWarning, which
        # the suite turns into an error
        with pytest.raises(FloatingPointError, match="a factor overflowed"):
            est.estimate_permanent_hpsd(np.array(b_mat), est.EstimatorConfig(n_samples=10), a=a)

    def test_torontonian_rejects_wrong_tag(self):
        mat = lo.MatrixClass(lo.MatrixTag.HPSD_B, np.eye(2) * 0.5)
        with pytest.raises(ValueError):
            est.estimate_torontonian(mat, est.EstimatorConfig(seed=0))

    def test_gamma_window_rejected(self):
        # a config refuses the shift when built; ``mode_sups`` and the
        # sampler builder take a raw shift and check it themselves
        with pytest.raises(SchemaError, match=r"^/gamma: must lie in \(-1, 1\), got 1.2$"):
            est.EstimatorConfig(gamma=1.2)
        circuit = squeezed_circuit([0.3], 24)
        setup = est.Setup(circuit, circuit.s_max - est.S_MAX_MARGIN)
        for gamma in (1.2, -1.2):
            with pytest.raises(SchemaError, match="^/gamma: "):
                est.mode_sups(setup, gamma)


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
    """Each Torontonian family runs at the automatic shift, the searched
    minimum of its weight bound, whose budget is not above the budget at
    the family's closed-form shift (``shift_reference``).  The run takes
    whatever the rule returns, and a fixed shift overrides it."""

    @pytest.mark.parametrize(
        "family, seed", [("R'", 3), ("B'", 0), ("A' n=0", 0), ("A' n>0", 0)]
    )
    def test_analytic_shift(self, family, seed, monkeypatch):
        mat, _ = _torontonian_case(family, seed)
        emb = lo.embed_torontonian(mat)
        cfg = est.EstimatorConfig(n_samples=100, seed=1)
        res = est.estimate_torontonian(mat, cfg)
        s = res.report.s
        assert res.report.shift == est.resolve_gamma(est.Setup(emb.circuit, s))
        analytic = ref.analytic_budget(emb, s)
        assert np.sum(np.log(res.budget_factors)) <= np.sum(np.log(analytic)) + 1e-6

        monkeypatch.setattr(est, "resolve_gamma", lambda *_: 0.25)
        report = est.estimate_torontonian(mat, cfg).report
        assert (report.gamma, report.direction) == (0.25, "forward")
        fixed = est.estimate_torontonian(mat, replace(cfg, gamma=0.1))
        assert (fixed.report.gamma, fixed.report.direction) == (0.1, "forward")
        # a reverse shift leaves every click factor unbounded: no run
        with pytest.raises(SchemaError, match="^/gamma: .*mode 0's weighted factor unbounded"):
            est.estimate_torontonian(mat, replace(cfg, gamma=-0.1))


    def test_equal_eigenvalues_sample_at_a_finite_rate(self):
        # equal eigenvalues leave every input a near-delta at s_max - 1e-9;
        # the closed-form shift put 2 gamma over that margin (rate ~ 5e8)
        mat = lo.block_b_prime(np.diag([0.45, 0.45]))
        res = est.estimate_torontonian(mat, est.EstimatorConfig(seed=3))
        rep = res.report
        rate = est.Setup(lo.embed_torontonian(mat).circuit, rep.s).rate(rep.shift)
        assert math.isfinite(rate) and abs(rate) < 1e6
        assert abs(res.value - oracles.torontonian_exact(mat.data)) <= res.budget
        near = est.estimate_torontonian(lo.block_b_prime(np.diag([0.45, 0.4500001])))
        assert res.budget == pytest.approx(near.budget, rel=1e-3)


def _embedding_instance(family, m, seed):
    """A random instance of one embedding family at M = m."""
    rng = np.random.default_rng(seed)
    u = lo.haar_unitary(m, seed).u
    lam = rng.uniform(0.05, 0.9, m)
    if family == "haf":
        r_mat = (u * lam) @ u.T
        return lo.embed_hafnian((r_mat + r_mat.T) / 2.0)
    if family in ("per", "torB"):
        b_mat = (u * lam) @ u.conj().T
        b_mat = (b_mat + b_mat.conj().T) / 2.0
        return lo.embed_permanent(b_mat) if family == "per" else lo.embed_torontonian(lo.block_b_prime(b_mat))
    if family == "torR":
        r_mat = (u * lam) @ u.T
        return lo.embed_torontonian(lo.block_r_prime((r_mat + r_mat.T) / 2.0))
    n, r_list = float(rng.uniform(0.2, 1.5)), rng.uniform(0.05, 0.5, m)
    if family == "torA":
        return lo.embed_torontonian(lo.block_a_prime(n, r_list, lo.Interferometer(m, u)))
    return lo.embed_hafnian_block_a(n, r_list, lo.Interferometer(m, u))


class TestShiftRule:
    """The searched shift is the one rule; on every embedding family its
    budget is at most the budget at the family's closed-form shift
    (``shift_reference``), within the search's tolerance."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["haf", "per", "torR", "torB", "torA", "blockA"]),
        m=st.integers(2, 8),
        seed=st.integers(0, 2**16),
    )
    def test_searched_budget_not_above_analytic(self, family, m, seed):
        emb = _embedding_instance(family, m, seed)
        s = emb.circuit.s_max - est.S_MAX_MARGIN
        searched = ref.searched_budget(emb, s)
        analytic = ref.analytic_budget(emb, s)
        assert np.sum(np.log(searched)) <= np.sum(np.log(analytic)) + 1e-6


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


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "field, value, pointer",
        [(name, x, f"/{name}") for name in ("epsilon", "delta") for x in (0.0, 1.0, math.nan, "0.1")]
        + [("n_samples", x, "/samples") for x in (0, 2.5, math.nan, True)]
        + [("seed", x, "/seed") for x in (-1, 1.5, True)]
        + [("threads", x, "/threads") for x in (0, 1.5)]
        + [("gamma", x, "/gamma") for x in (1.0, -1.0, 1.2, math.nan, math.inf, True, "0.5", (0.5, "reverse"))],
    )
    def test_invalid_setting_names_its_pointer(self, field, value, pointer):
        # each setting is checked once, when the config is built; 2.5 samples
        # are not rounded to 2, nor True read as 1
        with pytest.raises(SchemaError) as info:
            est.EstimatorConfig(**{field: value})
        assert info.value.pointer == pointer
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("gamma", [None, -0.5, 0.0, 0.5])
    def test_signed_shift_accepted(self, gamma):
        # one number: its sign is the direction, None asks for the search
        cfg = est.EstimatorConfig(gamma=gamma, n_samples=64)
        assert cfg.gamma == gamma
        rep = est.estimate_probability(squeezed_circuit([0.3, 0.2], 5), cfg)
        if gamma is not None:
            assert rep.shift == gamma
            assert (rep.gamma, rep.direction) == (abs(gamma), "reverse" if gamma < 0.0 else "forward")

    def test_numpy_integer_seed_accepted(self):
        cfg = est.EstimatorConfig(seed=np.int64(3), n_samples=np.int32(64))
        assert type(cfg.seed) is int and type(cfg.n_samples) is int
        circuit = squeezed_circuit([0.3, 0.2], 5)
        plain = est.EstimatorConfig(seed=3, n_samples=64)
        reports = [est.estimate_probability(circuit, c).as_dict() for c in (cfg, plain)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])


def _matrix_cases(m=3, seed=5):
    """(name, estimator, embedding) of one matrix of each family."""
    rng = np.random.default_rng(seed)
    u = lo.haar_unitary(m, seed).u
    r_mat = (u * rng.uniform(0.1, 0.6, m)) @ u.T
    r_mat = (r_mat + r_mat.T) / 2.0
    b_mat = (u * rng.uniform(0.2, 0.6, m)) @ u.conj().T
    b_mat = (b_mat + b_mat.conj().T) / 2.0
    mats = {
        "torR": lo.block_r_prime(r_mat * (0.5 / np.max(np.abs(np.linalg.svd(r_mat)[1])))),
        "torB": lo.block_b_prime(b_mat),
        "torA": lo.block_a_prime(0.7, rng.uniform(0.1, 0.3, m), lo.Interferometer(m, u)),
    }
    cases = [
        ("haf", lambda cfg: est.estimate_hafnian_sq(r_mat, cfg), lo.embed_hafnian(r_mat)),
        ("per", lambda cfg: est.estimate_permanent_hpsd(b_mat, cfg), lo.embed_permanent(b_mat)),
    ]
    for name, mat in mats.items():
        cases.append((name, lambda cfg, mat=mat: est.estimate_torontonian(mat, cfg), lo.embed_torontonian(mat)))
    return cases


class TestBudgetCoversRadius:
    """A matrix estimate's budget is epsilon_n times the bound of the sampler
    it ran, so it covers the run's Hoeffding radius whatever shift, ordering
    or sample count the caller sets.  A reverse shift leaves a click factor
    unbounded, and a Torontonian estimate there raises ``SchemaError`` at ``/gamma``
    before any sample, so no run reports an infinite budget."""

    @pytest.mark.parametrize("name, estimate, emb", _matrix_cases(), ids=lambda x: x if isinstance(x, str) else "")
    def test_radius_within_budget(self, name, estimate, emb):
        base = est.EstimatorConfig(seed=4)
        runs = {
            "analytic": base,
            "gamma 0": replace(base, gamma=0.0),
            "gamma 0.3 reverse": replace(base, gamma=-0.3),
            "s below s_max": replace(base, s=0.5 * emb.circuit.s_max),
        }
        for run, cfg in runs.items():
            if run == "gamma 0.3 reverse" and name.startswith("tor"):
                with pytest.raises(SchemaError, match="^/gamma: "):
                    estimate(cfg)
                continue
            res = estimate(cfg)
            rep = res.report
            sups = est.mode_sups(est.Setup(emb.circuit, rep.s), rep.shift)
            factors = est.budget_factors(emb, sups)
            assert np.array_equal(res.budget_factors, factors), run
            assert res.budget == 0.05 * float(np.prod(factors)), run
            assert res.conf_radius <= res.budget, run

    @pytest.mark.parametrize("name, estimate, emb", _matrix_cases(), ids=lambda x: x if isinstance(x, str) else "")
    def test_sample_override_widens_budget(self, name, estimate, emb):
        # n = 100 reaches only sqrt(2 ln(2/delta) / 100) = 0.27 > epsilon
        full = estimate(est.EstimatorConfig(seed=4))
        few = estimate(est.EstimatorConfig(seed=4, n_samples=100))
        assert few.report.n_used == 100
        eps_n = math.sqrt(2.0 * math.log(2.0 / 0.05) / 100)
        assert few.budget == pytest.approx(eps_n * float(np.prod(few.budget_factors)), rel=1e-12)
        assert few.budget == pytest.approx(eps_n / 0.05 * full.budget, rel=1e-12)
        assert few.conf_radius <= few.budget
        assert few.conf_radius > full.budget


class TestOneSetupPerEstimate:
    """Every estimate builds one ``Setup`` and hands it to the shift search,
    the fold, the sampler and the suprema."""

    @pytest.fixture
    def setups(self, monkeypatch):
        built = []
        init = est.Setup.__init__

        def counting_init(setup, circuit, s=None, method="folded"):
            built.append(s)
            init(setup, circuit, s, method)

        monkeypatch.setattr(est.Setup, "__init__", counting_init)
        return built

    @pytest.mark.parametrize(
        "method, gamma",
        [("folded", None), ("naive", None), ("folded", 0.2)],
        ids=["folded", "naive", "fixed-shift"],
    )
    def test_circuit_estimate(self, setups, method, gamma):
        circuit = squeezed_circuit([0.3, 0.5, 0.4], 21, (photon(1), CLICK, NOCLICK))
        cfg = est.EstimatorConfig(gamma=gamma, n_samples=256)
        est.estimate_probability(circuit, cfg, method=method)
        assert len(setups) == 1

    def test_matrix_estimate(self, setups):
        est.estimate_permanent_hpsd(np.diag([0.7, 0.5, 0.3]), est.EstimatorConfig(n_samples=256))
        assert len(setups) == 1

    def test_multiplicative_estimate(self, setups, monkeypatch):
        # one Setup and one shift search, and it draws from the sampler an
        # additive estimate of the same circuit builds
        searches, samplers = [], []

        def recording(fn, calls):
            def wrapper(*args):
                calls.append(fn(*args))
                return calls[-1]

            return wrapper

        monkeypatch.setattr(est, "_numeric_gamma", recording(est._numeric_gamma, searches))
        monkeypatch.setattr(est, "build_folded_sampler", recording(est.build_folded_sampler, samplers))
        circuit = lo.embed_permanent(np.diag([1.9, 1.5, 1.2])).circuit
        fpras.estimate_multiplicative(circuit, 0.2, 0.05)
        assert len(setups) == len(searches) == len(samplers) == 1
        est.estimate_probability(circuit, est.EstimatorConfig())
        assert searches[0] == searches[1]
        relative, additive = samplers
        assert np.array_equal(relative.kernel, additive.kernel)
        assert np.array_equal(relative.exponents, additive.exponents)
        assert (relative.scale, relative.log_prefactor) == (additive.scale, additive.log_prefactor)
        assert relative.active_modes == additive.active_modes

    def test_bounds_command(self, setups, capsys):
        assert cli.main(["bounds", "--family", "permanent", "--lambdas", "0.3,0.5,0.7"]) == 0
        capsys.readouterr()
        assert len(setups) == 1
