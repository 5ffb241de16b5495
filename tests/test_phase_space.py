"""Phase-space distributions: closed forms against independent references."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from pqdkit import estimator as est
from pqdkit import factors
from pqdkit import linear_optics as lo
from pqdkit import phase_space as ps
from pqdkit.errors import SchemaError

from shift_reference import W_INV_E, optimal_gamma_squeezed, reference_constants


def gauss_2d_integral(fn, sx, sy, n=801, span=8.0):
    """Simpson quadrature of fn(x, y) with per-axis scales sx, sy."""
    xs = np.linspace(-span * sx, span * sx, n)
    ys = np.linspace(-span * sy, span * sy, n)
    grid = fn(xs[:, None], ys[None, :])
    return simpson(simpson(grid, x=ys, axis=1), x=xs)


def one_mode(r, n, eta=1.0, n_th=0.0):
    """A one-mode circuit of squeezing r and occupation n, marginalized."""
    return lo.CircuitSpec(((r, n),), lo.identity_interferometer(1), (ps.MARGINAL,), eta, n_th)


VACUUM = np.array([1.0, 1.0])  # the [x, p] variances of the vacuum


def squeezed_thermal_variances(r, n):
    """The [x, p] variances of the lossless squeezed thermal input of
    squeezing r and occupation n."""
    return one_mode(r, n).variances


def stacked(*modes):
    """The 2M variances of modes given as [x, p] pairs, x of every mode
    first (the layout of ``CircuitSpec.variances``)."""
    return np.array([a[0] for a in modes] + [a[1] for a in modes])


def gaussian_pqd(cov, s, x, y):
    """The paper's closed form of the s-PQD of a centered Gaussian state of
    [x, p] variances ``cov`` at alpha = x + iy, vectorized over x and y."""
    ap, am = cov[0] - s, cov[1] - s
    return 2.0 / (math.pi * math.sqrt(ap * am)) * np.exp(-2.0 * x * x / ap - 2.0 * y * y / am)


class TestSpqdGaussian:
    """The input s-PQD as the samplers draw it: a Gaussian of precision
    2 c per quadrature, c from ``factors.shift_exponents`` at rate 0
    (``shifted_input_density``)."""

    def test_vacuum_wigner_origin(self):
        assert shifted_input_density(VACUUM, 0.0, 0.0, 0.0, 0.0) == pytest.approx(2.0 / math.pi)

    def test_vacuum_husimi_origin(self):
        assert shifted_input_density(VACUUM, -1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi)

    def test_matrix_form_agreement(self):
        # independent evaluation from the covariance-matrix expression
        cov = np.array([math.e**2, math.e**-2])
        s = 0.5 * math.e**-2
        alpha = 0.3 + 0.1j
        v = np.diag(cov / 2.0)
        shifted = v - s * np.eye(2) / 2.0
        vec = np.array([alpha.real, alpha.imag])
        expected = math.exp(-vec @ np.linalg.inv(shifted) @ vec) / (
            math.pi * math.sqrt(np.linalg.det(shifted))
        )
        got = shifted_input_density(cov, s, 0.0, alpha.real, alpha.imag)
        assert got == pytest.approx(expected, rel=1e-12)
        assert gaussian_pqd(cov, s, alpha.real, alpha.imag) == pytest.approx(expected, rel=1e-12)

    def test_singular_ordering_rejected(self):
        # at s = 1 the vacuum is a delta in phase space (both quadratures
        # frozen), above it no distribution exists
        exponents, log_norms = factors.shift_exponents(factors.unshifted_exponents(VACUUM, 1.0), 0.0)
        assert np.isnan(exponents).all() and log_norms[0] == 0.0
        with pytest.raises(SchemaError, match="^/s: .*exceeds variance"):
            factors.shift_exponents(factors.unshifted_exponents(VACUUM, 1.0 + 1e-6), 0.0)

    def test_normalization_random_covariances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = rng.uniform(0.0, 1.2)
            n = rng.uniform(0.0, 1.5)
            cov = squeezed_thermal_variances(r, n)
            s = rng.uniform(-0.9, cov[1] - 1e-3)
            sx = math.sqrt((cov[0] - s) / 4.0)
            sy = math.sqrt((cov[1] - s) / 4.0)
            total = gauss_2d_integral(
                lambda x, y: shifted_input_density(cov, s, 0.0, x, y), sx, sy, n=401
            )
            assert total == pytest.approx(1.0, abs=1e-8)


class TestClassicality:
    """``CircuitSpec.s_max``: the largest ordering at which every input PQD
    stays a proper Gaussian."""

    def test_single_vacuum(self):
        assert one_mode(0.0, 0.0).s_max == 1.0

    def test_pure_squeezed_threshold_value(self):
        r = 0.5 * math.log(2.0 + math.sqrt(5.0))  # ~= 0.722
        assert one_mode(r, 0.0).s_max == pytest.approx(math.exp(-2.0 * r), rel=1e-12)
        assert math.exp(-2.0 * r) == pytest.approx(math.sqrt(5.0) - 2.0, rel=1e-12)

    def test_lossy_squeezed(self):
        assert one_mode(1.0, 0.0, eta=0.5).s_max == pytest.approx(0.5 * math.exp(-2.0) + 0.5)


def photon_number(m, s, beta):
    """(-s)-PQD of the photon-number projector |m><m| at beta, not
    multiplied by pi, from ``pi_w_profile(photon(m), s)``."""
    val = np.asarray(ps.pi_w_profile(ps.photon(m), s)(np.abs(np.asarray(beta)) ** 2) / math.pi)
    return val if val.ndim else float(val)


class TestPhotonNumberPqd:
    def test_vacuum_projector_wigner_origin(self):
        assert photon_number(0, 0.0, 0j) == pytest.approx(2.0 / math.pi)

    def test_explicit_m1_value(self):
        # independent arithmetic from the closed form
        s, beta = 0.5, 1.0
        lag = 1.0 - 4.0 * abs(beta) ** 2 / (1.0 - s * s)
        expected = (
            (2.0 / (math.pi * (s + 1.0)))
            * ((s - 1.0) / (s + 1.0))
            * lag
            * math.exp(-2.0 * abs(beta) ** 2 / (s + 1.0))
        )
        assert photon_number(1, s, beta) == pytest.approx(expected, rel=1e-13)

    def test_normalization_converging_ordering(self):
        for beta in (0.0, 0.7, 1.3 + 0.5j, 2.0):
            total = math.pi * sum(photon_number(m, 0.5, beta) for m in range(41))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_normalization_wigner_ordering_euler_summed(self):
        # at s = 0 the series is only conditionally summable away from the
        # origin; repeated averaging of partial sums recovers the unit total
        for beta in (0.4, 1.0 + 0.3j, 2.0):
            terms = np.array(
                [math.pi * photon_number(m, 0.0, beta) for m in range(80)]
            )
            partial = np.cumsum(terms)
            for _ in range(len(partial) - 1):
                partial = 0.5 * (partial[:-1] + partial[1:])
            assert float(partial[0]) == pytest.approx(1.0, abs=1e-6)

    def test_plain_partial_sum_diverges_at_wigner_ordering(self):
        # terms alternate without decay at the origin, so the 41-term sum
        # cannot approximate the unit total there
        total = math.pi * sum(photon_number(m, 0.0, 0.0) for m in range(41))
        assert abs(total - 1.0) > 0.5

    def test_ordering_range(self):
        with pytest.raises(SchemaError, match="^/s: "):
            photon_number(0, -1.0, 0j)
        with pytest.raises(SchemaError, match="^/s: "):
            photon_number(2, 1.0, 0.5)

    def test_s_one_vacuum_projector_is_husimi_kernel(self):
        beta = 0.8 + 0.1j
        expected = math.exp(-abs(beta) ** 2) / math.pi
        assert photon_number(0, 1.0, beta) == pytest.approx(expected, rel=1e-12)

    def test_higher_counts_never_exceed_single_photon_sup(self):
        grid = np.linspace(0.0, 20.0, 4001)
        for s in (0.0, 0.3, 0.8):
            sup1 = np.max(np.abs(photon_number(1, s, grid)))
            for m in range(2, 9):
                supm = np.max(np.abs(photon_number(m, s, grid)))
                assert supm <= sup1 + 1e-12


def click(s, beta):
    """pi W of the click outcome at beta, from ``pi_w_profile(CLICK, s)``."""
    val = ps.pi_w_profile(ps.CLICK, s)(np.abs(np.asarray(beta)) ** 2)
    return val if val.ndim else float(val)


class TestThresholdClick:
    def test_wigner_origin(self):
        assert click(0.0, 0j) == pytest.approx(-1.0)

    def test_asymptote(self):
        assert click(1.0, 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_direct_value(self):
        expected = 1.0 - (4.0 / 3.0) * math.exp(-4.0 / 3.0)
        assert click(0.5, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_complement_of_vacuum_projector(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.uniform(-0.5, 2.0)
            beta = complex(rng.normal(), rng.normal())
            lhs = click(s, beta)
            rhs = 1.0 - math.pi * photon_number(0, s, beta)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_range_at_nonnegative_ordering(self):
        grid = np.linspace(0.0, 10.0, 1001)
        vals = click(0.0, grid)
        # open upper end: 1 is approached (and reached in float underflow)
        assert np.min(vals) >= -1.0 - 1e-12 and np.max(vals) <= 1.0
        assert np.max(vals[grid < 3.0]) < 1.0


class TestLambertW:
    def test_roundtrip_residual(self):
        # W(1/e) solves w * exp(w) = 1/e exactly in floating point
        w = W_INV_E
        assert w * math.exp(w) == math.exp(-1.0)

    def test_against_scipy(self):
        assert W_INV_E == pytest.approx(
            float(scipy.special.lambertw(math.exp(-1.0)).real), abs=1e-15
        )

    def test_frozen_reference_value(self):
        # the constants derived from W(1/e) keep their values
        assert reference_constants() == {
            "compressed_budget_rate": 1.5023232180362491,
            "sparse_budget_rate": 1.3859332759981942,
            "shift_branch_point": 0.38593327599819427,
            "thermal_budget_rate": 1.4715177646857693,
            "thermal_budget_floor": 0.7357588823428847,
            "max_squeezing_ideal": 0.7218177375894052,
            "max_transmissivity": 0.7639320225002102,
            "classicality_floor": 0.2360679774997898,
        }


class TestLaguerre:
    def test_degree_zero(self):
        assert ps.laguerre(0, 3.7) == 1.0

    def test_degree_one(self):
        assert ps.laguerre(1, 3.0) == pytest.approx(-2.0)

    def test_frozen_quintic_value(self):
        # expanded polynomial evaluated by hand
        assert ps.laguerre(5, 2.5) == pytest.approx(1.0325520833333333, rel=1e-13)

    def test_against_scipy(self):
        xs = np.linspace(-5.0, 30.0, 40)
        for m in (2, 7, 23, 60):
            ours = ps.laguerre(m, xs)
            ref = scipy.special.eval_laguerre(m, xs)
            assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)


def numeric_log_slope(outcome, s, h=1e-6):
    """d/db log|pi W(b)| at b = 0 by a central difference of the profile,
    which is analytic in b, so the difference may straddle b = 0."""
    log_abs = lambda b: math.log(abs(float(ps.pi_w_profile(outcome, s)(b))))
    return (log_abs(h) - log_abs(-h)) / (2.0 * h)


class TestPiWLogSlope:
    """The profiles' log-slope at the origin against its closed form per
    outcome kind; a Gaussian factor's is -decay, which the fold uses."""

    @pytest.mark.parametrize(
        "outcome",
        [ps.photon(0), ps.photon(1), ps.photon(2), ps.photon(3), ps.CLICK, ps.NOCLICK, ps.MARGINAL],
    )
    @pytest.mark.parametrize("s", [-0.5, 0.3, 1.5, 3.0])
    def test_matches_central_difference(self, outcome, s):
        numeric = numeric_log_slope(outcome, s)
        assert case_log_slope(outcome, s) == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    def test_closed_forms(self):
        # the Gaussian kinds must be exact: the additive fold's precision
        # uses rate + decay and must keep its bits
        s = 2.0
        slope = lambda outcome: -ps.pi_w_profile(outcome, s).decay
        assert slope(ps.MARGINAL) == 0.0
        assert slope(ps.NOCLICK) == -2.0 / 3.0
        assert slope(ps.photon(0)) == -2.0 / 3.0
        assert numeric_log_slope(ps.photon(2), s) == pytest.approx(8.0 / 3.0 - 2.0 / 3.0, rel=1e-6)
        assert numeric_log_slope(ps.CLICK, s) == pytest.approx(4.0 / 3.0, rel=1e-6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        outcome=st.sampled_from(
            [ps.MARGINAL, ps.NOCLICK, ps.CLICK] + [ps.photon(m) for m in range(9)]
        ),
        s=st.floats(-0.95, 3.5),
    )
    def test_matches_case_closed_forms(self, outcome, s):
        # the four per-kind cases against the profile, with a step that
        # shrinks as the slope steepens (many photons near s = 1)
        assume(abs(s - 1.0) > 1e-3)
        ref = case_log_slope(outcome, s)
        got = numeric_log_slope(outcome, s, 1e-4 / (1.0 + abs(ref)))
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-8)
        if outcome.is_gaussian:
            assert -ps.pi_w_profile(outcome, s).decay == ref  # the fold's exponents keep their bits


def case_log_slope(outcome, s):
    """d/db log pi W(b) at b = 0, written per outcome kind."""
    if outcome.kind == "marginal":
        return 0.0
    if outcome.kind == "click":
        return 4.0 / (s * s - 1.0)
    m = 0 if outcome.kind == "noclick" else outcome.m
    if m == 0:
        return -2.0 / (s + 1.0)
    return 4.0 * m / (s * s - 1.0) - 2.0 / (s + 1.0)


def shifted_input_density(cov, s, rate, x, y):
    """Normalized shifted input factor as the samplers draw it: a Gaussian
    with precision 2 c per quadrature, (c_x, c_y) from shift_exponents."""
    cx, cy = factors.shift_exponents(factors.unshifted_exponents(cov, s), rate)[0]
    return math.sqrt(cx * cy) / math.pi * np.exp(-cx * x * x - cy * y * y)


def shifted_meas_factor(outcome, s, rate, n_j=1.0):
    """Shifted measurement factor n_j * pi W(b) * exp(-rate * b) over
    b = |beta|^2, the per-mode weight of the samplers."""
    base = ps.pi_w_profile(outcome, s)
    return lambda b: n_j * base(b) * np.exp(-rate * np.asarray(b, dtype=float))


class TestShiftedFactors:
    """The shift moves exp(rate |alpha|^2) from the input factor, whose
    exponents and normalization come from ``factors``, to the measurement
    factor (``shifted_meas_factor``); ``estimator._rate`` maps a signed
    normalized gamma to the rate."""

    def test_zero_shift_reduces_to_plain_pqd(self):
        cov = squeezed_thermal_variances(0.4, 0.2)
        s = 0.3
        alpha = 0.5 - 0.2j
        dens = shifted_input_density(cov, s, 0.0, alpha.real, alpha.imag)
        log_norms = factors.shift_exponents(factors.unshifted_exponents(cov, s), 0.0)[1]
        assert math.exp(log_norms[0]) == pytest.approx(1.0, rel=1e-12)
        assert dens == pytest.approx(gaussian_pqd(cov, s, alpha.real, alpha.imag), rel=1e-12)

    @pytest.mark.parametrize("rate", [-0.5, 0.0, 0.3])
    def test_input_exponents_match_per_quadrature_loop(self, rate):
        # s equals the first mode's p variance, freezing that quadrature
        covs = [squeezed_thermal_variances(0.4, 0.0), squeezed_thermal_variances(0.1, 0.3),
                np.array([1.2, 1.2])]
        s = covs[0][1]
        exponents, log_norms = factors.shift_exponents(factors.unshifted_exponents(stacked(*covs), s), rate)
        m = len(covs)
        for i, cov in enumerate(covs):
            log_n = 0.0
            for k, a in zip((i, m + i), cov):
                if a - s <= factors.FREEZE_TOL:
                    assert math.isnan(exponents[k])
                    continue
                c = 2.0 / (a - s) - rate
                assert exponents[k] == c
                log_n += 0.5 * (math.log(2.0 / (a - s)) - math.log(c))
            assert log_norms[i] == pytest.approx(log_n, rel=1e-14, abs=1e-15)
        with pytest.raises(SchemaError, match="^/s: .*exceeds variance"):
            factors.shift_exponents(factors.unshifted_exponents(stacked(*covs), covs[0][1] + 1e-6), rate)

    def test_forward_limit_rejected(self):
        cov = squeezed_thermal_variances(0.5, 0.0)
        s = 0.2
        with pytest.raises(SchemaError, match="^/gamma: "):
            est._rate(s, 1.0, cov[0])
        with pytest.raises(SchemaError, match="^/gamma: "):
            factors.shift_exponents(factors.unshifted_exponents(cov, s), 2.0 / (cov[0] - s))

    def test_density_and_norm_by_quadrature(self):
        # 2-D quadrature of the unnormalized shifted form; the squeezing sits
        # just inside the ordering that would make the input singular
        r, n_th = 0.4, 0.0
        cov = squeezed_thermal_variances(r, n_th)
        s = math.exp(-1.0)
        rate = est._rate(s, 0.2, cov[0])
        assert rate == pytest.approx(2.0 * 0.2 / (cov[0] - s), rel=1e-15)
        sx = math.sqrt((cov[0] - s) / 4.0 / (1.0 - rate * (cov[0] - s) / 2.0))
        sy = math.sqrt((cov[1] - s) / 4.0)
        raw = lambda x, y: gaussian_pqd(cov, s, x, y) * np.exp(rate * (x * x + y * y))
        n_quad = gauss_2d_integral(raw, sx, sy, n=601)
        log_norms = factors.shift_exponents(factors.unshifted_exponents(cov, s), rate)[1]
        assert math.exp(log_norms[0]) == pytest.approx(n_quad, rel=1e-7)
        total = gauss_2d_integral(
            lambda x, y: shifted_input_density(cov, s, rate, x, y), sx, sy, n=601
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_input_normalization_random_shifts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cov = squeezed_thermal_variances(rng.uniform(0, 0.8), rng.uniform(0, 1))
            s = rng.uniform(-0.5, cov[1] - 0.05)
            gamma = rng.uniform(-0.8, 0.8)
            rate = est._rate(s, gamma, cov[0])
            cx = 2.0 / (cov[0] - s) - rate
            cy = 2.0 / (cov[1] - s) - rate
            if cx <= 0 or cy <= 0:
                continue
            sx, sy = math.sqrt(0.5 / cx), math.sqrt(0.5 / cy)
            total = gauss_2d_integral(
                lambda x, y: shifted_input_density(cov, s, rate, x, y), sx, sy, n=401
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_marginal_factor_is_unity_without_shift(self):
        b = np.abs(np.array([0.0, 1.0, 2.0 + 1j])) ** 2
        assert np.allclose(shifted_meas_factor(ps.MARGINAL, 0.4, 0.0)(b), 1.0)

    def test_threshold_factor_product_form(self):
        s, gamma, beta = 0.5, 0.1, 0.7
        a_max = s + 3.0
        n_j = 1.2
        rate = est._rate(s, gamma, a_max)
        expected = (
            n_j
            * (1.0 - (2.0 / (s + 1.0)) * math.exp(-2.0 * abs(beta) ** 2 / (s + 1.0)))
            * math.exp(-2.0 * gamma / 3.0 * abs(beta) ** 2)
        )
        got = shifted_meas_factor(ps.CLICK, s, rate, n_j)(abs(beta) ** 2)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_optimally_shifted_single_photon_factor_below_one(self):
        # identical pure squeezed modes at the balance-optimal shift
        for lam in (0.2, 0.5, 0.9):
            gamma = optimal_gamma_squeezed([lam])
            e2r = (1.0 + lam) / (1.0 - lam)
            s = 1.0 / e2r
            cov = np.array([e2r, 1.0 / e2r])
            rate = est._rate(s, gamma, e2r)
            n_j = math.exp(factors.shift_exponents(factors.unshifted_exponents(cov, s), rate)[1][0])
            b = np.linspace(0.0, 200.0, 5001)
            vals = shifted_meas_factor(ps.photon(1), s, rate, n_j)(b)
            assert np.max(np.abs(vals)) < 1.0


class TestPqdParams:
    """Admissible orderings and shift windows: s <= s_max, the smallest p variance,
    rates in (-2/(s+1), 2/(a_max-s)), reached by signed normalized gamma in (-1, 1)."""

    def test_ranges(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0), (0.0, 0.0)), lo.identity_interferometer(2), (ps.MARGINAL,) * 2
        )
        s, g = 0.2, 0.5
        assert circuit.a_max == pytest.approx(math.exp(1.0))
        assert circuit.s_max == pytest.approx(math.exp(-1.0))
        assert est._rate(s, -g, circuit.a_max) / -g == pytest.approx(2.0 / 1.2)
        assert est._rate(s, g, circuit.a_max) / g == pytest.approx(
            2.0 / (math.exp(1.0) - 0.2)
        )

    def test_invalid_ordering(self):
        circuit = lo.CircuitSpec(((0.0, 0.0),), lo.identity_interferometer(1), (ps.photon(0),))
        with pytest.raises(SchemaError, match="^/s: .*exceeds variance"):
            est.estimate_probability(circuit, est.EstimatorConfig(s=1.5))

    def test_gamma_window(self):
        for gamma in (5.0, -5.0, 1.0, -1.0):
            with pytest.raises(SchemaError, match="^/gamma: "):
                est._rate(0.0, gamma, 1.0)
