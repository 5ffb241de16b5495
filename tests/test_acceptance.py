"""Acceptance suite: oracle-equivalence and property checks at desk scale.

Each test is one of the paper's ten criteria at its pinned seed and
tolerances.  It prints its ``PASS C<n> <name>: <detail>`` (or ``FAIL``)
line, then asserts, so ``pytest tests/test_acceptance.py -v -s`` doubles as
the acceptance report.
"""

import dataclasses
import math
import time
from typing import Optional

import numpy as np

from pqdkit import bounds, fpras, oracles
from pqdkit import estimator as est
from pqdkit import linear_optics as lo
from pqdkit.phase_space import CLICK, MARGINAL, photon, pi_w_profile

import shift_reference as ref

SEED = 0


def _check(criterion: int, name: str, passed: bool, detail: str) -> None:
    """Print the criterion's pass/fail line, then assert that it passed."""
    print(f"{'PASS' if passed else 'FAIL'} C{criterion} {name}: {detail}")
    assert passed, detail


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def _random_symmetric(rng: np.random.Generator, m: int, lam_max: float) -> np.ndarray:
    r_mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r_mat = r_mat + r_mat.T
    _, lam = lo.takagi(r_mat)
    return r_mat * (lam_max / lam[0])


def _random_hpsd(
    rng: np.random.Generator, m: int, lam_max: float, rank: Optional[int] = None
) -> np.ndarray:
    k = rank if rank is not None else m
    v = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    b_mat = v @ v.conj().T
    top = np.linalg.eigvalsh(b_mat)[-1]
    return b_mat * (lam_max / top)


def _hpsd_with_eigenvalues(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    q = lo.haar_unitary(lam.size, int(rng.integers(0, 2**31))).u
    b_mat = (q * lam) @ q.conj().T
    return (b_mat + b_mat.conj().T) / 2.0


# ---------------------------------------------------------------------------


def test_criterion_1_constants():
    """The paper's closed-form constants (``shift_reference.reference_constants``)."""
    t0 = time.perf_counter()
    consts = ref.reference_constants()
    targets = {
        "compressed_budget_rate": 1.502,
        "sparse_budget_rate": 1.386,
        "shift_branch_point": 0.386,
        "thermal_budget_rate": 1.472,
        "thermal_budget_floor": 0.736,
        "max_squeezing_ideal": 0.722,
        "max_transmissivity": 0.764,
        "classicality_floor": 0.236,
    }
    bad = [
        f"{key}={consts[key]:.6f}!={want}"
        for key, want in targets.items()
        if round(consts[key], 3) != want
    ]
    nth = fpras.gbs_noise_threshold(0.5, 1.0)
    if round(nth, 2) != 3.79:
        bad.append(f"noise_threshold={nth:.4f}!=3.79")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s >= 1s")
    detail = f"{len(targets) + 1} constants, {elapsed * 1000:.0f} ms"
    _check(1, "constants", not bad, detail if not bad else "; ".join(bad))


def test_criterion_2_hafnian_additive():
    """Additive |Haf(R)|^2 estimation within the uniform budget envelope."""
    seed, runs = SEED, 50
    rng = _rng(seed, 2)
    eps = delta = 0.05
    envelope = eps * (1.502 * 0.6) ** 4
    hits = 0
    for k in range(runs):
        r_mat = _random_symmetric(rng, 4, 0.6)
        exact = abs(oracles.hafnian_exact(r_mat)) ** 2
        cfg = est.EstimatorConfig(epsilon=eps, delta=delta, seed=seed * 1000 + k)
        result = est.estimate_hafnian_sq(r_mat, cfg)
        if abs(result.value - exact) <= envelope:
            hits += 1
    _check(2, "hafnian additive", hits >= 45, f"{hits}/{runs} within {envelope:.3e}")


def test_criterion_3_permanent_additive():
    """Additive Per(B) estimation within its budget, rank-deficient and
    strictly positive spectra."""
    seed, runs = SEED, 50
    rng = _rng(seed, 3)
    eps = delta = 0.05
    hits0 = hitsp = 0
    for k in range(runs):
        b0 = _random_hpsd(rng, 4, 0.6, rank=3)
        exact0 = oracles.permanent_exact(b0).real
        cfg = est.EstimatorConfig(epsilon=eps, delta=delta, seed=seed * 2000 + k)
        res0 = est.estimate_permanent_hpsd(b0, cfg)
        if abs(res0.value - exact0) <= res0.budget:
            hits0 += 1
        lam = np.sort(rng.uniform(0.2, 0.6, 4))
        lam[0], lam[-1] = 0.2, 0.6
        b1 = _hpsd_with_eigenvalues(rng, lam)
        exact1 = oracles.permanent_exact(b1).real
        res1 = est.estimate_permanent_hpsd(b1, cfg)
        if abs(res1.value - exact1) <= res1.budget:
            hitsp += 1
    ok = hits0 >= 45 and hitsp >= 45
    _check(3, "permanent additive", ok, f"rank-deficient {hits0}/{runs}, positive {hitsp}/{runs}")


def test_criterion_4_torontonian_additive():
    """Torontonian estimation within the per-family budgets, M = 3."""
    seed, runs = SEED, 50
    rng = _rng(seed, 4)
    eps = delta = 0.05
    hits = {"R'": 0, "B'": 0, "A'": 0}
    for k in range(runs):
        cfg = est.EstimatorConfig(epsilon=eps, delta=delta, seed=seed * 3000 + k)
        u = lo.haar_unitary(3, int(rng.integers(0, 2**31)))

        lam_sq = rng.uniform(0.1, 0.5, 3)
        r_block = u.u @ np.diag(np.tanh(np.arctanh(lam_sq))) @ u.u.T
        mat_r = lo.block_r_prime(r_block)
        exact = oracles.torontonian_exact(mat_r.data)
        res = est.estimate_torontonian(mat_r, cfg)
        if abs(res.value - exact) <= res.budget:
            hits["R'"] += 1

        lam_th = rng.uniform(0.2, 0.6, 3)
        mat_b = lo.block_b_prime(_hpsd_with_eigenvalues(rng, lam_th))
        exact = oracles.torontonian_exact(mat_b.data)
        res = est.estimate_torontonian(mat_b, cfg)
        if abs(res.value - exact) <= res.budget:
            hits["B'"] += 1

        n = float(rng.uniform(0.5, 1.5))
        r_list = rng.uniform(0.1, 0.4, 3)
        mat_a = lo.block_a_prime(n, r_list, u)
        exact = oracles.torontonian_exact(mat_a.data)
        res = est.estimate_torontonian(mat_a, cfg)
        if abs(res.value - exact) <= res.budget:
            hits["A'"] += 1
    ok = all(v >= 45 for v in hits.values())
    _check(4, "torontonian additive", ok, ", ".join(f"{k} {v}/{runs}" for k, v in hits.items()))


def test_criterion_5_multiplicative():
    """Multiplicative estimation: permanents at spectral ratio <= 2 and
    block-structured hafnians passing the shared-occupation condition."""
    seed, runs = SEED, 100
    rng = _rng(seed, 5)
    eps, delta = 0.1, 0.05
    hits_per = hits_haf = 0
    for k in range(runs):
        lam = rng.uniform(1.0, 2.0, 4)
        b_mat = _hpsd_with_eigenvalues(rng, lam)
        exact = oracles.permanent_exact(b_mat).real
        emb = lo.embed_permanent(b_mat)
        cfg = est.EstimatorConfig(seed=seed * 4000 + k)
        mu = fpras.estimate_multiplicative(emb.circuit, eps, delta, cfg)
        if abs(emb.prefactor * mu.value / exact - 1.0) <= eps:
            hits_per += 1

        n = 1.2
        r_list = rng.uniform(0.05, 0.2, 4)
        u = lo.haar_unitary(4, int(rng.integers(0, 2**31)))
        mat_a, sq_vq = ref.block_a(n, r_list, u)
        exact_h = oracles.hafnian_exact(mat_a).real
        circuit = lo.CircuitSpec(
            modes=tuple((float(r), n) for r in r_list),
            unitary=u,
            pattern=(photon(1),) * 4,
        )
        mu_h = fpras.estimate_multiplicative(circuit, eps, delta, cfg)
        if abs(sq_vq * mu_h.value / exact_h - 1.0) <= eps:
            hits_haf += 1
    ok = hits_per >= 95 and hits_haf >= 95
    _check(5, "multiplicative", ok, f"permanent {hits_per}/{runs}, hafnian {hits_haf}/{runs}")


def test_criterion_6_shift_machinery():
    """Shift machinery: balance identity, bound domination, shift invariance."""
    seed = SEED
    rng = _rng(seed, 6)
    problems = []

    # balance identity at the optimal squeezed-family shift
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.01, 0.99))
        gamma = ref.optimal_gamma_squeezed([lam])
        e2r = (1.0 + lam) / (1.0 - lam)
        s = 1.0 / e2r
        rate = 2.0 * gamma / (e2r - s) if gamma >= 0.0 else 2.0 * gamma / (s + 1.0)
        c = 2.0 / (s + 1.0) + rate
        a_coef = 2.0 * (s * s - 1.0)
        b_star = 1.0 / c - a_coef / 8.0
        sp3 = (s + 1.0) ** 3
        f0 = abs(a_coef) / sp3
        fb = (8.0 * b_star + a_coef) * math.exp(-c * b_star) / sp3
        worst = max(worst, abs(f0 - fb))
    if worst > 1e-9:
        problems.append(f"balance residual {worst:.2e}")

    # modified bound never exceeds the unshifted bound
    viol = 0
    for k in range(100):
        m = int(rng.integers(2, 5))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            modes = tuple((float(rng.uniform(0.05, 0.8)), 0.0) for _ in range(m))
        elif kind == 1:
            modes = tuple((0.0, float(rng.uniform(0.1, 2.0))) for _ in range(m))
        else:
            modes = tuple(
                (float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.0, 1.0)))
                for _ in range(m)
            )
        pattern = tuple(
            rng.choice([photon(1), photon(2), CLICK]) for _ in range(m)
        )
        circuit = lo.CircuitSpec(modes, lo.haar_unitary(m, 60_000 + k), pattern)
        setup = est.Setup(circuit, circuit.s_max - 1e-9)
        mod = float(np.prod(est.mode_sups(setup, est.resolve_gamma(setup))))
        neg = est.negativity_bound(setup)
        if mod > neg * (1.0 + 1e-9):
            viol += 1
    if viol:
        problems.append(f"{viol}/100 circuits with modified bound above the plain one")

    # shift invariance of the estimate
    agree = 0
    trials = 40
    for k in range(trials):
        modes = tuple((float(rng.uniform(0.1, 0.5)), 0.0) for _ in range(3))
        circuit = lo.CircuitSpec(
            modes, lo.haar_unitary(3, 70_000 + k), (photon(1),) * 3
        )
        cfg_a = est.EstimatorConfig(gamma=0.2, n_samples=20_000, seed=seed * 5000 + k)
        cfg_b = est.EstimatorConfig(gamma=-0.3, n_samples=20_000, seed=seed * 5000 + k + 1)
        rep_a = est.estimate_probability(circuit, cfg_a)
        rep_b = est.estimate_probability(circuit, cfg_b)
        if abs(rep_a.estimate - rep_b.estimate) <= rep_a.conf_radius + rep_b.conf_radius:
            agree += 1
    if agree < math.ceil(0.95 * trials):
        problems.append(f"shift invariance only {agree}/{trials}")

    detail = (
        f"balance residual {worst:.1e}, bound domination 100/100, invariance {agree}/{trials}"
    )
    _check(6, "shift machinery", not problems, detail if not problems else "; ".join(problems))


def _line_concave_ok(profile, n_lines: int, rng, tol: float = 1e-8) -> bool:
    """Second differences of log(profile(|x|^2)) along random affine lines."""
    taus = np.arange(-2.0, 2.0, 1e-3)
    for _ in range(n_lines):
        x0 = rng.uniform(-2.0, 2.0, 2)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        pts = x0[None, :] + taus[:, None] * d[None, :]
        q = np.sum(pts * pts, axis=1)
        vals = profile(q)
        if np.any(vals <= 0.0):
            return False
        g = np.log(vals)
        second = g[2:] - 2.0 * g[1:-1] + g[:-2]
        if np.max(second) > tol:
            return False
    return True


def _violation_found(profile, witness_q: float) -> bool:
    """Numeric second difference at the analytic witness offset."""
    h = 1e-3

    def g_of_tau(tau: float) -> float:
        # central line through a point at squared radius witness_q
        q = witness_q + tau * tau
        return math.log(float(profile(np.array([q]))[0]))

    second = g_of_tau(h) - 2.0 * g_of_tau(0.0) + g_of_tau(-h)
    return second > 0.0


def test_criterion_7_log_concavity():
    """Log-concavity conditions: closed forms match the certificates of the
    extreme-mode circuits they are stated for; numeric line scans confirm
    certificates and genuine violations."""
    seed, draws = SEED, 1000
    rng = _rng(seed, 7)
    problems = []

    mismatch = 0
    for _ in range(draws):
        lam = np.sort(rng.uniform(0.02, 0.98, 2))
        n, r_max = float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.01, 1.0))
        lam2 = np.sort(rng.uniform(0.02, 0.98, 2))
        n2, r2 = float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.01, 0.5))
        eta, nth = float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.0, 30.0))
        mismatch += bool(lam[1] / lam[0] <= 2.0) != fpras.fpras_condition_permanent(lam)
        for family, params in (
            ("permanent", (lam,)),
            ("hafnian", (n, r_max)),
            ("tor-thermal", (float(lam2[0]), float(lam2[1]))),
            ("tor-squeezed-thermal", (n2, r2)),
            ("gbs-noise", (eta, r_max, nth)),
        ):
            holds, cert = fpras.check_condition(family, *params)
            mismatch += holds != cert.holds
    if mismatch:
        problems.append(f"{mismatch} closed-form/certificate disagreements")

    # passing certificates are numerically concave along random lines
    concave_fail = 0
    for _ in range(10):
        a = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, c * a))  # margin >= 0
        cert = fpras.check_quadratic_factor(a, b, c)
        prof = lambda q: (a + b * q) * np.exp(-c * q)
        if not (cert.holds and _line_concave_ok(prof, 100, rng)):
            concave_fail += 1
        bt = float(rng.uniform(0.2, 0.8))
        ct = float(rng.uniform(0.2, 2.0))
        at = (bt * bt + 2.0 * bt * ct) / ct * float(rng.uniform(1.0, 1.5))
        cert = fpras.check_threshold_factor(at, bt, ct)
        proft = lambda q: (at - bt * np.exp(-bt * q)) * np.exp(-ct * q)
        if not (cert.holds and _line_concave_ok(proft, 100, rng)):
            concave_fail += 1
    if concave_fail:
        problems.append(f"{concave_fail} passing certificates not numerically concave")

    # failing certificates with a genuine violation expose a witness line
    witness_fail = 0
    for _ in range(10):
        a = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.5, 2.0))
        b = c * a * float(rng.uniform(1.05, 2.0))  # margin < 0, tight family
        cert = fpras.check_quadratic_factor(a, b, c)
        prof = lambda q: (a + b * q) * np.exp(-c * q)
        if cert.holds or cert.witness_line is None or not _violation_found(prof, cert.witness_line[1]):
            witness_fail += 1
        bt = float(rng.uniform(0.2, 0.8))
        ct = float(rng.uniform(0.2, 2.0))
        # below the actual violation boundary b + b^2/c (margin < 0 a fortiori)
        at = (bt + bt * bt / ct) * float(rng.uniform(0.75, 0.95))
        at = max(at, bt * 1.05)
        cert = fpras.check_threshold_factor(at, bt, ct)
        proft = lambda q: (at - bt * np.exp(-bt * q)) * np.exp(-ct * q)
        if cert.holds or cert.witness_line is None or not _violation_found(proft, cert.witness_line[1]):
            witness_fail += 1
    if witness_fail:
        problems.append(f"{witness_fail} violating draws without a numeric witness")

    detail = f"{draws} agreement draws per family, 20 line-scan instances"
    _check(7, "log-concavity", not problems, detail if not problems else "; ".join(problems))


def test_criterion_8_bound_sandwiches():
    """Sandwich bounds against the oracles, zero violations allowed."""
    seed, instances = SEED, 200
    rng = _rng(seed, 8)
    slack = 1e-9
    viol = {"permanent": 0, "hafnian_block_a": 0, "tor_thermal": 0, "tor_block_a": 0}
    for _ in range(instances):
        m = int(rng.integers(2, 5))
        lam = rng.uniform(0.05, 0.95, m)
        b_mat = _hpsd_with_eigenvalues(rng, lam)
        lam_s = np.linalg.eigvalsh(b_mat).clip(min=1e-12)
        rep = bounds.permanent_bounds(lam_s)
        per = oracles.permanent_exact(b_mat).real
        if not (rep.lower * (1 - slack) <= per <= rep.upper * (1 + slack)):
            viol["permanent"] += 1

        n = float(rng.uniform(1.5, 4.0))
        r_list = rng.uniform(0.02, 0.3, 3)
        u = lo.haar_unitary(3, int(rng.integers(0, 2**31)))
        mat_a, _ = ref.block_a(n, r_list, u)
        haf = oracles.hafnian_exact(mat_a).real
        rep = bounds.hafnian_bounds(n, r_list)
        if not (rep.lower * (1 - slack) <= haf <= rep.upper * (1 + slack)):
            viol["hafnian_block_a"] += 1

        lam_t = rng.uniform(0.05, 0.9, 3)
        mat_b = lo.block_b_prime(_hpsd_with_eigenvalues(rng, lam_t))
        tor = oracles.torontonian_exact(mat_b.data)
        rep = bounds.torontonian_bounds(
            "thermal", lambdas=np.linalg.eigvalsh(mat_b.data[3:, 3:]).clip(min=1e-12)
        )
        if not (rep.lower * (1 - slack) <= tor <= rep.upper * (1 + slack)):
            viol["tor_thermal"] += 1

        mat_ap = lo.block_a_prime(n, rng.uniform(0.02, 0.3, 2), lo.haar_unitary(2, int(rng.integers(0, 2**31))))
        tor_a = oracles.torontonian_exact(mat_ap.data)
        n_rec, r_rec, _ = mat_ap.decompose()
        rep = bounds.torontonian_bounds("squeezed_thermal", n=n_rec, r_list=r_rec)
        if not (rep.lower * (1 - slack) <= tor_a <= rep.upper * (1 + slack)):
            viol["tor_block_a"] += 1
    ok = all(v == 0 for v in viol.values())
    _check(
        8,
        "bound sandwiches",
        ok,
        ", ".join(f"{k} {v}/{instances} violations" for k, v in viol.items()),
    )


def test_criterion_9_lossy_marginals():
    """Marginal photon-number probabilities of a lossy circuit, folded and
    naive samplers, against the exact reduced-state values."""
    seed = SEED
    u = lo.haar_unitary(3, seed + 97)
    base = lo.CircuitSpec(
        modes=((0.5, 0.0),) * 3, unitary=u, pattern=(photon(1),) * 3, eta=0.5
    )
    patterns = []
    for j in range(3):
        for m in range(3):
            pat = [MARGINAL] * 3
            pat[j] = photon(m)
            patterns.append(tuple(pat))
    for j in range(3):
        for k in range(j + 1, 3):
            for mj in range(3):
                for mk in range(3):
                    pat = [MARGINAL] * 3
                    pat[j] = photon(mj)
                    pat[k] = photon(mk)
                    patterns.append(tuple(pat))
    worst = 0.0
    mismatch = 0
    for idx, pat in enumerate(patterns):
        circuit = dataclasses.replace(base, pattern=pat)
        exact = oracles.exact_probability(circuit, pat)
        cfg = est.EstimatorConfig(n_samples=10**6, seed=seed * 7000 + idx)
        rep_f = est.estimate_probability(circuit, cfg, method="folded")
        rep_n = est.estimate_probability(circuit, cfg, method="naive")
        worst = max(worst, abs(rep_f.estimate - exact))
        if abs(rep_f.estimate - rep_n.estimate) > rep_f.conf_radius + rep_n.conf_radius:
            mismatch += 1
    ok = worst <= 5e-3 and mismatch == 0
    _check(
        9,
        "lossy marginals",
        ok,
        f"{len(patterns)} patterns, worst error {worst:.2e}, sampler mismatches {mismatch}",
    )


def _pqd_photon(m: int, s: float, beta) -> float:
    """(-s)-PQD of the photon-number projector |m><m| at beta, not
    multiplied by pi."""
    return float(pi_w_profile(photon(m), s)(np.abs(beta) ** 2) / math.pi)


def test_criterion_10_conventions():
    """Normalization and convention pins."""
    seed = SEED
    rng = _rng(seed, 10)
    problems = []

    for s in (0.3, 0.5):
        for beta in (0.0, 0.5 + 0.2j, 1.5j, 2.0):
            total = math.pi * sum(
                _pqd_photon(m, s, beta) for m in range(41)
            )
            if abs(total - 1.0) > 1e-6:
                problems.append(f"normalization {total} at s={s}, beta={beta}")
    # the Wigner-ordering series is conditionally summable away from the
    # origin; the Euler transform recovers the unit sum
    for beta in (0.5, 1.0 + 0.5j, 2.0):
        terms = np.array(
            [math.pi * _pqd_photon(m, 0.0, beta) for m in range(80)]
        )
        partial = np.cumsum(terms)
        for _ in range(len(partial) - 1):
            partial = 0.5 * (partial[:-1] + partial[1:])
        if abs(float(partial[0]) - 1.0) > 1e-6:
            problems.append(f"euler-summed normalization {partial[0]} at beta={beta}")

    for n in (0.3, 0.8, 2.0):
        lam = n / (n + 1.0)
        mat_b = lo.block_b_prime(np.array([[lam]], dtype=complex))
        click = oracles.torontonian_exact(mat_b.data) / (1.0 + n)
        if abs(click - lam) > 1e-12:
            problems.append(f"thermal click {click} != {lam}")
        circuit = lo.CircuitSpec(
            ((0.0, n),), lo.identity_interferometer(1), (CLICK,)
        )
        click2 = oracles.exact_threshold_probability(circuit, (CLICK,))
        if abs(click2 - lam) > 1e-12:
            problems.append(f"threshold oracle click {click2} != {lam}")

    for m in (3, 4):
        b_mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        zero = np.zeros_like(b_mat)
        emb = np.block([[zero, b_mat], [b_mat.T, zero]])
        haf = oracles.hafnian_exact(emb)
        per = oracles.permanent_exact(b_mat)
        if abs(haf - per) > 1e-10 * max(1.0, abs(per)):
            problems.append(f"cross-oracle mismatch at m={m}")

    _check(
        10,
        "conventions",
        not problems,
        "normalization, click, cross-oracle all pinned" if not problems else "; ".join(problems),
    )
