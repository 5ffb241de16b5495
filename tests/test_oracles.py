"""Brute-force oracles: counting identities and convention pins."""

import itertools
import math

import numpy as np
import pytest

from pqdkit import linear_optics as lo
from pqdkit import oracles
from pqdkit.errors import SchemaError
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon


class TestPermanent:
    def test_two_by_two(self):
        assert oracles.permanent_exact(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(5.0)

    def test_identity(self):
        assert oracles.permanent_exact(np.eye(6)) == pytest.approx(1.0)

    def test_all_ones(self):
        for n in (3, 5):
            val = oracles.permanent_exact(np.ones((n, n)))
            assert val.real == pytest.approx(math.factorial(n))

    def test_against_permutation_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = 4
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            brute = sum(
                np.prod([a[i, p[i]] for i in range(m)])
                for p in itertools.permutations(range(m))
            )
            assert oracles.permanent_exact(a) == pytest.approx(brute, rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(SchemaError, match="^/m: "):
            oracles.permanent_exact(np.eye(21))


class TestHafnian:
    def test_two_by_two(self):
        assert oracles.hafnian_exact(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_perfect_matchings_of_k4(self):
        assert oracles.hafnian_exact(np.ones((4, 4))) == pytest.approx(3.0)

    def test_odd_dimension(self):
        with pytest.raises(SchemaError, match="^/m: "):
            oracles.hafnian_exact(np.ones((3, 3)))

    def test_diagonal_ignored(self):
        a = np.array([[5.0, 1.0], [1.0, 7.0]])
        assert oracles.hafnian_exact(a) == pytest.approx(1.0)

    def test_cross_oracle_identity(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            zero = np.zeros_like(b)
            emb = np.block([[zero, b], [b.T, zero]])
            haf = oracles.hafnian_exact(emb)
            per = oracles.permanent_exact(b)
            assert abs(haf - per) <= 1e-10 * max(1.0, abs(per))


class TestTorontonian:
    def test_zero_matrix(self):
        for m in (1, 2, 4):
            assert oracles.torontonian_exact(np.zeros((2 * m, 2 * m))) == pytest.approx(0.0)

    def test_single_mode_thermal(self):
        lam = 0.35
        val = oracles.torontonian_exact(np.diag([lam, lam]).astype(complex))
        assert val == pytest.approx(lam / (1.0 - lam), rel=1e-12)

    def test_deletion_convention_via_click_probability(self):
        # keep-convention would produce a negative probability here
        for n in (0.2, 1.0, 3.0):
            lam = n / (n + 1.0)
            mat = lo.block_b_prime(np.array([[lam]], dtype=complex))
            p_click = oracles.torontonian_exact(mat.data) / (1.0 + n)
            assert p_click == pytest.approx(n / (n + 1.0), abs=1e-12)

    def test_thermal_inclusion_exclusion_cross_check(self):
        rng = np.random.default_rng(4)
        lam = rng.uniform(0.2, 0.6, 3)
        q = lo.haar_unitary(3, 17).u
        b_mat = (q * lam) @ q.conj().T
        b_mat = (b_mat + b_mat.conj().T) / 2.0
        mat = lo.block_b_prime(b_mat)
        tor = oracles.torontonian_exact(mat.data)
        n_list = lam / (1.0 - lam)
        circuit = lo.CircuitSpec(
            modes=tuple((0.0, float(n)) for n in n_list),
            unitary=lo.Interferometer(3, q),
            pattern=(CLICK,) * 3,
        )
        p_on = oracles.exact_threshold_probability(circuit, (CLICK,) * 3)
        z_prime = float(np.prod(1.0 + n_list))
        assert tor == pytest.approx(p_on * z_prime, rel=1e-10)

    def test_size_limit(self):
        with pytest.raises(SchemaError, match="^/m: "):
            oracles.torontonian_exact(np.zeros((26, 26)))


class TestExactProbability:
    def test_vacuum(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.0),) * 2, lo.haar_unitary(2, 0), (photon(0),) * 2
        )
        assert oracles.exact_probability(circuit, [0, 0]) == pytest.approx(1.0)

    def test_squeezed_parity(self):
        circuit = lo.CircuitSpec(
            ((0.7, 0.0),), lo.identity_interferometer(1), (photon(1),)
        )
        assert oracles.exact_probability(circuit, [1]) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_two_photon(self):
        r = 0.8
        circuit = lo.CircuitSpec(
            ((r, 0.0),), lo.identity_interferometer(1), (photon(2),)
        )
        expected = math.tanh(r) ** 2 / (2.0 * math.cosh(r))
        assert oracles.exact_probability(circuit, [2]) == pytest.approx(expected, rel=1e-10)

    def test_normalization_with_tail_bound(self):
        r = 0.3
        circuit = lo.CircuitSpec(
            ((r, 0.0),) * 2, lo.haar_unitary(2, 3), (photon(0),) * 2
        )
        cutoff = 6
        total = sum(
            oracles.exact_probability(circuit, [m1, m2])
            for m1 in range(cutoff + 1)
            for m2 in range(cutoff + 1)
            if m1 + m2 <= cutoff
        )
        mean_photons = 2 * math.sinh(r) ** 2
        tail = mean_photons / (cutoff + 1)  # Markov
        assert total >= 1.0 - tail
        assert total <= 1.0 + 1e-9

    def test_thermal_matches_permanent(self):
        rng = np.random.default_rng(6)
        for m in (2, 3, 4):
            lam = rng.uniform(0.1, 0.6, m)
            q = lo.haar_unitary(m, 30 + m).u
            b_mat = (q * lam) @ q.conj().T
            b_mat = (b_mat + b_mat.conj().T) / 2.0
            n_list = lam / (1.0 - lam)
            circuit = lo.CircuitSpec(
                modes=tuple((0.0, float(n)) for n in n_list),
                unitary=lo.Interferometer(m, q),
                pattern=(photon(1),) * m,
            )
            p = oracles.exact_probability(circuit, [1] * m)
            z_prime = float(np.prod(1.0 + n_list))
            assert p * z_prime == pytest.approx(
                oracles.permanent_exact(b_mat).real, rel=1e-9
            )

    def test_marginal_reduction_matches_truncated_sum(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0),) * 3, lo.haar_unitary(3, 5), (photon(1),) * 3, eta=0.5
        )
        marg = oracles.exact_probability(circuit, [1, "marginal", "marginal"])
        total = sum(
            oracles.exact_probability(circuit, [1, m2, m3])
            for m2 in range(4)
            for m3 in range(4)
        )
        assert marg == pytest.approx(total, abs=2e-4)

    def test_noclick_is_zero_photons(self):
        circuit = lo.CircuitSpec(
            ((0.3, 0.0), (0.0, 0.5), (0.2, 0.0)), lo.haar_unitary(3, 1), (photon(1),) * 3, eta=0.7
        )
        expected = oracles.exact_probability(circuit, [1, 0, "marginal"])
        assert oracles.exact_probability(circuit, [photon(1), NOCLICK, MARGINAL]) == expected
        with pytest.raises(ValueError, match="photon-number"):
            oracles.exact_probability(circuit, [photon(1), CLICK, MARGINAL])

    def test_photon_sum_limit(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0),) * 2, lo.haar_unitary(2, 5), (photon(1),) * 2
        )
        with pytest.raises(SchemaError, match="^/pattern: "):
            oracles.exact_probability(circuit, [5, 5])


class TestExactThresholdProbability:
    def test_single_thermal_click(self):
        n = 0.8
        circuit = lo.CircuitSpec(
            ((0.0, n),), lo.identity_interferometer(1), (CLICK,)
        )
        p = oracles.exact_threshold_probability(circuit, (CLICK,))
        assert p == pytest.approx(n / (n + 1.0), abs=1e-12)

    def test_vacuum_never_clicks(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.0),), lo.identity_interferometer(1), (CLICK,)
        )
        assert oracles.exact_threshold_probability(circuit, (CLICK,)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_inclusion_exclusion_identity(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.0), (0.4, 0.0)), lo.haar_unitary(2, 9), (CLICK, CLICK)
        )
        p_both = oracles.exact_threshold_probability(circuit, (CLICK, CLICK))
        p_vac1 = oracles.exact_threshold_probability(circuit, (NOCLICK, MARGINAL))
        p_vac2 = oracles.exact_threshold_probability(circuit, (MARGINAL, NOCLICK))
        p_vac12 = oracles.exact_threshold_probability(circuit, (NOCLICK, NOCLICK))
        assert p_both == pytest.approx(1.0 - p_vac1 - p_vac2 + p_vac12, rel=1e-10)

    def test_squeezed_all_click_matches_torontonian(self):
        r_list = np.array([0.3, 0.5, 0.4])
        u = lo.haar_unitary(3, 10)
        circuit = lo.CircuitSpec(
            modes=tuple((float(r), 0.0) for r in r_list),
            unitary=u,
            pattern=(CLICK,) * 3,
        )
        p_on = oracles.exact_threshold_probability(circuit, (CLICK,) * 3)
        r_block = u.u @ np.diag(np.tanh(r_list)) @ u.u.T
        mat = lo.block_r_prime(r_block)
        tor = oracles.torontonian_exact(mat.data)
        z = float(np.prod(np.cosh(r_list)))
        assert tor == pytest.approx(p_on * z, rel=1e-9)

    def test_photon_pattern_cross_check(self):
        # click probability as the complement of the vacuum projection
        n = 1.3
        circuit = lo.CircuitSpec(
            ((0.0, n),), lo.identity_interferometer(1), (CLICK,)
        )
        p_click = oracles.exact_threshold_probability(circuit, (CLICK,))
        p0 = oracles.exact_probability(circuit, [0])
        assert p_click == pytest.approx(1.0 - p0, rel=1e-12)
