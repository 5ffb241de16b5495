"""Unitaries, decompositions, embeddings, and the circuit kernel matrix."""

import math

import numpy as np
import pytest

from pqdkit import estimator
from pqdkit import linear_optics as lo
from pqdkit import oracles
from pqdkit.errors import (
    DimensionMismatch,
    NotHpsd,
    NotSymmetric,
    StructureMismatch,
    ZeroMatrix,
)
from pqdkit.phase_space import CLICK, MARGINAL, photon


class TestInterferometer:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            lo.Interferometer(2, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_haar_single_mode_is_phase(self):
        interf = lo.haar_unitary(1, 3)
        assert abs(abs(interf.u[0, 0]) - 1.0) < 1e-12

    def test_haar_deterministic(self):
        a = lo.haar_unitary(5, 42).u
        b = lo.haar_unitary(5, 42).u
        assert np.array_equal(a, b)

    def test_haar_unitarity_residual(self):
        u = lo.haar_unitary(6, 7).u
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12


class TestPropagate:
    """Phase-space pushforward beta = U alpha as the samplers apply it: the
    real map W acting on [Re alpha; Im alpha]."""

    @staticmethod
    def push(interf, alpha):
        re_im = lo.real_pushforward(interf.u) @ np.concatenate([alpha.real, alpha.imag])
        return re_im[: interf.m] + 1j * re_im[interf.m :]

    def test_identity(self):
        interf = lo.identity_interferometer(3)
        alpha = np.array([1.0, 2.0j, -0.5])
        assert np.allclose(self.push(interf, alpha), alpha)

    def test_beamsplitter_norm(self):
        bs = lo.Interferometer(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        beta = self.push(bs, np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(np.abs(beta), [1 / math.sqrt(2)] * 2)

    def test_norm_preservation_many(self):
        rng = np.random.default_rng(0)
        for k in range(1000):
            m = int(rng.integers(1, 7))
            interf = lo.haar_unitary(m, k)
            alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            beta = self.push(interf, alpha)
            assert np.allclose(beta, interf.u @ alpha, rtol=1e-12, atol=1e-12)
            norm_in = float(np.sum(np.abs(alpha) ** 2))
            norm_out = float(np.sum(np.abs(beta) ** 2))
            assert norm_out == pytest.approx(norm_in, rel=1e-10)

    def test_dimension_mismatch(self):
        # the pushforward's sizes are fixed when the circuit is built
        with pytest.raises(DimensionMismatch):
            lo.CircuitSpec(((0.0, 0.0),) * 3, lo.identity_interferometer(2), (photon(0),) * 3)


class TestTakagi:
    def test_diagonal(self):
        u, lam = lo.takagi(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(lam, [0.7, 0.3])
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]])

    def test_degenerate_offdiagonal(self):
        c = 0.4
        r_mat = np.array([[0.0, c], [c, 0.0]], dtype=complex)
        u, lam = lo.takagi(r_mat)
        assert np.allclose(lam, [c, c])
        assert np.max(np.abs(u @ np.diag(lam) @ u.T - r_mat)) <= 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        for m in range(2, 9):
            r_mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            r_mat = r_mat + r_mat.T
            u, lam = lo.takagi(r_mat)
            assert np.max(np.abs(u @ np.diag(lam) @ u.T - r_mat)) <= 1e-8
            assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= 1e-10
            assert np.all(np.diff(lam) <= 1e-12)
            ref = np.linalg.svd(r_mat, compute_uv=False)
            assert np.allclose(lam, ref, rtol=1e-10, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            lo.takagi(np.array([[0.0, 1.0], [0.2, 0.0]]))

    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.9, 0.7, 0.5, 0.3, 0.2, 0.1],  # generic
            [0.9, 0.9, 0.9, 0.4, 0.4, 0.1],  # exactly degenerate
            # gaps of about 1e-11 * scale
            [3.0, 3.0 - 3e-11, 0.9, 0.9 - 1e-11, 0.4, 0.1],
            [3.0, 3.0 - 1.5e-11, 0.9, 0.9 - 0.5e-11, 0.4, 0.1],
        ],
        ids=["generic", "degenerate", "near-degenerate", "near-degenerate-half-gap"],
    )
    def test_closed_form_roots_match_eig_path(self, spectrum):
        # generic, degenerate and nearly degenerate spectra all reconstruct
        # with a unitary U and the singular values in descending order
        u_mat = lo.haar_unitary(len(spectrum), 11).u
        r_mat = (u_mat * np.array(spectrum)) @ u_mat.T
        r_mat = (r_mat + r_mat.T) / 2.0
        u, lam = lo.takagi(r_mat)
        ref = np.linalg.svd(r_mat, compute_uv=False)
        np.testing.assert_allclose(lam, ref, rtol=0.0, atol=1e-14)
        assert np.max(np.abs((u * lam) @ u.T - r_mat)) <= 1e-14
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(spectrum)))) <= 1e-14

    @pytest.mark.parametrize("gap", [1.5e-11, 1e-10, 1e-9])
    def test_near_degenerate_pair_reconstructs(self, gap):
        # singular values 1 and 1 - gap: an SVD's vectors mix inside the pair,
        # which once made the reconstruction check reject these valid matrices
        u_mat = lo.haar_unitary(6, 3).u
        r_mat = (u_mat * np.array([1.0, 1.0 - gap, 0.7, 0.7, 0.4, 0.1])) @ u_mat.T
        r_mat = (r_mat + r_mat.T) / 2.0
        u, lam = lo.takagi(r_mat)
        assert np.max(np.abs((u * lam) @ u.T - r_mat)) <= 1e-14
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-14

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_zero_block_is_completed(self, rank):
        u_mat = lo.haar_unitary(5, 8).u
        spectrum = np.array([0.9, 0.5, 0.0, 0.0, 0.0])
        spectrum[rank:] = 0.0
        r_mat = (u_mat * spectrum) @ u_mat.T
        u, lam = lo.takagi((r_mat + r_mat.T) / 2.0)
        np.testing.assert_allclose(lam, spectrum, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-14


class TestHpsdEigendecompose:
    def test_identity(self):
        _, lam = lo.hpsd_eigendecompose(np.eye(3, dtype=complex))
        assert np.allclose(lam, 1.0)

    def test_rank_one(self):
        v = np.array([1.0, 2.0j, -1.0])
        u, lam = lo.hpsd_eigendecompose(np.outer(v, v.conj()))
        assert lam[0] == pytest.approx(float(np.sum(np.abs(v) ** 2)))
        assert np.allclose(lam[1:], 0.0, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for m in range(2, 9):
            v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            b_mat = v @ v.conj().T
            u, lam = lo.hpsd_eigendecompose(b_mat)
            assert np.max(np.abs((u * lam) @ u.conj().T - b_mat)) <= 1e-8
            assert np.all(np.diff(lam) <= 1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotHpsd):
            lo.hpsd_eigendecompose(np.diag([1.0, -0.5]).astype(complex))


class TestEmbeddings:
    def test_hafnian_rescale_formula(self):
        r_mat = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        emb = lo.embed_hafnian(r_mat, a=2.0)
        # lambda' = 0.5/(2*0.5) = 0.5 for both modes
        for r, n in emb.circuit.modes:
            assert r == pytest.approx(math.atanh(0.5), rel=1e-12)
            assert n == 0.0
        assert emb.rescale == 1.0
        assert emb.prefactor == pytest.approx(math.cosh(math.atanh(0.5)) ** 2)

    def test_hafnian_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            lo.embed_hafnian(np.zeros((2, 2)))

    def test_hafnian_oracle_identity(self):
        rng = np.random.default_rng(9)
        r_mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r_mat = r_mat + r_mat.T
        emb = lo.embed_hafnian(r_mat, a=1.3)
        p = oracles.exact_probability(emb.circuit, [1, 1, 1, 1])
        target = abs(oracles.hafnian_exact(r_mat)) ** 2
        assert emb.prefactor * p == pytest.approx(target, rel=1e-8)

    def test_hafnian_odd_dimension_embeds_to_zero(self):
        rng = np.random.default_rng(10)
        r_mat = rng.standard_normal((3, 3))
        r_mat = (r_mat + r_mat.T).astype(complex)
        emb = lo.embed_hafnian(r_mat, a=1.5)
        p = oracles.exact_probability(emb.circuit, [1, 1, 1])
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_permanent_thermal_occupations(self):
        emb = lo.embed_permanent(np.eye(2, dtype=complex), a=2.0)
        for _, n in emb.circuit.modes:
            assert n == pytest.approx(1.0, rel=1e-12)

    def test_permanent_rank_deficient(self):
        b_mat = np.diag([0.5, 0.0]).astype(complex)
        emb = lo.embed_permanent(b_mat, a=1.5)
        assert emb.circuit.modes[-1][1] == pytest.approx(0.0, abs=1e-15)

    def test_permanent_oracle_identity(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b_mat = v @ v.conj().T / 8.0
        emb = lo.embed_permanent(b_mat, a=1.2)
        p = oracles.exact_probability(emb.circuit, [1, 1, 1, 1])
        target = oracles.permanent_exact(b_mat).real
        assert emb.prefactor * p == pytest.approx(target, rel=1e-8)


class TestSpectrumMap:
    """The one map from a spectrum to circuit inputs, for all four spectrum
    families, checked bit for bit on a known diagonal spectrum."""

    SPECTRUM = np.array([0.6, 0.45, 0.2])

    @pytest.mark.parametrize("family", ["haf", "per", "torR", "torB"])
    def test_inputs_normalizations_and_prefactor(self, family):
        diag = np.diag(self.SPECTRUM).astype(complex)
        emb = {
            "haf": lambda: lo.embed_hafnian(diag, a=1.25),
            "per": lambda: lo.embed_permanent(diag, a=1.25),
            "torR": lambda: lo.embed_torontonian(lo.block_r_prime(diag)),
            "torB": lambda: lo.embed_torontonian(lo.block_b_prime(diag)),
        }[family]()
        rescale = 1.25 * 0.6 if family in ("haf", "per") else 1.0
        assert emb.rescale == rescale
        assert np.array_equal(emb.lambdas, self.SPECTRUM)
        x = self.SPECTRUM / rescale
        if family in ("haf", "torR"):
            r_list = np.arctanh(x)
            modes, mode_z = [(float(r), 0.0) for r in r_list], np.cosh(r_list)
        else:
            n_list = x / (1.0 - x)
            modes, mode_z = [(0.0, float(n)) for n in n_list], 1.0 + n_list
        assert list(emb.circuit.modes) == modes
        assert np.array_equal(emb.mode_z, mode_z)
        assert emb.prefactor == rescale**3 * float(np.prod(mode_z))
        outcome = photon(1) if family in ("haf", "per") else CLICK
        assert emb.circuit.pattern == (outcome,) * 3

    def test_torontonian_range_error_is_one_message(self):
        over = np.diag([1.2, 0.3]).astype(complex)
        messages = set()
        for mat in (lo.block_r_prime(over), lo.block_b_prime(over)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\)") as err:
                lo.embed_torontonian(mat)
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("a", [1.0, 0.9, -1.0])
    def test_rescale_at_most_one_rejected(self, a):
        # a <= 1 puts the top value lam_max / (a lam_max) outside [0, 1)
        diag = np.diag(self.SPECTRUM).astype(complex)
        for embed in (lo.embed_hafnian, lo.embed_permanent):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\).*need a > 1"):
                embed(diag, a=a)

    def test_squeezed_thermal_k(self):
        # n = 0: k+ = cosh^2 r and k- = -sinh^2 r; their difference is
        # (2n + 1) cosh 2r for any n
        r_list = np.array([0.0, 0.3, 0.8])
        k_plus, k_minus = lo.squeezed_thermal_k(0.0, r_list)
        assert np.allclose(k_plus, np.cosh(r_list) ** 2, rtol=1e-14)
        assert np.allclose(k_minus, -np.sinh(r_list) ** 2, rtol=1e-14, atol=1e-16)
        k_plus, k_minus = lo.squeezed_thermal_k(1.5, r_list)
        assert np.allclose(k_plus - k_minus, 4.0 * np.cosh(2.0 * r_list), rtol=1e-14)
        emb = lo.embed_hafnian_block_a(1.5, r_list)
        assert np.array_equal(emb.mode_z, np.sqrt(k_plus))
        assert lo.sqrt_vq_factor(1.5, r_list) == float(np.prod(np.sqrt(k_plus)))


class TestBlockA:
    def test_pure_squeezed_limit(self):
        r_list = [0.3, 0.5]
        interf = lo.haar_unitary(2, 4)
        mat, _ = lo.build_block_A(0.0, r_list, interf)
        m = 2
        b_block = mat.data[:m, m:]
        assert np.max(np.abs(b_block)) <= 1e-14
        # D_ii reduces to tanh r: compare against the hafnian embedding R
        r_block = mat.data[:m, :m]
        expected = interf.u @ np.diag(np.tanh(r_list)) @ interf.u.T
        assert np.max(np.abs(r_block - expected)) <= 1e-10

    def test_thermal_limit(self):
        n = 0.7
        interf = lo.haar_unitary(3, 6)
        mat, _ = lo.build_block_A(n, [0.0, 0.0, 0.0], interf)
        r_block = mat.data[:3, :3]
        assert np.max(np.abs(r_block)) <= 1e-14
        b_block = mat.data[:3, 3:]
        k = 1.0 + 2.0 * n * (1.0 + n) + (1.0 + 2.0 * n)
        expected = interf.u @ (np.eye(3) * (2 * n * (1 + n) / k)) @ interf.u.conj().T
        assert np.max(np.abs(b_block - expected)) <= 1e-10

    def test_oracle_identity(self):
        rng = np.random.default_rng(8)
        n = float(rng.uniform(0.3, 1.5))
        r_list = rng.uniform(0.05, 0.5, 3)
        interf = lo.haar_unitary(3, 11)
        mat, sqrt_vq = lo.build_block_A(n, r_list, interf)
        circuit = lo.CircuitSpec(
            modes=tuple((float(r), n) for r in r_list),
            unitary=interf,
            pattern=(photon(1),) * 3,
        )
        p_st = oracles.exact_probability(circuit, [1, 1, 1])
        haf = oracles.hafnian_exact(mat.data).real
        assert haf == pytest.approx(p_st * sqrt_vq, rel=1e-9)

    def test_sqrt_vq_value(self):
        n, r = 0.4, 0.3
        _, sqrt_vq = lo.build_block_A(n, [r], lo.identity_interferometer(1))
        expected = math.sqrt(0.5 + n * (n + 1) + (n + 0.5) * math.cosh(2 * r))
        assert sqrt_vq == pytest.approx(expected, rel=1e-12)

    # (n, r_list, Haar seed) over M = 1..6, zero squeezing included
    RECOVER_CASES = [
        (0.9, [0.2, 0.45, 0.3], 21),
        (0.05, [0.0], 1),
        (0.3, [0.1, 0.8], 2),
        (2.5, [0.05, 0.3, 0.6, 0.7], 4),
        (3.0, [0.4, 0.0, 0.25, 0.75, 0.1, 0.6], 5),
    ]

    def test_recover_params(self):
        for n, r_list, seed in self.RECOVER_CASES:
            interf = lo.haar_unitary(len(r_list), seed)
            mat = lo.block_a_prime(n, r_list, interf)
            mat_anon = lo.MatrixClass(lo.MatrixTag.BLOCK_A_PRIME, mat.data)
            n_rec, r_rec, u_rec = lo.recover_block_a_params(mat_anon)
            assert n_rec == pytest.approx(n, rel=1e-9)
            assert np.allclose(np.sort(r_rec), np.sort(r_list), atol=1e-8)
            rebuilt = lo.block_a_prime(n_rec, r_rec, u_rec).data
            assert np.allclose(rebuilt, mat.data, atol=1e-10)

    def test_recover_rejects_no_shared_occupation(self):
        # B is diagonal in the Takagi basis of R, but d^2 >= (1 - d')^2
        u = lo.haar_unitary(2, 3).u
        r_block = u @ np.diag([0.9, 0.5]) @ u.T
        b_block = u @ np.diag([0.2, 0.1]) @ u.conj().T
        a_prime = np.block([[b_block.T, r_block.conj()], [r_block, b_block]])
        with pytest.raises(StructureMismatch):
            lo.recover_block_a_params(lo.MatrixClass(lo.MatrixTag.BLOCK_A_PRIME, a_prime))

    def test_recover_rejects_mismatched_structure(self):
        rng = np.random.default_rng(13)
        r_block = rng.standard_normal((2, 2))
        r_block = (r_block + r_block.T).astype(complex) * 0.1
        b_block = np.diag([0.3, 0.5]).astype(complex)  # wrong eigenbasis
        a_prime = np.block([[b_block.T, r_block.conj()], [r_block, b_block]])
        mat = lo.MatrixClass(lo.MatrixTag.BLOCK_A_PRIME, a_prime)
        with pytest.raises(StructureMismatch):
            lo.recover_block_a_params(mat)


class TestGbsAMatrix:
    def test_vacuum_kernel_is_zero(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.0),) * 2, lo.haar_unitary(2, 1), (photon(0),) * 2
        )
        a_mat, sigma_q = lo.gbs_A_matrix(circuit, range(circuit.m))
        assert np.max(np.abs(a_mat)) <= 1e-12
        assert np.allclose(sigma_q, np.eye(4))

    def test_single_mode_two_photon(self):
        r = 0.6
        circuit = lo.CircuitSpec(
            ((r, 0.0),), lo.identity_interferometer(1), (photon(2),)
        )
        p2 = oracles.exact_probability(circuit, [2])
        assert p2 == pytest.approx(math.tanh(r) ** 2 / (2 * math.cosh(r)), rel=1e-10)

    def test_thermal_block_structure(self):
        circuit = lo.CircuitSpec(
            ((0.0, 0.5), (0.0, 1.2)), lo.haar_unitary(2, 2), (photon(1),) * 2
        )
        a_mat, _ = lo.gbs_A_matrix(circuit, range(circuit.m))
        # thermal kernels live entirely in the off-diagonal blocks
        assert np.max(np.abs(a_mat[:2, :2])) <= 1e-12
        assert np.max(np.abs(a_mat[2:, 2:])) <= 1e-12


    def test_kept_modes_are_the_reduced_state(self):
        # with no interferometer, reducing to modes (2, 0) is the circuit of
        # those two inputs alone
        modes = ((0.3, 0.1), (0.5, 0.0), (0.0, 0.7))
        circuit = lo.CircuitSpec(modes, lo.identity_interferometer(3), (photon(1),) * 3)
        alone = lo.CircuitSpec(
            (modes[2], modes[0]), lo.identity_interferometer(2), (photon(1),) * 2
        )
        a_kept, sigma_kept = lo.gbs_A_matrix(circuit, [2, 0])
        a_alone, sigma_alone = lo.gbs_A_matrix(alone, range(2))
        assert np.allclose(sigma_kept, sigma_alone, rtol=0.0, atol=1e-14)
        assert np.allclose(a_kept, a_alone, rtol=0.0, atol=1e-14)
        assert np.array_equal(lo.husimi_covariance(circuit, [2, 0]), sigma_kept)
        a_all, sigma_all = lo.gbs_A_matrix(circuit, [0, 1, 2])
        assert np.array_equal(a_all, lo.gbs_A_matrix(circuit, range(3))[0])
        assert sigma_all.shape == (6, 6)


class TestCircuitSpec:
    def test_covariance_formula_lossless(self):
        circuit = lo.CircuitSpec(
            ((0.5, 0.3),), lo.identity_interferometer(1), (photon(0),)
        )
        cov = circuit.covariances()[0]
        assert cov.a_plus == pytest.approx((2 * 0.3 + 1) * math.exp(1.0))
        assert cov.a_minus == pytest.approx((2 * 0.3 + 1) * math.exp(-1.0))

    def test_covariance_formula_lossy(self):
        circuit = lo.CircuitSpec(
            ((1.0, 0.0),), lo.identity_interferometer(1), (photon(0),), eta=0.5, n_th=0.2
        )
        cov = circuit.covariances()[0]
        assert cov.a_plus == pytest.approx(0.5 * math.exp(2.0) + 0.5 * 1.4)
        assert cov.a_minus == pytest.approx(0.5 * math.exp(-2.0) + 0.5 * 1.4)

    @pytest.mark.parametrize(
        "modes", [((0.3, 1e308), (0.2, 0.0)), ((0.0, 0.0), (350.0, 1e200)), ((400.0, 0.0),) * 2]
    )
    def test_overflowing_input_rejected(self, modes):
        # (2n + 1) e^{2r} overflows to inf, which no inverse or determinant
        # downstream flags: the exact oracles and the estimator read it as 0
        with pytest.raises(ValueError, match="not finite"):
            lo.CircuitSpec(modes, lo.haar_unitary(2, 5), (photon(1),) * 2)

    def test_covariances_computed_once_per_circuit(self, monkeypatch):
        calls = []
        original = lo.lossy_covariance
        monkeypatch.setattr(
            lo, "lossy_covariance", lambda *args: calls.append(args) or original(*args)
        )
        b_mat = np.diag([0.5, 0.4, 0.3, 0.2]).astype(complex)
        estimator.estimate_permanent_hpsd(b_mat, estimator.EstimatorConfig(n_samples=64))
        assert len(calls) == 4  # one call per mode of the one embedded circuit
        emb = lo.embed_permanent(b_mat)
        assert emb.circuit.covariances() is emb.circuit.covariances()
        assert emb.circuit.s_max == min(c.a_minus for c in emb.circuit.covariances())
        assert emb.circuit.a_max == max(c.a_plus for c in emb.circuit.covariances())
        with pytest.raises(AttributeError):
            emb.circuit.eta = 0.5  # the cache leaves the circuit frozen

    def test_outcome_index(self):
        pattern = (photon(1), CLICK, photon(1), MARGINAL, photon(2))
        circuit = lo.CircuitSpec(((0.1, 0.0),) * 5, lo.identity_interferometer(5), pattern)
        distinct, index = circuit.outcome_index
        assert distinct == (photon(1), CLICK, MARGINAL, photon(2))
        assert tuple(distinct[k] for k in index) == pattern

    def test_validation(self):
        with pytest.raises(ValueError):
            lo.CircuitSpec(
                ((0.5, 0.0),), lo.identity_interferometer(1), (photon(0),), eta=1.5
            )
        with pytest.raises(DimensionMismatch):
            lo.CircuitSpec(
                ((0.5, 0.0),) * 2, lo.identity_interferometer(1), (photon(0),)
            )


class TestMatrixClass:
    def test_decompose_only_torontonian_blocks(self):
        # R' and B' decompose (their cache serves repeated Torontonian
        # embeddings); every other tag has no decomposition to cache
        mat_a, _ = lo.build_block_A(0.2, [0.3, 0.1], lo.identity_interferometer(2))
        others = [
            lo.MatrixClass(lo.MatrixTag.COMPLEX_SYMMETRIC_R, np.diag([0.5, 0.2])),
            lo.MatrixClass(lo.MatrixTag.HPSD_B, np.diag([0.5, 0.2])),
            mat_a,
            lo.block_a_prime(0.2, [0.3, 0.1], lo.identity_interferometer(2)),
        ]
        for mat in others:
            with pytest.raises(ValueError, match="no Torontonian decomposition"):
                mat.decompose()
        mat_b = lo.block_b_prime(np.diag([0.5, 0.2]))
        assert mat_b.decompose() is mat_b.decompose()
        assert np.allclose(mat_b.decompose()[1], [0.5, 0.2])

    def test_tag_validation(self):
        with pytest.raises(NotSymmetric):
            lo.MatrixClass(lo.MatrixTag.COMPLEX_SYMMETRIC_R, np.array([[0, 1], [0.5, 0]]))
        with pytest.raises(NotHpsd):
            lo.MatrixClass(lo.MatrixTag.HPSD_B, np.array([[0, 1], [0.5, 0]]))

    def test_block_builders_validate(self):
        mat = lo.block_r_prime(np.array([[0.0, 0.4], [0.4, 0.0]]))
        r_block, b_block = lo.split_blocks(mat)
        assert np.allclose(r_block, [[0.0, 0.4], [0.4, 0.0]])
        assert np.max(np.abs(b_block)) == 0.0
        mat_b = lo.block_b_prime(np.array([[0.5, 0.1], [0.1, 0.5]]))
        _, b_block = lo.split_blocks(mat_b)
        assert np.allclose(b_block, [[0.5, 0.1], [0.1, 0.5]])
