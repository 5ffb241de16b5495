"""Interferometers, matrix decompositions, and circuit embeddings.

Circuits are zero-mean Gaussian states (per-mode squeezed thermal inputs,
optionally lossy) followed by a passive unitary.  Matrix-function targets are
embedded into such circuits by rescaling their spectrum into [0, 1) and
reading squeezing / thermal parameters off the rescaled values.  The
decompositions and embeddings run on one OpenBLAS thread (``_blas``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._blas import one_blas_thread
from .errors import SchemaError
from .phase_space import CLICK, MeasurementOutcome, photon

UNITARY_TOL = 1e-10
RECONSTRUCT_TOL = 1e-8


@dataclass(frozen=True)
class Interferometer:
    """Passive M-mode unitary."""

    m: int
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (self.m, self.m):
            raise SchemaError("/unitary", f"unitary must be {self.m}x{self.m}, got shape {u.shape}")
        dev = np.max(np.abs(u.conj().T @ u - np.eye(self.m)))
        if dev > UNITARY_TOL:
            raise SchemaError("/unitary", f"matrix is not unitary: max deviation {dev:.3e}")
        object.__setattr__(self, "u", u)


def identity_interferometer(m: int) -> Interferometer:
    return Interferometer(m, np.eye(m, dtype=complex))


@one_blas_thread()
def haar_unitary(m: int, seed: int) -> Interferometer:
    """Haar-random unitary via QR of a complex Gaussian matrix.

    Deterministic for a given seed; the R-diagonal phase fix makes the
    distribution exactly Haar.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return Interferometer(m, q)


@dataclass(frozen=True)
class CircuitSpec:
    """Gaussian boson sampling circuit: per-mode inputs, loss, unitary, pattern.

    The inputs are squeezed thermal modes (r_i, n_i) sent through a
    transmissivity-``eta`` channel whose environment carries ``n_th`` mean
    thermal photons; ``variances`` holds the state they make.
    """

    modes: tuple  # tuple of (r_i, n_i)
    unitary: Interferometer
    pattern: tuple  # tuple of MeasurementOutcome
    eta: float = 1.0
    n_th: float = 0.0

    def __post_init__(self):
        if len(self.modes) != self.unitary.m or len(self.pattern) != self.unitary.m:
            raise SchemaError("/pattern", "modes, unitary, and pattern sizes disagree")
        if not (0.0 < self.eta <= 1.0):
            raise SchemaError("/eta", f"eta must be in (0, 1], got {self.eta}")
        if not self.n_th >= 0.0:  # written so that NaN fails too
            raise SchemaError("/n_th", "n_th must be nonnegative")
        for r, n in self.modes:
            if not (r >= 0.0 and n >= 0.0):
                raise SchemaError("/modes", "squeezing and thermal photons must be nonnegative")
        try:
            finite = math.isfinite(self.a_max)
        except OverflowError:  # e^{2r} beyond the float range
            finite = False
        if not finite:
            raise SchemaError("/modes", "input covariance is not finite: squeezing or thermal photons overflow")

    @property
    def m(self) -> int:
        return self.unitary.m

    @cached_property
    def variances(self) -> np.ndarray:
        """The 2M input quadrature variances, the x quadrature of every mode
        and then every p, computed once per circuit (read-only).

        They are dimensionless, a = 2*V, so that the vacuum has a = 1; mode
        i's pair is eta*(2n_i+1)*exp(+-2r_i) + (1-eta)*(2*n_th+1), which
        covers both the lossless squeezed-thermal and the lossy
        squeezed-vacuum conventions.  The s-PQD of a quadrature is the
        Gaussian of exponent 2/(a - s) (``factors.unshifted_exponents``).
        """
        env = (1.0 - self.eta) * (2.0 * self.n_th + 1.0)
        x = [self.eta * (2.0 * n + 1.0) * math.exp(2.0 * r) + env for r, n in self.modes]
        p = [self.eta * (2.0 * n + 1.0) * math.exp(-2.0 * r) + env for r, n in self.modes]
        a = np.array(x + p, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def s_max(self) -> float:
        """Largest ordering at which every input PQD stays a proper
        Gaussian: the smallest p variance."""
        return float(self.variances[self.m :].min())

    @cached_property
    def a_max(self) -> float:
        """The largest x variance."""
        return float(self.variances[: self.m].max())

    @cached_property
    def outcome_index(self) -> tuple[tuple, np.ndarray]:
        """The distinct outcomes of ``pattern`` and each mode's index among
        them, so that a per-outcome quantity is computed once per outcome."""
        keys = [(out.kind, out.m) for out in self.pattern]
        slots = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        distinct = tuple(MeasurementOutcome(*key) for key in slots)
        return distinct, np.array([slots[key] for key in keys], dtype=int)


class MatrixTag(enum.Enum):
    COMPLEX_SYMMETRIC_R = "R"
    HPSD_B = "B"
    BLOCK_A_PRIME = "A'"
    BLOCK_R_PRIME = "R'"
    BLOCK_B_PRIME = "B'"


@dataclass
class MatrixClass:
    """Tagged target matrix with a cached decomposition (``decompose``).
    ``data`` is a read-only copy of the given matrix, so the decomposition
    stays the matrix's own."""

    tag: MatrixTag
    data: np.ndarray
    decomposition: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.data = np.array(self.data, dtype=complex)
        self.data.flags.writeable = False
        n = self.data.shape[0]
        if self.data.shape != (n, n):
            raise SchemaError("/m", "matrix must be square")
        if self.tag is MatrixTag.COMPLEX_SYMMETRIC_R:
            _check_symmetric(self.data)
        elif self.tag is MatrixTag.HPSD_B:
            _check_hermitian(self.data)

    def decompose(self) -> tuple:
        """Cached decomposition of the block matrix a Torontonian embeds:
        (U, spectrum) from the Takagi factorization of an R' matrix's R
        block (its B block must vanish) or the eigendecomposition of a B'
        matrix's B block, and the recovered (n, r_list, interferometer) of
        an A' matrix (``recover_block_a_params``); other tags raise
        ``SchemaError`` at ``/tag``.  Written once; safe for concurrent reads
        afterwards."""
        if self.decomposition is not None:
            return self.decomposition
        if self.tag is MatrixTag.BLOCK_R_PRIME:
            r_block, b_block = split_blocks(self)
            if np.max(np.abs(b_block)) > 1e-10:
                raise SchemaError("/re", "R' family requires a vanishing B block")
            self.decomposition = takagi(r_block)
        elif self.tag is MatrixTag.BLOCK_A_PRIME:
            self.decomposition = recover_block_a_params(self)
        elif self.tag is MatrixTag.BLOCK_B_PRIME:
            self.decomposition = hpsd_eigendecompose(split_blocks(self)[1])
        else:
            raise SchemaError("/tag", f"no Torontonian decomposition for tag {self.tag}")
        return self.decomposition


def _check_symmetric(mat: np.ndarray, tol: float = 1e-10):
    dev = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    if dev > tol * max(1.0, np.max(np.abs(mat))):
        raise SchemaError("/re", f"matrix is not symmetric: max deviation {dev:.3e}")


def _check_hermitian(mat: np.ndarray, tol: float = 1e-10):
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if dev > tol * max(1.0, np.max(np.abs(mat))):
        raise SchemaError("/re", f"matrix is not Hermitian: max deviation {dev:.3e}")


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


@one_blas_thread()
def takagi(r_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization R = U diag(lam) U^T of a complex symmetric matrix.

    One ``eigh`` of the real symmetric H = [[Re R, Im R], [Im R, -Re R]],
    whose spectrum is +-lam: an eigenvector [x; y] of l > 0 gives
    u = x + i y with R conj(u) = l u, orthonormal in C^M because [-y; x]
    belongs to -l.  No singular vectors are paired, so (nearly) degenerate
    spectra stay exact.  A QR whose diagonal is rescaled to unit modulus
    completes a zero block and keeps the other columns' phases.  ``lam`` is
    sorted in descending order.
    """
    r_mat = np.asarray(r_mat, dtype=complex)
    _check_symmetric(r_mat)
    m = r_mat.shape[0]
    re, im = r_mat.real, r_mat.imag
    ev, vec = np.linalg.eigh(np.concatenate([np.hstack([re, im]), np.hstack([im, -re])]))
    lam = np.maximum(ev[::-1][:m], 0.0)
    top = vec[:, ::-1][:, :m]
    u, tri = np.linalg.qr(top[:m] + 1j * top[m:])
    u = u * np.exp(1j * np.angle(np.diagonal(tri)))

    resid = np.max(np.abs((u * lam) @ u.T - r_mat)) if r_mat.size else 0.0
    if resid > RECONSTRUCT_TOL * max(1.0, np.max(np.abs(r_mat))):
        raise SchemaError("/re", f"takagi reconstruction failed: residual {resid:.3e}")
    return u, lam


@one_blas_thread()
def hpsd_eigendecompose(b_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition B = U diag(lam) U^dagger of an HPSD matrix.

    Eigenvalues sorted descending; values in [-1e-12*scale, 0) are clipped
    to zero, anything more negative raises ``SchemaError`` at ``/re``.
    """
    b_mat = np.asarray(b_mat, dtype=complex)
    _check_hermitian(b_mat)
    lam, u = np.linalg.eigh(b_mat)
    lam = lam[::-1].copy()
    u = u[:, ::-1].copy()
    scale = max(1.0, abs(lam[0]) if lam.size else 1.0)
    if lam.size and lam[-1] < -1e-10 * scale:
        raise SchemaError("/re", f"negative eigenvalue {lam[-1]:.3e}")
    np.clip(lam, 0.0, None, out=lam)
    return u, lam


# ---------------------------------------------------------------------------
# embeddings of matrix functions into circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Circuit embedding of a matrix target of one ``family``.

    ``value = prefactor * p`` recovers the matrix function from the circuit
    probability p.  The prefactor is the product of ``mode_prefactors``,
    the spectrum's ``rescale`` a * lam_max (1 where nothing is rescaled)
    times each mode's normalization ``mode_z`` (cosh r_j, 1 + n_j or
    sqrt k+_j); a matrix estimate's budget is built from these per-mode
    factors.  ``lambdas`` are the original spectrum values; the circuit
    realizes ``lambdas / rescale``.  A rescale or normalization past the
    float range makes the prefactors inf, without numpy's overflow warning:
    the estimate reports it as a ``FloatingPointError``.
    """

    circuit: CircuitSpec
    family: str
    rescale: float
    mode_z: np.ndarray
    lambdas: np.ndarray

    @property
    def prefactor(self) -> float:
        with np.errstate(over="ignore"):
            return self.rescale**self.circuit.m * float(np.prod(self.mode_z))

    @property
    def mode_prefactors(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.rescale * self.mode_z


# the spectrum families that read squeezing off a spectrum; the others read
# thermal occupation
_SQUEEZED_FAMILIES = ("hafnian_sq", "torontonian.squeezed")


def _embed_spectrum(
    family: str, u: np.ndarray, lam: np.ndarray, outcome: MeasurementOutcome, rescale: float = 1.0
) -> Embedding:
    """The one map from a decomposed spectrum (U, lam) to a circuit measured
    with ``outcome`` on every mode: each x = lam / rescale in [0, 1) is read
    as squeezing r = artanh x with normalization cosh r (``_SQUEEZED_FAMILIES``)
    or as thermal occupation n = x / (1 - x) with normalization 1 + n."""
    x = lam / rescale
    if x.size and not 0.0 <= x[0] < 1.0:
        raise SchemaError(
            "/re",
            f"spectrum / rescale must lie in [0, 1), got {x[0]:.6g}: R' singular values and"
            " B' eigenvalues are not rescaled",
        )
    if family in _SQUEEZED_FAMILIES:
        r_list = np.arctanh(x)
        modes, mode_z = tuple((float(r), 0.0) for r in r_list), np.cosh(r_list)
    else:
        n_list = x / (1.0 - x)
        modes, mode_z = tuple((0.0, float(n)) for n in n_list), 1.0 + n_list
    circuit = CircuitSpec(modes, Interferometer(lam.size, u), (outcome,) * lam.size)
    return Embedding(circuit, family, rescale, mode_z, lam)


def _rescale(a: float, lam: np.ndarray, target: str) -> float:
    """a * lam_max, which maps a nonzero spectrum into [0, 1/a] for a > 1;
    past the float range it is inf, and so is the embedding's prefactor."""
    if not lam.size or lam[0] <= 0.0:
        raise SchemaError("/re", f"{target} embedding needs a nonzero matrix")
    if not a > 1.0:
        raise SchemaError("/rescale-a", f"must be greater than 1, got {a}")
    with np.errstate(over="ignore"):
        return a * lam[0]


@one_blas_thread()
def embed_hafnian(r_mat: np.ndarray, a: float = 1.001) -> Embedding:
    """Pure-squeezed circuit whose all-single-photon probability encodes
    |Haf(R)|^2 after rescaling the singular values into [0, 1/a]."""
    u, lam = takagi(r_mat)
    return _embed_spectrum("hafnian_sq", u, lam, photon(1), _rescale(a, lam, "hafnian"))


@one_blas_thread()
def embed_permanent(b_mat: np.ndarray, a: float = 1.001) -> Embedding:
    """Thermal circuit whose all-single-photon probability encodes Per(B)."""
    u, lam = hpsd_eigendecompose(b_mat)
    return _embed_spectrum("permanent", u, lam, photon(1), _rescale(a, lam, "permanent"))


def squeezed_thermal_k(n: float, r_list) -> tuple[np.ndarray, np.ndarray]:
    """k+-_i = 1/2 + n(n+1) +- (n+1/2) cosh 2r_i of squeezed thermal modes of
    shared occupation n: sqrt k+_i is mode i's normalization (their product
    is sqrt|V_Q|), and the sandwich bounds need k-_i > 0."""
    base = 0.5 + n * (n + 1.0)
    spread = (n + 0.5) * np.cosh(2.0 * np.asarray(r_list, dtype=float))
    return base + spread, base - spread


def _st_diagonals(n: float, r_list: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entries (d, d') of the squeezed-thermal block structure."""
    r_list = np.asarray(r_list, dtype=float)
    k = 2.0 * squeezed_thermal_k(n, r_list)[0]  # doubling is exact in binary floating point
    d = (1.0 + 2.0 * n) * np.sinh(2.0 * r_list) / k
    dp = 2.0 * n * (1.0 + n) / k
    return d, dp


def block_a_prime(n: float, r_list: Sequence[float], interf: Interferometer) -> MatrixClass:
    """A' = [[B^T, R*], [R, B]] of squeezed thermal modes of shared thermal
    occupation ``n`` and squeezing ``r_list`` behind ``interf``: R = U D U^T
    and B = U D' U^dagger, with the diagonals of ``_st_diagonals``."""
    if n < 0.0 or any(r < 0.0 for r in r_list):
        raise SchemaError("/r-list", "n and r_i must be nonnegative")
    u = interf.u
    d, dp = _st_diagonals(n, r_list)
    r_block = u @ np.diag(d) @ u.T
    b_block = u @ np.diag(dp) @ u.conj().T
    return MatrixClass(
        MatrixTag.BLOCK_A_PRIME, np.block([[b_block.T, r_block.conj()], [r_block, b_block]])
    )


def block_r_prime(r_mat: np.ndarray) -> MatrixClass:
    """R' = [[0, R*], [R, 0]] for a complex symmetric R."""
    r_mat = np.asarray(r_mat, dtype=complex)
    _check_symmetric(r_mat)
    zero = np.zeros_like(r_mat)
    return MatrixClass(
        MatrixTag.BLOCK_R_PRIME, np.block([[zero, r_mat.conj()], [r_mat, zero]])
    )


def block_b_prime(b_mat: np.ndarray) -> MatrixClass:
    """B' = [[B^T, 0], [0, B]] for an HPSD B."""
    b_mat = np.asarray(b_mat, dtype=complex)
    _check_hermitian(b_mat)
    zero = np.zeros_like(b_mat)
    return MatrixClass(
        MatrixTag.BLOCK_B_PRIME, np.block([[b_mat.T, zero], [zero, b_mat]])
    )


def split_blocks(mat: MatrixClass) -> tuple[np.ndarray, np.ndarray]:
    """Extract (R, B) from a 2M x 2M block matrix of the A'/R'/B' families."""
    data = mat.data
    m2 = data.shape[0]
    if m2 % 2:
        raise SchemaError("/m", "block matrices must have even dimension")
    m = m2 // 2
    r_block = data[m:, :m]
    b_block = data[m:, m:]
    tol = 1e-8 * max(1.0, np.max(np.abs(data)))
    if np.max(np.abs(data[:m, :m] - b_block.T)) > tol:
        raise SchemaError("/re", "upper-left block is not B^T")
    if np.max(np.abs(data[:m, m:] - r_block.conj())) > tol:
        raise SchemaError("/re", "upper-right block is not R*")
    return r_block, b_block


@one_blas_thread()
def recover_block_a_params(mat: MatrixClass) -> tuple[float, np.ndarray, Interferometer]:
    """Recover (n, r_list, U) from an A'-tagged matrix.

    Uses the Takagi basis of R, requires B to be diagonal in the same basis,
    and reads n off the first mode in closed form; the rest follow.  Raises
    ``SchemaError`` at ``/re`` when R has a singular value d >= 1 (d = tanh r
    of a pure squeezed input, below 1 for every A' matrix) or the rebuilt
    matrix disagrees with the input.
    """
    r_block, b_block = split_blocks(mat)
    u, d = takagi(r_block)
    if d.max(initial=0.0) >= 1.0:
        raise SchemaError("/re", f"R has a singular value {d.max():.6g} >= 1; A' needs every one below 1")
    interf = Interferometer(r_block.shape[0], u)
    if np.max(np.abs(b_block)) < 1e-12:
        n, r_list = 0.0, np.arctanh(d)  # pure squeezed limit: d_i = tanh r_i
    else:
        dp_mat = u.conj().T @ b_block @ u
        if np.max(np.abs(dp_mat - np.diag(np.diagonal(dp_mat)))) > 1e-7:
            raise SchemaError("/re", "B is not diagonal in the Takagi basis of R")
        dp = np.real(np.diagonal(dp_mat))
        if np.min(dp) <= 0.0:
            raise SchemaError("/re", "B eigenvalues must be positive for shared n > 0")

        # cosh^2 2r - sinh^2 2r = 1 is a quadratic in X = (2n+1)^2 whose roots
        # are X = 1 (n = 0) and X = ((1+p)^2 - d^2) / ((1-p)^2 - d^2), which
        # exceeds 1 whenever p > 0 and the denominator is positive
        d0, p0 = float(d[0]), float(dp[0])
        denom = (1.0 - p0) ** 2 - d0 * d0
        if denom <= 0.0:
            raise SchemaError("/re", "no shared thermal occupation solves the block structure")
        x_minus_1 = 4.0 * p0 / denom
        u_var = math.sqrt(1.0 + x_minus_1)
        n = 0.5 * x_minus_1 / (u_var + 1.0)  # (u - 1)/2 without cancellation
        # d / d' = u sinh(2r) / (2n(n+1)) = 2 u sinh(2r) / (X - 1): unlike
        # cosh 2r, sinh 2r is well conditioned at r = 0
        r_list = 0.5 * np.arcsinh(d * x_minus_1 / (2.0 * u_var * dp))
    dev = np.max(np.abs(block_a_prime(n, r_list, interf).data - mat.data))
    if dev > 1e-8 * max(1.0, np.max(np.abs(mat.data))):
        raise SchemaError("/re", f"(n, r, U) do not rebuild the A' matrix: residual {dev:.3e}")
    return n, r_list, interf


def embed_squeezed_thermal(n: float, r_list, interf: Interferometer, outcome, family: str) -> Embedding:
    """Squeezed thermal inputs of shared occupation n measured with
    ``outcome`` on every mode; each mode's normalization is sqrt k+_i, and
    ``lambdas`` are the singular values d_i of the R block."""
    modes = tuple((float(r), float(n)) for r in r_list)
    circuit = CircuitSpec(modes, interf, (outcome,) * interf.m)
    lam = _st_diagonals(n, r_list)[0]
    return Embedding(circuit, family, 1.0, np.sqrt(squeezed_thermal_k(n, r_list)[0]), lam)


def embed_hafnian_block_a(
    n: float, r_list: Sequence[float], interf: Optional[Interferometer] = None
) -> Embedding:
    """All-single-photon circuit of the squeezed thermal state behind
    ``block_a_prime(n, r_list, interf)`` (default: the identity), whose
    probability times sqrt|V_Q| is Haf(A) of that matrix with its block rows
    swapped, A = [[R, B], [B^T, R*]]."""
    r_arr = np.asarray(r_list, dtype=float)
    if interf is None:
        interf = identity_interferometer(r_arr.size)
    return embed_squeezed_thermal(n, r_arr, interf, photon(1), "hafnian.block_a")


@one_blas_thread()
def embed_torontonian(mat: MatrixClass) -> Embedding:
    """All-click circuit whose probability times ``prefactor`` is Tor(mat).

    R' embeds as pure squeezing r = arctanh(lam) and B' as thermal occupation
    n = lam / (1 - lam), with ``lam`` the singular values of R or the
    eigenvalues of B (which must lie in [0, 1)).  A' embeds as squeezed
    thermal light with shared occupation n; its ``lambdas`` are the
    singular values of its R block.  Nothing is rescaled.  Every tag reads
    the matrix's cached ``decompose``.
    """
    parts = mat.decompose()
    if mat.tag is MatrixTag.BLOCK_A_PRIME:
        try:
            return embed_squeezed_thermal(*parts, CLICK, "torontonian.squeezed_thermal")
        except SchemaError as err:  # (n, r) were read off the matrix
            raise SchemaError("/re", err.message) from err
    family = "torontonian.squeezed" if mat.tag is MatrixTag.BLOCK_R_PRIME else "torontonian.thermal"
    return _embed_spectrum(family, *parts, CLICK)


# ---------------------------------------------------------------------------
# full-circuit covariance and the GBS A matrix
# ---------------------------------------------------------------------------


def real_pushforward(u: np.ndarray) -> np.ndarray:
    """Real map W = [[Re U, -Im U], [Im U, Re U]] with [Re beta; Im beta] =
    W [Re alpha; Im alpha] for the pushforward beta = U alpha; rows of U
    give the rows of W for their modes."""
    re, im = u.real, u.imag
    return np.concatenate([np.concatenate([re, -im], axis=1), np.concatenate([im, re], axis=1)])


def husimi_covariance(circuit: CircuitSpec, kept: Sequence[int]) -> np.ndarray:
    """Husimi covariance sigma_Q = sigma + I/2 of the state reduced to the
    modes ``kept`` (in that order), sigma being the symmetric-ordered
    covariance in the (a, a^dagger) complex basis of W diag(V) W^T, the
    xxpp covariance after the interferometer."""
    m = circuit.m
    eye = np.eye(m)
    omega = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2.0)
    w = real_pushforward(circuit.unitary.u)
    sigma = omega @ ((w * (circuit.variances / 2.0)) @ w.T) @ omega.conj().T
    idx = [*kept, *(j + m for j in kept)]
    return sigma[np.ix_(idx, idx)] + 0.5 * np.eye(2 * len(kept))


def gbs_A_matrix(circuit: CircuitSpec, kept: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Kernel A = X (I - sigma_Q^{-1}) and the Husimi covariance sigma_Q of
    the modes ``kept``."""
    sigma_q = husimi_covariance(circuit, kept)
    mk = len(kept)
    x = np.block([[np.zeros((mk, mk)), np.eye(mk)], [np.eye(mk), np.zeros((mk, mk))]])
    return x @ (np.eye(2 * mk) - np.linalg.inv(sigma_q)), sigma_q
