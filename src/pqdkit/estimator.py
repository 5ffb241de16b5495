"""Monte-Carlo estimation of circuit probabilities via shifted phase-space
factorizations, with negativity bounds, optimal shifts, and sample budgeting.

The sampler draws the input phase-space points from the (shifted, normalized)
Gaussian input factors and averages the product of measurement factors.
Gaussian measurement factors (vacuum projections, no-click, marginalized
modes) are folded analytically into one correlated 2M-dimensional Gaussian;
only the non-Gaussian factors are averaged, each keeping its own shift
reweight so the per-sample range stays controlled by the modified negativity
bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from .errors import (
    BudgetOverflow,
    NotPositiveDefinite,
    ShiftOutOfRange,
    SingularOrdering,
)
from .factors import (
    FREEZE_TOL,
    measurement_sup,
    mode_lognorm,
    pi_w_profile,
    quadrature_exponents,
)
from .linear_optics import (
    CircuitSpec,
    Embedding,
    Interferometer,
    MatrixClass,
    MatrixTag,
    embed_hafnian,
    embed_permanent,
    recover_block_a_params,
    split_blocks,
    sqrt_vq_factor,
)
from .phase_space import (
    CLICK,
    MeasurementOutcome,
    W_INV_E,
    photon,
)

FORWARD = "forward"
REVERSE = "reverse"
S_MAX_MARGIN = 1e-9
MIN_DIAGNOSTIC_SAMPLES = 10_000


class GammaChoice(NamedTuple):
    gamma: float
    direction: str
    fpras_recommended: bool = False


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the additive-error estimator."""

    s: Optional[float] = None  # default: s_max - 1e-9
    gamma_mode: object = "auto"  # "auto" or (gamma, direction)
    epsilon: float = 0.05
    delta: float = 0.05
    n_samples: Optional[int] = None
    seed: int = 0
    chunks: int = 16

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0 and 0.0 < self.delta < 1.0):
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.chunks < 1:
            raise ValueError("chunks must be positive")


@dataclass
class EstimateReport:
    estimate: float
    factor_bound: float
    neg_bound: float
    mod_neg_bound: float
    n_used: int
    conf_radius: float
    seed: int
    wall_time: float
    s: float
    gamma: float
    direction: str
    method: str
    log_prefactor: float
    active_modes: tuple
    # one (n, running mean, running radius) row per chunk; a float array
    # keeps reports small when many are held
    trace_rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    @property
    def trace(self) -> list:
        """Running (n, mean, radius) after each chunk, in chunk order."""
        return [(int(n), mean, radius) for n, mean, radius in self.trace_rows.tolist()]

    def as_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "estimate": self.estimate,
            "factor_bound": self.factor_bound,
            "neg_bound": self.neg_bound,
            "mod_neg_bound": self.mod_neg_bound,
            "n_used": self.n_used,
            "conf_radius": self.conf_radius,
            "seed": self.seed,
            "s": self.s,
            "gamma": self.gamma,
            "direction": self.direction,
            "method": self.method,
            "active_modes": list(self.active_modes),
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out


def _rate(s: float, gamma: float, direction: str, a_max: float) -> float:
    if not (0.0 <= gamma < 1.0):
        raise ShiftOutOfRange(f"normalized gamma must lie in [0, 1), got {gamma}")
    if gamma == 0.0:
        return 0.0
    if direction == FORWARD:
        denom = a_max - s
        if denom <= 0.0:
            raise ShiftOutOfRange(f"forward shift needs a_max > s, got a_max = {a_max}")
        return 2.0 * gamma / denom
    if direction == REVERSE:
        return -2.0 * gamma / (s + 1.0)
    raise ValueError(f"unknown direction {direction!r}")


def _resolve_s(circuit: CircuitSpec, config: EstimatorConfig) -> float:
    s_max = circuit.s_max
    if config.s is None:
        return s_max - S_MAX_MARGIN
    if config.s > s_max + FREEZE_TOL:
        raise SingularOrdering(f"s = {config.s} exceeds circuit classicality {s_max}")
    return config.s


# ---------------------------------------------------------------------------
# negativity bounds and factor suprema
# ---------------------------------------------------------------------------


def negativity_bound(circuit: CircuitSpec, s: float) -> float:
    """Unshifted negativity bound: product of measurement-PQD suprema.

    Gaussian inputs at s <= s_max have unit total variation, so only the
    measurement side contributes.
    """
    if s > circuit.s_max + FREEZE_TOL:
        raise SingularOrdering(f"s = {s} exceeds circuit classicality")
    total = 1.0
    for out in circuit.pattern:
        total *= measurement_sup(out, s, 0.0, 1.0)
    return total


def mode_sups(
    circuit: CircuitSpec, s: float, gamma: float, direction: str
) -> np.ndarray:
    """Per-mode suprema of the shifted measurement factors |f_j|."""
    covs = circuit.covariances()
    rate = _rate(s, gamma, direction, max(c.a_plus for c in covs))
    sups = np.empty(circuit.m)
    for j, out in enumerate(circuit.pattern):
        n_j = math.exp(mode_lognorm(covs[j], s, rate))
        sups[j] = measurement_sup(out, s, rate, n_j)
    return sups


def modified_negativity_bound(
    circuit: CircuitSpec, s: float, gamma: float, direction: str
) -> float:
    """Shifted negativity bound: input factors are normalized densities, so
    the bound is the product of shifted measurement-factor suprema."""
    return float(np.prod(mode_sups(circuit, s, gamma, direction)))


@dataclass(frozen=True)
class FactorBound:
    c_max: float
    sups: np.ndarray


def factor_bound(
    circuit: CircuitSpec, s: float, gamma: float, direction: str
) -> FactorBound:
    sups = mode_sups(circuit, s, gamma, direction)
    return FactorBound(float(np.max(sups)) if sups.size else 1.0, sups)


def sample_count(c: float, m: int, epsilon: float, delta: float) -> int:
    """Hoeffding sample rule N = ceil(2 C^{2M} ln(2/delta) / epsilon^2)."""
    if c <= 0.0:
        raise ValueError("factor bound C must be positive")
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    log_n = (
        math.log(2.0)
        + 2.0 * m * math.log(c)
        + math.log(math.log(2.0 / delta))
        - 2.0 * math.log(epsilon)
    )
    if log_n > 63.0 * math.log(2.0):
        raise BudgetOverflow(f"sample count exceeds 2^63 (log N = {log_n:.2f})")
    return max(1, math.ceil(math.exp(log_n)))


def _hoeffding_count(log_b: float, epsilon: float, delta: float) -> int:
    log_n = (
        math.log(2.0)
        + 2.0 * log_b
        + math.log(math.log(2.0 / delta))
        - 2.0 * math.log(epsilon)
    )
    if log_n > 63.0 * math.log(2.0):
        raise BudgetOverflow(f"sample count exceeds 2^63 (log N = {log_n:.2f})")
    return max(1, math.ceil(math.exp(log_n)))


# ---------------------------------------------------------------------------
# optimal shifts
# ---------------------------------------------------------------------------

SQUEEZED_BRANCH_POINT = W_INV_E / (1.0 - W_INV_E)  # ~= 0.386


def optimal_gamma_squeezed(
    lambdas: Sequence[float], lambda_max: Optional[float] = None
) -> GammaChoice:
    """Balance-optimal shift for pure squeezed inputs with all-single-photon
    detection: forward below the branch point, reverse above it."""
    lam = float(lambda_max if lambda_max is not None else max(lambdas))
    if lam <= 0.0:
        return GammaChoice(0.0, FORWARD)
    if lam <= SQUEEZED_BRANCH_POINT:
        gamma = (2.0 * (1.0 + lam) * W_INV_E - 2.0 * lam) / (1.0 - lam)
        return GammaChoice(gamma, FORWARD)
    gamma = (lam - (1.0 + lam) * W_INV_E) / lam
    return GammaChoice(gamma, REVERSE)


def optimal_gamma_thermal(lambda_min: float, lambda_max: float) -> GammaChoice:
    """Optimal shift for thermal inputs with all-single-photon detection.

    lambda_min = 0 uses the closed two-branch rule; 0 < lambda_min < 1/2 the
    discriminant branch (reverse parametrization); lambda_min >= 1/2 flags
    the multiplicative-error path as the better tool.
    """
    if not (0.0 <= lambda_min <= lambda_max < 1.0):
        raise ValueError("need 0 <= lambda_min <= lambda_max < 1")
    fpras = lambda_min >= 0.5
    if lambda_min < 1e-12:
        if lambda_max < 0.5:
            return GammaChoice(
                (1.0 - 2.0 * lambda_max) / (2.0 * (1.0 - lambda_max)), FORWARD, fpras
            )
        return GammaChoice((2.0 * lambda_max - 1.0) / (2.0 * lambda_max), REVERSE, fpras)
    if lambda_max - lambda_min <= 1e-9:
        limit = (2.0 * lambda_max - 1.0) / lambda_max
        if limit >= 0.0:
            return GammaChoice(min(limit, 1.0 - 1e-12), REVERSE, fpras)
        return GammaChoice(0.0, FORWARD, fpras)
    disc = math.sqrt(
        4.0 * lambda_max**2 - 8.0 * lambda_max * lambda_min + 5.0 * lambda_min**2
    )
    num = (
        lambda_min
        + lambda_max * (4.0 * lambda_min - 2.0)
        + disc
        - lambda_min * (3.0 * lambda_min + disc)
    )
    # the same raw shift has a reverse parametrization when num >= 0 and a
    # forward one when num < 0 (lambda_min approaching 1/2)
    if num >= 0.0:
        gamma = num / (2.0 * lambda_min * (lambda_max - lambda_min))
        return GammaChoice(min(gamma, 1.0 - 1e-12), REVERSE, fpras)
    gamma = num / (2.0 * lambda_min * (lambda_max - 1.0))
    return GammaChoice(min(gamma, 1.0 - 1e-12), FORWARD, fpras)


def optimal_gamma_threshold(lambda_max: float) -> GammaChoice:
    """Optimal forward shift for all-click detection on squeezed or thermal
    inputs."""
    return GammaChoice(0.5 * (1.0 - lambda_max), FORWARD)


def optimal_gamma_threshold_st(n: float, r_max: float) -> GammaChoice:
    """Optimal forward shift for all-click detection on squeezed thermal
    inputs with shared occupation n."""
    return GammaChoice(math.exp(-math.tanh(r_max)) / (n + 1.0), FORWARD)


def optimal_gamma_st(n: float, r_max: float) -> GammaChoice:
    """Optimal reverse shift for single-photon detection on squeezed thermal
    inputs with shared occupation n."""
    return GammaChoice(math.exp(-math.tanh(r_max)) * n / (n + 1.0), REVERSE)


def _detect_family(circuit: CircuitSpec):
    """Classify the input family from the per-mode covariances."""
    covs = circuit.covariances()
    pure = all(abs(c.a_plus * c.a_minus - 1.0) < 1e-9 for c in covs)
    thermal = all(abs(c.a_plus - c.a_minus) < 1e-12 for c in covs)
    products = [c.a_plus * c.a_minus for c in covs]
    shared_st = (
        not thermal
        and not pure
        and max(products) - min(products) < 1e-9
        and min(products) > 1.0 + 1e-9
    )
    if pure and not thermal:
        lams = [(c.a_plus - 1.0) / (c.a_plus + 1.0) for c in covs]
        return "squeezed", lams
    if thermal:
        lams = [(c.a_plus - 1.0) / (c.a_plus + 1.0) for c in covs]
        return "thermal", lams
    if shared_st:
        n = (math.sqrt(products[0]) - 1.0) / 2.0
        r_list = [0.25 * math.log(c.a_plus / c.a_minus) for c in covs]
        return "squeezed_thermal", (n, r_list)
    return "generic", None


def resolve_gamma(circuit: CircuitSpec, s: float) -> GammaChoice:
    """Automatic shift choice: analytic optima for the derived families,
    numeric minimization of the effective sample bound otherwise."""
    kinds = {out.kind for out in circuit.pattern}
    counts = {out.m for out in circuit.pattern if out.kind == "photon"}
    family, params = _detect_family(circuit)
    if kinds == {"photon"} and counts == {1}:
        if family == "squeezed":
            return optimal_gamma_squeezed(params)
        if family == "thermal":
            return optimal_gamma_thermal(min(params), max(params))
        if family == "squeezed_thermal":
            n, r_list = params
            return optimal_gamma_st(n, max(r_list))
    if kinds == {"click"}:
        if family in ("squeezed", "thermal"):
            return optimal_gamma_threshold(max(params))
        if family == "squeezed_thermal":
            n, r_list = params
            return optimal_gamma_threshold_st(n, max(r_list))
    return _numeric_gamma(circuit, s)


def _log_effective_bound(circuit: CircuitSpec, s: float, gamma: float, direction: str):
    fold = _fold(circuit, s, gamma, direction)
    log_b = fold.log_prefactor
    for j in fold.active_modes:
        log_b += math.log(fold.active_sups[j])
    return log_b


def _numeric_gamma(circuit: CircuitSpec, s: float) -> GammaChoice:
    """Grid-plus-refinement minimization of the effective sample bound."""

    def objective(gamma: float, direction: str) -> float:
        try:
            return _log_effective_bound(circuit, s, gamma, direction)
        except (ShiftOutOfRange, NotPositiveDefinite, SingularOrdering):
            return math.inf

    candidates = [(0.0, FORWARD)]
    grid = np.geomspace(1e-4, 0.98, 64)
    for direction in (FORWARD, REVERSE):
        candidates.extend((float(g), direction) for g in grid)
    scored = [(objective(g, d), g, d) for g, d in candidates]
    best, g_best, d_best = min(scored, key=lambda t: t[0])
    if not math.isfinite(best):
        return GammaChoice(0.0, FORWARD)
    # golden refinement inside the bracketing grid interval
    same = sorted([g for _, g, d in scored if d == d_best] + [0.0])
    idx = same.index(g_best)
    lo = same[max(idx - 1, 0)]
    hi = same[min(idx + 1, len(same) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c, d_best), objective(d, d_best)
    for _ in range(60):
        if b - a < 1e-4:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c, d_best)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d, d_best)
    g_ref = 0.5 * (a + b)
    if objective(g_ref, d_best) < best:
        return GammaChoice(g_ref, d_best)
    return GammaChoice(g_best, d_best)


# ---------------------------------------------------------------------------
# sampling kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Fold:
    """Gaussian measurement factors folded into the input Gaussian.

    ``chol_lower`` is the Cholesky factor of the effective precision on the
    free coordinates ``free_idx`` (frozen delta quadratures are pinned to
    zero); the active modes keep their full shifted factors as per-sample
    weights.
    """

    rate: float
    free_idx: np.ndarray
    chol_lower: np.ndarray
    log_prefactor: float
    active_modes: tuple
    active_sups: dict
    active_norms: dict


def _mode_quadratic_form(row: np.ndarray) -> np.ndarray:
    """Real PSD form Q_j with |beta_j|^2 = alpha_R^T Q_j alpha_R for the
    pushforward beta_j = sum_k U_jk alpha_k, given row j of U."""
    a_vec = np.concatenate([row, 1j * row])
    return np.real(np.outer(a_vec, a_vec.conj()))


def _real_pushforward(u: np.ndarray) -> np.ndarray:
    """Real 2M x 2M map W with [Re beta; Im beta] = W [Re alpha; Im alpha]
    for the pushforward beta = U alpha."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _fold(circuit: CircuitSpec, s: float, gamma: float, direction: str) -> _Fold:
    covs = circuit.covariances()
    m = circuit.m
    a_max = max(c.a_plus for c in covs)
    rate = _rate(s, gamma, direction, a_max)
    sp = s + 1.0

    precision = np.zeros(2 * m)
    frozen: set[int] = set()
    for i, cov in enumerate(covs):
        for k, c in zip((i, m + i), quadrature_exponents(cov, s, rate)):
            if c is None:
                frozen.add(k)
            else:
                precision[k] = 2.0 * c
    free_idx = np.array([k for k in range(2 * m) if k not in frozen], dtype=int)

    lam = np.diag(precision)
    log_k = 0.0
    active = []
    active_sups = {}
    active_norms = {}
    for j, out in enumerate(circuit.pattern):
        log_n = mode_lognorm(covs[j], s, rate)
        if out.is_gaussian:
            g = rate if out.kind == "marginal" else rate + 2.0 / sp
            log_k += log_n
            if out.kind != "marginal":
                log_k += math.log(2.0 / sp)
            lam += 2.0 * g * _mode_quadratic_form(circuit.unitary.u[j])
        else:
            n_j = math.exp(log_n)
            active.append(j)
            active_norms[j] = n_j
            active_sups[j] = measurement_sup(out, s, rate, n_j)

    lam_free = lam[np.ix_(free_idx, free_idx)]
    try:
        chol = np.linalg.cholesky(lam_free)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "effective covariance lost positive definiteness; shift out of window"
        ) from exc
    logdet_eff = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    logdet_in = float(np.sum(np.log(precision[free_idx])))
    return _Fold(
        rate=rate,
        free_idx=free_idx,
        chol_lower=chol,
        log_prefactor=log_k + 0.5 * (logdet_in - logdet_eff),
        active_modes=tuple(active),
        active_sups=active_sups,
        active_norms=active_norms,
    )


# OpenBLAS computes a product with m*n*k <= 2^18 on the calling thread;
# larger ones may wake its thread pool, and where the pool competes for few
# cores the wake-up dominates (on 2 CPUs a 64 x 64 x 2952 product took 16 ms
# as one call, 1.7 ms as column panels of at most 2^18 multiply-adds).
GEMM_PANEL_MNK = 1 << 18


@dataclass(frozen=True)
class FoldedSampler:
    """Weighted Gaussian sampler: one real matrix product per batch.

    ``kernel`` (2A x F) maps F standard normals straight to
    [Re beta; Im beta] of the A weighted modes; each sample's weight is the
    product of those modes' shifted measurement factors.  The folded
    sampler (``build_folded_sampler``) absorbs the Gaussian measurement
    factors into the kernel and prefactor; the naive one
    (``_build_naive_sampler``) folds nothing and weights every mode.
    """

    kernel: np.ndarray
    rate: float
    profiles: tuple  # pi W(b) of each weighted mode, b = |beta|^2
    scale: float  # product of the weighted modes' input normalizations
    log_prefactor: float
    active_modes: tuple  # the weighted modes, in kernel row order

    def beta_sq(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """|beta_j|^2 of the weighted modes (rows) for normals z (F x n)."""
        rows, f = self.kernel.shape
        a = rows // 2
        if out is None:
            out = np.empty((a, z.shape[1]))
        step = max(1, GEMM_PANEL_MNK // max(1, rows * f))
        for col in range(0, z.shape[1], step):
            y = self.kernel @ z[:, col : col + step]
            np.square(y, out=y)
            np.add(y[:a], y[a:], out=out[:, col : col + step])
        return out

    def draw(self, rng, n: int) -> np.ndarray:
        """Sample n weight values (products of the weighted modes' factors).

        ``rng`` is a Generator, or a sequence of (Generator, count) pieces
        with counts summing to n that fill consecutive samples; a piece's
        samples use exactly the normals its generator alone would draw for
        shape (F, count).
        """
        if not self.active_modes:
            return np.ones(n)
        pieces = [(rng, n)] if isinstance(rng, np.random.Generator) else rng
        b = np.empty((len(self.active_modes), n))
        col = 0
        for gen, count in pieces:
            z = gen.standard_normal((self.kernel.shape[1], count))
            self.beta_sq(z, out=b[:, col : col + count])
            col += count
        w = np.full(n, self.scale)
        for prof, b_j in zip(self.profiles, b):
            w *= prof(b_j) * np.exp(-self.rate * b_j)
        return w


def build_folded_sampler(
    circuit: CircuitSpec, s: float, gamma: float, direction: str
) -> FoldedSampler:
    """Folded sampler with kernel K = W_af L^{-T}: W restricted to the active
    modes' rows and the free columns, L the Cholesky factor of the folded
    precision (one solve here, none per batch)."""
    fold = _fold(circuit, s, gamma, direction)
    m = circuit.m
    rows = list(fold.active_modes) + [m + j for j in fold.active_modes]
    kernel = _real_pushforward(circuit.unitary.u)[np.ix_(rows, fold.free_idx)]
    if kernel.size:
        # numpy's LAPACK, not scipy's: a call into scipy's separate OpenBLAS
        # leaves its threads spinning, which halved the speed of the batches
        # that followed on a 2-CPU host
        kernel = np.linalg.solve(fold.chol_lower, kernel.T).T
    return FoldedSampler(
        kernel=kernel,
        rate=fold.rate,
        profiles=tuple(pi_w_profile(circuit.pattern[j], s) for j in fold.active_modes),
        scale=math.prod(fold.active_norms[j] for j in fold.active_modes),
        log_prefactor=fold.log_prefactor,
        active_modes=fold.active_modes,
    )


def _build_naive_sampler(
    circuit: CircuitSpec, s: float, gamma: float, direction: str
) -> FoldedSampler:
    """Independent per-mode input sampling with every measurement factor in
    the weight: kernel K = W diag(stds) over all 2M coordinates (a frozen
    coordinate has std 0)."""
    covs = circuit.covariances()
    m = circuit.m
    rate = _rate(s, gamma, direction, max(c.a_plus for c in covs))
    stds = np.zeros(2 * m)
    log_norm = 0.0
    for i, cov in enumerate(covs):
        for k, c in zip((i, m + i), quadrature_exponents(cov, s, rate)):
            stds[k] = 0.0 if c is None else math.sqrt(1.0 / (2.0 * c))
        log_norm += mode_lognorm(cov, s, rate)
    return FoldedSampler(
        kernel=_real_pushforward(circuit.unitary.u) * stds,
        rate=rate,
        profiles=tuple(pi_w_profile(out, s) for out in circuit.pattern),
        scale=math.exp(log_norm),
        log_prefactor=0.0,
        active_modes=tuple(range(m)),
    )


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def _chunk_sizes(n: int, chunks: int) -> list[int]:
    base = n // chunks
    sizes = [base + (1 if i < n % chunks else 0) for i in range(chunks)]
    return [sz for sz in sizes if sz > 0]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
    )


# Samples per kernel call.  Consecutive chunks are fused up to this size so
# that small chunks share the fixed cost of a call (about ten array
# operations per weighted mode), while a batch's temporaries stay a few MB.
FUSED_BATCH = 1 << 15


def _fused_units(sizes: list[int]) -> list[list[tuple[int, int]]]:
    """Runs of consecutive (chunk, size) pairs holding at most FUSED_BATCH
    samples; a chunk larger than that forms a run of its own."""
    units: list[list[tuple[int, int]]] = []
    total = 0
    for chunk, size in enumerate(sizes):
        if units and total + size <= FUSED_BATCH:
            units[-1].append((chunk, size))
            total += size
        else:
            units.append([(chunk, size)])
            total = size
    return units


def estimate_probability(
    circuit: CircuitSpec,
    config: EstimatorConfig = EstimatorConfig(),
    method: str = "folded",
    threads: int = 1,
) -> EstimateReport:
    """Unbiased estimate of the outcome probability of ``circuit``.

    ``method`` selects the folded sampler (Gaussian measurement factors
    integrated analytically) or the naive per-mode sampler with every factor
    kept in the weight.  Each chunk draws from its own Philox stream;
    consecutive chunks are fused into batches of at most ``FUSED_BATCH``
    samples, and ``threads`` parallelizes over those batches without
    changing the result (chunk subtotals are merged in index order).
    """
    t0 = time.perf_counter()
    s = _resolve_s(circuit, config)
    if config.gamma_mode == "auto":
        gamma, direction = resolve_gamma(circuit, s)[:2]
    else:
        gamma, direction = config.gamma_mode

    if method == "folded":
        sampler = build_folded_sampler(circuit, s, gamma, direction)
        deterministic = not sampler.active_modes
    elif method == "naive":
        sampler = _build_naive_sampler(circuit, s, gamma, direction)
        deterministic = False
    else:
        raise ValueError(f"unknown method {method!r}")
    all_sups = mode_sups(circuit, s, gamma, direction)
    mod_neg = float(np.prod(all_sups))
    c_max = float(np.max(all_sups)) if all_sups.size else 1.0
    neg = negativity_bound(circuit, s)
    log_b_samples = sampler.log_prefactor + sum(
        math.log(all_sups[j]) for j in sampler.active_modes
    )
    prefactor = math.exp(sampler.log_prefactor)

    b_eff = math.exp(log_b_samples)
    if config.n_samples is not None:
        n_total = int(config.n_samples)
    elif deterministic:
        n_total = 1
    else:
        n_total = _hoeffding_count(log_b_samples, config.epsilon, config.delta)
        if b_eff < 1.0:
            n_total = max(n_total, MIN_DIAGNOSTIC_SAMPLES)

    sizes = _chunk_sizes(n_total, config.chunks)
    units = _fused_units(sizes)

    def unit_sums(unit) -> list[float]:
        rngs = [_chunk_rng(config.seed, chunk) for chunk, _ in unit]
        if len(unit) > 1:
            counts = [size for _, size in unit]
            w = sampler.draw(list(zip(rngs, counts)), sum(counts))
            ends = np.cumsum(counts)
            return [float(np.sum(w[e - k : e])) for e, k in zip(ends, counts)]
        size = unit[0][1]
        subtotal = 0.0
        for done in range(0, size, FUSED_BATCH):
            subtotal += float(np.sum(sampler.draw(rngs[0], min(FUSED_BATCH, size - done))))
        return [subtotal]

    if threads > 1 and len(units) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_unit = list(pool.map(unit_sums, units))
    else:
        per_unit = [unit_sums(unit) for unit in units]
    subtotals = [x for sums in per_unit for x in sums]

    running = 0.0
    n_done = 0
    trace = []
    radius_scale = b_eff * math.sqrt(2.0 * math.log(2.0 / config.delta))
    for size, subtotal in zip(sizes, subtotals):
        running += subtotal
        n_done += size
        trace.append(
            (
                n_done,
                prefactor * running / n_done,
                radius_scale / math.sqrt(n_done),
            )
        )

    estimate = prefactor * running / n_total if n_total else prefactor
    conf_radius = radius_scale / math.sqrt(n_total)
    return EstimateReport(
        estimate=float(estimate),
        factor_bound=c_max,
        neg_bound=neg,
        mod_neg_bound=mod_neg,
        n_used=n_total,
        conf_radius=float(conf_radius),
        seed=config.seed,
        wall_time=time.perf_counter() - t0,
        s=s,
        gamma=gamma,
        direction=direction,
        method=method,
        log_prefactor=sampler.log_prefactor,
        active_modes=tuple(j for j, out in enumerate(circuit.pattern) if not out.is_gaussian),
        trace_rows=np.array(trace, dtype=float).reshape(-1, 3),
    )


# ---------------------------------------------------------------------------
# matrix-function estimators
# ---------------------------------------------------------------------------


@dataclass
class MatrixEstimate:
    value: float
    budget: float
    conf_radius: float
    prefactor: float
    report: EstimateReport
    budget_factors: np.ndarray
    formula_id: str
    gurvits_beaten: Optional[bool] = None

    def as_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "value": self.value,
            "budget": self.budget,
            "conf_radius": self.conf_radius,
            "prefactor": self.prefactor,
            "formula_id": self.formula_id,
            "budget_factors": [float(x) for x in self.budget_factors],
            "report": self.report.as_dict(include_wall_time=include_wall_time),
        }
        if self.gurvits_beaten is not None:
            out["gurvits_beaten"] = self.gurvits_beaten
        return out


def _matrix_sample_count(config: EstimatorConfig) -> int:
    # N = O(1/eps^2) convention: the budget already carries the factor bound
    return config.n_samples or _hoeffding_count(0.0, config.epsilon, config.delta)


def _run_embedding(
    emb: Embedding, config: EstimatorConfig, budget
) -> MatrixEstimate:
    n_samples = _matrix_sample_count(config)
    inner = EstimatorConfig(
        s=config.s,
        gamma_mode=config.gamma_mode,
        epsilon=config.epsilon,
        delta=config.delta,
        n_samples=n_samples,
        seed=config.seed,
        chunks=config.chunks,
    )
    report = estimate_probability(emb.circuit, inner)
    return MatrixEstimate(
        value=emb.prefactor * report.estimate,
        budget=config.epsilon * budget.product,
        conf_radius=emb.prefactor * report.conf_radius,
        prefactor=emb.prefactor,
        report=report,
        budget_factors=budget.factors,
        formula_id=budget.formula_id,
    )


def estimate_hafnian_sq(
    r_mat: np.ndarray, config: EstimatorConfig = EstimatorConfig(), a: float = 1.001
) -> MatrixEstimate:
    """|Haf(R)|^2 of a complex symmetric matrix within an additive budget."""
    emb = embed_hafnian(r_mat, a)
    budget = bounds_mod.budget_hafnian(emb.lambdas)
    return _run_embedding(emb, config, budget)


def estimate_permanent_hpsd(
    b_mat: np.ndarray, config: EstimatorConfig = EstimatorConfig(), a: float = 1.001
) -> MatrixEstimate:
    """Per(B) of an HPSD matrix within an additive budget, with the
    precision-vs-spectral-norm comparison predicate."""
    emb = embed_permanent(b_mat, a)
    budget = bounds_mod.budget_permanent(emb.lambdas)
    result = _run_embedding(emb, config, budget)
    lam_max = float(np.max(emb.lambdas))
    log_budget = float(np.sum(np.log(budget.factors)))
    result.gurvits_beaten = bool(log_budget < emb.lambdas.size * math.log(lam_max))
    return result


def estimate_torontonian(
    mat: MatrixClass, config: EstimatorConfig = EstimatorConfig()
) -> MatrixEstimate:
    """Torontonian of a block matrix in the R'/B'/A' families via all-click
    threshold estimation."""
    if mat.tag is MatrixTag.BLOCK_R_PRIME:
        _, b_block = split_blocks(mat)
        if np.max(np.abs(b_block)) > 1e-10:
            raise ShiftOutOfRange("R' family requires a vanishing B block")
        u, lam = mat.decompose()
        if lam.size and lam[0] >= 1.0:
            raise ValueError("singular values must lie in [0, 1) for Torontonians")
        m = lam.size
        r_list = np.arctanh(lam)
        circuit = CircuitSpec(
            modes=tuple((float(r), 0.0) for r in r_list),
            unitary=Interferometer(m, u),
            pattern=tuple(CLICK for _ in range(m)),
        )
        z = float(np.prod(np.cosh(r_list)))
        budget = bounds_mod.budget_torontonian("squeezed", lambdas=lam)
        gamma_mode = (
            config.gamma_mode
            if config.gamma_mode != "auto"
            else tuple(optimal_gamma_threshold(float(np.max(lam)))[:2])
        )
    elif mat.tag is MatrixTag.BLOCK_B_PRIME:
        u, lam = mat.decompose()
        if lam.size and lam[0] >= 1.0:
            raise ValueError("eigenvalues must lie in [0, 1) for Torontonians")
        m = lam.size
        n_list = lam / (1.0 - lam)
        circuit = CircuitSpec(
            modes=tuple((0.0, float(n)) for n in n_list),
            unitary=Interferometer(m, u),
            pattern=tuple(CLICK for _ in range(m)),
        )
        z = float(np.prod(1.0 + n_list))
        budget = bounds_mod.budget_torontonian("thermal", lambdas=lam)
        gamma_mode = (
            config.gamma_mode
            if config.gamma_mode != "auto"
            else tuple(optimal_gamma_threshold(float(np.max(lam)))[:2])
        )
    elif mat.tag is MatrixTag.BLOCK_A_PRIME:
        if mat.st_params is not None:
            n, r_list, interf = mat.st_params
            r_list = np.asarray(r_list, dtype=float)
            from .linear_optics import block_a_prime

            rebuilt = block_a_prime(n, r_list, interf)
            dev = np.max(np.abs(rebuilt.data - mat.data))
            if dev > 1e-8 * max(1.0, float(np.max(np.abs(mat.data)))):
                from .errors import StructureMismatch

                raise StructureMismatch(
                    f"stored parameters do not rebuild the matrix (residual {dev:.3e})"
                )
        else:
            n, r_list, interf = recover_block_a_params(mat)
        m = interf.m
        circuit = CircuitSpec(
            modes=tuple((float(r), float(n)) for r in r_list),
            unitary=interf,
            pattern=tuple(CLICK for _ in range(m)),
        )
        z = sqrt_vq_factor(n, r_list)
        budget = bounds_mod.budget_torontonian(
            "squeezed_thermal", n=n, r_list=r_list
        )
        gamma_mode = (
            config.gamma_mode
            if config.gamma_mode != "auto"
            else tuple(optimal_gamma_threshold_st(n, float(np.max(r_list)))[:2])
        )
    else:
        raise ValueError(f"unsupported Torontonian tag {mat.tag}")

    n_samples = _matrix_sample_count(config)
    inner = EstimatorConfig(
        s=config.s,
        gamma_mode=gamma_mode,
        epsilon=config.epsilon,
        delta=config.delta,
        n_samples=n_samples,
        seed=config.seed,
        chunks=config.chunks,
    )
    report = estimate_probability(circuit, inner)
    return MatrixEstimate(
        value=z * report.estimate,
        budget=config.epsilon * budget.product,
        conf_radius=z * report.conf_radius,
        prefactor=z,
        report=report,
        budget_factors=budget.factors,
        formula_id=budget.formula_id,
    )
