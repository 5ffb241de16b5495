"""Monte-Carlo estimation of circuit probabilities via shifted phase-space
factorizations, with negativity bounds, optimal shifts, and sample budgeting.

The sampler draws the input phase-space points from the (shifted, normalized)
Gaussian input factors and averages the product of measurement factors.
Which factors' exponents move into the input density is a choice of
proposal, one mask in ``_fold`` and one builder, ``build_folded_sampler``:
the folded proposal folds the Gaussian measurement factors (vacuum
projections, no-click, marginalized modes) analytically into one correlated
2M-dimensional Gaussian, the naive one folds none and the Laplace one (the
multiplicative estimator's) every mode.  Folded, only the A non-Gaussian
factors are averaged, each keeping its own shift reweight so the per-sample
range stays controlled by the modified negativity bound.  With nothing to
fold (every matrix embedding, and the naive proposal) the precision stays
diagonal and its square root stands in for a Cholesky factor.  A sample
costs at most 2A standard normals (marginal and other folded modes add
none) and one exp for all weighted modes together; a click factor keeps
one exp of its own.  Both estimators lay their samples out one way: sample
i belongs to chunk i // ``CHUNK`` and is drawn from that chunk's own SFC64
stream, and a chunk is one fill of sample-major normals, weighed at once,
so memory stays bounded whatever the sample count.  ``chunk_sums`` draws
the chunks on every usable CPU by default; the thread count changes no
value.  Setup work (decompositions, folds, the kernel's solve and QR) runs
on one OpenBLAS thread, so no BLAS pool spins while the samples are drawn.
Per-mode values are computed once per call, and a factor's supremum once
per distinct outcome.

One rule picks the shift unless the caller fixes one: ``resolve_gamma``
searches the rate that minimizes the folded sampler's weight bound over the
instance's own spectrum.  What the shift leaves unchanged (``Setup``: the
circuit at one ordering s) is built once per estimate, and every step after
it takes that one ``Setup`` as its only circuit argument: the search, the
fold, the samplers, the suprema and the negativity bound.  |Haf|^2, Per and
Tor share one path through the circuit estimate, and the budget is the
bound of the sampler that ran (``budget_factors``: each mode's prefactor
times the run's ``mode_sups``, the numbers its weights are checked
against), so it covers the run's Hoeffding radius.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._blas import one_blas_thread
from .errors import (
    BoundViolation,
    BudgetOverflow,
    NotPositiveDefinite,
    ShiftOutOfRange,
)
from .factors import shift_exponents, unshifted_exponents
from .linear_optics import (
    CircuitSpec,
    Embedding,
    MatrixClass,
    embed_hafnian,
    embed_permanent,
    embed_torontonian,
    real_pushforward,
)
from .phase_space import pi_w_profile

FORWARD = "forward"
REVERSE = "reverse"
S_MAX_MARGIN = 1e-9
WEIGHT_BOUND_RTOL = 1e-9


class GammaChoice(NamedTuple):
    gamma: float
    direction: str


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the additive-error estimator."""

    s: Optional[float] = None  # default: s_max - 1e-9
    gamma_mode: object = "auto"  # "auto" or (gamma, direction)
    epsilon: float = 0.05
    delta: float = 0.05
    n_samples: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0 and 0.0 < self.delta < 1.0):
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


@dataclass
class EstimateReport:
    estimate: float
    factor_bound: float
    neg_bound: float
    mod_neg_bound: float
    n_used: int
    conf_radius: float
    seed: int
    s: float
    gamma: float
    direction: str
    method: str
    active_modes: tuple
    mode_sups: np.ndarray  # per-mode suprema, the bound the weights were checked against
    # one (n, running mean, running radius) row per chunk; a float array
    # keeps reports small when many are held
    trace_rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    @property
    def trace(self) -> list:
        """Running (n, mean, radius) after each chunk, in chunk order."""
        return [(int(n), mean, radius) for n, mean, radius in self.trace_rows.tolist()]

    def as_dict(self) -> dict:
        return {
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


# ---------------------------------------------------------------------------
# what a shift leaves unchanged
# ---------------------------------------------------------------------------


class Setup:
    """The rate-independent part of a circuit at ordering s, built once per
    estimate and passed to the shift search, the fold, the samplers and the
    suprema: s and a_max (which map a shift to its rate), each quadrature's
    unshifted exponent 2/(a - s) (NaN where frozen), one ``RadialFactor``
    per distinct outcome, and W on the free coordinates.  Building it
    checks s: above a variance it raises ``SingularOrdering``, outside a
    factor's range ``OrderingOutOfRange``.
    """

    def __init__(self, circuit: CircuitSpec, s: float):
        self.m = circuit.m
        self.s = s
        self.a_max = circuit.a_max
        self.c0 = unshifted_exponents(circuit.covariances(), s)
        distinct, self.index = circuit.outcome_index
        self.radial = tuple(pi_w_profile(out, s) for out in distinct)
        self.gaussian = np.array([out.is_gaussian for out in distinct])[self.index]
        # a Gaussian factor's log-slope, which it folds with, and log pi W(0)
        self.kappa = np.array([f.log_slope for f in self.radial])[self.index]
        self.log_w0 = np.array(
            [math.log(f.const) if out.is_gaussian else 0.0 for f, out in zip(self.radial, distinct)]
        )[self.index]
        self.free_idx = np.flatnonzero(~np.isnan(self.c0))
        self.w = real_pushforward(circuit.unitary.u)

    def rows(self, modes) -> np.ndarray:
        """Rows of W on the free coordinates giving [Re beta; Im beta] of
        ``modes``, column-major: the samplers' kernel products run faster
        on it than on a row-major copy."""
        modes = np.asarray(modes, dtype=int)
        return self.w[np.concatenate([modes, modes + self.m])][:, self.free_idx]

    def unit_sups(self, rate: float) -> np.ndarray:
        """sup_b |pi W_j(b)| exp(-rate * b) of every mode, one supremum per
        distinct outcome; a supremum is linear in the input normalization,
        which callers multiply in."""
        return np.array([f.sup(rate) for f in self.radial])[self.index]

    @functools.cached_property
    def log_bound(self) -> Callable[[float], float]:
        """log B_eff as a function of the signed rate: the log of the folded
        sampler's weight bound, inf outside the feasible rates.  With
        Lambda(rate) the folded precision on the free coordinates,

            log B_eff = const - 1/2 log det Lambda(rate)
                        + sum over weighted modes of log sup_j(rate),

        the input normalizations cancelling between the fold's prefactor and
        the weighted modes.  Lambda is diagonal, 2 (c0 - rate), when no
        factor is Gaussian, else base + rate * slope.  Everything else is
        computed here once, so that a probe takes one log-sum or one
        Cholesky and one supremum per distinct weighted outcome.  Equal to
        ``_log_effective_bound``, which takes a full fold."""
        c0 = self.c0[self.free_idx]
        cap = float(c0.min()) if c0.size else math.inf  # at or above it an exponent is <= 0
        counts = np.bincount(self.index[~self.gaussian], minlength=len(self.radial)).tolist()
        weighted = [(f.sup, n) for f, n in zip(self.radial, counts) if n]
        gauss = np.flatnonzero(self.gaussian)
        inf, log, nlog, add = math.inf, math.log, np.log, np.add.reduce
        if gauss.size:
            w_g = self.rows(gauss)
            slope = 2.0 * (w_g.T @ w_g)
            slope[np.diag_indices_from(slope)] -= 2.0
            base = (w_g.T * np.tile(-2.0 * self.kappa[gauss], 2)) @ w_g
            base[np.diag_indices_from(base)] += 2.0 * c0
            const = 0.5 * float(add(nlog(2.0 * c0))) + float(add(self.log_w0))
        else:  # log det Lambda = sum log 2 (c0 - rate)
            const = 0.5 * float(add(nlog(c0)))

        def probe(rate: float) -> float:
            value = const
            for sup, n in weighted:
                value += n * log(sup(rate))
            if value == inf or rate >= cap:  # an unbounded factor, or an exponent <= 0
                return inf
            if not gauss.size:
                return value - 0.5 * float(add(nlog(c0 - rate)))
            try:
                root = np.linalg.cholesky(base + rate * slope)
            except np.linalg.LinAlgError:
                return inf
            return value - float(add(nlog(np.diagonal(root))))

        return probe


# ---------------------------------------------------------------------------
# negativity bounds and factor suprema
# ---------------------------------------------------------------------------


def negativity_bound(setup: Setup) -> float:
    """Unshifted negativity bound: product of measurement-PQD suprema.

    Gaussian inputs at s <= s_max have unit total variation, so only the
    measurement side contributes.
    """
    return float(np.prod(setup.unit_sups(0.0)))


def mode_sups(setup: Setup, gamma: float, direction: str) -> np.ndarray:
    """Per-mode suprema of the shifted measurement factors |f_j|: each mode's
    input normalization at this shift times its factor's supremum.  Their
    product is the modified (shifted) negativity bound: the shifted input
    factors are normalized densities."""
    rate = _rate(setup.s, gamma, direction, setup.a_max)
    return np.exp(shift_exponents(setup.c0, rate)[1]) * setup.unit_sups(rate)


def _hoeffding_count(log_b: float, epsilon: float, delta: float) -> int:
    """Hoeffding sample rule N = ceil(2 B^2 ln(2/delta) / epsilon^2) for
    per-sample weights bounded by B = exp(log_b)."""
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
# the shift
# ---------------------------------------------------------------------------


def resolve_gamma(setup: Setup, method: str = "folded") -> GammaChoice:
    """The automatic shift, one rule for every circuit and matrix family:
    the searched minimum of the folded sampler's weight bound
    (``_numeric_gamma``).  With nothing weighed (an all-Gaussian pattern,
    folded) the estimate is exact at any shift, so the choice is rate 0,
    without a search."""
    if method == "folded" and setup.gaussian.all():
        return GammaChoice(0.0, FORWARD)
    return _numeric_gamma(setup)


def _log_effective_bound(setup: Setup, gamma: float, direction: str):
    """log B_eff at a shift from a full fold: the reference of the search's
    objective (``Setup.log_bound``)."""
    fold = _fold(setup, gamma, direction)
    active = list(fold.active_modes)
    sups = setup.unit_sups(_rate(setup.s, gamma, direction, setup.a_max))[active]
    return fold.log_prefactor + float(np.sum(np.log(sups) + fold.log_norms[active]))


# The share of the open interval of feasible rates the search spans.  Near
# its reverse end lie the optima of near-degenerate thermal spectra close to
# 1 (the closed-form permanent shift reaches gamma = 0.999 at lambda = 1/a).
SEARCH_WINDOW = 1.0 - 1e-6


@one_blas_thread()
def _numeric_gamma(setup: Setup) -> GammaChoice:
    """Golden-section minimization of log B_eff over the signed rate.

    log B_eff (``Setup.log_bound``) is convex in the rate: the folded
    precision Lambda is affine in it, so -1/2 log det Lambda is convex, and
    each log-supremum is a supremum of affine functions of the rate, so
    convex too.  It is thus convex on one interval of feasible rates, which
    holds rate 0, and one bracket-free line search over the window
    SEARCH_WINDOW * [-2/(s+1), 2/(a_max-s)] finds its minimum.  A probe
    takes the rate-dependent terms only: one supremum per distinct weighted
    outcome, a log-sum, and a Cholesky where Gaussian factors are folded.
    The better interior probe always stays in the bracket, so the best
    point probed is rate 0, a last interior probe or an end of the last
    bracket (whose probes catch a minimum at a window edge).
    """
    log_bound, s, a_max = setup.log_bound, setup.s, setup.a_max
    inf = math.inf
    a = -SEARCH_WINDOW * 2.0 / (s + 1.0)
    b = SEARCH_WINDOW * 2.0 / (a_max - s) if a_max > s else 0.0
    tol = 1e-6 * (b - a)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    f0 = log_bound(0.0)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = log_bound(c), log_bound(d)
    while b - a > tol:
        if fc == fd == inf:
            # both probes outside the feasible interval, which holds 0
            a, b = (a, c) if c > 0.0 else (d, b)
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            fc, fd = log_bound(c), log_bound(d)
        elif fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = log_bound(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = log_bound(d)
    rate = min([(f0, 0.0), (fc, c), (fd, d), (log_bound(a), a), (log_bound(b), b)])[1]
    if rate >= 0.0:
        return GammaChoice(rate * (a_max - s) / 2.0, FORWARD)
    return GammaChoice(-rate * (s + 1.0) / 2.0, REVERSE)


# ---------------------------------------------------------------------------
# sampling kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Fold:
    """Gaussian measurement factors folded into the input Gaussian.

    ``root`` is a square root of the effective precision on the free
    coordinates ``free_idx`` (frozen delta quadratures are pinned to zero):
    its lower Cholesky factor L, or, when the precision is diagonal because
    nothing is folded, the 1-D vector of the diagonal's square roots.
    Active mode j keeps n_j * pi W_j(b) * exp(-rate_j * b) as its
    per-sample weight, with ``rates`` in active-mode order; ``log_norms``
    holds log n_j of every mode.
    """

    rates: tuple
    free_idx: np.ndarray
    root: np.ndarray
    log_prefactor: float
    active_modes: tuple
    log_norms: np.ndarray


@one_blas_thread()
def _fold(setup: Setup, gamma: float, direction: str, method: str = "folded") -> _Fold:
    """A proposal folds the exponent of some modes' factors into the input
    Gaussian: the Gaussian modes (``method`` "folded"), no mode ("naive")
    or every mode ("laplace").  A factor's exponent is its log-slope kappa:
    a Gaussian factor is pi W(0) * exp(kappa * b).  A folded mode adds
    c_j Q_j, c_j = 2 (rate - kappa_j), to the precision, where
    |beta_j|^2 = x^T Q_j x and Q_j = W_j^T W_j + W_{M+j}^T W_{M+j}; the
    folded modes add W_r^T diag(c, c) W_r in one product over their rows
    W_r of W.  With nothing folded the precision stays the inputs'
    diagonal.  A mode leaves the weight only when it is Gaussian and
    folded; a folded non-Gaussian factor keeps pi W_j(b) * exp(-kappa_j * b),
    so folding every mode makes the precision minus the log-Hessian of the
    integrand at the origin (the Laplace proposal)."""
    folds = {"folded": setup.gaussian, "naive": False, "laplace": True}.get(method)
    if folds is None:
        raise ValueError(f"unknown method {method!r}")
    rate = _rate(setup.s, gamma, direction, setup.a_max)
    exponents, log_norms = shift_exponents(setup.c0, rate)
    free_idx = setup.free_idx
    precision = 2.0 * exponents[free_idx]

    # per mode, the exponent rate_j its weight keeps: kappa_j when folded,
    # the shift rate when not (so that unfolded modes add nothing)
    weight_rates = np.where(folds, setup.kappa, rate)
    gone = setup.gaussian & folds
    log_prefactor = float(np.sum(log_norms[gone] + setup.log_w0[gone]))
    coefs = 2.0 * (rate - weight_rates)
    folded = np.flatnonzero(coefs)
    if folded.size:
        w_r = setup.rows(folded)
        lam = (w_r.T * np.tile(coefs[folded], 2)) @ w_r
        lam[np.diag_indices_from(lam)] += precision
        try:
            root = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "effective covariance lost positive definiteness; shift out of window"
            ) from exc
        logdet_eff = 2.0 * float(np.sum(np.log(np.diagonal(root))))
        log_prefactor += 0.5 * (float(np.sum(np.log(precision))) - logdet_eff)
    else:
        root = np.sqrt(precision)
    active = np.flatnonzero(~gone)
    return _Fold(
        rates=tuple(weight_rates[active].tolist()),
        free_idx=free_idx,
        root=root,
        log_prefactor=log_prefactor,
        active_modes=tuple(active.tolist()),
        log_norms=log_norms,
    )


# OpenBLAS computes a product with m*n*k <= 2^18 on the calling thread;
# larger ones may wake its thread pool, and where the pool competes for few
# cores the wake-up dominates (on 2 CPUs a 64 x 64 x 2952 product took 16 ms
# as one call, 1.7 ms as column panels of at most 2^18 multiply-adds).
GEMM_PANEL_MNK = 1 << 18
# Samples per chunk: one stream, one fill of sample-major normals, weighed
# at once.  The (CHUNK, F) normals stay 1 MB at F = 32, and a product of one
# row with a CHUNK-column panel stays below OpenBLAS's threading threshold
# of 2^14 columns (measured with OpenBLAS 0.3.31).
CHUNK = 1 << 12


@dataclass(frozen=True)
class FoldedSampler:
    """Weighted Gaussian sampler: one real matrix product per panel.

    ``kernel`` (2A x F) maps F standard normals straight to
    [Re beta; Im beta] of the A weighted modes.  With each weighted mode's
    factor written as const_j * poly_j(b) * exp(-decay_j * b) and its
    Gaussian reweight exp(-rate_j * b), a sample's weight is
    ``scale * exp(-exponents @ b) * prod_j polys[j](b_j)``: ``scale`` holds
    the input normalizations and the constants, ``exponents`` the sums
    decay_j + rate_j.  ``build_folded_sampler`` builds one per proposal:
    the folded sampler absorbs the Gaussian measurement factors into the
    kernel and prefactor, the naive one folds nothing and weights every
    mode, and the Laplace one folds every mode's log-slope.
    """

    kernel: np.ndarray
    exponents: np.ndarray  # decay plus reweight rate of each weighted mode
    polys: tuple  # polynomial part of each weighted mode's factor, or None
    scale: float
    log_prefactor: float
    active_modes: tuple  # the weighted modes, in kernel row order

    @property
    def panel(self) -> int:
        """Samples per BLAS call (kernel product or exponent sum): the
        largest power of two with at most GEMM_PANEL_MNK multiply-adds and
        CHUNK columns, so panels tile a full chunk.  BLAS results can depend
        on a call's shape and on a column's place in it; in calls of one
        fixed width they do not, so ``draw`` pads a partial chunk's last
        panel rather than shorten it."""
        rows, f = self.kernel.shape
        cap = min(CHUNK, GEMM_PANEL_MNK // (max(1, rows) * max(1, f)))
        return 1 << (max(1, cap).bit_length() - 1)

    def beta_sq(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """|beta_j|^2 of the weighted modes (rows) for normals z (F x n)."""
        a = len(self.active_modes)
        if out is None:
            out = np.empty((a, z.shape[1]))
        step = self.panel
        for col in range(0, z.shape[1], step):
            y = self.kernel @ z[:, col : col + step]
            np.square(y, out=y)
            np.add(y[:a], y[a:], out=out[:, col : col + step])
        return out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Sample n weight values (products of the weighted modes' factors).

        Normals are sample-major, drawn from ``rng`` for shape (n, F), so a
        sample's F normals are consecutive in the stream.  They fill a
        reused buffer of CHUNK samples, and each fill is weighed at once in
        BLAS calls of one fixed width.  A sample's weight thus depends only
        on its normals, not on how a draw from one stream is split, and a
        draw's temporaries are O(CHUNK * F) besides the n weights.  A sample
        costs F normals, one exp, and each polynomial (a click's with its
        own exp).
        """
        if not self.active_modes:
            return np.ones(n)
        panel = self.panel
        size = panel * -(-max(1, min(CHUNK, n)) // panel)
        z = np.empty((size, self.kernel.shape[1]))
        b = np.empty((len(self.active_modes), size))
        e = np.empty(size)
        w = np.empty(n)
        neg = -self.exponents
        for start in range(0, n, size):
            count = min(size, n - start)
            rng.standard_normal(out=z[:count])
            padded = panel * -(-count // panel)
            z[count:padded] = 0.0
            self.beta_sq(z[:padded].T, out=b[:, :padded])
            for col in range(0, padded, panel):
                np.dot(neg, b[:, col : col + panel], out=e[col : col + panel])
            w_k = w[start : start + count]
            np.exp(e[:count], out=w_k)
            w_k *= self.scale
            for poly, b_j in zip(self.polys, b[:, :count]):
                if poly is not None:
                    w_k *= poly(b_j)
        return w


@one_blas_thread()
def build_folded_sampler(
    setup: Setup, gamma: float, direction: str, method: str = "folded"
) -> FoldedSampler:
    """The sampler of the proposal ``method`` (``_fold``: "folded", "naive"
    or "laplace"), with kernel K = W_af L^{-T}: W restricted to the weighted
    modes' rows and the free columns, L the fold's precision root (one
    solve here, none per batch; a diagonal root scales the columns).  When
    K has fewer rows than columns it is replaced by R^T from K^T = QR: R^T z
    has the law of K z (both covariances are K K^T = R^T R, also for
    rank-deficient K), so a sample draws at most 2A normals for A weighted
    modes, not F."""
    fold = _fold(setup, gamma, direction, method)
    kernel = setup.rows(fold.active_modes)
    if kernel.size:
        if fold.root.ndim == 1:
            kernel = kernel / fold.root
        else:
            # numpy's LAPACK, on one thread (``one_blas_thread``): an OpenBLAS
            # pool woken here would spin through the draws that follow
            kernel = np.linalg.solve(fold.root, kernel.T).T
        if kernel.shape[0] < kernel.shape[1]:
            kernel = np.ascontiguousarray(np.linalg.qr(kernel.T, mode="r").T)
    modes = fold.active_modes
    profiles = [setup.radial[setup.index[j]] for j in modes]
    return FoldedSampler(
        kernel=kernel,
        exponents=np.array([f.decay + rate for f, rate in zip(profiles, fold.rates)]),
        polys=tuple(f.poly for f in profiles),
        scale=math.prod(f.const * math.exp(fold.log_norms[j]) for f, j in zip(profiles, modes)),
        log_prefactor=fold.log_prefactor,
        active_modes=modes,
    )


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def _chunk_sizes(n: int) -> list[int]:
    """Sizes of the chunks of n samples: sample i is in chunk i // CHUNK."""
    full, rest = divmod(n, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


SEED_WORDS = 4  # 64-bit seed words per chunk stream


@functools.cache
def _seed_words() -> type:
    """The seed source of one chunk: its words, handed to SFC64's own seeding
    routine (which asks for three 64-bit words).  Defined on first use, so
    that importing pqdkit does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words.view(dtype)[:n_words]

    return SeedWords


def _chunk_words(seed: int, chunks: int) -> np.ndarray:
    """Seed words of the first ``chunks`` chunk streams of ``seed``, one row
    of SEED_WORDS per chunk: words 4c..4c+3 of one SeedSequence(seed)'s
    state.  That state is prefix-consistent, so row c depends only on
    (seed, c), not on how many chunks a call has."""
    state = np.random.SeedSequence(seed).generate_state(SEED_WORDS * chunks, np.uint64)
    return state.reshape(chunks, SEED_WORDS)


def _chunk_rng(words: np.ndarray) -> np.random.Generator:
    """The SFC64 stream of one chunk, seeded by SFC64's own routine from the
    chunk's row of ``_chunk_words``; a chunk draws the same normals whichever
    thread runs it and whatever the call's chunk count."""
    return np.random.Generator(np.random.SFC64(_seed_words()(words)))


# Samples per worker: a call draws on one worker per started
# SAMPLES_PER_WORKER samples (at most ``threads``), so a small call does not
# pay for threads it cannot keep busy.
SAMPLES_PER_WORKER = 1 << 15


def chunk_sums(sampler: FoldedSampler, words: np.ndarray, sizes, threads, bound) -> np.ndarray:
    """Σw and Σw² (rows) of chunks of ``sizes`` samples (columns, in chunk
    order), chunk i drawn in one ``draw`` from the stream seeded by row i
    of ``words`` (rows of ``_chunk_words``).  Workers take chunks from a
    shared counter, one per started SAMPLES_PER_WORKER samples and at most
    ``threads`` (default: every usable CPU); they change no result.  A |w|
    above ``bound`` (by ``WEIGHT_BOUND_RTOL``) raises ``BoundViolation``."""
    if threads is None:
        threads = _usable_cpus()
    elif threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    limit = (1.0 + WEIGHT_BOUND_RTOL) * bound
    sums = np.empty((2, len(sizes)))
    chunks, lock = itertools.count(), threading.Lock()

    def next_chunk() -> int:
        with lock:
            return next(chunks)

    def work() -> None:
        while (i := next_chunk()) < len(sizes):
            w = sampler.draw(_chunk_rng(words[i]), sizes[i])
            peak = float(np.abs(w).max())
            if peak > limit and math.isfinite(peak):
                raise BoundViolation(f"sample weight {peak:.6e} exceeds the claimed bound {bound:.6e}")
            sums[:, i] = w.sum(), np.square(w, out=w).sum()

    workers = min(threads, -(-sum(sizes) // SAMPLES_PER_WORKER))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for job in [pool.submit(work) for _ in range(workers)]:
                job.result()
    else:
        work()
    return sums


def estimate_probability(
    circuit: CircuitSpec,
    config: EstimatorConfig = EstimatorConfig(),
    method: str = "folded",
    threads: Optional[int] = None,
) -> EstimateReport:
    """Unbiased estimate of the outcome probability of ``circuit``.

    ``method`` selects the folded proposal (Gaussian measurement factors
    integrated analytically) or the naive one with every factor kept in the
    weight (``build_folded_sampler``); the Laplace proposal has no additive
    bound and is rejected.  The samples' ``CHUNK``-sample chunks are
    reduced by ``chunk_sums`` on ``threads`` workers, F normals per sample
    for a kernel of F columns (at most 2A for A weighted modes when folded,
    the free coordinates' count when naive), and the trace has one row per
    chunk.  The suprema of the measurement factors are computed once per
    call, for every mode.  With no mode weighed (an all-Gaussian pattern,
    folded) the estimate is exact at any shift, so the automatic one is
    rate 0, without a search.
    """
    if method not in ("folded", "naive"):
        raise ValueError(f"unknown method {method!r}")
    s = circuit.s_max - S_MAX_MARGIN if config.s is None else config.s
    setup = Setup(circuit, s)  # checks s
    with one_blas_thread():  # one thread-count switch for the search and the build
        if config.gamma_mode == "auto":
            gamma, direction = resolve_gamma(setup, method)
        else:
            gamma, direction = config.gamma_mode
        sampler = build_folded_sampler(setup, gamma, direction, method)
    all_sups = mode_sups(setup, gamma, direction)
    mod_neg = float(np.prod(all_sups))
    c_max = float(np.max(all_sups)) if all_sups.size else 1.0
    neg = negativity_bound(setup)
    active_sups = all_sups[list(sampler.active_modes)]
    log_b_samples = sampler.log_prefactor + float(np.sum(np.log(active_sups)))
    prefactor = math.exp(sampler.log_prefactor)

    if config.n_samples is not None:
        n_total = int(config.n_samples)
    elif not sampler.active_modes:  # nothing weighted: the estimate is exact
        n_total = 1
    else:
        n_total = _hoeffding_count(log_b_samples, config.epsilon, config.delta)

    sizes = _chunk_sizes(n_total)
    # every weight is bounded by the product of its modes' claimed suprema;
    # the sample count and the radius are void if one is not
    words = _chunk_words(config.seed, len(sizes))
    sum_w = chunk_sums(sampler, words, sizes, threads, float(np.prod(active_sups)))[0]
    # running sums after each chunk, added in chunk order
    running = np.cumsum(sum_w)
    n_done = np.cumsum(sizes)
    radius_scale = math.exp(log_b_samples) * math.sqrt(2.0 * math.log(2.0 / config.delta))
    trace = np.column_stack([n_done, prefactor * running / n_done, radius_scale / np.sqrt(n_done)])
    estimate, conf_radius = trace[-1, 1:].tolist()
    if not math.isfinite(estimate):
        raise FloatingPointError(f"the estimate is {estimate}; a factor overflowed")
    return EstimateReport(
        estimate=estimate,
        factor_bound=c_max,
        neg_bound=neg,
        mod_neg_bound=mod_neg,
        n_used=n_total,
        conf_radius=conf_radius,
        seed=config.seed,
        s=s,
        gamma=gamma,
        direction=direction,
        method=method,
        active_modes=tuple(j for j, out in enumerate(circuit.pattern) if not out.is_gaussian),
        mode_sups=all_sups,
        trace_rows=trace,
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

    def as_dict(self) -> dict:
        out = {
            "value": self.value,
            "budget": self.budget,
            "conf_radius": self.conf_radius,
            "prefactor": self.prefactor,
            "formula_id": self.formula_id,
            "budget_factors": [float(x) for x in self.budget_factors],
            "report": self.report.as_dict(),
        }
        if self.gurvits_beaten is not None:
            out["gurvits_beaten"] = self.gurvits_beaten
        return out


def budget_factors(emb: Embedding, sups: np.ndarray) -> np.ndarray:
    """Per-mode additive-error factors of an embedding: mode j's prefactor
    times the supremum of its shifted measurement factor, ``sups`` (the
    ``mode_sups`` at the sampled shift, ``EstimateReport.mode_sups`` of a
    run), the bound its weights are checked against.  Their product bounds
    a sample's weight in matrix units, and max(epsilon, sqrt(2 ln(2/delta)
    / n)) times it bounds the Hoeffding radius of n samples."""
    return emb.mode_prefactors * sups


def _run_embedding(
    emb: Embedding, config: EstimatorConfig, threads: Optional[int]
) -> MatrixEstimate:
    """The matrix function of ``emb`` from its circuit probability, sampled
    at the automatic shift (``resolve_gamma``) unless ``config`` fixes one,
    with the budget of the sampler it ran."""
    # N = O(1/eps^2) convention: the budget carries the weight bound
    n_eps = _hoeffding_count(0.0, config.epsilon, config.delta)
    n = config.n_samples or n_eps
    report = estimate_probability(emb.circuit, dataclasses.replace(config, n_samples=n), threads=threads)
    factors = budget_factors(emb, report.mode_sups)
    conf_radius = emb.prefactor * report.conf_radius
    # n samples reach max(epsilon, sqrt(2 ln(2/delta) / n)) times the bound:
    # epsilon from the Hoeffding count on, below it the run's own radius
    # (the same suprema, multiplied in another order, taken as computed)
    budget = config.epsilon * float(np.prod(factors)) if n >= n_eps else conf_radius
    return MatrixEstimate(
        value=emb.prefactor * report.estimate,
        budget=budget,
        conf_radius=conf_radius,
        prefactor=emb.prefactor,
        report=report,
        budget_factors=factors,
        formula_id=f"budget.{emb.family}",
    )


def estimate_hafnian_sq(
    r_mat: np.ndarray,
    config: EstimatorConfig = EstimatorConfig(),
    a: float = 1.001,
    threads: Optional[int] = None,
) -> MatrixEstimate:
    """|Haf(R)|^2 of a complex symmetric matrix within an additive budget;
    ``threads`` as in ``estimate_probability``."""
    return _run_embedding(embed_hafnian(r_mat, a), config, threads)


def estimate_permanent_hpsd(
    b_mat: np.ndarray,
    config: EstimatorConfig = EstimatorConfig(),
    a: float = 1.001,
    threads: Optional[int] = None,
) -> MatrixEstimate:
    """Per(B) of an HPSD matrix within an additive budget, with the
    precision-vs-spectral-norm comparison predicate; ``threads`` as in
    ``estimate_probability``."""
    emb = embed_permanent(b_mat, a)
    result = _run_embedding(emb, config, threads)
    lam_max = float(np.max(emb.lambdas))
    log_budget = float(np.sum(np.log(result.budget_factors)))
    result.gurvits_beaten = bool(log_budget < emb.lambdas.size * math.log(lam_max))
    return result


def estimate_torontonian(
    mat: MatrixClass, config: EstimatorConfig = EstimatorConfig(), threads: Optional[int] = None
) -> MatrixEstimate:
    """Torontonian of a block matrix in the R'/B'/A' families via all-click
    threshold estimation; ``threads`` as in ``estimate_probability``."""
    return _run_embedding(embed_torontonian(mat), config, threads)
