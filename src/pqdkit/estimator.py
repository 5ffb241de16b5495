"""Monte-Carlo estimation of circuit probabilities via shifted phase-space
factorizations, with negativity bounds, optimal shifts, and sample budgeting.

The sampler draws the input phase-space points from the (shifted, normalized)
Gaussian input factors and averages the product of measurement factors.
Which factors' exponents move into the input density is a choice of
proposal, one precision affine in the shift's rate (``Setup.precision``),
read by the shift search and by the one builder, ``build_folded_sampler``:
the folded proposal folds the Gaussian measurement factors (vacuum
projections, no-click, marginalized modes) analytically into one correlated
2M-dimensional Gaussian, and the naive one folds none.  Folded, only the A
non-Gaussian factors are averaged, each keeping the shift reweight so the
per-sample range stays controlled by the modified negativity bound; the
multiplicative estimator (``fpras``) draws from the same folded sampler at
the same searched shift.  With nothing to fold (every matrix embedding,
and the naive proposal) the precision stays diagonal and its square root
stands in for a Cholesky factor.  A sample
costs at most 2A standard normals (marginal and other folded modes add
none) and one exp for all weighted modes together; a click factor keeps
one exp of its own.  Both estimators lay their samples out one way: sample
i belongs to chunk i // ``CHUNK`` and is drawn from that chunk's own SFC64
stream, numpy's spawned child (seed, chunk), and a chunk is one fill of
sample-major normals, weighed at once, so memory stays bounded whatever
the sample count.  Every estimate draws through one loop, ``running_sums``,
on every usable CPU by default; the thread count changes no value.  Setup
work (decompositions, folds, the kernel's solve and QR) runs on one
OpenBLAS thread, so no BLAS pool spins while the samples are drawn.
Per-mode values are computed once per call, and a factor's supremum once
per distinct outcome.

One rule picks the shift unless the caller fixes one: ``resolve_gamma``
searches the rate that minimizes the weight bound of the sampler that runs,
over the instance's own spectrum.  What an estimate decides once
(``Setup``: the circuit at one ordering s under one proposal, with the map
between a shift and its rate and the inputs' exponents at a rate) is built
once per estimate, and every step after it takes that one ``Setup`` as its
only circuit argument: the search, the fold, the samplers, the suprema and
the negativity bound.
|Haf|^2, Per and Tor share one path through the circuit estimate, and the
budget is the bound of the sampler that ran (``budget_factors``: each
mode's prefactor times the run's ``mode_sups``, the numbers its weights
are checked against), so it covers the run's Hoeffding radius.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._blas import one_blas_thread
from .errors import ConditionFailure, SchemaError
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

S_MAX_MARGIN = 1e-9
WEIGHT_BOUND_RTOL = 1e-9
# The most samples one estimate draws: 2^20 chunks, so a run's chunk sizes
# and trace stay small (the trace's 24 bytes per chunk make 24 MB)
MAX_SAMPLES = 1 << 32


def _count(value, pointer: str, low: int) -> int:
    """``value`` as an int of at least ``low``: numpy integers pass, bool and float do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        kind = "positive" if low else "nonnegative"
        raise SchemaError(pointer, f"must be a {kind} integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class EstimatorConfig:
    """The settings of one run, each checked once, here: a bad one raises
    ``SchemaError`` at the pointer of its CLI flag, before any work.  The
    ordering s is checked against the circuit, by ``Setup``.  Integer
    settings are stored as ints, the shift as a float; a sample count
    above ``MAX_SAMPLES`` is refused."""

    s: Optional[float] = None  # default: s_max - 1e-9
    gamma: Optional[float] = None  # signed shift in (-1, 1), reverse below 0; default: searched
    epsilon: float = 0.05
    delta: float = 0.05
    n_samples: Optional[int] = None
    seed: int = 0
    threads: Optional[int] = None  # chunk workers (default: usable CPUs); changes no result

    def __post_init__(self):
        counts = (("n_samples", "/samples", 1), ("threads", "/threads", 1), ("seed", "/seed", 0))
        for name, pointer, low in counts:
            if getattr(self, name) is not None or name == "seed":
                object.__setattr__(self, name, _count(getattr(self, name), pointer, low))
        if self.n_samples is not None and self.n_samples > MAX_SAMPLES:
            raise SchemaError("/samples", f"must be at most 2^32, got {self.n_samples}")
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
                raise SchemaError(f"/{name}", f"must lie in (0, 1), got {value}")
        gamma = self.gamma
        if gamma is not None:
            if isinstance(gamma, bool) or not (isinstance(gamma, numbers.Real) and -1.0 < gamma < 1.0):
                raise SchemaError("/gamma", f"must lie in (-1, 1), got {gamma}")
            object.__setattr__(self, "gamma", float(gamma))


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
    shift: float  # the signed shift the sampler ran at
    method: str
    active_modes: tuple
    mode_sups: np.ndarray  # per-mode suprema, the bound the weights were checked against
    # one (n, running mean, running radius) row per chunk; a float array
    # keeps reports small when many are held
    trace_rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    @property
    def gamma(self) -> float:
        """The shift's size |shift|, reported with its ``direction``."""
        return abs(self.shift)

    @property
    def direction(self) -> str:
        return "forward" if self.shift >= 0.0 else "reverse"

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


# ---------------------------------------------------------------------------
# what an estimate decides once
# ---------------------------------------------------------------------------


# Within this tolerance of s an input variance freezes its quadrature: the
# s-PQD is a delta there, and the axis carries no coordinate
FREEZE_TOL = 1e-12


class Setup:
    """What one estimate decides once, built before the shift search and
    passed to it, the samplers and the suprema: the ordering s, the
    proposal ``method`` and what the shift leaves unchanged.  It holds s and
    a_max, which map a signed shift to its rate (``rate``) and back
    (``shift``); each quadrature's unshifted exponent 2/(a - s) (NaN where
    frozen), which a rate shifts (``shifted_inputs``); one ``RadialFactor``
    per distinct outcome; W on the free coordinates; the modes the proposal
    folds, the Gaussian ones ("folded") or none ("naive"); and its
    precision as an affine function of the rate.  The default ordering is
    s_max - S_MAX_MARGIN.  Building it checks the method (another raises
    ``ValueError``) and s: not finite, above an input variance or outside a
    factor's range, it raises ``SchemaError`` at ``/s``.
    """

    def __init__(self, circuit: CircuitSpec, s: Optional[float] = None, method: str = "folded"):
        if method not in ("folded", "naive"):
            raise ValueError(f"unknown method {method!r}")
        if s is None:
            s = circuit.s_max - S_MAX_MARGIN
        if not math.isfinite(s):
            raise SchemaError("/s", f"the ordering s must be finite, got {s}")
        self.m = circuit.m
        self.s = s
        self.a_max = circuit.a_max
        d = circuit.variances - s
        if d.min(initial=0.0) < -FREEZE_TOL:
            raise SchemaError("/s", f"s = {s} exceeds variance {circuit.variances[np.argmin(d)]}")
        self.c0 = 2.0 / np.where(d > FREEZE_TOL, d, np.nan)  # NaN carries a frozen axis through
        distinct, self.index = circuit.outcome_index
        self.radial = tuple(pi_w_profile(out, s) for out in distinct)
        gaussian = np.array([out.is_gaussian for out in distinct])[self.index]
        self.folded = np.flatnonzero(gaussian) if method == "folded" else np.arange(0)
        # a Gaussian factor's decay, which it folds with, and log pi W(0)
        self.decay = np.array([f.decay for f in self.radial])[self.index]
        self.log_w0 = np.array(
            [math.log(f.const) if out.is_gaussian else 0.0 for f, out in zip(self.radial, distinct)]
        )[self.index]
        self.free_idx = np.flatnonzero(~np.isnan(self.c0))
        self.w = real_pushforward(circuit.unitary.u)

    def rate(self, gamma: float) -> float:
        """The signed rate of the signed shift gamma in (-1, 1): 2 gamma /
        (a_max - s) forward (gamma >= 0, toward a_max), 2 gamma / (s + 1)
        reverse (toward s = -1).  A gamma outside (-1, 1), or a forward one
        where a_max <= s, raises ``SchemaError`` at ``/gamma``."""
        if not (-1.0 < gamma < 1.0):
            raise SchemaError("/gamma", f"normalized gamma must lie in (-1, 1), got {gamma}")
        if gamma == 0.0:
            return 0.0
        if gamma < 0.0:
            return 2.0 * gamma / (self.s + 1.0)
        denom = self.a_max - self.s
        if denom <= 0.0:
            raise SchemaError("/gamma", f"forward shift needs a_max > s, got a_max = {self.a_max}")
        return 2.0 * gamma / denom

    def shift(self, rate: float) -> float:
        """The signed shift of a signed rate, the inverse of ``rate``."""
        if rate >= 0.0:
            return rate * (self.a_max - self.s) / 2.0
        return rate * (self.s + 1.0) / 2.0

    def shifted_inputs(self, rate: float) -> tuple[np.ndarray, np.ndarray]:
        """The shifted exponents c0 - rate of the input quadratures, and
        log N_i of each mode's shifted input factor, to which a frozen
        quadrature contributes 0.  A rate that leaves an exponent <= 0
        raises ``SchemaError`` at ``/gamma``."""
        c0 = self.c0
        c = c0 - rate
        if (c <= 0.0).any():
            k = np.argmax(c <= 0.0)
            raise SchemaError(
                "/gamma", f"shifted input exponent {c[k]} nonpositive (unshifted {c0[k]}, rate = {rate})"
            )
        free = ~np.isnan(c0)
        log_q = np.where(free, 0.5 * (np.log(c0) - np.log(c)), 0.0)
        return c, log_q[: self.m] + log_q[self.m :]

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

    @cached_property
    def precision(self) -> tuple[np.ndarray, np.ndarray]:
        """The input precision on the free coordinates once the proposal
        folds its modes' exponents in, as (base, slope): at the signed rate
        it is Lambda(rate) = base + rate * slope.  A Gaussian factor is
        pi W(0) * exp(-decay * b), and a folded mode adds c_j Q_j,
        c_j = 2 (rate + decay_j), to the inputs' 2 (c0 - rate), where
        |beta_j|^2 = x^T Q_j x and Q_j = W_j^T W_j + W_{M+j}^T W_{M+j}, so
        the folded modes add W_r^T diag(c, c) W_r in one product over their
        rows W_r of W.  With nothing folded, base and slope are the
        diagonals 2 c0 and -2 (1-D).  Built once, on first use."""
        folded, c0 = self.folded, self.c0[self.free_idx]
        if folded.size:
            w_r = self.rows(folded)
            slope = 2.0 * (w_r.T @ w_r)
            slope[np.diag_indices_from(slope)] -= 2.0
            base = (w_r.T * np.tile(2.0 * self.decay[folded], 2)) @ w_r
            base[np.diag_indices_from(base)] += 2.0 * c0
        else:
            base, slope = 2.0 * c0, np.full(c0.size, -2.0)
        return base, slope

    def log_bound(self) -> Callable[[float], float]:
        """log B_eff as a function of the signed rate: the log of the
        proposal's weight bound, inf outside the feasible rates.  With
        Lambda(rate) its precision on the free coordinates (``precision``),

            log B_eff = const - 1/2 log det Lambda(rate)
                        + sum over weighted modes of log sup_j(rate),

        the input normalizations cancelling between the sampler's prefactor
        and the weighted modes, which are those the proposal does not fold
        (every mode, naive).  Everything else is computed here once, so that
        a probe takes one log-sum (Lambda diagonal, 2 (c0 - rate)) or one
        Cholesky, and one supremum per distinct weighted outcome."""
        base, slope = self.precision
        folded, c0 = self.folded, self.c0[self.free_idx]
        cap = float(c0.min()) if c0.size else math.inf  # at or above it an exponent is <= 0
        gone = np.zeros(self.m, dtype=bool)
        gone[folded] = True
        counts = np.bincount(self.index[~gone], minlength=len(self.radial)).tolist()
        weighted = [(f.sup, n) for f, n in zip(self.radial, counts) if n]
        inf, log, nlog, add = math.inf, math.log, np.log, np.add.reduce
        if folded.size:
            const = 0.5 * float(add(nlog(2.0 * c0))) + float(add(self.log_w0))
        else:  # log det Lambda = sum log 2 (c0 - rate)
            const = 0.5 * float(add(nlog(c0)))

        def probe(rate: float) -> float:
            value = const
            for sup, n in weighted:
                value += n * log(sup(rate))
            if value == inf or rate >= cap:  # an unbounded factor, or an exponent <= 0
                return inf
            if not folded.size:
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


def mode_sups(setup: Setup, gamma: float) -> np.ndarray:
    """Per-mode suprema of the shifted measurement factors |f_j|: each mode's
    input normalization at this shift times its factor's supremum.  Their
    product is the modified (shifted) negativity bound: the shifted input
    factors are normalized densities."""
    rate = setup.rate(gamma)
    return np.exp(setup.shifted_inputs(rate)[1]) * setup.unit_sups(rate)


def _hoeffding_count(log_b: float, epsilon: float, delta: float) -> int:
    """Hoeffding sample rule N = ceil(2 B^2 ln(2/delta) / epsilon^2) for
    per-sample weights bounded by B = exp(log_b); an N above ``MAX_SAMPLES``
    raises ``SchemaError`` at ``/epsilon``, before anything is drawn."""
    log_n = math.log(2.0) + 2.0 * log_b + math.log(math.log(2.0 / delta)) - 2.0 * math.log(epsilon)
    if log_n > math.log(MAX_SAMPLES):
        raise SchemaError("/epsilon", f"the Hoeffding sample count exceeds 2^32 (log N = {log_n:.2f})")
    return max(1, math.ceil(math.exp(log_n)))


# ---------------------------------------------------------------------------
# the shift
# ---------------------------------------------------------------------------


def resolve_gamma(setup: Setup) -> float:
    """The automatic shift, one rule for every circuit and matrix family:
    the searched minimum of the weight bound of the setup's proposal
    (``_numeric_gamma``).  With nothing weighed (every mode folded) the
    estimate is exact at any shift, so the choice is rate 0, without a
    search."""
    if setup.folded.size == setup.m:
        return 0.0
    return _numeric_gamma(setup)


# The share of the open interval of feasible rates the search spans.  Near
# its reverse end lie the optima of near-degenerate thermal spectra close to
# 1 (the closed-form permanent shift reaches gamma = 0.999 at lambda = 1/a).
SEARCH_WINDOW = 1.0 - 1e-6


@one_blas_thread()
def _numeric_gamma(setup: Setup) -> float:
    """Golden-section minimization of log B_eff of the setup's proposal
    over the signed rate, returned as the signed shift of the best rate
    (``Setup.shift``).

    log B_eff (``Setup.log_bound``) is convex in the rate: the proposal's
    precision Lambda is affine in it, so -1/2 log det Lambda is convex, and
    each log-supremum is a supremum of affine functions of the rate, so
    convex too.  It is thus convex on one interval of feasible rates, which
    holds rate 0, and one bracket-free line search over the window of
    shifts +-SEARCH_WINDOW (rates SEARCH_WINDOW * [-2/(s+1), 2/(a_max-s)],
    no forward side where a_max <= s) finds its minimum.  A probe
    takes the rate-dependent terms only: one supremum per distinct weighted
    outcome, a log-sum, and a Cholesky where Gaussian factors are folded.
    The better interior probe always stays in the bracket, so the best
    point probed is rate 0, a last interior probe or an end of the last
    bracket (whose probes catch a minimum at a window edge).
    """
    log_bound, inf = setup.log_bound(), math.inf
    a = setup.rate(-SEARCH_WINDOW)
    b = setup.rate(SEARCH_WINDOW) if setup.a_max > setup.s else 0.0
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
    return setup.shift(rate)


# ---------------------------------------------------------------------------
# sampling kernel
# ---------------------------------------------------------------------------


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
    factor written as const_j * poly_j(b) * exp(-decay_j * b) and the
    shift reweight exp(-rate * b), a sample's weight is
    ``scale * exp(-exponents @ b) * prod_j polys[j](b_j)``: ``scale`` holds
    the input normalizations and the constants, ``exponents`` the sums
    decay_j + rate.  ``build_folded_sampler`` builds one per proposal: the
    folded sampler absorbs the Gaussian measurement factors into the kernel
    and prefactor, and the naive one folds nothing and weights every mode.
    """

    kernel: np.ndarray
    exponents: np.ndarray  # decay plus reweight rate of each weighted mode
    polys: tuple  # polynomial part of each weighted mode's factor, or None
    scale: float
    log_prefactor: float
    active_modes: tuple  # the weighted modes, in kernel row order
    mode_sups: np.ndarray  # every mode's ``mode_sups`` at the sampler's shift

    @property
    def bound(self) -> float:
        """The bound of every weight: the product of the weighted modes'
        ``mode_sups``, inf where the shift leaves a factor unbounded."""
        return float(np.prod(self.mode_sups[list(self.active_modes)]))

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
def build_folded_sampler(setup: Setup, gamma: float) -> FoldedSampler:
    """The sampler of the setup's proposal, which draws from the precision
    ``Setup.precision`` gives it at the rate of the signed shift ``gamma``.
    A mode leaves the weight when it is folded (so Gaussian); a weighted
    mode j keeps n_j * pi W_j(b) * exp(-rate * b), which its ``mode_sups``
    entry, kept on the sampler, bounds.  The kernel is K = W_af L^{-T}: W
    restricted to the weighted modes' rows and the free columns, L the
    precision's Cholesky factor (one solve here, none per batch; a diagonal
    precision's square root scales the columns).  When K has fewer rows
    than columns it is replaced by R^T from K^T = QR: R^T z has the law of
    K z (both covariances are K K^T = R^T R, also for rank-deficient K), so
    a sample draws at most 2A normals for A weighted modes, not F."""
    base, slope = setup.precision
    rate = setup.rate(gamma)
    exponents, log_norms = setup.shifted_inputs(rate)
    gone = np.zeros(setup.m, dtype=bool)
    gone[setup.folded] = True
    log_prefactor = float(np.sum(log_norms[gone] + setup.log_w0[gone]))
    modes = tuple(np.flatnonzero(~gone).tolist())
    kernel = setup.rows(modes)
    if base.ndim == 1:
        kernel = kernel / np.sqrt(base + rate * slope)
    else:
        try:
            root = np.linalg.cholesky(base + rate * slope)
        except np.linalg.LinAlgError as exc:
            raise ConditionFailure(
                "effective covariance lost positive definiteness; shift out of window"
            ) from exc
        logdet_eff = 2.0 * float(np.sum(np.log(np.diagonal(root))))
        log_prefactor += 0.5 * (float(np.sum(np.log(2.0 * exponents[setup.free_idx]))) - logdet_eff)
        # numpy's LAPACK, on one thread (``one_blas_thread``): an OpenBLAS
        # pool woken here would spin through the draws that follow
        kernel = np.linalg.solve(root, kernel.T).T
    if 0 < kernel.shape[0] < kernel.shape[1]:
        kernel = np.ascontiguousarray(np.linalg.qr(kernel.T, mode="r").T)
    profiles = [setup.radial[setup.index[j]] for j in modes]
    return FoldedSampler(
        kernel=kernel,
        exponents=np.array([f.decay + rate for f in profiles]),
        polys=tuple(f.poly for f in profiles),
        scale=math.prod(f.const * math.exp(log_norms[j]) for f, j in zip(profiles, modes)),
        log_prefactor=log_prefactor,
        active_modes=modes,
        mode_sups=mode_sups(setup, gamma),
    )


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Chunk ``chunk``'s SFC64 stream of ``seed``: the child (seed, chunk)
    that ``SeedSequence(seed).spawn`` gives, so a chunk draws the same
    normals whichever thread runs it and whatever the call's chunk count.
    ``np.random`` is looked up at call time, so that importing pqdkit does
    not import numpy.random."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


# Samples per worker: a call draws on one worker per started
# SAMPLES_PER_WORKER samples (at most ``threads``), so a small call does not
# pay for threads it cannot keep busy.
SAMPLES_PER_WORKER = 1 << 15


def chunk_sums(sampler: FoldedSampler, seed: int, first: int, sizes, threads) -> np.ndarray:
    """Σw and Σw² (rows) of chunks first, first + 1, ... of ``sizes``
    samples (columns, in chunk order), each drawn in one ``draw`` from its
    own stream, ``_chunk_rng(seed, chunk)``.  Workers take chunks from a
    shared counter, one per started SAMPLES_PER_WORKER samples and at most
    ``threads`` (default: every usable CPU); they change no result.  A |w|
    above the sampler's ``bound`` (by ``WEIGHT_BOUND_RTOL``) raises
    ``ConditionFailure``; once a worker raises, no worker takes another
    chunk."""
    if threads is None:
        threads = _usable_cpus()
    limit = (1.0 + WEIGHT_BOUND_RTOL) * sampler.bound
    sums = np.empty((2, len(sizes)))
    chunks, lock = itertools.count(), threading.Lock()
    failed = False  # set under ``lock`` by a worker that raises

    def next_chunk() -> int:
        with lock:
            return len(sizes) if failed else next(chunks)

    def work() -> None:
        nonlocal failed
        try:
            while (i := next_chunk()) < len(sizes):
                w = sampler.draw(_chunk_rng(seed, first + i), sizes[i])
                peak = float(np.abs(w).max())
                if peak > limit and math.isfinite(peak):
                    raise ConditionFailure(f"sample weight {peak:.6e} exceeds the claimed bound {sampler.bound:.6e}")
                sums[:, i] = w.sum(), np.square(w, out=w).sum()
        except BaseException:  # no worker takes a chunk after a failure
            with lock:
                failed = True
            raise

    workers = min(threads, -(-sum(sizes) // SAMPLES_PER_WORKER))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for job in [pool.submit(work) for _ in range(workers)]:
                job.result()
    else:
        work()
    return sums


def running_sums(sampler: FoldedSampler, seed: int, threads, first: int, cap: int):
    """Yield (n, Σw, Σw²) of the first n samples after each chunk, in chunk
    order, so a caller may stop after any chunk.  Passes of chunks go through
    ``chunk_sums``: the first to the chunk boundary at or above sample
    ``first``, then about a quarter of the chunks drawn so far (one chunk to
    2^20 samples).  None reaches past sample ``cap``: only the first may end
    there, in a partial chunk, and a ``first`` above ``cap`` draws nothing.
    Passes change no value: a chunk's sums depend only on its stream."""
    n, s1, s2, done = 0, 0.0, 0.0, 0
    end = min(-(-first // CHUNK) * CHUNK, cap) if first <= cap else 0
    sizes = [CHUNK] * (end // CHUNK) + ([end % CHUNK] if end % CHUNK else [])
    while sizes:
        for w1, w2, size in zip(*chunk_sums(sampler, seed, done, sizes, threads).tolist(), sizes):
            n, s1, s2 = n + size, s1 + w1, s2 + w2
            yield n, s1, s2
        done += len(sizes)
        sizes = [CHUNK] * min(max(done // 4, 1), (1 << 20) // CHUNK, (cap - n) // CHUNK)


def estimate_probability(
    circuit: CircuitSpec,
    config: EstimatorConfig = EstimatorConfig(),
    method: str = "folded",
) -> EstimateReport:
    """Unbiased estimate of the outcome probability of ``circuit``.

    ``method`` selects the folded proposal (Gaussian measurement factors
    integrated analytically) or the naive one with every factor kept in the
    weight; the estimate's ``Setup`` holds it (another ``method`` raises
    ``ValueError``), and the report's ``active_modes`` are the modes its
    sampler weighs.  The samples are drawn in one pass of ``running_sums``
    on ``config.threads`` workers, F normals per sample for a kernel of F
    columns (at most 2A for A weighted modes when folded, the free
    coordinates' count when naive), and the trace has one row per chunk.
    The builder computes the suprema of the measurement factors once per
    call, for every mode.  With no mode weighed (an all-Gaussian pattern,
    folded) the estimate is exact at any shift, so the automatic one is
    rate 0, without a search.  A shift that leaves a weighted mode's factor
    unbounded raises ``SchemaError`` at ``/gamma`` before any sample is
    drawn.
    """
    setup = Setup(circuit, config.s, method)  # checks s and the method
    with one_blas_thread():  # one thread-count switch for the search and the build
        gamma = resolve_gamma(setup) if config.gamma is None else config.gamma
        sampler = build_folded_sampler(setup, gamma)
    all_sups = sampler.mode_sups
    mod_neg = float(np.prod(all_sups))
    c_max = float(np.max(all_sups)) if all_sups.size else 1.0
    neg = negativity_bound(setup)
    active_sups = all_sups[list(sampler.active_modes)]
    for j, sup in zip(sampler.active_modes, active_sups.tolist()):
        if sup == math.inf:  # no sample count or radius holds for such a weight
            raise SchemaError("/gamma", f"the shift {gamma} leaves mode {j}'s weighted factor unbounded")
    log_b_samples = sampler.log_prefactor + float(np.sum(np.log(active_sups)))
    prefactor = math.exp(sampler.log_prefactor)

    if config.n_samples is not None:
        n_total = config.n_samples
    elif not sampler.active_modes:  # nothing weighted: the estimate is exact
        n_total = 1
    else:
        n_total = _hoeffding_count(log_b_samples, config.epsilon, config.delta)

    # the sample count and the radius rest on the bound every weight is checked against
    rows = running_sums(sampler, config.seed, config.threads, n_total, n_total)
    n_done, running, _ = np.fromiter(rows, (float, 3), -(-n_total // CHUNK)).T
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
        s=setup.s,
        shift=gamma,
        method=method,
        active_modes=sampler.active_modes,
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


def _run_embedding(emb: Embedding, config: EstimatorConfig) -> MatrixEstimate:
    """The matrix function of ``emb`` from its circuit probability, sampled
    at the automatic shift (``resolve_gamma``) unless ``config`` fixes one,
    with the budget of the sampler it ran.  A value that overflows (a huge
    rescale or matrix entry) raises ``FloatingPointError``, as a circuit
    estimate does."""
    # N = O(1/eps^2) convention: the budget carries the weight bound
    n = config.n_samples or _hoeffding_count(0.0, config.epsilon, config.delta)
    report = estimate_probability(emb.circuit, dataclasses.replace(config, n_samples=n))
    value = emb.prefactor * report.estimate
    if not math.isfinite(value):
        raise FloatingPointError(
            f"the estimate is {value} (prefactor {emb.prefactor}); a factor overflowed"
        )
    factors = budget_factors(emb, report.mode_sups)
    conf_radius = emb.prefactor * report.conf_radius
    # the bound times max(epsilon, sqrt(2 ln(2/delta) / n)): the run's own
    # radius is the second (the same suprema, multiplied in another order)
    budget = max(config.epsilon * float(np.prod(factors)), conf_radius)
    return MatrixEstimate(
        value=value,
        budget=budget,
        conf_radius=conf_radius,
        prefactor=emb.prefactor,
        report=report,
        budget_factors=factors,
        formula_id=f"budget.{emb.family}",
    )


def estimate_hafnian_sq(
    r_mat: np.ndarray, config: EstimatorConfig = EstimatorConfig(), a: float = 1.001
) -> MatrixEstimate:
    """|Haf(R)|^2 of a complex symmetric matrix within an additive budget."""
    return _run_embedding(embed_hafnian(r_mat, a), config)


def estimate_permanent_hpsd(
    b_mat: np.ndarray, config: EstimatorConfig = EstimatorConfig(), a: float = 1.001
) -> MatrixEstimate:
    """Per(B) of an HPSD matrix within an additive budget, with the
    precision-vs-spectral-norm comparison predicate."""
    emb = embed_permanent(b_mat, a)
    result = _run_embedding(emb, config)
    lam_max = float(np.max(emb.lambdas))
    log_budget = float(np.sum(np.log(result.budget_factors)))
    result.gurvits_beaten = bool(log_budget < emb.lambdas.size * math.log(lam_max))
    return result


def estimate_torontonian(mat: MatrixClass, config: EstimatorConfig = EstimatorConfig()) -> MatrixEstimate:
    """Torontonian of a block matrix in the R'/B'/A' families via all-click
    threshold estimation."""
    return _run_embedding(embed_torontonian(mat), config)
