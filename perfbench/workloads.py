"""The four benchmark workloads: seeded inputs, one public-API call per op,
and the check each op's output must pass.

Inputs are drawn from numpy generators keyed by the workload seed; the
program only ever sees the generated matrices, circuits and circuit files.
Instance *shapes* (sizes, patterns, methods) are fixed per workload so that
the cost of a round does not depend on the seed; only the numbers do.

Checks run outside the timed region.  Each op is checked by the first rule
that applies to it:

* ``oracle``: the exact brute-force value from ``pqdkit.oracles``, where its
  size fits (Haf dimension <= 16, Per M <= 12, Tor M <= 8, photon total <= 8,
  threshold M <= 12);
* ``bounds``: the analytic sandwich from ``pqdkit.bounds``, widened by the
  additive budget, when the family has one;
* ``pair``: folded and naive estimates of one circuit agree within the sum of
  their confidence radii;
* ``finite``: for |Haf|^2 and R' at M >= 16, a finite value whose sample
  count equals the Hoeffding count ceil(2 ln(2/delta) / eps^2).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import pqdkit.cli
from pqdkit import estimator, fpras, linear_optics, oracles
from pqdkit import bounds as pq_bounds
from pqdkit.phase_space import CLICK, MARGINAL, NOCLICK, photon

EPS = DELTA = 0.05
MULT_EPS, MULT_DELTA = 0.1, 0.05
FIXED_N = 1 << 18
TINY_FIXED_N = 1 << 10

# exact-oracle reach, as stated by the workload definitions
HAF_ORACLE_DIM = 16
PER_ORACLE_M = 12
TOR_ORACLE_M = 8
PHOTON_ORACLE_TOTAL = 8
THRESHOLD_ORACLE_M = 12


class OpFailed(Exception):
    """An op returned without raising but reported failure (nonzero exit)."""


@dataclass
class Check:
    ok: bool
    kind: str  # "oracle" | "bounds" | "pair" | "finite"
    detail: str


@dataclass
class Op:
    """One estimate through a public entry point.

    ``run`` performs the call and returns the raw output; ``canonical`` turns
    that output into the bytes hashed by the determinism digest; ``samples``
    reads the Monte-Carlo sample count; ``check`` judges the output given the
    outputs of the whole round (for folded-vs-naive pairs).
    """

    op_id: str
    labels: dict
    run: Callable[[], object]
    canonical: Callable[[object], bytes]
    samples: Callable[[object], int]
    check: Callable[[object, dict], Check]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _est_seed(seed: int, index: int) -> int:
    return (seed * 7919 + index) % (1 << 31)


def _config(seed: int, index: int, **kwargs) -> estimator.EstimatorConfig:
    return estimator.EstimatorConfig(seed=_est_seed(seed, index), **kwargs)


def _haar(rng: np.random.Generator, m: int) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hpsd(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    b = (q * lam) @ q.conj().T
    return (b + b.conj().T) / 2.0


def _json_bytes(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, default=float).encode()


def _within(value: float, exact: float, radius: float) -> Check:
    ok = math.isfinite(value) and abs(value - exact) <= radius
    return Check(ok, "oracle", f"|{value:.6g} - {exact:.6g}| <= {radius:.3g}")


def hoeffding_count(epsilon: float, delta: float) -> int:
    """Sample count of the matrix estimators: ceil(2 ln(2/delta) / eps^2)."""
    return math.ceil(2.0 * math.log(2.0 / delta) / epsilon**2)


# ---------------------------------------------------------------------------
# matrix-additive
# ---------------------------------------------------------------------------


def _matrix_canonical(res) -> bytes:
    return _json_bytes(
        {
            "value": res.value,
            "budget": res.budget,
            "conf_radius": res.conf_radius,
            "n_used": res.report.n_used,
        }
    )


def _matrix_check(exact, bound):
    """Exact oracle when given, else the bound sandwich when the family has
    one, else a finite value with the Hoeffding sample count."""

    def check(res, _round) -> Check:
        if exact is not None:
            return _within(res.value, float(exact()), res.budget)
        if bound is not None:
            rep = bound()
            ok = math.isfinite(res.value) and (
                rep.lower - res.budget <= res.value <= rep.upper + res.budget
            )
            return Check(
                ok, "bounds", f"{res.value:.6g} in [{rep.lower:.4g}, {rep.upper:.4g}] +- {res.budget:.3g}"
            )
        want = hoeffding_count(EPS, DELTA)
        ok = math.isfinite(res.value) and res.report.n_used == want
        return Check(ok, "finite", f"value {res.value:.6g}, n_used {res.report.n_used} == {want}")

    return check


TOR_A_N = 1.0  # with r <= 0.3 this keeps a_min >= 1, where the A' sandwich holds


def _symmetric(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    r = (q * lam) @ q.T
    return (r + r.T) / 2.0


def _matrix_ops_at(seed: int, m: int, index: int) -> list[Op]:
    rng = _rng(seed, 1, m)
    r_mat = _symmetric(_haar(rng, m), rng.uniform(0.1, 0.6, m))
    per_lam = rng.uniform(0.2, 0.6, m)
    b_mat = _hpsd(_haar(rng, m), per_lam)
    mat_r = linear_optics.block_r_prime(_symmetric(_haar(rng, m), rng.uniform(0.1, 0.5, m)))
    tor_lam = rng.uniform(0.2, 0.6, m)
    mat_b = linear_optics.block_b_prime(_hpsd(_haar(rng, m), tor_lam))
    r_a = rng.uniform(0.1, 0.3, m)
    mat_a = linear_optics.block_a_prime(
        TOR_A_N, r_a, linear_optics.Interferometer(m, _haar(rng, m))
    )
    tor_exact = lambda mat: (lambda: oracles.torontonian_exact(mat.data)) if m <= TOR_ORACLE_M else None
    cases = (
        (
            "haf",
            lambda c: estimator.estimate_hafnian_sq(r_mat, c),
            (lambda: abs(oracles.hafnian_exact(r_mat)) ** 2) if m <= HAF_ORACLE_DIM else None,
            None,
        ),
        (
            "per",
            lambda c: estimator.estimate_permanent_hpsd(b_mat, c),
            (lambda: oracles.permanent_exact(b_mat).real) if m <= PER_ORACLE_M else None,
            lambda: pq_bounds.permanent_bounds(per_lam),
        ),
        ("torR", lambda c: estimator.estimate_torontonian(mat_r, c), tor_exact(mat_r), None),
        (
            "torB",
            lambda c: estimator.estimate_torontonian(mat_b, c),
            tor_exact(mat_b),
            lambda: pq_bounds.torontonian_bounds("thermal", lambdas=tor_lam),
        ),
        (
            "torA",
            lambda c: estimator.estimate_torontonian(mat_a, c),
            tor_exact(mat_a),
            lambda: pq_bounds.torontonian_bounds("squeezed_thermal", n=TOR_A_N, r_list=r_a),
        ),
    )
    ops = []
    for k, (tag, call, exact, bound) in enumerate(cases):
        cfg = _config(seed, index + k, epsilon=EPS, delta=DELTA)
        ops.append(
            Op(
                f"{tag}.M{m}",
                {"fn": tag, "m": m},
                lambda call=call, cfg=cfg: call(cfg),
                _matrix_canonical,
                lambda res: int(res.report.n_used),
                _matrix_check(exact, bound),
            )
        )
    return ops


def matrix_additive(seed: int, tiny: bool = False, workdir: Optional[str] = None) -> list[Op]:
    """|Haf|^2, Per and Tor (R', B', A') at M in {4, 8, 16, 32}, eps = delta = 0.05."""
    ops: list[Op] = []
    for m in (4,) if tiny else (4, 8, 16, 32):
        ops += _matrix_ops_at(seed, m, len(ops))
    return ops


# ---------------------------------------------------------------------------
# circuit probabilities
# ---------------------------------------------------------------------------

LOSSY = {"r": 0.5, "eta": 0.5, "n_th": 0.1}


def _lossy_circuit(u: np.ndarray, pattern) -> linear_optics.CircuitSpec:
    m = u.shape[0]
    return linear_optics.CircuitSpec(
        modes=((LOSSY["r"], 0.0),) * m,
        unitary=linear_optics.Interferometer(m, u),
        pattern=tuple(pattern),
        eta=LOSSY["eta"],
        n_th=LOSSY["n_th"],
    )


def _exact_probability(circuit: linear_optics.CircuitSpec) -> Optional[float]:
    """Exact probability of the circuit's own pattern, or None out of reach."""
    kinds = {out.kind for out in circuit.pattern}
    if kinds <= {"photon", "noclick", "marginal"}:
        counts = [
            "marginal" if out.kind == "marginal" else (0 if out.kind == "noclick" else out.m)
            for out in circuit.pattern
        ]
        if sum(c for c in counts if c != "marginal") > PHOTON_ORACLE_TOTAL:
            return None
        return oracles.exact_probability(circuit, counts)
    if kinds <= {"click", "noclick", "marginal"}:
        if circuit.m > THRESHOLD_ORACLE_M:
            return None
        return oracles.exact_threshold_probability(circuit, circuit.pattern)
    return None


def _pattern(m: int, spec: tuple, rng: np.random.Generator) -> list:
    """Outcomes of ``spec`` on randomly chosen modes, the rest marginal."""
    pat = [MARGINAL] * m
    modes = rng.choice(m, size=len(spec), replace=False)
    for j, entry in zip(modes, spec):
        if entry == "click":
            pat[int(j)] = CLICK
        elif entry == "noclick":
            pat[int(j)] = NOCLICK
        else:
            pat[int(j)] = photon(int(entry))
    return pat


def _circuit_file(path: str, u: np.ndarray, pattern_json: list) -> None:
    m = u.shape[0]
    obj = {
        "modes": [{"r": LOSSY["r"], "n": 0.0} for _ in range(m)],
        "eta": LOSSY["eta"],
        "n_th": LOSSY["n_th"],
        "unitary": {"m": m, "re": u.real.tolist(), "im": u.imag.tolist()},
        "pattern": pattern_json,
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _run_cli(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pqdkit.cli.main(argv)
    if code != 0:
        raise OpFailed(f"pqdkit exited with code {code}")
    return buf.getvalue()


LOSSY_AUTO_PATTERNS = ((0,), (1,), (2,), (1, 2), ("click",), ("click", "noclick"))


def prob_lossy_auto(seed: int, tiny: bool = False, workdir: Optional[str] = None) -> list[Op]:
    """``pqdkit estimate-prob`` in-process on lossy circuits with automatic
    shifts; circuit files are written to ``workdir`` when the ops are built."""
    if workdir is None:
        raise ValueError("prob-lossy-auto writes circuit files and needs a workdir")
    sizes = (3,) if tiny else (3, 6, 10)
    specs = ((1,), ("click",)) if tiny else LOSSY_AUTO_PATTERNS
    ops: list[Op] = []
    for m in sizes:
        rng = _rng(seed, 2, m)
        u = _haar(rng, m)
        for spec in specs:
            pat = _pattern(m, spec, rng)
            circuit = _lossy_circuit(u, pat)
            pat_json = [
                out.m if out.kind == "photon" else out.kind for out in circuit.pattern
            ]
            op_id = f"M{m}." + "-".join(str(e) for e in spec)
            path = os.path.join(workdir, f"lossy-{op_id}.json")
            _circuit_file(path, u, pat_json)
            argv = [
                "estimate-prob",
                "--circuit",
                path,
                "--epsilon",
                str(EPS),
                "--delta",
                str(DELTA),
                "--seed",
                str(_est_seed(seed, len(ops))),
            ]
            ops.append(
                Op(
                    op_id,
                    {"m": m, "pattern": spec},
                    lambda argv=argv: _run_cli(argv),
                    lambda text: text.encode(),
                    lambda text: int(json.loads(text)["result"]["n_used"]),
                    lambda text, _round, circuit=circuit: _check_cli(text, circuit),
                )
            )
    return ops


def _check_cli(text: str, circuit) -> Check:
    res = json.loads(text)["result"]
    return _within(res["estimate"], _exact_probability(circuit), res["conf_radius"])


def _report_canonical(rep) -> bytes:
    return _json_bytes(
        {
            "estimate": rep.estimate,
            "conf_radius": rep.conf_radius,
            "n_used": rep.n_used,
            "gamma": rep.gamma,
            "direction": rep.direction,
        }
    )


def _fixed_n_check(circuit, partner_id: str):
    def check(rep, round_outputs: dict) -> Check:
        exact = _exact_probability(circuit)
        if exact is not None:
            return _within(rep.estimate, exact, rep.conf_radius)
        other = round_outputs.get(partner_id)
        if other is None:
            return Check(False, "pair", f"partner {partner_id} has no output")
        gap = abs(rep.estimate - other.estimate)
        radius = rep.conf_radius + other.conf_radius
        ok = math.isfinite(rep.estimate) and gap <= radius
        return Check(ok, "pair", f"|folded - naive| = {gap:.3g} <= {radius:.3g}")

    return check


def prob_fixed_n(seed: int, tiny: bool = False, workdir: Optional[str] = None) -> list[Op]:
    """``estimate_probability`` at n_samples = 2^18, folded and naive."""
    sizes = (3,) if tiny else (3, 8, 16)
    n_samples = TINY_FIXED_N if tiny else FIXED_N
    ops: list[Op] = []
    for m in sizes:
        rng = _rng(seed, 3, m)
        interf = lambda: linear_optics.Interferometer(m, _haar(rng, m))
        circuits = {
            "sq-photon1": linear_optics.CircuitSpec(
                modes=tuple((float(r), 0.0) for r in rng.uniform(0.2, 0.6, m)),
                unitary=interf(),
                pattern=(photon(1),) * m,
            ),
            "thermal-click": linear_optics.CircuitSpec(
                modes=tuple((0.0, float(n)) for n in rng.uniform(0.2, 1.0, m)),
                unitary=interf(),
                pattern=(CLICK,) * m,
            ),
        }
        u = _haar(rng, m)
        circuits["lossy-mixed"] = _lossy_circuit(u, _pattern(m, (1, "noclick"), rng))
        for family, circuit in circuits.items():
            cfg = _config(seed, len(ops), n_samples=n_samples)
            for method, partner in (("folded", "naive"), ("naive", "folded")):
                ops.append(
                    Op(
                        f"{family}.M{m}.{method}",
                        {"family": family, "m": m, "method": method},
                        lambda c=circuit, cfg=cfg, method=method: estimator.estimate_probability(
                            c, cfg, method=method
                        ),
                        _report_canonical,
                        lambda rep: int(rep.n_used),
                        _fixed_n_check(circuit, f"{family}.M{m}.{partner}"),
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# multiplicative
# ---------------------------------------------------------------------------


# The sample count of the Laplace importance sampler grows steeply as the
# permanent spectrum's ratio lambda_max / lambda_min approaches the condition
# boundary 2 (12k samples at 1.5, up to 2M at 1.97 for M = 8..12), so with a
# uniformly drawn spectrum the cost of a run would follow the seed's extreme
# eigenvalues.  The extremes are therefore pinned and only the interior
# eigenvalues, the unitaries and the estimator seeds are random.
PER_SPECTRUM = (1.0, 1.5)
# Even so, about one hafnian instance in five at M = 8 needs 28k samples
# instead of 12k; several instances per case keep that share steady per run.
MULT_INSTANCES = 4
HAF_N = 1.2
HAF_R = (0.05, 0.2)


def _spread(rng: np.random.Generator, span: tuple, m: int) -> np.ndarray:
    """m values in [lo, hi] that include both ends, the rest uniform."""
    lo, hi = span
    return np.concatenate([[lo, hi], rng.uniform(lo, hi, m - 2)])


def _mult_canonical(out) -> bytes:
    value, mu = out
    return _json_bytes(
        {"value": value, "rel_radius": mu.rel_radius, "n_used": mu.n_used, "ess": mu.ess}
    )


def _relative_check(exact_fn):
    def check(out, _round) -> Check:
        value = out[0]
        exact = float(exact_fn())
        ok = math.isfinite(value) and abs(value / exact - 1.0) <= MULT_EPS
        return Check(ok, "oracle", f"|{value:.6g} / {exact:.6g} - 1| <= {MULT_EPS}")

    return check


def _per_multiplicative(b_mat: np.ndarray, cfg) -> tuple:
    emb = linear_optics.embed_permanent(b_mat)
    mu = fpras.estimate_multiplicative(emb.circuit, MULT_EPS, MULT_DELTA, cfg)
    return emb.prefactor * mu.value, mu


def _circuit_multiplicative(circuit, cfg) -> tuple:
    mu = fpras.estimate_multiplicative(circuit, MULT_EPS, MULT_DELTA, cfg)
    return mu.value, mu


def multiplicative(seed: int, tiny: bool = False, workdir: Optional[str] = None) -> list[Op]:
    """``fpras.estimate_multiplicative`` at eps = 0.1, delta = 0.05 on the
    permanent family (spectrum in [1, 1.5] within the certified [1, 2]) and
    the squeezed-thermal hafnian family (n = 1.2, r in [0.05, 0.2]),
    ``MULT_INSTANCES`` random instances per family and size."""
    per_sizes = (4,) if tiny else (4, 8, 12)
    haf_sizes = (4,) if tiny else (4, 6, 8)
    ops: list[Op] = []
    for rep in range(1 if tiny else MULT_INSTANCES):
        for m in per_sizes:
            rng = _rng(seed, 4, m, rep)
            b_mat = _hpsd(_haar(rng, m), _spread(rng, PER_SPECTRUM, m))
            cfg = _config(seed, len(ops))
            ops.append(
                Op(
                    f"permanent.M{m}.{rep}",
                    {"family": "permanent", "m": m},
                    lambda b=b_mat, cfg=cfg: _per_multiplicative(b, cfg),
                    _mult_canonical,
                    lambda out: int(out[1].n_used),
                    _relative_check(lambda b=b_mat: oracles.permanent_exact(b).real),
                )
            )
        for m in haf_sizes:
            rng = _rng(seed, 5, m, rep)
            circuit = linear_optics.CircuitSpec(
                modes=tuple((float(r), HAF_N) for r in _spread(rng, HAF_R, m)),
                unitary=linear_optics.Interferometer(m, _haar(rng, m)),
                pattern=(photon(1),) * m,
            )
            cfg = _config(seed, len(ops))
            ops.append(
                Op(
                    f"hafnian.M{m}.{rep}",
                    {"family": "hafnian", "m": m},
                    lambda c=circuit, cfg=cfg: _circuit_multiplicative(c, cfg),
                    _mult_canonical,
                    lambda out: int(out[1].n_used),
                    _relative_check(lambda c=circuit: _exact_probability(c)),
                )
            )
    return ops


WORKLOADS = {
    "matrix-additive": matrix_additive,
    "prob-lossy-auto": prob_lossy_auto,
    "prob-fixed-n": prob_fixed_n,
    "multiplicative": multiplicative,
}
