"""Tracing from outside the program: swap module and class attributes that
pqdkit looks up at call time for wrappers that record spans.

A span carries a name, start, end, parent span and op id, plus an optional
note read from the call (batch size, sample count, ...).  Spans stay in
memory; the harness turns them into per-layer metrics when the run ends.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    cpu: float = 0.0
    note: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, others) -> float:
    """Duration of ``span`` minus the part of it covered by ``others``
    (clipped to the span's interval, overlaps among them counted once)."""
    clipped = [
        (max(o.start, span.start), min(o.end, span.end))
        for o in others
        if o.end > span.start and o.start < span.end
    ]
    return span.duration - union_length(clipped)


class Recorder:
    """Collects spans of one thread of calls; ``op`` is set by the harness
    before each op so that spans of one estimate share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, cpu: bool = False, note=None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, rec._stack[-1] if rec._stack else None, rec.op)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            c0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                rec._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper


def _draw_note(args, kwargs, _result) -> dict:
    return {"n": int(kwargs["n"] if "n" in kwargs else args[2])}


def _estimate_note(args, _kwargs, result) -> dict:
    return {"m": args[0].m, "method": result.method, "n": int(result.n_used)}


def _fpras_note(_args, _kwargs, result) -> dict:
    return {"n": int(result.n_used), "ess": float(result.ess)}


# (owner, attribute, span name, record CPU time, note) -- the owner is the
# namespace the caller resolves the name in, so imported names are swapped
# where they were imported to.
TARGETS = (
    ("pqdkit.cli", "main", "cli.main", False, None),
    ("pqdkit.estimator", "estimate_hafnian_sq", "estimator.matrix_estimate", False, None),
    ("pqdkit.estimator", "estimate_permanent_hpsd", "estimator.matrix_estimate", False, None),
    ("pqdkit.estimator", "estimate_torontonian", "estimator.matrix_estimate", False, None),
    ("pqdkit.estimator", "estimate_probability", "estimator.estimate_probability", False, _estimate_note),
    ("pqdkit.estimator", "resolve_gamma", "estimator.resolve_gamma", False, None),
    ("pqdkit.estimator", "build_folded_sampler", "estimator.build_sampler", False, None),
    ("pqdkit.estimator", "_build_naive_sampler", "estimator.build_sampler", False, None),
    ("pqdkit.estimator", "mode_sups", "estimator.mode_sups", False, None),
    ("pqdkit.estimator", "negativity_bound", "estimator.negativity_bound", False, None),
    ("pqdkit.estimator", "measurement_sup", "factors.measurement_sup", False, None),
    ("pqdkit.bounds", "measurement_sup", "factors.measurement_sup", False, None),
    ("pqdkit.estimator.FoldedSampler", "draw", "estimator.draw", True, _draw_note),
    ("pqdkit.estimator._NaiveSampler", "draw", "estimator.draw", True, _draw_note),
    ("pqdkit.estimator", "embed_hafnian", "linear_optics.embed", False, None),
    ("pqdkit.estimator", "embed_permanent", "linear_optics.embed", False, None),
    ("pqdkit.linear_optics", "embed_permanent", "linear_optics.embed", False, None),
    ("pqdkit.linear_optics.MatrixClass", "decompose", "linear_optics.embed", False, None),
    ("pqdkit.linear_optics", "block_a_prime", "linear_optics.embed", False, None),
    ("pqdkit.bounds", "budget_hafnian", "bounds.budget", False, None),
    ("pqdkit.bounds", "budget_permanent", "bounds.budget", False, None),
    ("pqdkit.bounds", "budget_torontonian", "bounds.budget", False, None),
    ("pqdkit.fpras", "circuit_certificates", "fpras.certificates", False, None),
    ("pqdkit.fpras", "estimate_multiplicative", "fpras.estimate_multiplicative", False, _fpras_note),
)

# children of estimate_probability that are setup, not the sampling kernel
SETUP_SPANS = frozenset(
    {
        "estimator.resolve_gamma",
        "estimator.build_sampler",
        "estimator.mode_sups",
        "estimator.negativity_bound",
        "factors.measurement_sup",
    }
)


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def install(recorder: Recorder, targets=TARGETS):
    """Swap every target that exists for a recording wrapper.

    Returns (restore list, names of targets not found); targets a refactor
    removed are skipped so the remaining layers are still traced.
    """
    restore = []
    missing = []
    for owner_path, attr, name, cpu, note in targets:
        try:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
        except (AttributeError, ModuleNotFoundError):
            missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, recorder.wrap(name, original, cpu, note))
        restore.append((owner, attr, original))
    return restore, missing


def uninstall(restore) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def layer_metrics(spans: list[Span], op_labels: list[dict]) -> dict:
    """Per-layer metrics from the spans of ``len(op_labels)`` traced ops.

    Times and counts are per op, averaged over every traced op of the
    workload, so a layer the workload never enters reads 0.
    """
    n_ops = len(op_labels)
    by_op: dict[int, list[Span]] = {}
    for sp in spans:
        by_op.setdefault(sp.op, []).append(sp)

    def per_op_union(names) -> float:
        total = 0.0
        for op_spans in by_op.values():
            total += union_length(
                [(sp.start, sp.end) for sp in op_spans if sp.name in names]
            )
        return total / n_ops

    def count(name) -> float:
        return sum(1 for sp in spans if sp.name == name) / n_ops

    out = {
        "linear_optics.embed_ms": 1e3 * per_op_union({"linear_optics.embed"}),
        "bounds.budget_ms": 1e3 * per_op_union({"bounds.budget"}),
        "estimator.resolve_gamma_ms": 1e3 * per_op_union({"estimator.resolve_gamma"}),
        "estimator.sampler_builds": count("estimator.build_sampler"),
        "estimator.build_sampler_ms": 1e3 * per_op_union({"estimator.build_sampler"}),
        "estimator.mode_sups_ms": 1e3 * per_op_union({"estimator.mode_sups"}),
        "factors.measurement_sup_calls": count("factors.measurement_sup"),
        "factors.measurement_sup_ms": 1e3 * per_op_union({"factors.measurement_sup"}),
        "fpras.certificates_ms": 1e3 * per_op_union({"fpras.certificates"}),
    }

    # sampling kernel: estimate_probability minus its setup descendants
    kernel: dict[tuple, list] = {}
    main_self = 0.0
    for op_spans in by_op.values():
        for sp in op_spans:
            if sp.name == "estimator.estimate_probability":
                inner = [
                    o for o in op_spans
                    if o.name in SETUP_SPANS and o.start >= sp.start and o.end <= sp.end
                ]
                key = (sp.note["method"], sp.note["m"])
                acc = kernel.setdefault(key, [0.0, 0])
                acc[0] += self_time(sp, inner)
                acc[1] += sp.note["n"]
            elif sp.name == "cli.main":
                inner = [o for o in op_spans if o.name == "estimator.estimate_probability"]
                main_self += self_time(sp, inner)
    out["estimator.sample_ns"] = {
        f"{method}.M{m}": 1e9 * t / n for (method, m), (t, n) in kernel.items() if n
    }
    out["cli.main_self_ms"] = 1e3 * main_self / n_ops

    draws = [sp for sp in spans if sp.name == "estimator.draw"]
    draw_wall = sum(sp.duration for sp in draws)
    out["estimator.draw_batch_p50"] = (
        statistics.median(sp.note["n"] for sp in draws) if draws else 0.0
    )
    out["estimator.draw_cpu_ratio"] = (
        sum(sp.cpu for sp in draws) / draw_wall if draw_wall > 0 else 0.0
    )

    fp = [sp for sp in spans if sp.name == "fpras.estimate_multiplicative"]
    per_case: dict[str, list] = {}
    for sp in fp:
        labels = op_labels[sp.op]
        per_case.setdefault(f"{labels['family']}.M{labels['m']}", []).append(sp.duration)
    out["fpras.estimate_ms"] = {k: 1e3 * statistics.fmean(v) for k, v in per_case.items()}
    out["fpras.n_used"] = statistics.fmean(sp.note["n"] for sp in fp) if fp else 0.0
    out["fpras.ess_ratio"] = (
        statistics.fmean(sp.note["ess"] / sp.note["n"] for sp in fp) if fp else 0.0
    )
    return out
