"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

run.load_pqdkit()
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentiles need ten samples beyond them
# ---------------------------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99)), 0.9) is None
    values = list(range(100, 0, -1))
    assert run.tail_percentile(values, 0.9) == 90
    assert run.tail_percentile(list(range(1000)), 0.9) == 899


def test_p50_needs_twenty_samples():
    assert run.tail_percentile(list(range(19)), 0.5) is None
    assert run.tail_percentile(list(range(20)), 0.5) == 9
    assert run.tail_percentile([], 0.5) is None


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _span(name, start, end, op=0, note=None):
    return spans.Span(name, start, end, None, op, note=note)


def test_union_counts_overlaps_once():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3), (1.5, 1.7)]) == 3.0
    assert spans.union_length([(5, 6), (0, 10)]) == 10.0


def test_self_time_nested_children():
    parent = _span("p", 0.0, 10.0)
    child = _span("c", 1.0, 4.0)
    grandchild = _span("g", 2.0, 3.0)  # inside the child: covered once
    assert spans.self_time(parent, [child, grandchild]) == pytest.approx(7.0)
    assert spans.self_time(child, [grandchild]) == pytest.approx(2.0)


def test_self_time_overlapping_and_clipped_children():
    parent = _span("p", 0.0, 10.0)
    others = [
        _span("a", 1.0, 3.0),
        _span("b", 2.0, 4.0),  # overlaps a: [1, 4] covered
        _span("c", 8.0, 12.0),  # sticks out of the parent: only [8, 10] counts
        _span("d", 11.0, 12.0),  # outside the parent entirely
    ]
    assert spans.self_time(parent, others) == pytest.approx(10.0 - 3.0 - 2.0)


def test_kernel_time_subtracts_only_setup_children():
    note = {"method": "folded", "m": 4, "n": 1000}
    recorded = [
        _span("estimator.estimate_probability", 0.0, 10.0, note=note),
        _span("estimator.resolve_gamma", 0.0, 2.0),
        _span("estimator.build_sampler", 1.0, 3.0),
        _span("factors.measurement_sup", 1.5, 1.6),
        _span("estimator.draw", 3.0, 9.0, note={"n": 500}),
        _span("estimator.draw", 9.0, 9.5, note={"n": 500}),
    ]
    out = spans.layer_metrics(recorded, [{"m": 4}])
    assert out["estimator.sample_ns"]["folded.M4"] == pytest.approx(7.0 * 1e9 / 1000)
    assert out["estimator.resolve_gamma_ms"] == pytest.approx(2000.0)
    assert out["estimator.sampler_builds"] == 1
    assert out["estimator.draw_batch_p50"] == 500
    assert out["fpras.n_used"] == 0.0


def test_recorder_links_parents_and_restores_targets():
    import pqdkit.estimator as est

    original = est.resolve_gamma
    rec = spans.Recorder()
    restore, _ = spans.install(rec)
    try:
        assert est.resolve_gamma is not original
        rec.op = 0
        op = workloads.prob_fixed_n(1, tiny=True)[0]
        op.run()
    finally:
        spans.uninstall(restore)
    assert est.resolve_gamma is original
    top = [i for i, sp in enumerate(rec.spans) if sp.parent is None]
    assert [rec.spans[i].name for i in top] == ["estimator.estimate_probability"]
    assert all(sp.op == 0 for sp in rec.spans)
    assert any(sp.name == "estimator.draw" and sp.parent == top[0] for sp in rec.spans)


# ---------------------------------------------------------------------------
# determinism digest
# ---------------------------------------------------------------------------


def _first_round_digest(name: str, seed: int, wd: str) -> str:
    ops = workloads.WORKLOADS[name](seed, True, wd)
    return run.digest([op.op_id for op in ops], [op.canonical(op.run()) for op in ops])


def test_digest_is_stable_and_order_sensitive(tmp_path):
    a = _first_round_digest("matrix-additive", 5, str(tmp_path))
    assert a == _first_round_digest("matrix-additive", 5, str(tmp_path))
    assert a != _first_round_digest("matrix-additive", 6, str(tmp_path))
    assert run.digest(["x", "y"], [b"1", b"2"]) != run.digest(["y", "x"], [b"2", b"1"])
    assert run.digest(["x"], [None]) != run.digest(["x"], [b""])


def test_evaluate_flags_output_that_changes_between_rounds():
    ops = workloads.multiplicative(2, tiny=True)
    records, _ = run.run_rounds(ops, None, rounds=2)
    clean = run.evaluate(ops, records)
    assert clean.failed == 0 and clean.attempted == 2 * len(ops)
    value, mu = records[-1].output
    records[-1].output = (value * (1.0 + 1e-12), mu)
    dirty = run.evaluate(ops, records)
    assert dirty.failed == 1
    assert "differs" in dirty.failures[ops[records[-1].index].op_id]["reason"]
    assert dirty.digest == clean.digest


# ---------------------------------------------------------------------------
# tiny-size smoke runs through the command line
# ---------------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "multiplicative", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
