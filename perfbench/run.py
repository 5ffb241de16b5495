"""pqdkit benchmark: closed loop, one client, estimates back to back.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload matrix-additive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py`` and listed, with why each was
chosen, in ``BENCHMARK.json``.  A run

1. starts ``SETUP_REPEATS`` fresh interpreters that each import
   ``pqdkit.cli`` and complete one warm-up op (``setup_s`` is their median);
2. builds the workload's ops from ``--seed`` and warms up for ``WARMUP_S``;
3. runs whole rounds over the ops until ``--seconds`` of wall time have
   passed, timing each op (output checks are outside the timed region);
4. checks the first round's outputs (exact oracle, bound sandwich,
   folded-vs-naive pair or finite-and-Hoeffding-count), requires every later
   round to reproduce the first byte for byte, and hashes the first round
   into a determinism digest;
5. prints a table, a detail line (environment record, digest, failed ops)
   and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``.  The per-estimate latency median and p90 and the failed
fraction are printed in the table and the detail line but are not in that
list: a mixed-size workload's median falls in the gap between size clusters
and swings 10-20% between runs, p90 needs 100 ops (``prob-fixed-n`` makes
about 54 in a run), and the failed fraction is 0 when nothing fails; the
last line carries it as ``failed`` / ``attempted``.

With ``--trace 1`` half the time runs untraced and the same number of rounds
runs again with spans recorded around every layer (see ``spans.py``); the
metrics are the ``per_layer`` list, including ``trace.overhead_frac``, the
traced minus the untraced ``ops_per_s`` as a fraction of the untraced.
``oracles.check_ms`` is the harness's check time per op of a round and
``oracles.checked_frac`` the share of those ops checked against an exact
oracle.

The harness reads the BLAS/OpenMP thread variables and never sets them.  It
imports pqdkit only from this checkout's ``src`` and exits with code 2,
printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# prob-lossy-auto runs here but is not listed in BENCHMARK.json: its ops are
# Python-bound (numeric shift search and suprema), so its throughput follows
# the host's CPU speed, which drifted by up to 20% over minutes on a shared
# 2-CPU host -- more than a regression bound of 0.25 can absorb.
WORKLOAD_NAMES = ("matrix-additive", "prob-lossy-auto", "prob-fixed-n", "multiplicative")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
WARMUP_S = 2.0
CHILD_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(Exception):
    pass


def load_pqdkit():
    """Import pqdkit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pqdkit" / "__init__.py").is_file():
        raise SourceMissing(f"no pqdkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqdkit.cli

    if not Path(pqdkit.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"pqdkit imported from {pqdkit.__file__}, not {SRC}")
    return pqdkit


def tail_percentile(values, q: float) -> Optional[float]:
    """Nearest-rank q-quantile, or None when fewer than ``TAIL_MIN_BEYOND``
    samples lie beyond it (p90 therefore needs at least 100 values)."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def digest(op_ids, canonical) -> str:
    """SHA-256 over each op's id and canonical output, in op order."""
    h = hashlib.sha256()
    for op_id, blob in zip(op_ids, canonical):
        h.update(op_id.encode() + b"\0")
        h.update((blob if blob is not None else b"<no output>") + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


@dataclass
class Record:
    index: int
    latency: float
    cpu: float
    output: object
    error: Optional[str]


def run_rounds(ops, seconds: Optional[float], rounds: Optional[int] = None, recorder=None):
    """One client, whole rounds over ``ops``: until ``seconds`` of wall time
    have passed, or exactly ``rounds`` rounds.  Returns (records, rounds)."""
    records: list[Record] = []
    t_start = time.perf_counter()
    done = 0
    while True:
        for i, op in enumerate(ops):
            if recorder is not None:
                recorder.op = len(records)
            error = None
            output = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception:  # an op that raises is a failed op, not a harness crash
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            t1 = time.perf_counter()
            c1 = time.process_time()
            records.append(Record(i, t1 - t0, c1 - c0, output, error))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
    return records, done


def warm_up(ops, seconds: float) -> None:
    """Run ops in order, untimed, until ``seconds`` have passed (at least one)."""
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        try:
            ops[i % len(ops)].run()
        except Exception:  # the timed rounds record the failure
            pass
        i += 1
        if time.perf_counter() >= t_end:
            return


@dataclass
class Evaluation:
    attempted: int
    failed: int
    failures: dict
    checks: list
    digest: str
    check_s: float
    samples: int


def evaluate(ops, records) -> Evaluation:
    """Check the first round (``records[:len(ops)]``) and compare every
    later op's output with the first round's, byte for byte."""
    first = records[: len(ops)]
    round_outputs = {ops[r.index].op_id: r.output for r in first if r.error is None}
    reference: list = [None] * len(ops)
    checks: list = [None] * len(ops)
    from workloads import Check

    t0 = time.perf_counter()
    for r in first:
        op = ops[r.index]
        if r.error is not None:
            checks[r.index] = Check(False, "error", r.error)
            continue
        reference[r.index] = op.canonical(r.output)
        try:
            checks[r.index] = op.check(r.output, round_outputs)
        except Exception:  # a check that cannot run fails its op
            msg = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            checks[r.index] = Check(False, "check-error", msg)
    check_s = time.perf_counter() - t0

    failed = 0
    failures: dict = {}
    samples = 0
    for r in records:
        op = ops[r.index]
        chk = checks[r.index]
        reason = None
        if r.error is not None:
            reason = r.error
        else:
            samples += op.samples(r.output)
            if not chk.ok:
                reason = f"{chk.kind} check failed: {chk.detail}"
            elif op.canonical(r.output) != reference[r.index]:
                reason = "output differs from the first round"
        if reason is not None:
            failed += 1
            failures.setdefault(op.op_id, {"reason": reason, "count": 0})["count"] += 1
    return Evaluation(
        attempted=len(records),
        failed=failed,
        failures=failures,
        checks=checks,
        digest=digest([op.op_id for op in ops], reference),
        check_s=check_s,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# fresh-process probes
# ---------------------------------------------------------------------------


def _child(args: list) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """In this fresh process: import pqdkit.cli, then one warm-up op.
    Input generation between the two is not counted."""
    t0 = time.perf_counter()
    load_pqdkit()
    t_import = time.perf_counter() - t0
    import workloads

    with workdir() as wd:
        ops = workloads.WORKLOADS[workload](seed, tiny, wd)
        t1 = time.perf_counter()
        ops[0].run()
        t_op = time.perf_counter() - t1
    return t_import + t_op


def setup_times(workload: str, seed: int, tiny: bool) -> list:
    out = []
    for _ in range(SETUP_REPEATS):
        args = [str(Path(__file__)), "--probe-setup", "--workload", workload, "--seed", str(seed)]
        if tiny:
            args.append("--tiny")
        proc = _child(args)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_times() -> dict:
    """``-X importtime`` of ``import pqdkit.cli`` in fresh interpreters:
    cumulative ms of the top-level pqdkit import and of scipy.linalg."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pqdkit.cli"
    cli_ms, scipy_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = _child(["-X", "importtime", "-c", code])
        total = scipy = 0.0
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and name.split(".")[0] == "pqdkit":
                total += cumulative / 1e3
            if name == "scipy.linalg":
                scipy = max(scipy, cumulative / 1e3)
        cli_ms.append(total)
        scipy_ms.append(scipy)
    return {
        "cli.import_ms": statistics.median(cli_ms),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
    }


# ---------------------------------------------------------------------------
# environment, digests, output
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(idx / "level")).strip()
        kind = _read(str(idx / "type")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
        elif kind:
            caches[f"L{level}{kind[0].lower()}"] = _read(str(idx / "size")).strip()
    threads = 0
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            threads = int(line.split()[1])

    def blas_of(mod) -> dict:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return {}
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "process_threads": threads,
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC / "pqdkit", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digest(key: str, value: str) -> Optional[str]:
    """Record the digest of this (code, workload, seed); return the earlier
    digest when it differs, so a later run of the same code can tell."""
    store = STATE / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{key}.sha256"
    if path.is_file():
        old = path.read_text().strip()
        return old if old != value else None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(value + "\n")
    os.replace(tmp, path)
    return None


def workdir() -> tempfile.TemporaryDirectory:
    """Scratch directory for circuit files, inside the checkout, removed on exit."""
    STATE.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=STATE)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_block(names_units: list, values: dict) -> dict:
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names_units
    }


def flatten(values: dict) -> dict:
    out = {}
    for key, val in values.items():
        if isinstance(val, dict):
            out.update({f"{key}.{k}": v for k, v in val.items()})
        else:
            out[key] = val
    return out


def print_table(title: str, metrics: dict, extra: list) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for line in extra:
        print(f"  {line}")


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    load_pqdkit()
    import spans
    import workloads

    spec = load_spec()
    setups = [] if trace else setup_times(workload, seed, tiny)
    with workdir() as wd:
        ops = workloads.WORKLOADS[workload](seed, tiny, wd)
        warm_up(ops, min(WARMUP_S, seconds / 4))
        if not trace:
            records, rounds = run_rounds(ops, seconds)
            traced, missing = [], []
        else:
            records, rounds = run_rounds(ops, seconds / 2)
            recorder = spans.Recorder()
            restore, missing = spans.install(recorder)
            try:
                traced, _ = run_rounds(ops, None, rounds=rounds, recorder=recorder)
            finally:
                spans.uninstall(restore)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ev = evaluate(ops, records + traced)

    key = f"{workload}-{seed}-{'tiny' if tiny else 'full'}-{code_hash()[:16]}"
    earlier = check_digest(key, ev.digest)
    if earlier is not None:
        ev.failed = min(ev.failed + 1, ev.attempted)
        ev.failures["<digest>"] = {"reason": f"digest differs from earlier run {earlier}", "count": 1}

    wall = sum(r.latency for r in records)
    latencies = [r.latency for r in records]
    p50 = statistics.median(latencies)
    p90 = tail_percentile(latencies, 0.9)
    extra = [
        f"{'latency_p50_ms':40s} {1e3 * p50:14.6g} ms",
        f"{'latency_p90_ms':40s} "
        + (f"{1e3 * p90:14.6g} ms" if p90 is not None else f"{'n/a':>14s} (needs >= 100 ops)"),
        f"{'fail_frac':40s} {ev.failed / ev.attempted:14.6g} ({ev.failed} of {ev.attempted} ops)",
        f"ops {len(records)} in {rounds} rounds of {len(ops)}, timed {wall:.3f} s",
        f"digest sha256:{ev.digest}",
    ]
    extra += [f"FAILED {op_id}: {f['count']}x {f['reason']}" for op_id, f in ev.failures.items()]

    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(records) / wall,
            "samples_per_s": ev.samples / wall,
            "cpu_per_op_ms": 1e3 * sum(r.cpu for r in records) / len(records),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = metric_block(spec["end_to_end"], values)
    else:
        traced_wall = sum(r.latency for r in traced)
        untraced_rate = len(records) / wall
        traced_rate = len(traced) / traced_wall
        values = flatten(spans.layer_metrics(recorder.spans, [ops[r.index].labels for r in traced]))
        values.update(import_times())
        values["oracles.check_ms"] = 1e3 * ev.check_s / len(ops)
        values["oracles.checked_frac"] = sum(c.kind == "oracle" for c in ev.checks) / len(ops)
        values["trace.overhead_frac"] = (traced_rate - untraced_rate) / untraced_rate
        metrics = metric_block(spec["per_layer"], values)
        declared = {m["name"] for m in spec["per_layer"]}
        extra += [f"(not declared) {k} = {v:.6g}" for k, v in values.items() if k not in declared]
        if missing:
            extra.append(f"untraced (not found): {', '.join(missing)}")

    print_table(f"workload {workload}  seed {seed}  trace {int(trace)}", metrics, extra)
    detail = {
        "workload": workload,
        "seed": seed,
        "digest": ev.digest,
        "failures": ev.failures,
        "checks": {op.op_id: c.kind for op, c in zip(ops, ev.checks)},
        "setup_s_runs": setups,
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": None if p90 is None else 1e3 * p90,
        "fail_frac": ev.failed / ev.attempted,
        "environment": environment(),
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": ev.failed == 0,
        "attempted": ev.attempted,
        "failed": ev.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [
            str(Path(__file__)),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": probe_setup(args.workload, args.seed, args.tiny)}))
            return 0
        if args.workload == "all":
            return run_all(args)
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
