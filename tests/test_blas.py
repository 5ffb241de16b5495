"""Setup decompositions on one OpenBLAS thread: the guard restores the
caller's thread count, and no estimate leaves BLAS workers spinning."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pqdkit
from pqdkit import _blas
from pqdkit import estimator as est
from pqdkit import linear_optics as lo


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set) with the count set to 2 for the test, so
    that lowering it shows; the caller's count is restored afterwards."""
    handle = _blas.blas_handle()
    if handle is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    get, set_ = handle
    before = get()
    set_(2)
    yield get, set_
    set_(before)


class TestOneBlasThread:
    def test_restores_after_normal_exit(self, blas_threads):
        get, _ = blas_threads
        with _blas.one_blas_thread():
            assert get() == 1
        assert get() == 2

    def test_restores_after_exception(self, blas_threads):
        get, _ = blas_threads
        with pytest.raises(RuntimeError):
            with _blas.one_blas_thread():
                raise RuntimeError("inside the block")
        assert get() == 2

    def test_restores_after_nested_use(self, blas_threads):
        get, _ = blas_threads
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert get() == 1
            assert get() == 1  # the outer block still holds one thread
        assert get() == 2

    def test_decorated_function_restores(self, blas_threads):
        get, _ = blas_threads
        seen = _blas.one_blas_thread()(get)()
        assert (seen, get()) == (1, 2)

    def test_concurrent_entries_leave_count_unchanged(self, blas_threads):
        get, _ = blas_threads
        both_inside = threading.Barrier(2)
        first_left = threading.Event()
        seen = {}

        def first():
            with _blas.one_blas_thread():
                both_inside.wait(timeout=10)
            first_left.set()

        def second():
            with _blas.one_blas_thread():
                both_inside.wait(timeout=10)
                first_left.wait(timeout=10)
                seen["after first left"] = get()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=20)
        assert seen == {"after first left": 1}
        assert get() == 2

    def test_missing_handle_gives_identical_estimate(self, monkeypatch):
        b_mat = _hpsd(32, seed=4)
        config = est.EstimatorConfig(seed=9)
        guarded = est.estimate_permanent_hpsd(b_mat, config)
        monkeypatch.setattr(_blas, "_handle", None)
        unguarded = est.estimate_permanent_hpsd(b_mat, config)
        assert _report_bytes(unguarded) == _report_bytes(guarded)

    def test_cli_report_does_not_depend_on_openblas_threads(self, tmp_path):
        b_mat = _hpsd(32, seed=5)
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"m": 32, "re": b_mat.real.tolist(), "im": b_mat.imag.tolist(), "tag": "B"})
        )
        src = str(Path(pqdkit.__file__).resolve().parents[1])
        reports = []
        for blas_env in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
            out = tmp_path / f"report{len(reports)}.json"
            argv = ["estimate-per", "--matrix", str(path), "--seed", "3", "--output", str(out)]
            subprocess.run(
                [sys.executable, "-m", "pqdkit.cli", *argv], env=env, check=True, timeout=120
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _report_bytes(result) -> bytes:
    return json.dumps(result.as_dict(), sort_keys=True).encode()


def _hpsd(m: int, seed: int) -> np.ndarray:
    lam = np.random.default_rng(seed).uniform(0.2, 0.6, m)
    u = lo.haar_unitary(m, seed).u
    b = (u * lam) @ u.conj().T
    return (b + b.conj().T) / 2.0


def _symmetric(m: int, seed: int) -> np.ndarray:
    lam = np.random.default_rng(seed).uniform(0.1, 0.5, m)
    u = lo.haar_unitary(m, seed).u
    r = (u * lam) @ u.T
    return (r + r.T) / 2.0


ENTRY_POINTS = {
    "haf": lambda m: (est.estimate_hafnian_sq, _symmetric(m, 1)),
    "per": lambda m: (est.estimate_permanent_hpsd, _hpsd(m, 2)),
    "torR": lambda m: (est.estimate_torontonian, lo.block_r_prime(_symmetric(m, 3))),
    "torB": lambda m: (est.estimate_torontonian, lo.block_b_prime(_hpsd(m, 4))),
    "torA": lambda m: (
        est.estimate_torontonian,
        lo.block_a_prime(1.0, np.linspace(0.1, 0.3, m), lo.haar_unitary(m, 5)),
    ),
}


def _cpu_ms_over_sleep(seconds: float = 0.1) -> float:
    """CPU time the whole process spends while this thread sleeps."""
    start = time.process_time()
    time.sleep(seconds)
    return 1e3 * (time.process_time() - start)


@pytest.mark.skipif(est._usable_cpus() < 2, reason="OpenBLAS runs no pool on one CPU")
@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_blas_threads_spin_after_an_estimate(entry, m):
    if _blas.blas_handle() is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    call, target = ENTRY_POINTS[entry](m)
    # building the inputs may wake the pool; let it fall asleep first
    for _ in range(30):
        if _cpu_ms_over_sleep() < 5.0:
            break
    result = call(target, est.EstimatorConfig(n_samples=64, seed=1))
    assert math.isfinite(result.value)
    assert _cpu_ms_over_sleep() < 10.0
