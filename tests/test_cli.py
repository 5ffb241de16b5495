"""Command-line interface: schemas, reports, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqdkit import cli
from pqdkit import estimator as est
from pqdkit import linear_optics as lo
from pqdkit.errors import SchemaError

from shift_reference import searched_budget


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def per_matrix(tmp_path):
    return write_json(
        tmp_path / "b.json",
        {"m": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "im": [[0, 0], [0, 0]], "tag": "B"},
    )


@pytest.fixture
def circuit_file(tmp_path):
    return write_json(
        tmp_path / "circ.json",
        {
            "modes": [{"r": 0.4}, {"r": 0.3}],
            "unitary": {"haar_seed": 5},
            "pattern": [1, 1],
        },
    )


class TestParsing:
    def test_minimal_circuit(self, circuit_file):
        circuit = cli.circuit_file_parse(circuit_file)
        assert circuit.m == 2
        assert circuit.pattern[0].kind == "photon"

    def test_eta_out_of_range(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {"modes": [{"r": 0.1}], "eta": 1.5, "unitary": {"haar_seed": 1}, "pattern": [0]},
        )
        with pytest.raises(SchemaError) as err:
            cli.circuit_file_parse(path)
        assert err.value.pointer == "/eta"

    def test_bad_pattern_entry(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {"modes": [{"r": 0.1}], "unitary": {"haar_seed": 1}, "pattern": ["blink"]},
        )
        with pytest.raises(SchemaError) as err:
            cli.circuit_file_parse(path)
        assert err.value.pointer == "/pattern/0"

    def test_unknown_tag(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"m": 1, "re": [[1.0]], "tag": "Z"})
        with pytest.raises(SchemaError):
            cli.matrix_file_parse(path)

    def test_haar_seed_reproducible(self, circuit_file):
        a = cli.circuit_file_parse(circuit_file)
        b = cli.circuit_file_parse(circuit_file)
        assert np.array_equal(a.unitary.u, b.unitary.u)


class TestCommands:
    def test_estimate_per_with_oracle(self, per_matrix, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "estimate-per",
                "--matrix",
                per_matrix,
                "--epsilon",
                "0.02",
                "--oracle-check",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["oracle"] == pytest.approx(5.0)
        assert report["within_budget"] is True
        assert abs(report["result"]["value"] - 5.0) <= report["result"]["budget"]
        assert report["seed"] == 0 and "version" in report

    def test_byte_identical_reports(self, per_matrix, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["estimate-per", "--matrix", per_matrix, "--seed", "3"]
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reports_do_not_depend_on_threads(self, circuit_file, per_matrix, tmp_path):
        # 80000 samples make 20 chunks, the last one partial, for up to 3
        # workers; the thermal pair's spectrum ratio of 1.99 takes the
        # multiplicative run to a batch of 65536 samples, 2 workers
        near_boundary = write_json(
            tmp_path / "thermal.json",
            {
                "modes": [{"n": 0.45 / 0.55}, {"n": 0.895 / 0.105}],
                "unitary": {"haar_seed": 1},
                "pattern": [1, 1],
            },
        )
        runs = {
            "prob": ["estimate-prob", "--circuit", circuit_file, "--samples", "80000"],
            "per": ["estimate-per", "--matrix", per_matrix, "--samples", "80000"],
            "mult": ["estimate-prob", "--circuit", near_boundary, "--multiplicative", "--epsilon", "0.1"],
        }
        for name, argv in runs.items():
            blobs = set()
            for threads in ([], ["--threads", "1"], ["--threads", "2"], ["--threads", "4"]):
                out = tmp_path / f"{name}{len(blobs)}.json"
                assert cli.main(argv + threads + ["--seed", "2", "--output", str(out)]) == 0
                blobs.add(out.read_bytes())
            assert len(blobs) == 1

    def test_threads_agree_on_a_partial_last_chunk(self, circuit_file, tmp_path):
        # 3 * 2^15 + 5 samples: 25 chunks, the last of 5 samples, on 1, 2
        # and 4 workers; the estimate and every trace row keep their bytes
        samples = str(3 * est.SAMPLES_PER_WORKER + 5)
        assert est._chunk_sizes(int(samples))[-1] == 5
        for command in ("estimate-prob", "convergence"):
            blobs = set()
            for threads in ("1", "2", "4"):
                out = tmp_path / f"{command}-{threads}.out"
                argv = [command, "--circuit", circuit_file, "--samples", samples, "--seed", "4"]
                assert cli.main(argv + ["--threads", threads, "--output", str(out)]) == 0
                blobs.add(out.read_bytes())
            assert len(blobs) == 1, command

    def test_reports_do_not_depend_on_blas_threads(self, circuit_file, per_matrix, tmp_path):
        # each report is written by a fresh interpreter whose OpenBLAS pool
        # has one or two threads; the bytes must not change
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = {
            "prob": ["estimate-prob", "--circuit", circuit_file, "--samples", "80000"],
            "per": ["estimate-per", "--matrix", per_matrix],
        }
        for name, argv in runs.items():
            digests = set()
            for blas in ("1", "2"):
                out = tmp_path / f"{name}-{blas}.json"
                env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas)
                subprocess.run(
                    [sys.executable, "-m", "pqdkit.cli", *argv, "--seed", "2", "--output", str(out)],
                    env=env,
                    check=True,
                    timeout=120,
                )
                digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            assert len(digests) == 1, name

    def test_matrix_commands_pass_threads_on(self, per_matrix, tmp_path, monkeypatch):
        seen = []
        run = est.estimate_probability

        def spy(circuit, config, method="folded", threads=None):
            seen.append(threads)
            return run(circuit, config, method, threads)

        monkeypatch.setattr(est, "estimate_probability", spy)
        tor = write_json(tmp_path / "bp.json", {"m": 1, "re": [[0.4, 0.0], [0.0, 0.4]], "tag": "B'"})
        haf = write_json(tmp_path / "r.json", {"m": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "tag": "R"})
        for command, path in (("estimate-per", per_matrix), ("estimate-haf", haf), ("estimate-tor", tor)):
            assert cli.main([command, "--matrix", path, "--threads", "3", "--samples", "64"]) == 0
        assert seen == [3, 3, 3]

    def test_wrong_tag_is_input_error(self, per_matrix):
        assert cli.main(["estimate-haf", "--matrix", per_matrix]) == 1

    def test_estimate_haf(self, tmp_path):
        path = write_json(
            tmp_path / "r.json",
            {"m": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "tag": "R"},
        )
        out = tmp_path / "haf.json"
        code = cli.main(
            ["estimate-haf", "--matrix", path, "--epsilon", "0.02", "--oracle-check", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["oracle"] == pytest.approx(1.0)
        assert report["within_budget"] is True

    def test_estimate_tor(self, tmp_path):
        lam = 0.4
        path = write_json(
            tmp_path / "bp.json",
            {"m": 1, "re": [[lam, 0.0], [0.0, lam]], "tag": "B'"},
        )
        out = tmp_path / "tor.json"
        code = cli.main(
            ["estimate-tor", "--matrix", path, "--oracle-check", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["oracle"] == pytest.approx(lam / (1 - lam))
        assert report["within_budget"] is True

    def test_estimate_prob_additive_and_multiplicative(self, tmp_path):
        circ = write_json(
            tmp_path / "thermal.json",
            {
                "modes": [{"n": 1.5}, {"n": 1.2}],
                "unitary": {"haar_seed": 2},
                "pattern": [1, 1],
            },
        )
        out = tmp_path / "prob.json"
        assert cli.main(["estimate-prob", "--circuit", circ, "--oracle-check", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        add_est = report["result"]["estimate"]
        assert abs(add_est - report["oracle"]) <= report["result"]["conf_radius"]
        assert (
            cli.main(
                ["estimate-prob", "--circuit", circ, "--multiplicative", "--output", str(out)]
            )
            == 0
        )
        report2 = json.loads(out.read_text())
        assert abs(report2["result"]["value"] / report["oracle"] - 1.0) <= 0.1

    def test_multiplicative_condition_failure_exit_code(self, tmp_path):
        circ = write_json(
            tmp_path / "sq.json",
            {"modes": [{"r": 0.5}, {"r": 0.5}], "unitary": {"haar_seed": 1}, "pattern": [1, 1]},
        )
        assert cli.main(["estimate-prob", "--circuit", circ, "--multiplicative"]) == 2

    def test_check_fpras_boundary(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = cli.main(
            ["check-fpras", "--family", "permanent", "--lambdas", "0.4,0.8", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["holds"] is True
        assert report["certificate"]["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_check_fpras_failure_exit_code(self, tmp_path):
        code = cli.main(
            ["check-fpras", "--family", "gbs-noise", "--eta", "0.5", "--r-max", "1.0", "--n-th", "1.0"]
        )
        assert code == 2

    def test_check_fpras_noise_threshold_value(self, tmp_path):
        out = tmp_path / "noise.json"
        code = cli.main(
            [
                "check-fpras",
                "--family",
                "gbs-noise",
                "--eta",
                "0.5",
                "--r-max",
                "1.0",
                "--n-th",
                "4.0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["noise_threshold"] == pytest.approx(3.787, abs=1e-3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "permanent", "--lambdas", "0.5"],
            ["--family", "permanent", "--lambdas", "0.55,0.55,0.55"],
            ["--family", "hafnian", "--n", "3", "--r-max", "0"],
        ],
    )
    def test_check_fpras_degenerate_quadratic_margin_is_null(self, argv, capsys):
        # equal variances: the full forward shift is infinite, the margin +inf
        assert cli.main(["check-fpras"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["certificate"] == {
            "holds": True,
            "family": "QuadraticFactor",
            "margin": None,
            "witness_line": None,
        }

    @pytest.mark.parametrize(
        "argv, margin",
        [
            (["--family", "tor-thermal", "--lambda-min", "0.6", "--lambda-max", "0.6"], 0.2),
            (["--family", "tor-squeezed-thermal", "--n", "3", "--r-max", "0"], 0.5),
            (["--family", "gbs-noise", "--eta", "0", "--r-max", "0.5", "--n-th", "3"], 0.5),
        ],
    )
    def test_check_fpras_degenerate_threshold_margin(self, argv, margin, capsys):
        # an infinite shift takes the limit a - 2b of the threshold margin
        assert cli.main(["check-fpras"] + argv) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["holds"] is True and cert["family"] == "ThresholdFactor"
        assert cert["margin"] == pytest.approx(margin, rel=1e-12)

    def test_check_fpras_unit_classicality_is_a_condition_failure(self, capsys):
        # the vacuum: s_max = 1, where the one-photon factor has no certificate
        assert cli.main(["check-fpras", "--family", "hafnian", "--n", "0", "--r-max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("condition failure: ")
        assert "vanishes at unit classicality" in captured.err

    def test_check_fpras_spectrum_above_one_points_at_lambdas(self, capsys):
        assert cli.main(["check-fpras", "--family", "permanent", "--lambdas", "1,1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /lambdas: ")

    @pytest.mark.parametrize(
        "family, factor",
        [("hafnian-block-a", 0.6784926949838458), ("tor-squeezed-thermal", 0.8627272859569753)],
    )
    def test_bounds_below_unit_a_min_report_the_budget(self, family, factor, capsys):
        # a_min = 1.2 exp(-1) < 1: the sandwich is not derived there, the
        # budget is; ``factor`` is its value at the family's closed-form
        # shift, which the searched shift does not exceed
        argv = ["bounds", "--family", family, "--n", "0.1", "--r-list", "0.5"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert "bounds" not in report
        if family == "hafnian-block-a":
            emb = lo.embed_hafnian_block_a(0.1, [0.5])
        else:
            emb = lo.embed_torontonian(lo.block_a_prime(0.1, [0.5], lo.identity_interferometer(1)))
        searched = searched_budget(emb, emb.circuit.s_max - est.S_MAX_MARGIN)
        assert report["budget"]["factors"] == searched.tolist()
        assert searched[0] <= factor

    def test_bounds_degenerate_spectrum_has_no_jump(self, capsys):
        # equal eigenvalues leave every input a near-delta at s_max - 1e-9;
        # the closed-form shift gave products 1.274, 0.924 and 0.934 here
        products = []
        for lambdas in ("0.45,0.45", "0.45,0.4500001", "0.45,0.46"):
            assert cli.main(["bounds", "--family", "tor-thermal", "--lambdas", lambdas]) == 0
            products.append(json.loads(capsys.readouterr().out)["budget"]["product"])
        assert products[0] == pytest.approx(products[1], rel=1e-3)
        assert products == pytest.approx([0.6694, 0.6694, 0.6974], rel=1e-3)

    @pytest.mark.parametrize("family", ["hafnian-block-a", "tor-squeezed-thermal"])
    def test_bounds_vacuum_boundary_is_an_input_error(self, family, capsys):
        # n = r = 0: every input is the vacuum, a_min = 1 with k_minus = 0
        argv = ["bounds", "--family", family, "--n", "0", "--r-list", "0"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "degenerate boundary" in captured.err

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = cli.main(
            ["bounds", "--family", "permanent", "--lambdas", "0.3,0.5,0.7", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bounds"]["lower"] <= report["bounds"]["upper"]
        # the budget of a default estimate on diag(lambdas), in input order
        emb = lo.embed_permanent(np.diag([0.7, 0.5, 0.3]))
        factors = searched_budget(emb, emb.circuit.s_max - est.S_MAX_MARGIN)
        assert report["budget"]["factors"] == factors[::-1].tolist()
        assert report["budget"]["formula_id"] == "budget.permanent"

    def test_oracle_command(self, per_matrix, tmp_path):
        out = tmp_path / "oracle.json"
        code = cli.main(
            ["oracle", "--matrix", per_matrix, "--function", "permanent", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(5.0)

    def test_oracle_hafnian_sq_agrees_with_estimate_haf(self, tmp_path, capsys):
        # an odd-dimension hafnian vanishes by parity: |Haf|^2 is 0 through
        # both the oracle command and --oracle-check, while the hafnian
        # itself stays undefined there
        path = write_json(
            tmp_path / "r3.json",
            {"m": 3, "re": [[0.0, 0.5, 0.2], [0.5, 0.1, 0.3], [0.2, 0.3, 0.0]], "tag": "R"},
        )
        assert cli.main(["oracle", "--matrix", path, "--function", "hafnian-sq"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert cli.main(["estimate-haf", "--matrix", path, "--samples", "64", "--oracle-check"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == value == 0.0
        assert cli.main(["oracle", "--matrix", path, "--function", "hafnian"]) == 1
        assert "even dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["oracle"], ["estimate-prob", "--samples", "64"]])
    def test_overflowing_circuit_is_input_error(self, command, tmp_path, capsys):
        # (2n + 1) e^{2r} = inf would read as a null oracle value and a 0.0 estimate
        path = write_json(
            tmp_path / "big.json",
            {"modes": [{"r": 0.3, "n": 1e308}, {"r": 0.2}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]},
        )
        assert cli.main([command[0], "--circuit", path, *command[1:]]) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, tag", [("estimate-haf", "R"), ("estimate-per", "B")])
    @pytest.mark.parametrize("a", ["1.0", "0.9"])
    def test_rescale_at_most_one_is_input_error(self, command, tag, a, tmp_path, capsys):
        # a <= 1 puts the top rescaled value lam_max / (a lam_max) at or above 1
        path = write_json(tmp_path / "m.json", {"m": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "tag": tag})
        argv = [command, "--matrix", path, "--samples", "64", "--rescale-a", a]
        assert cli.main(argv) == 1
        assert "need a > 1" in capsys.readouterr().err

    def test_convergence_csv(self, circuit_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(
            [
                "convergence",
                "--circuit",
                circuit_file,
                "--samples",
                "8000",
                "--oracle-check",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,running_mean,running_radius,oracle_value"
        # one row per 4096-sample chunk
        assert len(lines) == 3
        assert [int(line.split(",")[0]) for line in lines[1:]] == [4096, 8000]

    def test_acceptance_subset(self, tmp_path, capsys):
        out = tmp_path / "acc.json"
        code = cli.main(["acceptance", "--criteria", "1,10", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(entry["passed"] for entry in report["results"])
        printed = capsys.readouterr().out
        assert "PASS C1" in printed and "PASS C10" in printed

    def test_unknown_flag_rejected(self, per_matrix):
        for argv in (["--frobnicate"], ["--chunks", "4"]):
            with pytest.raises(SystemExit):
                cli.main(["estimate-per", "--matrix", per_matrix, *argv])

    def test_missing_file_is_input_error(self):
        assert cli.main(["estimate-per", "--matrix", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            (["oracle"], "/matrix"),
            (["check-fpras", "--family", "tor-thermal"], "/lambda-min"),
            (["check-fpras", "--family", "hafnian", "--n", "1"], "/r-max"),
            (["bounds", "--family", "permanent"], "/lambdas"),
        ],
    )
    def test_missing_flags_are_schema_errors(self, argv, pointer, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"input error: {pointer}: ")


def _circuit_json(**changes):
    obj = {"modes": [{"r": 0.4}, {"r": 0.3}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]}
    obj.update(changes)
    return obj


class TestInputHardening:
    @pytest.mark.parametrize(
        "kind, payload, pointer",
        [
            ("circuit", _circuit_json(pattern=[True, 0]), "/pattern/0"),
            ("circuit", _circuit_json(eta=True), "/eta"),
            ("circuit", _circuit_json(modes=[{"r": float("nan")}, {"r": 0.3}]), "/modes/0/r"),
            ("circuit", _circuit_json(modes=[{"r": 0.4}, {"n": float("inf")}]), "/modes/1/n"),
            ("circuit", _circuit_json(modes=[{"r": False}, {"r": 0.3}]), "/modes/0/r"),
            ("circuit", _circuit_json(eta=0.5, n_th=float("-inf")), "/n_th"),
            ("circuit", _circuit_json(unitary={"haar_seed": True}), "/unitary/haar_seed"),
            ("circuit", _circuit_json(unitary={"m": 2, "re": [[True, 0], [0, 1]]}), "/unitary/re/0/0"),
            (
                "circuit",
                _circuit_json(unitary={"m": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, float("nan")]]}),
                "/unitary/im/1/1",
            ),
            ("circuit", _circuit_json(unitary={"m": True, "re": [[1.0]]}), "/unitary/m"),
            ("matrix", {"m": 2, "re": [[2.0, float("inf")], [1.0, 2.0]], "tag": "B"}, "/re/0/1"),
            ("matrix", {"m": 1, "re": [[2.0]], "im": [[False]], "tag": "B"}, "/im/0/0"),
            ("matrix", {"m": 1, "re": 2.0, "tag": "B"}, "/re"),
            ("matrix", {"m": 1, "re": [[2.0]], "tag": ["B"]}, "/tag"),
            ("matrix", [1, 2], "/"),
            ("lambdas", "nan,1", "/lambdas"),
            ("lambdas", "0.5,inf", "/lambdas"),
        ],
    )
    def test_rejected_with_pointer(self, kind, payload, pointer, tmp_path, capsys):
        if kind == "lambdas":
            argv = ["bounds", "--family", "permanent", "--lambdas", payload]
        elif kind == "circuit":
            argv = ["estimate-prob", "--circuit", write_json(tmp_path / "c.json", payload)]
        else:
            argv = ["estimate-per", "--matrix", write_json(tmp_path / "m.json", payload)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {pointer}: ")

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples(self, samples, circuit_file, per_matrix, capsys):
        for argv in (["estimate-prob", "--circuit", circuit_file], ["estimate-per", "--matrix", per_matrix]):
            assert cli.main(argv + ["--samples", samples]) == 1
            assert capsys.readouterr().err.startswith("input error: /samples: ")

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "4096"), ("--s", "1.5"), ("--gamma", "0.2")]
    )
    def test_multiplicative_rejects_additive_flags(self, flag, value, tmp_path, capsys):
        # the multiplicative estimator sets its own sample count, ordering and shift
        circ = write_json(
            tmp_path / "thermal.json",
            {"modes": [{"n": 1.5}, {"n": 1.2}], "unitary": {"haar_seed": 2}, "pattern": [1, 1]},
        )
        argv = ["estimate-prob", "--circuit", circ, "--multiplicative", flag, value]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: /{flag[2:]}: ")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads(self, threads, circuit_file, per_matrix, capsys):
        for argv in (
            ["estimate-prob", "--circuit", circuit_file],
            ["estimate-per", "--matrix", per_matrix],
            ["convergence", "--circuit", circuit_file, "--samples", "64"],
        ):
            assert cli.main(argv + ["--threads", threads]) == 1
            assert capsys.readouterr().err.startswith("input error: /threads: ")

    @pytest.mark.parametrize(
        "flag, value, pointer",
        [
            ("--seed", "-1", "/seed"),
            ("--epsilon", "2", "/epsilon"),
            ("--epsilon", "0", "/epsilon"),
            ("--delta", "1", "/delta"),
            ("--delta", "nan", "/delta"),
        ],
    )
    def test_estimator_flags_rejected_with_pointer(self, flag, value, pointer, circuit_file, per_matrix, capsys):
        for argv in (
            ["estimate-prob", "--circuit", circuit_file],
            ["estimate-prob", "--circuit", circuit_file, "--multiplicative"],
            ["estimate-per", "--matrix", per_matrix],
            ["convergence", "--circuit", circuit_file, "--samples", "64"],
        ):
            assert cli.main(argv + [flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: {pointer}: ")

    # overflow inside the sampler warns before the weight sum is checked
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_estimate_is_numerical_failure(self, tmp_path, capsys):
        circ = write_json(
            tmp_path / "c.json",
            {"modes": [{}, {"n": 1e300}], "unitary": {"haar_seed": 0}, "pattern": [1, "click"]},
        )
        assert cli.main(["estimate-prob", "--circuit", circ, "--samples", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")

    @pytest.mark.parametrize("s", ["1", "-1"])
    def test_ordering_outside_photon_factor_range(self, s, tmp_path, capsys):
        # pi W^(-s) of m >= 1 photons divides by 1 - s^2, and every
        # measured factor by s + 1
        circ = write_json(
            tmp_path / "c.json",
            {"modes": [{}, {"n": 0.5}], "unitary": {"haar_seed": 0}, "pattern": [2, 1]},
        )
        argv = ["estimate-prob", "--circuit", circ, "--s", s, "--samples", "64"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /s: ")

    @pytest.mark.parametrize("lambdas", ["1,1.5", "0.3,1.7"])
    def test_permanent_spectrum_outside_unit_interval(self, lambdas, capsys):
        argv = ["check-fpras", "--family", "permanent", "--lambdas", lambdas]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


# values a mutation puts in place of a valid one: JSON booleans, non-finite
# and negative numbers, large magnitudes, strings, null and containers
_MUTANT = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -2, 0, 1e3, 1e300, 10**400]),
    st.text(max_size=3),
    st.none(),
    st.just([]),
    st.just({}),
)


def _locations(obj):
    """(container, key) of every value inside a JSON document."""
    for key in list(obj) if isinstance(obj, dict) else range(len(obj)):
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from _locations(obj[key])


@st.composite
def circuit_documents(draw):
    """A valid circuit document with up to two mutations: a value replaced,
    a key or list entry removed (missing keys, wrong pattern lengths), or a
    list entry duplicated."""
    m = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    entry = st.one_of(st.integers(0, 2), st.sampled_from(["click", "noclick", "marginal"]))
    doc = {
        "modes": [draw(st.fixed_dictionaries({}, optional={"r": unit, "n": unit})) for _ in range(m)],
        "eta": draw(st.floats(0.05, 1.0)),
        "n_th": draw(unit),
        "pattern": [draw(entry) for _ in range(m)],
    }
    if draw(st.booleans()):
        doc["unitary"] = {"haar_seed": draw(st.integers(0, 99))}
    else:
        perm = draw(st.permutations(range(m)))
        doc["unitary"] = {"m": m, "re": [[float(perm[i] == j) for j in range(m)] for i in range(m)]}
    for _ in range(draw(st.sampled_from([1, 0, 2]))):
        container, key = draw(st.sampled_from(list(_locations(doc))))
        action = draw(st.sampled_from(["replace", "remove", "duplicate"]))
        if action == "remove":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.append(container[key])
        else:
            container[key] = draw(_MUTANT)
    return doc


@settings(derandomize=True, deadline=None, max_examples=100)
@given(doc=circuit_documents())
def test_schema_fuzz_exit_codes(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "circuit.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["estimate-prob", "--circuit", str(path), "--samples", "64"])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert err.getvalue() and "Traceback" not in err.getvalue()


def test_cli_import_is_numpy_only():
    # a fresh interpreter: importing the CLI loads no scipy module, and no
    # numpy.random module beyond those a bare ``import numpy`` loads (numpy
    # 1.26 imports numpy.random eagerly, 2.x lazily); seeding defers it
    probe = (
        "import sys, json, numpy\n"
        "before = set(sys.modules)\n"
        "import pqdkit.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    added = json.loads(out.stdout)
    assert "pqdkit.cli" in added
    assert [name for name in added if name.split(".")[0] == "scipy"] == []
    assert [name for name in added if name.startswith("numpy.random")] == []
