"""Command-line interface: schemas, reports, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqdkit import cli
from pqdkit import estimator as est
from pqdkit import linear_optics as lo
from pqdkit.errors import SchemaError
from pqdkit.phase_space import CLICK

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
        assert int(samples) % est.CHUNK == 5
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

        def spy(circuit, config, method="folded"):
            seen.append(config.threads)
            return run(circuit, config, method)

        monkeypatch.setattr(est, "estimate_probability", spy)
        tor = write_json(tmp_path / "bp.json", {"m": 1, "re": [[0.4, 0.0], [0.0, 0.4]], "tag": "B'"})
        haf = write_json(tmp_path / "r.json", {"m": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "tag": "R"})
        for command, path in (("estimate-per", per_matrix), ("estimate-haf", haf), ("estimate-tor", tor)):
            assert cli.main([command, "--matrix", path, "--threads", "3", "--samples", "64"]) == 0
        assert seen == [3, 3, 3]

    def test_wrong_tag_is_input_error(self, per_matrix, capsys):
        assert cli.main(["estimate-haf", "--matrix", per_matrix]) == 1
        assert capsys.readouterr().err == "input error: /tag: estimate-haf needs tag 'R'\n"

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
        assert report["holds"] is True and "seed" not in report  # nothing is random here
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
            emb = lo.embed_squeezed_thermal(
                0.1, [0.5], lo.identity_interferometer(1), CLICK, "torontonian.squeezed_thermal"
            )
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
    @pytest.mark.parametrize("n", ["0", "0.5"])
    def test_bounds_at_the_degenerate_boundary_report_the_budget(self, family, n, capsys):
        # a_min = (2n + 1) e^{-2 r_max} = 1 with k_minus = 0 at r_max (n = 0:
        # the vacuum): the sandwich diverges there, the budget does not
        r_max = 0.5 * math.log(2.0 * float(n) + 1.0)
        r_list = [r_max, 0.2 * r_max]
        argv = ["bounds", "--family", family, "--n", n, "--r-list", ",".join(map(repr, r_list))]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert "bounds" not in report
        if family == "hafnian-block-a":
            emb = lo.embed_hafnian_block_a(float(n), r_list)
        else:
            emb = lo.embed_squeezed_thermal(
                float(n), r_list, lo.identity_interferometer(2), CLICK, "torontonian.squeezed_thermal"
            )
        assert emb.circuit.s_max == 1.0
        assert report["budget"]["factors"] == searched_budget(emb, 1.0 - est.S_MAX_MARGIN).tolist()

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = cli.main(
            ["bounds", "--family", "permanent", "--lambdas", "0.3,0.5,0.7", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "seed" not in report  # nothing is random here
        assert report["bounds"]["lower"] <= report["bounds"]["upper"]
        # the budget of a default estimate on diag(lambdas), in input order
        emb = lo.embed_permanent(np.diag([0.7, 0.5, 0.3]))
        factors = searched_budget(emb, emb.circuit.s_max - est.S_MAX_MARGIN)
        assert report["budget"]["factors"] == factors[::-1].tolist()
        assert report["budget"]["formula_id"] == "budget.permanent"

    def test_bounds_tor_squeezed_thermal_in_input_order(self, capsys):
        # (n, r) embed as given, with no round trip through A': the factors
        # come back in the order of --r-list, as a permutation of the
        # factors of the sorted list
        factors = {}
        for r_list in ("0.1,0.3,0.2", "0.3,0.2,0.1"):
            argv = ["bounds", "--family", "tor-squeezed-thermal", "--n", "1.2", "--r-list", r_list]
            assert cli.main(argv) == 0
            factors[r_list] = json.loads(capsys.readouterr().out)["budget"]["factors"]
        got, by_r = factors["0.1,0.3,0.2"], factors["0.3,0.2,0.1"]
        assert got == pytest.approx([by_r[2], by_r[0], by_r[1]], rel=1e-12)
        assert got[0] < got[2] < got[1]

    def test_bounds_hafnian_sq(self, capsys):
        # the budget of a default |Haf|^2 estimate on diag(lambdas), in input order
        assert cli.main(["bounds", "--family", "hafnian-sq", "--lambdas", "0.3,0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "bounds" not in report  # no sandwich is known for |Haf|^2
        assert report["budget"]["formula_id"] == "budget.hafnian_sq"
        emb = lo.embed_hafnian(np.diag([0.5, 0.3]))
        assert report["budget"]["factors"] == searched_budget(emb, emb.circuit.s_max - est.S_MAX_MARGIN)[::-1].tolist()
        assert report["budget"]["product"] == pytest.approx(math.prod(report["budget"]["factors"]), rel=1e-12)

    def test_oracle_torontonian_and_click_circuit(self, tmp_path, capsys):
        path = write_json(tmp_path / "bp.json", TestInputHardening.B_PRIME)
        assert cli.main(["oracle", "--matrix", path, "--function", "torontonian"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.3437862950058097
        circuit = dict(TestInputHardening.MIXED, eta=0.7, pattern=["click", "noclick", "marginal"])
        assert cli.main(["oracle", "--circuit", write_json(tmp_path / "c.json", circuit)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.16465117996770728

    def test_oracle_command(self, per_matrix, tmp_path):
        out = tmp_path / "oracle.json"
        code = cli.main(
            ["oracle", "--matrix", per_matrix, "--function", "permanent", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(5.0) and "seed" not in report  # nothing is random here

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
        assert capsys.readouterr().err == "input error: /m: hafnian needs even dimension, got 3\n"

    def test_oracle_photon_pattern_with_noclick(self, tmp_path, capsys):
        # a no-click is the zero-photon outcome: exact_probability(c, [1, 0, "marginal"])
        path = write_json(
            tmp_path / "c.json",
            {
                "modes": [{"r": 0.3}, {"n": 0.5}, {"r": 0.2}],
                "eta": 0.7,
                "unitary": {"haar_seed": 1},
                "pattern": [1, "noclick", "marginal"],
            },
        )
        assert cli.main(["oracle", "--circuit", path]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.1344469839131297
        assert cli.main(["estimate-prob", "--circuit", path, "--samples", "64", "--oracle-check"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == 0.1344469839131297

    @pytest.mark.parametrize("command", [["oracle"], ["estimate-prob", "--samples", "64"]])
    def test_overflowing_circuit_is_input_error(self, command, tmp_path, capsys):
        # (2n + 1) e^{2r} = inf would read as a null oracle value and a 0.0 estimate
        path = write_json(
            tmp_path / "big.json",
            {"modes": [{"r": 0.3, "n": 1e308}, {"r": 0.2}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]},
        )
        assert cli.main([command[0], "--circuit", path, *command[1:]]) == 1
        assert capsys.readouterr().err.startswith("input error: /modes: input covariance is not finite")

    @pytest.mark.parametrize("command, tag", [("estimate-haf", "R"), ("estimate-per", "B")])
    @pytest.mark.parametrize("a", ["1.0", "0.9"])
    def test_rescale_at_most_one_is_input_error(self, command, tag, a, tmp_path, capsys):
        # a <= 1 would put the top rescaled value lam_max / (a lam_max) at or above 1
        path = write_json(tmp_path / "m.json", {"m": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "tag": tag})
        argv = [command, "--matrix", path, "--samples", "64", "--rescale-a", a]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"input error: /rescale-a: must be greater than 1, got {a}\n"

    def test_convergence_csv(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["convergence", "--circuit", circuit_file, "--samples", "8000", "--oracle-check"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,running_mean,running_radius,oracle_value"
        # one row per 4096-sample chunk
        assert len(lines) == 3
        assert [int(line.split(",")[0]) for line in lines[1:]] == [4096, 8000]
        # without --output the same CSV goes to stdout, byte for byte
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_unknown_flag_rejected(self, per_matrix, circuit_file, capsys):
        # --direction is gone (the sign of --gamma is the direction), and so
        # is --seed where nothing is random
        runs = [
            (["estimate-per", "--matrix", per_matrix], ["--frobnicate"]),
            (["estimate-per", "--matrix", per_matrix], ["--chunks", "4"]),
            (["estimate-prob", "--circuit", circuit_file], ["--direction", "reverse"]),
            (["estimate-prob", "--circuit", circuit_file, "--gamma", "0.3"], ["--direction", "reverse"]),
            (["oracle", "--circuit", circuit_file], ["--seed", "1"]),
            (["check-fpras", "--family", "permanent", "--lambdas", "0.3"], ["--seed", "1"]),
            (["bounds", "--family", "permanent", "--lambdas", "0.3"], ["--seed", "1"]),
        ]
        for command, argv in runs:
            assert cli.main([*command, *argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: /{argv[0][2:]}: unrecognized arguments: {' '.join(argv)}\n"

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            (["estimate-prob"], "/circuit"),
            (["bounds"], "/family"),
            (["estimate-prob", "--circuit"], "/circuit"),
            (["frobnicate"], "/command"),
            ([], "/command"),
            # a stray value names no field: the root, not /extra
            (["estimate-prob", "--circuit", "c.json", "extra"], "/"),
            (["estimate-prob", "--circuit", "c.json", "--frobnicate=1"], "/frobnicate"),
        ],
        ids=["no-circuit", "no-family", "no-path", "no-command", "nothing", "stray-value", "flag-with-value"],
    )
    def test_missing_or_unknown_argument_is_one_line_input_error(self, argv, pointer, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {pointer}: ") and captured.err.count("\n") == 1

    def test_malformed_rescale_points_at_the_flag(self, per_matrix, capsys):
        assert cli.main(["estimate-per", "--matrix", per_matrix, "--rescale-a", "x"]) == 1
        assert capsys.readouterr().err == "input error: /rescale-a: invalid float value: 'x'\n"

    def test_estimate_tor_takes_no_rescale(self, tmp_path, capsys):
        # Torontonian blocks are embedded unscaled; the flag was accepted and ignored
        path = write_json(tmp_path / "bp.json", {"m": 1, "re": [[0.4, 0.0], [0.0, 0.4]], "tag": "B'"})
        assert cli.main(["estimate-tor", "--matrix", path, "--samples", "64", "--rescale-a", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: /rescale-a: unrecognized arguments: --rescale-a 2\n"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["estimate-prob", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    def test_block_a_tag_is_rejected(self, tmp_path, capsys):
        # "A" was the hafnian block matrix; no command estimates it
        path = write_json(tmp_path / "a.json", {"m": 1, "re": [[0.0, 0.5], [0.5, 0.0]], "tag": "A"})
        assert cli.main(["oracle", "--matrix", path, "--function", "torontonian"]) == 1
        assert capsys.readouterr().err.startswith("input error: /tag: unknown tag 'A'")

    def test_r_prime_with_b_block_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "rp.json", {"m": 1, "re": [[0.1, 0.4], [0.4, 0.1]], "tag": "R'"})
        assert cli.main(["estimate-tor", "--matrix", path, "--samples", "64"]) == 1
        assert capsys.readouterr().err == "input error: /re: R' family requires a vanishing B block\n"

    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["estimate-per", "--matrix", "/nonexistent.json"]) == 1
        assert capsys.readouterr().err == "input error: /: file not found: /nonexistent.json\n"

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            (["oracle"], "/matrix"),
            (["check-fpras", "--family", "tor-thermal"], "/lambda-min"),
            (["check-fpras", "--family", "hafnian", "--n", "1"], "/r-max"),
            (["bounds", "--family", "permanent"], "/lambdas"),
            (["oracle", "--matrix", "MATRIX"], "/function"),
            ([], "/command"),
            # a family's numbers must be finite and nonnegative, each
            # refused at its own flag
            (["bounds", "--family", "hafnian-block-a", "--n", "-1", "--r-list", "0.5"], "/n"),
            (["bounds", "--family", "hafnian-sq", "--lambdas=-0.3,0.5"], "/lambdas"),
            (["check-fpras", "--family", "hafnian", "--n", "nan", "--r-max", "0.5"], "/n"),
            (["check-fpras", "--family", "gbs-noise", "--eta", "0.5", "--r-max", "-5", "--n-th", "1"], "/r-max"),
            # eta = 0 leaves r_max unused, and a negative one is still refused
            (["check-fpras", "--family", "gbs-noise", "--eta", "0", "--r-max", "-5", "--n-th", "1"], "/r-max"),
            (["check-fpras", "--family", "gbs-noise", "--eta", "0.5", "--r-max", "1", "--n-th", "-1"], "/n-th"),
        ],
    )
    def test_missing_flags_are_schema_errors(self, argv, pointer, per_matrix, capsys):
        assert cli.main([per_matrix if arg == "MATRIX" else arg for arg in argv]) == 1
        assert capsys.readouterr().err.startswith(f"input error: {pointer}: ")


# a two-mode thermal circuit whose photon factors are certified log-concave
THERMAL = {"modes": [{"n": 1.5}, {"n": 1.2}], "unitary": {"haar_seed": 2}, "pattern": [1, 1]}


def _circuit_json(**changes):
    obj = {"modes": [{"r": 0.4}, {"r": 0.3}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]}
    obj.update(changes)
    return obj


# an A' layout whose B block is not diagonal in the Takagi basis of its R block
BLOCKS_NOT_A_PRIME = [[0.5, 0, 0, 0.1], [0, 0.4, 0.1, 0], [0, 0.1, 0.5, 0], [0.1, 0, 0, 0.4]]
# a B' matrix with an eigenvalue above 1 (B' blocks are not rescaled)
B_PRIME_ABOVE_ONE = {"m": 2, "re": np.diag([1.5, 0.4, 1.5, 0.4]).tolist(), "tag": "B'"}
# eight squeezed modes, three photons each: a wide weight bound
EIGHT_SQUEEZED = _circuit_json(
    modes=[{"r": r} for r in np.linspace(0.9, 1.2, 8).tolist()], unitary={"haar_seed": 1}, pattern=[3] * 8
)


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
            ("text", '{"modes": [', "/"),
            ("circuit", _circuit_json(modes=[{"r": 10**400}, {"r": 0.3}]), "/modes/0/r"),
            ("circuit", _circuit_json(unitary={"m": 2}), "/unitary/re"),
            ("circuit", _circuit_json(unitary={"m": 2, "re": [[1, 0], [0, 1]], "im": [[0]]}), "/unitary/im"),
            ("circuit", _circuit_json(unitary={"m": 3, "re": np.eye(3).tolist()}), "/unitary"),
            ("circuit", _circuit_json(unitary={"m": 2, "re": [[1, 1], [0, 1]]}), "/unitary"),
            ("lambdas", "0.5,x", "/lambdas"),
            # matrix content, spectra and sizes, each at the field it is read from
            ("matrix", {"m": 2, "re": [[0.1, 0.5], [0.5, 0.1]], "tag": "B"}, "/re"),
            ("estimate-haf --matrix", {"m": 2, "re": [[0.5, 0.1], [0.0, 0.3]], "tag": "R"}, "/re"),
            ("matrix", {"m": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "tag": "B"}, "/re"),
            ("oracle --function hafnian --matrix", {"m": 3, "re": np.eye(3).tolist(), "tag": "R"}, "/m"),
            ("estimate-per --rescale-a 0.5 --matrix", {"m": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "tag": "B"}, "/rescale-a"),
            ("circuit", _circuit_json(modes=[{"r": 400}, {"r": 0.3}]), "/modes"),
            # the multiplicative estimator refuses an additive setting before any draw
            ("estimate-prob --multiplicative --samples 10 --circuit", _circuit_json(), "/samples"),
            ("estimate-prob --oracle-check --circuit", _circuit_json(modes=[{"r": 0.3}] * 13, pattern=[1] * 13), "/pattern"),
            ("estimate-tor --matrix", {"m": 2, "re": BLOCKS_NOT_A_PRIME, "tag": "A'"}, "/re"),
            ("estimate-tor --matrix", {"m": 1, "re": [[0.1, 0.4], [0.4, 0.1]], "tag": "R'"}, "/re"),
            ("estimate-tor --matrix", B_PRIME_ABOVE_ONE, "/re"),
            ("oracle --function torontonian --matrix", B_PRIME_ABOVE_ONE, "/re"),
            ("bounds --family tor-squeezed-thermal --n 0 --r-list", "-0.5", "/r-list"),
            ("lambdas", "0,1", "/lambdas"),
            ("check-fpras --family permanent --lambdas", "0,0.5", "/lambdas"),
            # more than MAX_SAMPLES samples: building their chunk sizes raised
            # a MemoryError (3.3e17 and 1e18 samples) or sampled for hours (5.7e10)
            ("estimate-prob --epsilon 1e-9 --delta 1e-9 --circuit", EIGHT_SQUEEZED, "/epsilon"),
            ("estimate-prob --epsilon 1e-6 --circuit", EIGHT_SQUEEZED, "/epsilon"),
            ("estimate-prob --samples 1000000000000000000 --circuit", EIGHT_SQUEEZED, "/samples"),
        ],
    )
    def test_rejected_with_pointer(self, kind, payload, pointer, tmp_path, monkeypatch, capsys):
        def no_chunks(*args, **kwargs):  # an input error is refused before any chunk is drawn
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(est, "chunk_sums", no_chunks)
        if kind == "lambdas":
            argv = ["bounds", "--family", "permanent", "--lambdas", payload]
        elif kind == "text":  # not JSON at all
            (tmp_path / "c.json").write_text(payload)
            argv = ["estimate-prob", "--circuit", str(tmp_path / "c.json")]
        elif kind == "circuit":
            argv = ["estimate-prob", "--circuit", write_json(tmp_path / "c.json", payload)]
        elif kind == "matrix":
            argv = ["estimate-per", "--matrix", write_json(tmp_path / "m.json", payload)]
        else:  # a command line ending in the flag that takes the payload
            value = payload if isinstance(payload, str) else write_json(tmp_path / "in.json", payload)
            argv = [*kind.split(), value]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {pointer}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("estimate-per", {"m": 2, "re": [[2.0, 1.0], [1.0, 2.0]], "tag": "B"}),
            ("estimate-haf", {"m": 2, "re": [[0.5, 0.1], [0.1, 0.3]], "tag": "R"}),
            ("estimate-tor", {"m": 1, "re": [[0.4, 0.0], [0.0, 0.4]], "tag": "B'"}),
        ],
    )
    def test_fixed_samples_take_an_undrawable_epsilon(self, command, payload, tmp_path, capsys):
        # the Hoeffding count of epsilon = 1e-5 (about 7.4e10) exceeds
        # MAX_SAMPLES, but a fixed sample count never draws it: the budget is
        # the run's own radius
        argv = [command, "--matrix", write_json(tmp_path / "m.json", payload), "--samples", "64", "--epsilon", "1e-5"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["budget"] == result["conf_radius"]

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

    def test_gamma_outside_window_names_its_flag(self, circuit_file, per_matrix, capsys):
        for argv in (["estimate-prob", "--circuit", circuit_file], ["estimate-per", "--matrix", per_matrix]):
            assert cli.main(argv + ["--gamma", "1.5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "input error: /gamma: must lie in (-1, 1), got 1.5\n"

    MIXED = {
        "modes": [{"r": 0.3}, {"n": 0.5}, {"r": 0.2}],
        "unitary": {"haar_seed": 1},
        "pattern": [1, "click", "marginal"],
    }
    MIXED_REFUSED = "/pattern: oracle needs an all-photon or all-threshold pattern"

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (["estimate-prob", "--circuit"], MIXED, MIXED_REFUSED),
            (["convergence", "--circuit"], MIXED, MIXED_REFUSED),
            (
                ["estimate-haf", "--matrix"],
                {"tag": "R", "m": 18, "re": (0.01 * np.eye(18)).tolist()},
                "/m: hafnian limited to 16, got 18",
            ),
        ],
        ids=["estimate-prob", "convergence", "estimate-haf"],
    )
    def test_oracle_refusal_precedes_the_estimate(self, command, payload, message, tmp_path, monkeypatch, capsys):
        # an input the oracle refuses exits 1 with its message, before any sample
        def no_estimate(*args, **kwargs):
            raise AssertionError("the estimate ran")

        monkeypatch.setattr(est, "estimate_probability", no_estimate)
        path = write_json(tmp_path / "in.json", payload)
        assert cli.main(command + [path, "--oracle-check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, pointer",
        [
            ("--seed", "-1", "/seed"),
            ("--epsilon", "2", "/epsilon"),
            ("--epsilon", "0", "/epsilon"),
            ("--delta", "1", "/delta"),
            ("--delta", "nan", "/delta"),
            # values argparse cannot read: it exited 2 with a usage block
            ("--samples", "2.5", "/samples"),
            ("--epsilon", "abc", "/epsilon"),
            ("--threads", "x", "/threads"),
            ("--gamma", "-1.5", "/gamma"),
            ("--gamma", "-1", "/gamma"),  # the open endpoint
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
            assert captured.err.startswith(f"input error: {pointer}: ") and captured.err.count("\n") == 1

    # a click factor under a reverse shift, or a forward shift with no room
    # (every input variance equal to s), leaves no bounded weight to sample
    MIXED_CLICK = {
        "modes": [{"r": 0.4}, {"r": 0.3, "n": 0.2}, {"n": 0.5}],
        "unitary": {"haar_seed": 5},
        "pattern": [1, "click", 2],
    }
    THERMAL = {"modes": [{"n": 0.3}, {"n": 0.3}], "unitary": {"haar_seed": 5}, "pattern": [1, 1]}
    B_PRIME = {"tag": "B'", "m": 2, "re": lo.block_b_prime(np.array([[0.4, 0.1], [0.1, 0.3]])).data.real.tolist()}

    @pytest.mark.parametrize(
        "command, payload, flags, message",
        [
            ("estimate-prob", MIXED_CLICK, ["--gamma", "-0.3", "--samples", "4096"], "mode 1's weighted factor unbounded"),
            ("estimate-prob", MIXED_CLICK, ["--gamma", "-0.3"], "mode 1's weighted factor unbounded"),
            ("convergence", MIXED_CLICK, ["--gamma", "-0.3", "--samples", "64"], "mode 1's weighted factor unbounded"),
            ("estimate-tor", B_PRIME, ["--gamma", "-0.2"], "mode 0's weighted factor unbounded"),
            ("estimate-prob", THERMAL, ["--s", "1.6", "--gamma", "0.5"], "forward shift needs a_max > s"),
        ],
        ids=["fixed-samples", "hoeffding-count", "convergence", "torontonian", "no-forward-room"],
    )
    def test_shift_out_of_range_points_at_gamma(self, command, payload, flags, message, tmp_path, capsys):
        # before any sample: no report with a null radius or budget
        flag = "--matrix" if command == "estimate-tor" else "--circuit"
        argv = [command, flag, write_json(tmp_path / "in.json", payload), *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /gamma: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_negative_gamma_is_a_reverse_shift(self, circuit_file, capsys):
        # argparse reads a negative number as the flag's value
        argv = ["estimate-prob", "--circuit", circuit_file, "--samples", "64", "--gamma", "-0.3"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["gamma"], result["direction"]) == (0.3, "reverse")

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

    def test_overflowing_matrix_estimate_is_numerical_failure(self, per_matrix, capsys):
        # an infinite rescale makes the prefactor inf: the value would be
        # written as null with exit 0
        argv = ["estimate-per", "--matrix", per_matrix, "--samples", "10", "--rescale-a", "inf"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")

    @pytest.mark.parametrize("m, re, a", [(2, [[0.5, 0.1], [0.1, 0.4]], "1e308"), (1, [[1e308]], None)])
    def test_overflowing_prefactor_reports_one_line(self, m, re, a, tmp_path, capsys):
        # numpy's overflow warnings used to precede the message on stderr
        path = write_json(tmp_path / "b.json", {"m": m, "re": re, "tag": "B"})
        argv = ["estimate-per", "--matrix", path, "--samples", "10"] + (["--rescale-a", a] if a else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "0.2"]], ids=["auto", "fixed"])
    @pytest.mark.parametrize("command", ["estimate-prob", "convergence"])
    def test_nan_ordering_is_input_error(self, command, gamma, circuit_file, capsys):
        # the automatic shift used to blame gamma, a fixed one a factor overflow
        argv = [command, "--circuit", circuit_file, "--s", "nan", "--samples", "64", *gamma]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /s: ")

    @pytest.mark.parametrize("s", ["5", "-inf"])
    @pytest.mark.parametrize("command", ["estimate-prob", "convergence"])
    def test_ordering_out_of_range_points_at_s(self, command, s, tmp_path, capsys):
        # s above an input variance used to lose the pointer, and -inf on an
        # all-marginal pattern was blamed on the shift
        for pattern in (["marginal", 1], ["marginal", "marginal"]):
            circ = write_json(
                tmp_path / "c.json",
                {"modes": [{"r": 0.3}, {"n": 0.5}], "unitary": {"haar_seed": 3}, "pattern": pattern},
            )
            argv = [command, "--circuit", circ, f"--s={s}", "--samples", "64"]
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error: /s: ")

    @pytest.mark.parametrize("lambdas", ["0.5,1.0", "0.5,1.5"])
    def test_tor_thermal_bounds_eigenvalue_at_least_one(self, lambdas, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bounds", "--family", "tor-thermal", "--lambdas", lambdas]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /lambdas: ") and "lambda < 1" in captured.err
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("d_top", ["1.5", "1.0"])
    def test_block_a_singular_value_at_least_one_is_input_error(self, d_top, tmp_path, capsys):
        # B = 0 with an R singular value d >= 1 is no A' matrix (d = tanh r)
        d = float(d_top)
        re = [[0, 0, d, 0], [0, 0, 0, 0.3], [d, 0, 0, 0], [0, 0.3, 0, 0]]
        path = write_json(tmp_path / "ap.json", {"m": 2, "re": re, "tag": "A'"})
        assert cli.main(["estimate-tor", "--matrix", path, "--samples", "4096"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /re: ") and "singular value" in captured.err

    @pytest.mark.parametrize("lambdas", ["1,1.5", "0.3,1.7"])
    def test_permanent_spectrum_outside_unit_interval(self, lambdas, capsys):
        argv = ["check-fpras", "--family", "permanent", "--lambdas", lambdas]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /lambdas: ")

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            ("bounds --family hafnian-sq --lambdas 0,0", "/lambdas"),
            ("check-fpras --family hafnian --n 1e308 --r-max 1", "/n"),
            ("bounds --family hafnian-block-a --n 1e308 --r-list 0.1", "/n"),
            ("bounds --family tor-squeezed-thermal --n 1 --r-list 400", "/r-list"),
            ("check-fpras --family gbs-noise --eta 0.5 --r-max 1 --n-th 1e308", "/n-th"),
            ("check-fpras --family hafnian --n 1 --r-max 400", "/r-max"),
            ("check-fpras --family gbs-noise --eta 0.5 --r-max 400 --n-th 1", "/r-max"),
            # k+- = 1/2 + n(n+1) +- (n+1/2) cosh 2r overflow
            ("bounds --family tor-squeezed-thermal --n 1e300 --r-list 0.1", "/n"),
            ("bounds --family hafnian-block-a --n 1e300 --r-list 0.1", "/n"),
        ],
    )
    def test_refused_circuit_points_at_a_flag(self, argv, pointer, capsys):
        # these commands build their circuit from flags: a refused spectrum
        # or circuit is reported at a flag they take, not at the matrix or
        # circuit field (/re, /modes) they never read, and warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not caught
        assert captured.err.startswith(f"input error: {pointer}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("family", ["tor-squeezed-thermal", "hafnian-block-a"])
    @pytest.mark.parametrize(
        "flags",
        [
            "--n 1e154 --r-list 0.1",  # 2 k+ overflows, k+ does not
            "--n 1e103 --r-list 118",  # (e^r n + sinh r)^2 overflows
            "--n 9e153 --r-list 177.56",  # e^r X (X / Y) overflows
        ],
    )
    def test_large_finite_squeezed_thermal_flags_warn_of_nothing(self, family, flags, capsys):
        # the bounds either print a report with nothing on stderr or refuse
        # at a flag
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["bounds", "--family", family, *flags.split()])
        captured = capsys.readouterr()
        assert not caught
        if code == 0:
            assert captured.err == "" and math.isfinite(json.loads(captured.out)["budget"]["product"])
        else:
            assert code == 1 and captured.err.startswith(("input error: /n: ", "input error: /r-list: "))

    @pytest.mark.parametrize(
        "argv",
        [
            "check-fpras --family tor-squeezed-thermal --n 1 --r-max 100",
            "check-fpras --family hafnian --n 1 --r-max 200",
        ],
    )
    def test_far_past_the_threshold_reports_a_failed_condition(self, argv, capsys):
        # the paper's closed forms overflow here (exp(8r), cosh(4r)); the
        # certificate of the family's circuit decides without them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["holds"] is False and report["certificate"]["holds"] is False
        assert captured.err == "" and not caught

    def test_block_a_overflowing_k_points_at_re(self, tmp_path, capsys):
        # n ~ 5e7 read off the first mode and a second mode with d' = 1e-300
        # put (n + 1/2) cosh 2r past the largest float
        d, dp = [0.5 - 2.0**-51, 0.3], [0.5, 1e-300]
        re = [[dp[0], 0, d[0], 0], [0, dp[1], 0, d[1]], [d[0], 0, dp[0], 0], [0, d[1], 0, dp[1]]]
        path = write_json(tmp_path / "ap.json", {"m": 2, "re": re, "tag": "A'"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["estimate-tor", "--matrix", path, "--samples", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not caught
        assert captured.err.startswith("input error: /re: ") and "overflows" in captured.err

    def test_noise_threshold_without_squeezed_light_ignores_r_max(self, capsys):
        # at eta = 0 the threshold is 1 whatever r_max; sinh(2 r_max) overflowed
        assert cli.main("check-fpras --family gbs-noise --eta 0 --r-max 400 --n-th 1".split()) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["noise_threshold"] == 1.0 and report["holds"] is True

    def test_multiplicative_epsilon_beyond_the_cap_points_at_epsilon(self, tmp_path, capsys, monkeypatch):
        # 50 / eps^2 = 5e9 samples exceed MAX_SAMPLES: refused before any
        # draw, as an additive Hoeffding count above it is
        monkeypatch.setattr(est, "chunk_sums", lambda *args: pytest.fail("a chunk was drawn"))
        circ = write_json(tmp_path / "thermal.json", THERMAL)
        assert cli.main(["estimate-prob", "--circuit", circ, "--multiplicative", "--epsilon", "1e-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: /epsilon: ")

    def test_multiplicative_takes_a_delta_below_the_ulp_of_one(self, tmp_path, capsys):
        # 1 - delta/2 rounds to 1 at delta = 1e-17; the z-score comes from
        # the lower tail, z = -inv_cdf(delta/2) = 8.57
        circ = write_json(tmp_path / "thermal.json", THERMAL)
        argv = ["estimate-prob", "--circuit", circ, "--multiplicative", "--epsilon", "0.2", "--delta", "1e-17"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert 0.0 < result["rel_radius"] <= 0.2 and result["ess"] >= 50.0 / 0.2**2


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


def _mutate(draw, doc):
    """Up to two mutations of a JSON document: a value replaced, a key or
    list entry removed (missing keys, wrong lengths), or a list entry
    duplicated."""
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


@st.composite
def circuit_documents(draw):
    """A valid circuit document with up to two mutations (``_mutate``)."""
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
    return _mutate(draw, doc)


# the commands that read each matrix tag
_MATRIX_READERS = {
    "R": ["estimate-haf", "oracle --function hafnian", "oracle --function hafnian-sq"],
    "B": ["estimate-per", "oracle --function permanent"],
    "R'": ["estimate-tor", "oracle --function torontonian"],
    "B'": ["estimate-tor", "oracle --function torontonian"],
    "A'": ["estimate-tor", "oracle --function torontonian"],
}


@st.composite
def matrix_documents(draw):
    """A command and a valid matrix document it reads, R, B, R', B' or A'
    of one or two modes, with up to two mutations (``_mutate``)."""
    tag = draw(st.sampled_from(list(_MATRIX_READERS)))
    m = draw(st.integers(1, 2))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    sym = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])[:m, :m]
    if tag in ("B", "B'"):  # diagonally dominant: Hermitian positive definite
        sym = 0.1 * sym + np.diag([0.5, 0.7][:m])
    if tag == "A'":
        u = lo.haar_unitary(m, draw(st.integers(0, 99)))
        r_list = draw(st.lists(st.floats(0.0, 0.5), min_size=m, max_size=m))
        data = lo.block_a_prime(draw(st.floats(0.0, 1.0)), r_list, u).data
    else:
        data = {"R": sym, "B": sym, "R'": lo.block_r_prime(0.4 * sym).data, "B'": lo.block_b_prime(sym).data}[tag]
    doc = {"m": m, "re": np.real(data).tolist(), "im": np.imag(data).tolist(), "tag": tag}
    return draw(st.sampled_from(_MATRIX_READERS[tag])), _mutate(draw, doc)


def _run_documented(argv, doc, tmp_path_factory, flag):
    """Run the CLI on ``doc``: it exits 0 with a strict JSON report, 1 with
    one input error at a JSON pointer, or 2, and never with a traceback."""
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, flag, str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert err.getvalue() and "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("input error: /")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(doc=circuit_documents())
def test_schema_fuzz_exit_codes(doc, tmp_path_factory):
    _run_documented(["estimate-prob", "--samples", "64"], doc, tmp_path_factory, "--circuit")


# --epsilon and --delta values: ordinary ones, ones whose sample count is
# too large or whose square or half underflows, the ends of (0, 1) and
# beyond, and non-finite ones; additive at 1e-4 would draw 7e8 samples
_PROBABILITIES = ["0.3", "0.05", "1e-9", "1e-17", "1e-300", "5e-324", "0", "-0.1", "1", "1.5", "nan", "inf"]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    multiplicative=st.booleans(),
    epsilon=st.sampled_from(_PROBABILITIES + ["1e-4"]),
    delta=st.sampled_from(_PROBABILITIES),
)
@example(multiplicative=True, epsilon="0.3", delta="1e-17")
@example(multiplicative=True, epsilon="1e-4", delta="0.05")
@example(multiplicative=True, epsilon="1e-300", delta="0.05")
def test_epsilon_delta_fuzz_exit_codes(multiplicative, epsilon, delta, tmp_path_factory):
    # both error kinds on a valid, certified circuit: a run succeeds or
    # exits 1 at one of the two flags, never 2 or without a pointer
    assume(multiplicative or epsilon != "1e-4")
    path = tmp_path_factory.mktemp("fuzz") / "thermal.json"
    path.write_text(json.dumps(THERMAL))
    argv = ["estimate-prob", "--circuit", str(path), "--epsilon", epsilon, "--delta", delta]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv + ["--multiplicative"] * multiplicative)
    flags = ("input error: /epsilon: ", "input error: /delta: ")
    assert (code, err.getvalue()) == (0, "") or code == 1 and err.getvalue().startswith(flags), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=matrix_documents())
def test_matrix_fuzz_exit_codes(case, tmp_path_factory):
    command, doc = case
    samples = ["--samples", "64"] if command.startswith("estimate") else []
    _run_documented([*command.split(), *samples], doc, tmp_path_factory, "--matrix")


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
