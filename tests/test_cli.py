"""Command-line interface: schemas, reports, determinism, exit codes."""

import json

import numpy as np
import pytest

from pqdkit import cli
from pqdkit.errors import SchemaError


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

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = cli.main(
            ["bounds", "--family", "permanent", "--lambdas", "0.3,0.5,0.7", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bounds"]["lower"] <= report["bounds"]["upper"]
        assert len(report["budget"]["factors"]) == 3

    def test_oracle_command(self, per_matrix, tmp_path):
        out = tmp_path / "oracle.json"
        code = cli.main(
            ["oracle", "--matrix", per_matrix, "--function", "permanent", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(5.0)

    def test_convergence_csv(self, circuit_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(
            [
                "convergence",
                "--circuit",
                circuit_file,
                "--samples",
                "8000",
                "--chunks",
                "4",
                "--oracle-check",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,running_mean,running_radius,oracle_value"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert int(last[0]) == 8000

    def test_acceptance_subset(self, tmp_path, capsys):
        out = tmp_path / "acc.json"
        code = cli.main(["acceptance", "--criteria", "1,10", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(entry["passed"] for entry in report["results"])
        printed = capsys.readouterr().out
        assert "PASS C1" in printed and "PASS C10" in printed

    def test_unknown_flag_rejected(self, per_matrix):
        with pytest.raises(SystemExit):
            cli.main(["estimate-per", "--matrix", per_matrix, "--frobnicate"])

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
