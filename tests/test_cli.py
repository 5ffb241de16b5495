"""Command-line interface: schemas, reports, determinism, exit codes."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
