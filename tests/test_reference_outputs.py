"""Pinned CLI reports: every subcommand, on fixed inputs and seeds.

``reference_outputs.json`` holds the input files, the argument lists that
read them, and each invocation's exit code and report.  The test reruns
every invocation in-process through ``cli.main`` and compares keys,
strings and integers exactly and floats at 1e-12 relative.  A change that
alters an output rewrites the file with

    PYTHONPATH=src python tests/test_reference_outputs.py

and commits it, so the file's diff shows what changed.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from pqdkit import cli

REFERENCE_PATH = Path(__file__).with_name("reference_outputs.json")
REFERENCE = json.loads(REFERENCE_PATH.read_text())


def write_inputs(directory) -> dict:
    """Each input file of the reference written to ``directory``: its
    name -> its path."""
    paths = {}
    for name, doc in REFERENCE["inputs"].items():
        path = Path(directory) / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run(argv, paths) -> tuple:
    """The exit code and report of ``cli.main(argv)``, with input names
    replaced by their paths; a convergence trace becomes its header and
    rows of numbers, and an invocation that writes nothing has no report."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([paths.get(arg, arg) for arg in argv])
    text = out.getvalue()
    if not text:
        return code, None
    if argv[0] == "convergence":
        header, *rows = text.splitlines()
        return code, [header.split(","), *(json.loads(f"[{row}]") for row in rows)]
    return code, json.loads(text)


def mismatches(expected, got, pointer="") -> list:
    """The JSON pointers at which ``got`` differs from ``expected``: keys,
    lengths, strings, integers, booleans and nulls must be equal, floats
    equal to 1e-12 relative."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{pointer or '/'}: keys {sorted(expected)} != {sorted(got)}"]
        return [m for key in expected for m in mismatches(expected[key], got[key], f"{pointer}/{key}")]
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        return [m for k, (e, g) in enumerate(zip(expected, got)) for m in mismatches(e, g, f"{pointer}/{k}")]
    if type(expected) is type(got) and (
        expected == got or type(got) is float and math.isclose(expected, got, rel_tol=1e-12, abs_tol=0.0)
    ):
        return []
    return [f"{pointer or '/'}: expected {expected!r}, got {got!r}"]


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", list(REFERENCE["invocations"]))
def test_report_matches_reference(name, input_paths):
    entry = REFERENCE["invocations"][name]
    code, report = run(entry["argv"], input_paths)
    expected = {"exit": entry["exit"], "report": entry["report"]}
    assert mismatches(expected, {"exit": code, "report": report}) == []


def test_every_subcommand_is_pinned():
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {entry["argv"][0] for entry in REFERENCE["invocations"].values()} == set(commands.choices)


def rewrite() -> None:
    """Rerun every invocation and write its exit code and report back."""
    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(directory)
        for entry in REFERENCE["invocations"].values():
            entry["exit"], entry["report"] = run(entry["argv"], paths)
    REFERENCE_PATH.write_text(json.dumps(REFERENCE, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
