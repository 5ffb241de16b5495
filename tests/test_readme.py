"""The README cannot drift from the package: its module table lists exactly
the public modules of src/pqdkit/, and its library quick-start blocks run
and keep the promises their comments make."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    """The README text under a ``## title`` heading, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def quick_start_blocks():
    return re.findall(r"```python\n(.*?)```", section("Library quick start"), re.S)


def test_module_table_lists_the_public_modules():
    listed = re.findall(r"^\| `pqdkit\.(\w+)` \|", section("What is inside"), re.M)
    public = sorted(p.stem for p in (ROOT / "src" / "pqdkit").glob("*.py") if not p.stem.startswith("_"))
    assert sorted(listed) == public
    assert len(listed) == len(set(listed))


def test_there_are_two_quick_start_blocks():
    assert len(quick_start_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["additive", "multiplicative"])
def test_quick_start_block_runs(index, capsys):
    # each block stands alone, in a fresh namespace
    scope = {}
    exec(compile(quick_start_blocks()[index], f"README.md block {index}", "exec"), scope)
    assert capsys.readouterr().out.count("\n") == 1
    if index == 0:  # |est - exact| <= budget w.p. >= 0.95, here at a fixed seed
        assert abs(scope["result"].value - scope["exact"]) <= scope["result"].budget
    else:  # within 10% w.p. >= 0.95
        exact = scope["oracles"].permanent_exact(scope["b"]).real
        assert abs(scope["emb"].prefactor * scope["mu"].value / exact - 1.0) <= 0.1
