"""No live layer goes untraced: perfbench/spans.py swaps pqdkit's functions
for recording wrappers by name and skips a name that no longer resolves, so
a renamed layer's metric would read 0 without a word.  This runs the same
``spans.install`` as CI's "Stale benchmark trace targets" step and pins the
names it cannot find to the layers that are gone on purpose."""

import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# targets whose code left pqdkit: the naive sampler class and its builder
# (``build_folded_sampler`` serves both proposals), the supremum helper (now
# ``RadialFactor.sup``) and the closed-form budgets (now
# ``estimator.budget_factors``)
GONE = [
    "pqdkit.estimator._build_naive_sampler",
    "pqdkit.estimator.measurement_sup",
    "pqdkit.bounds.measurement_sup",
    "pqdkit.estimator._NaiveSampler.draw",
    "pqdkit.bounds.budget_hafnian",
    "pqdkit.bounds.budget_permanent",
    "pqdkit.bounds.budget_torontonian",
]


def test_only_removed_layers_are_untraced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass needs it there
    spec.loader.exec_module(spans)
    restore, missing = spans.install(spans.Recorder())
    spans.uninstall(restore)
    assert missing == GONE
