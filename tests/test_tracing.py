"""The benchmark's per-layer tracer still fits the package.

``bench/spans.py`` wraps package functions by name and rebinds every
module global that holds them.  A renamed function, or a new binding
the tracer does not patch, should fail here rather than in a traced
benchmark run.  Nothing under ``bench/`` is changed.
"""

import importlib
import sys
from pathlib import Path

from vassiliev import bundled_knot_table, cli

from conftest import TREFOIL

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced(monkeypatch, capsys, argv: list[str]):
    """Run the CLI untraced, then traced on a fresh parse of the same
    input; check the outputs agree and uninstalling restores every
    binding; return the tracer, with the traced run's spans."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    modules = {
        name.partition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "vassiliev" or name.startswith("vassiliev.")
    }
    registry = modules["invariants"].INVARIANTS
    saved = dict(registry)
    bound = {}
    for mod_name, attr, _ in spans.WRAPPED:
        owner = modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        bound[owner, attr] = getattr(owner, attr)

    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert modules["cli"].main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert registry == saved
    assert all(registry[name][1] is fn for name, (_, fn) in saved.items())
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in bound.items())
    return tracer


def test_tracer_reaches_every_compute_layer_and_uninstalls(monkeypatch, capsys):
    # the untraced run keeps its arrow diagram on its own code; the traced
    # run parses an equal code anew, which still builds its own
    reached = _traced(monkeypatch, capsys, ["compute", "--code", TREFOIL]).reached()
    workloads = importlib.import_module("workloads")
    assert not set(workloads.COMPUTE_LAYERS) - reached


def test_tracer_reaches_every_weights_layer_and_uninstalls(monkeypatch, capsys):
    reached = _traced(monkeypatch, capsys, ["weights", "--degree", "3", "--invariant", "v3"]).reached()
    workloads = importlib.import_module("workloads")
    assert not set(workloads.WEIGHTS_LAYERS) - reached


def test_tracer_reaches_every_layer_on_verify(monkeypatch, capsys):
    # the bench's verify workload requires every wrapped layer
    reached = _traced(monkeypatch, capsys, ["verify", "--perturbations", "5"]).reached()
    spans = importlib.import_module("spans")
    assert reached == {layer for _, _, layer in spans.WRAPPED}


def test_traced_table_run_builds_one_crossing_table_per_knot(monkeypatch, capsys):
    tracer = _traced(monkeypatch, capsys, ["compute", "--format", "json"])
    workloads = importlib.import_module("workloads")
    assert not set(workloads.COMPUTE_LAYERS) - tracer.reached()
    # delta and epsilon once per crossing of each knot, read by both Lannes sums
    crossings = sum(len(record.code.crossings) for record in bundled_knot_table())
    assert tracer.layers["coordinates"].calls == 2 * crossings
