"""The benchmark's per-layer tracer still fits the package.

``bench/spans.py`` wraps package functions by name and rebinds every
module global that holds them.  A renamed function, or a new binding
the tracer does not patch, should fail here rather than in a traced
benchmark run.  Nothing under ``bench/`` is changed.
"""

import importlib
import sys
from pathlib import Path

from vassiliev import cli

from conftest import TREFOIL

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_reaches_every_compute_layer_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
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

    assert cli.main(["compute", "--code", TREFOIL]) == 0
    plain = capsys.readouterr().out
    # the pattern routes keep the last code's arrow diagram; drop it so
    # the traced run builds one
    monkeypatch.setattr(modules["invariants"], "_last", (None, None))
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert modules["cli"].main(["compute", "--code", TREFOIL]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    missing = set(workloads.COMPUTE_LAYERS) - tracer.reached()
    assert not missing
    assert registry == saved
    assert all(registry[name][1] is fn for name, (_, fn) in saved.items())
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in bound.items())
