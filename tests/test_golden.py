"""Recorded command-line runs, replayed byte for byte.

Each entry of golden/cases.json gives an argument list and its exit
code; golden/<name>.out holds the stdout it printed.  The runs cover
compute on the bundled table in every format and method, coords,
weights, expansion check and solve at degrees 2 and 3, and verify, so
a refactor that changes any printed value or line shows up here.
golden/help*.out hold the --help texts of the program and of each
subcommand at 80 columns.  golden/kernel-<file>.src hold the source the
pattern matcher writes and compiles for each bundled pattern file, so a
change to the generated code shows up here too.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from vassiliev import diagrams
from vassiliev.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
HELP = {"help": [], **{f"help-{sub}": [sub] for sub in ("compute", "verify", "coords", "weights", "expansion")}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    case = CASES[name]
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(HELP))
def test_golden_help(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    with pytest.raises(SystemExit) as done:
        main([*HELP[name], "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["v2", "v3_pv", "v3_theorem"])
def test_golden_kernel_source(name, monkeypatch):
    sources = []

    def capture(source, namespace):
        sources.append(source)
        exec(source, namespace)

    # the module's own global shadows the builtin for _kernel's one call
    monkeypatch.setattr(diagrams, "exec", capture, raising=False)
    text = (resources.files("vassiliev") / "patterns" / f"{name}.pat").read_text(encoding="utf-8")
    diagrams.parse_pattern_file(text).kernel
    assert [s.encode("utf-8") for s in sources] == [(GOLDEN / f"kernel-{name}.src").read_bytes()]
