import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vassiliev
from vassiliev.cli import main

from conftest import TREFOIL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute -------------------------------------------------------------------

TREFOIL_LINE = "name=-  v2_lannes=1  v2_pv=1  v3_lannes=1  v3_pv=1  v3_thm=1  consistent=yes\n"


def test_compute_trefoil(capsys):
    assert run(capsys, "compute", "--code", TREFOIL) == (0, TREFOIL_LINE, "")


def test_cli_under_optimize_from_another_directory(tmp_path):
    # bundled files are found from any working directory, and under -O,
    # which strips assert statements, a guard still refuses bad input
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "vassiliev.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    done = cli("compute", "--code", TREFOIL)
    assert (done.returncode, done.stdout, done.stderr) == (0, TREFOIL_LINE, "")
    done = cli("compute", "--code", "O1+ O1+")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: crossing 1 has passages O/O, needs exactly one O and one U\n"


def test_compute_help_names_every_counted_file(capsys):
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "directory holding v2.pat, v3_pv.pat and v3_theorem.pat to count instead" in help_text
    bundled = (Path(vassiliev.__file__).parent / "patterns").glob("*.pat")
    assert all(p.name in help_text for p in bundled)


def test_compute_empty_code(capsys):
    code, out, _ = run(capsys, "compute", "--code", "")
    assert code == 0
    assert "v2_pv=0" in out and "v3_pv=0" in out


def test_compute_bundled_table_json(capsys):
    code, out, _ = run(capsys, "compute", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {row["name"]: row for row in doc["rows"]}
    assert rows["3_1"]["v3_thm"] == "1"
    assert rows["4_1"]["v2_lannes"] == "-1"
    assert all(row["consistent"] == "yes" for row in rows.values())


def test_compute_single_method(capsys):
    code, out, _ = run(capsys, "compute", "--code", TREFOIL, "--method", "lannes")
    assert code == 0
    assert "v2_lannes=1" in out and "v2_pv" not in out


@pytest.mark.parametrize("method, diagrams, tables", [
    (None, 11, 11), ("lannes", 0, 11), ("pv", 11, 0), ("thm", 11, 0),
])
def test_compute_builds_only_the_parts_its_routes_read(capsys, monkeypatch, method, diagrams, tables):
    # the Lannes sums read the crossing table and the pattern counts the
    # arrow diagram, each built once per knot of the bundled table
    from vassiliev import invariants

    built = []
    for name in ("arrow_diagram_from_code", "_table"):
        build = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda code, b=build, name=name: built.append(name) or b(code))
    assert run(capsys, "compute", *(("--method", method) if method else ()))[0] == 0
    assert (built.count("arrow_diagram_from_code"), built.count("_table")) == (diagrams, tables)


def test_compute_malformed_code(capsys):
    code, out, err = run(capsys, "compute", "--code", "O1+ O1+")
    assert code == 2
    assert "error" in err and out == ""


def test_compute_rejects_both_inputs(capsys, tmp_path):
    table = tmp_path / "t.jsonl"
    table.write_text('{"name": "u", "gauss": ""}\n')
    code, _, err = run(capsys, "compute", "--code", "", "--table", str(table))
    assert code == 2


def test_compute_table_from_file(capsys, tmp_path):
    table = tmp_path / "t.jsonl"
    table.write_text('{"name": "k", "gauss": "%s"}\n' % TREFOIL)
    code, out, _ = run(capsys, "compute", "--table", str(table), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("k,1,1,1,1,1,yes")


def test_compute_missing_table(capsys):
    code, _, err = run(capsys, "compute", "--table", "/nonexistent.jsonl")
    assert code == 2


GENUS_ONE = "O1- U2- O3+ U1- O2- U3+"


def test_compute_refuses_non_planar_code(capsys):
    code, out, err = run(capsys, "compute", "--code", GENUS_ONE)
    assert code == 2
    assert out == ""
    assert "'-'" in err and "plane" in err


def test_compute_refuses_non_planar_table_line(capsys, tmp_path):
    table = tmp_path / "t.jsonl"
    table.write_text(
        '{"name": "k", "gauss": "%s"}\n{"name": "torus", "gauss": "%s"}\n'
        % (TREFOIL, GENUS_ONE)
    )
    code, out, err = run(capsys, "compute", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "'torus'" in err and "plane" in err


# -- --patterns-dir --------------------------------------------------------------

def test_patterns_dir_reaches_canonical_weights(capsys, doubled_v2_dir):
    code, out, _ = run(
        capsys, "weights", "--degree", "2", "--invariant", "v2",
        "--patterns-dir", str(doubled_v2_dir),
    )
    assert code == 0
    assert "diagram=1 2 1 2  value=2" in out


def test_compute_exits_one_when_the_methods_disagree(capsys, doubled_v2_dir):
    # doubling v2.pat doubles v2_pv, so only the unknot, where v2 is 0,
    # stays consistent; --method pv compares no two routes and exits 0
    code, out, _ = run(capsys, "compute", "--format", "csv", "--patterns-dir", str(doubled_v2_dir))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 1 and len(rows) == len(vassiliev.bundled_knot_table())
    assert [row["consistent"] for row in rows] == ["yes" if row["name"] == "unknot" else "no" for row in rows]
    code, out, _ = run(capsys, "compute", "--method", "pv", "--patterns-dir", str(doubled_v2_dir))
    assert code == 0 and "consistent" not in out


def test_patterns_dir_reaches_expansion(capsys, doubled_v2_dir):
    code, out, _ = run(
        capsys, "expansion", "check", "--degree", "2", "--format", "csv",
        "--patterns-dir", str(doubled_v2_dir),
    )
    assert code == 1
    assert "v2,3_1,-2" in out.splitlines()


def test_patterns_dir_reaches_every_verify_suite(capsys, doubled_v2_dir):
    code, out, _ = run(
        capsys, "verify", "--perturbations", "5", "--patterns-dir", str(doubled_v2_dir),
    )
    assert code == 1
    failed = {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL")}
    assert failed == {"calibration", "weights", "expansion", "invariance"}


def test_invariance_names_the_disagreeing_degree(capsys, doubled_v2_dir):
    code, out, _ = run(
        capsys, "verify", "--suite", "invariance", "--patterns-dir", str(doubled_v2_dir),
    )
    assert code == 1
    assert out == "FAIL invariance: 3_1: v2 methods disagree\n"


def test_patterns_dir_missing_file_refused(capsys, doubled_v2_dir):
    code, out, err = run(capsys, "compute", "--method", "lannes", "--patterns-dir", "/nonexistent")
    assert code == 2 and out == ""
    assert "v2.pat" in err
    (doubled_v2_dir / "v3_theorem.pat").unlink()
    code, out, err = run(capsys, "compute", "--patterns-dir", str(doubled_v2_dir))
    assert code == 2 and out == ""
    assert "v3_theorem.pat" in err


def test_patterns_dir_refuses_a_pattern_too_deep_to_compile(capsys, doubled_v2_dir):
    (doubled_v2_dir / "v2.pat").write_text("1 0 " + " ".join(f"{i}t {i}h" for i in range(1, 23)) + "\n")
    assert run(capsys, "compute", "--patterns-dir", str(doubled_v2_dir)) == (
        2, "", "error: a pattern of 22 arrows; the matcher counts at most 21\n",
    )


def test_coords_has_no_patterns_dir(capsys, doubled_v2_dir):
    with pytest.raises(SystemExit) as err:
        main(["coords", "--patterns-dir", str(doubled_v2_dir)])
    assert err.value.code == 2


# -- verify ----------------------------------------------------------------------

def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "--perturbations", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)


def test_verify_single_suites(capsys):
    for suite in ("calibration", "relations", "weights", "4t", "expansion"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, suite
        assert out.startswith("PASS")


def test_calibration_follows_the_bundled_expected_values(capsys, monkeypatch):
    # the wanted values are the bundled table's, per invariant; a column
    # whose invariant has no expected value fails instead of being skipped
    from vassiliev import cli

    for expected, want in (({"v2": 1, "v3": 2}, "2"), ({"v2": 1}, "None")):
        table = [r if r.name != "3_1" else r._replace(expected=expected) for r in vassiliev.bundled_knot_table()]
        monkeypatch.setattr(cli, "bundled_knot_table", lambda: table)
        code, out, _ = run(capsys, "verify", "--suite", "calibration")
        assert (code, out) == (1, f"FAIL calibration: v3_lannes on 3_1 gave 1, want {want}\n")


def test_weights_suite_fails_an_invariant_without_reference(capsys, monkeypatch):
    monkeypatch.setitem(vassiliev.INVARIANTS, "v4", (4, lambda code: 0))
    code, out, _ = run(capsys, "verify", "--suite", "weights")
    assert (code, out) == (1, "FAIL weights: v4 has no reference weight system at degree 4\n")


def test_verify_realizes_each_weights_diagram_once(capsys, monkeypatch):
    # the weights suite realizes each degree-2 and degree-3 diagram once
    # for all invariants; the realization suite then walks degrees 0 to 3
    from vassiliev import cli, weights

    realized = []

    def counted(d, realize=weights.realize_chord_diagram):
        realized.append(d)
        return realize(d)

    monkeypatch.setattr(weights, "realize_chord_diagram", counted)
    monkeypatch.setattr(cli, "realize_chord_diagram", counted)
    assert run(capsys, "verify", "--suite", "weights") == (0, "PASS weights: 33 diagrams\n", "")
    assert len(realized) == len(set(realized)) == 3 + 15
    realized.clear()
    code, out, _ = run(capsys, "verify", "--perturbations", "0")
    assert code == 0 and "PASS realization: 20 diagrams through degree 3" in out
    assert len(realized) == 18 + 20


def test_verify_shares_each_resolved_code_between_invariants(capsys, monkeypatch):
    # v2 and v3 share each resolved code's arrow diagram: 3 * 4 codes at
    # degree 2, 15 * 8 at degree 3
    from vassiliev import invariants

    built = []
    build = invariants.arrow_diagram_from_code
    monkeypatch.setattr(invariants, "arrow_diagram_from_code", lambda code: built.append(code) or build(code))
    assert run(capsys, "verify", "--suite", "weights") == (0, "PASS weights: 33 diagrams\n", "")
    assert len(built) == 3 * 4 + 15 * 8 == 132
    built.clear()
    code, out, _ = run(capsys, "verify", "--perturbations", "0")
    # a full run builds one per code object: the expansion suite's two checks
    # and one solve read one corpus list, so its 11 knots build 11, not 33
    assert code == 0 and len(built) == len({id(code) for code in built}) == 250


def test_verify_builds_the_reference_table_once(capsys, monkeypatch):
    # relations, weights and 4t all read the one table cmd_verify builds
    from vassiliev import cli, weights

    tables, evaluated = [], []
    build, w3 = cli.weight_systems, weights.w3
    monkeypatch.setattr(cli, "weight_systems", lambda: tables.append(1) or build())
    monkeypatch.setattr(weights, "w3", lambda d: evaluated.append(d) or w3(d))
    code, out, _ = run(capsys, "verify", "--perturbations", "0")
    assert code == 0 and len(tables) == 1 and len(evaluated) == 15


def test_verify_checks_each_reference_once(capsys, monkeypatch):
    # the 4t suite reuses the relations suite's check of its reference,
    # and alone still makes it
    from vassiliev import cli

    checked = []
    check = cli.check_relations
    monkeypatch.setattr(cli, "check_relations", lambda ws: checked.append(ws.name) or check(ws))
    code, out, _ = run(capsys, "verify", "--perturbations", "0")
    assert code == 0 and checked == ["w2", "w3", "const1"]
    checked.clear()
    assert run(capsys, "verify", "--suite", "4t") == (0, "PASS 4t: 30 quadruples at degree 3\n", "")
    assert checked == ["w3"]


def test_verify_reads_every_reference_from_the_table(capsys, monkeypatch):
    # a degree-4 reference added to the table, with a registry entry, is
    # checked by the relations suite and opens the 4t suite at degree 4
    from vassiliev import cli
    from _oracles import conway_symbol

    build = cli.weight_systems
    conway = vassiliev.weight_system_from_function(lambda d: conway_symbol(d.chords), 4, "conway")
    monkeypatch.setattr(cli, "weight_systems", lambda: {**build(), "c4": conway})
    monkeypatch.setitem(vassiliev.INVARIANTS, "c4", (4, lambda code: 0))
    line = "PASS relations: w2, w3, conway pass; constant-1 control fails as it should\n"
    assert run(capsys, "verify", "--suite", "relations") == (0, line, "")
    assert run(capsys, "verify", "--suite", "4t", "--degree", "4") == (0, "PASS 4t: 315 quadruples at degree 4\n", "")
    assert run(capsys, "verify", "--suite", "4t", "--degree", "5") == (2, "", "error: the 4t suite needs --degree 2 or 3 or 4\n")


@pytest.mark.parametrize("broken_first", [False, True])
def test_verify_4t_checks_every_reference_of_its_degree(capsys, monkeypatch, broken_first):
    # a reference that violates 4T fails the suite whichever key comes first
    from vassiliev import cli
    from vassiliev.weights import chord_word
    from _oracles import conway_symbol

    build = cli.weight_systems
    conway = vassiliev.weight_system_from_function(lambda d: conway_symbol(d.chords), 4, "conway")
    broken = vassiliev.weight_system_from_function(lambda d: int(chord_word(d) == "1 2 3 4 1 2 3 4"), 4, "broken")
    assert not vassiliev.check_relations(broken).four_term_ok
    extra = {"j4": broken, "c4": conway} if broken_first else {"c4": conway, "j4": broken}
    monkeypatch.setattr(cli, "weight_systems", lambda: {**build(), **extra})
    for name in extra:
        monkeypatch.setitem(vassiliev.INVARIANTS, name, (4, lambda code: 0))
    code, out, _ = run(capsys, "verify", "--suite", "4t", "--degree", "4")
    assert code == 1 and out.startswith("FAIL 4t: 4T: ")


def test_a_reference_without_a_registry_entry_is_read_nowhere(capsys, monkeypatch):
    # verify and weights read the references of their registry's invariants
    from vassiliev import cli
    from _oracles import conway_symbol

    build = cli.weight_systems
    conway = vassiliev.weight_system_from_function(lambda d: conway_symbol(d.chords), 4, "conway")
    monkeypatch.setattr(cli, "weight_systems", lambda: {**build(), "c4": conway})
    line = "PASS relations: w2, w3 pass; constant-1 control fails as it should\n"
    assert run(capsys, "verify", "--suite", "relations") == (0, line, "")
    assert run(capsys, "verify", "--suite", "4t", "--degree", "4") == (2, "", "error: the 4t suite needs --degree 2 or 3\n")
    code, out, _ = run(capsys, "weights", "--degree", "4")
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [["--degree", "4"], ["--degree", "7", "--perturbations", "0"]])
def test_verify_refuses_a_degree_before_any_suite_runs(capsys, monkeypatch, argv):
    # calibration, relations and weights come before 4t and realization,
    # and none of them runs when a selected suite cannot take --degree
    from vassiliev import cli, weights

    calls = []
    for module, name in ((cli, "invariant_report"), (cli, "realize_chord_diagram"), (weights, "realize_chord_diagram")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name): calls.append(a) or f(*a))
    assert run(capsys, "verify", *argv) == (2, "", "error: the 4t suite needs --degree 2 or 3\n")
    assert calls == []
    code, out, err = run(capsys, "verify", "--suite", "realization", "--degree", "7")
    assert (code, out, calls) == (2, "", []) and "at most degree 6" in err
    assert run(capsys, "verify", "--suite", "realization", "--degree", "4") == (0, "PASS realization: 125 diagrams through degree 4\n", "")


def test_compute_reads_the_columns_of_its_registry(capsys, monkeypatch):
    from vassiliev import cli

    registry = {name: entry for name, entry in vassiliev.INVARIANTS.items() if name != "v3_pv"}
    monkeypatch.setattr(cli, "methods", lambda patterns_dir: registry)
    line = "name=-  v2_lannes=1  v2_pv=1  v3_lannes=1  v3_thm=1  consistent=yes\n"
    assert run(capsys, "compute", "--code", TREFOIL) == (0, line, "")
    assert run(capsys, "compute", "--code", TREFOIL, "--method", "pv") == (0, "name=-  v2_pv=1\n", "")


def test_realization_suite_reports_a_broken_trace(capsys, monkeypatch):
    from vassiliev import weights

    wrong = weights.enumerate_chord_diagrams(4)[0]  # no diagram the suite realizes
    monkeypatch.setattr(weights, "double_point_diagram", lambda code: wrong)
    code, out, err = run(capsys, "verify", "--suite", "realization")
    assert code == 2 and out == ""
    assert "double point trace mismatch" in err


def test_verify_invariance_seeded(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "invariance", "--perturbations", "10",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["passed"] is True
    assert "seed 7" in doc["suites"][0]["detail"]


def test_verify_4t_degree_bounds(capsys):
    code, _, err = run(capsys, "verify", "--suite", "4t", "--degree", "5")
    assert code == 2
    assert "degree" in err


def test_verify_4t_reports_violation(capsys, monkeypatch):
    from vassiliev import weights

    monkeypatch.setattr(weights, "w3", lambda d: 1 if weights.chord_word(d) == "1 2 3 1 2 3" else 0)
    code, out, _ = run(capsys, "verify", "--suite", "4t")
    assert code == 1
    assert out.startswith("FAIL 4t: 4T: ")


def test_invariance_fails_a_route_that_reads_the_basepoint(capsys, monkeypatch):
    def over_first(code):
        # rotating the trefoil's code by one passage starts it under
        return int(bool(code.passages) and code.passages[0].role == "O")

    monkeypatch.setitem(vassiliev.INVARIANTS, "based_over", (2, over_first))
    code, out, _ = run(capsys, "verify", "--suite", "invariance", "--perturbations", "0")
    assert (code, out) == (1, "FAIL invariance: 3_1: based_over changed at rotation 1\n")


def test_invariance_fails_a_route_that_counts_crossings_mod_2(capsys, monkeypatch):
    # unchanged by rotation; a curl adds one crossing, and perturbation 1
    # of seed 0, on the trefoil, is the first chain to add an odd number
    monkeypatch.setitem(vassiliev.INVARIANTS, "crossings_parity", (2, lambda code: len(code.passages) // 2 % 2))
    code, out, _ = run(capsys, "verify", "--suite", "invariance", "--perturbations", "10")
    assert (code, out) == (1, "FAIL invariance: 3_1: crossings_parity changed under perturbation 1\n")


def test_relations_suite_fails_a_reference_that_breaks_1t(capsys, monkeypatch):
    from vassiliev import weights

    monkeypatch.setattr(weights, "w3", lambda d: 1)
    code, out, _ = run(capsys, "verify", "--suite", "relations")
    assert (code, out) == (1, "FAIL relations: w3: 1T: 1 1 2 2 3 3 -> 1\n")


def test_weights_prints_every_violation_of_a_reference(capsys, monkeypatch):
    # a constant weight passes 4T and fails 1T on each diagram with an
    # isolated chord: all but the four whose chords form a connected graph
    from vassiliev import weights

    monkeypatch.setattr(weights, "w3", lambda d: 1)
    words = [weights.chord_word(d) for d in weights.enumerate_chord_diagrams(3)]
    connected = {"1 2 1 3 2 3", "1 2 3 1 2 3", "1 2 3 1 3 2", "1 2 3 2 1 3"}
    want = "".join(f"diagram={w}  value=1\n" for w in words) + "one_term_ok=False  four_term_ok=True\n"
    want += "".join(f"violation: 1T: {w} -> 1\n" for w in words if w not in connected)
    assert run(capsys, "weights", "--degree", "3") == (1, want, "")


def test_weights_csv_keeps_the_verdict_and_violations_off_stdout(capsys, monkeypatch):
    from vassiliev import weights

    monkeypatch.setattr(weights, "w3", lambda d: 1)
    code, out, err = run(capsys, "weights", "--degree", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 1 and rows[0] == ["diagram", "value"] and len(rows) == 16
    assert all(value == "1" for _, value in rows[1:])
    lines = err.splitlines()
    assert lines[0] == "one_term_ok=False  four_term_ok=True"
    assert len(lines) == 12 and all(line.startswith("violation: 1T: ") for line in lines[1:])


def test_relations_suite_fails_a_check_that_passes_the_constant_control(capsys, monkeypatch):
    from vassiliev import cli, weights

    monkeypatch.setattr(cli, "check_relations", lambda ws: weights.RelationReport(True, True, ()))
    code, out, _ = run(capsys, "verify", "--suite", "relations")
    assert (code, out) == (1, "FAIL relations: constant system passed the isolated-chord check\n")


def test_verify_bad_suite_name(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--suite", "invariance", "--perturbations", "-5"],
    ["--suite", "realization", "--degree", "-3"],
])
def test_verify_refuses_negative_counts(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "non-negative" in captured.err


def test_repeated_calls_leave_no_argparse_garbage(capsys):
    # the parser is built once per process; built per call, each one was a
    # reference cycle that only the garbage collector freed
    import gc

    assert main(["verify", "--suite", "calibration"]) == 0
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(5):
            assert main(["verify", "--suite", "calibration"]) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_verify_refuses_realization_past_the_enumeration_limit(capsys, monkeypatch):
    from vassiliev import cli

    monkeypatch.setattr(cli, "enumerate_chord_diagrams", lambda n: pytest.fail("enumerated"))
    code, out, err = run(capsys, "verify", "--suite", "realization", "--degree", "9")
    assert code == 2 and out == ""
    assert "at most degree 6" in err


def test_verify_fails_on_broken_table(capsys, tmp_path):
    # a wrong expected value does not matter; an inconsistent corpus for
    # expansion checking does: name 3_1 bound to the figure-eight code
    table = tmp_path / "lie.jsonl"
    table.write_text(
        '{"name": "3_1", "gauss": "O1+ U2- O4- U1+ O3+ U4- O2- U3+"}\n'
        '{"name": "4_1", "gauss": "%s"}\n'
        '{"name": "x", "gauss": ""}\n' % TREFOIL
    )
    code, out, _ = run(capsys, "verify", "--suite", "expansion", "--table", str(table))
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_expansion_wants_the_bundled_expected_values(capsys, monkeypatch):
    # the solved basis values are compared with the bundled table's
    from fractions import Fraction
    from vassiliev import cli

    build = cli.bundled_knot_table

    def patched():
        return [r._replace(expected={**r.expected, "v3": Fraction(1)}) if r.name == "4_1" else r for r in build()]

    monkeypatch.setattr(cli, "bundled_knot_table", patched)
    code, out, _ = run(capsys, "verify", "--suite", "expansion")
    assert code == 1 and out.startswith("FAIL expansion: basis solve gave ")


def test_verify_expansion_reports_the_values_solved_on_the_second_basis_knot(capsys, monkeypatch):
    # with the terms reversed 3_1 is the second basis knot
    import dataclasses
    from vassiliev import cli

    build = cli.bundled_expansion

    def reversed_terms(degree):
        expansion = build(degree)
        return dataclasses.replace(expansion, terms=expansion.terms[::-1]) if degree == 3 else expansion

    monkeypatch.setattr(cli, "bundled_expansion", reversed_terms)
    assert run(capsys, "verify", "--suite", "expansion") == (
        0, "PASS expansion: n=2 and n=3 residuals zero; solved v2=1, v3=1 on the second basis knot\n", "",
    )


def test_verify_invariance_refuses_an_empty_table(capsys, tmp_path):
    table = tmp_path / "empty.jsonl"
    table.write_text("")
    code, out, err = run(capsys, "verify", "--table", str(table), "--suite", "invariance")
    assert code == 2 and out == ""
    assert "invariance suite" in err and "Traceback" not in err


def test_verify_invariance_keys_knots_by_position(capsys, tmp_path):
    # two different knots under one name: each is compared with its own values
    table = tmp_path / "same_name.jsonl"
    table.write_text(
        '{"name": "k", "gauss": "%s"}\n'
        '{"name": "k", "gauss": "O1+ U2- O4- U1+ O3+ U4- O2- U3+"}\n' % TREFOIL
    )
    code, out, _ = run(capsys, "verify", "--table", str(table), "--suite", "invariance",
                       "--perturbations", "4")
    assert code == 0 and out.startswith("PASS invariance:")


# -- coords ----------------------------------------------------------------------

def test_coords_trefoil(capsys):
    code, out, _ = run(capsys, "coords", "--code", TREFOIL, "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "name,label,delta,epsilon",
        "-,1,1,1",
        "-,2,0,1",
        "-,3,1,1",
    ]


def test_coords_empty(capsys):
    code, out, _ = run(capsys, "coords", "--code", "", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["name,label,delta,epsilon"]


def test_coords_malformed(capsys):
    code, _, err = run(capsys, "coords", "--code", "O1?")
    assert code == 2


# -- weights ----------------------------------------------------------------------

def test_weights_table(capsys):
    code, out, _ = run(capsys, "weights", "--degree", "3")
    assert code == 0
    assert "diagram=1 2 3 1 2 3  value=2" in out
    assert "one_term_ok=True  four_term_ok=True" in out


def test_weights_derived_from_invariant(capsys):
    code, out, _ = run(capsys, "weights", "--degree", "3", "--invariant", "v2")
    assert code == 0
    assert "value=2" not in out and "value=1" not in out  # identically zero


def test_weights_below_invariant_degree_refused(capsys, monkeypatch):
    # below its degree an invariant's alternating sum depends on the
    # realization, so there is no weight to print; above degree 5 the
    # request is refused for its cost.  Either way nothing is realized.
    from vassiliev import weights

    def unreachable(d):
        raise AssertionError("realized a diagram for a refused request")

    monkeypatch.setattr(weights, "realize_chord_diagram", unreachable)
    for degree, name, want in (
        ("1", "v2", "v2 has degree 2"),
        ("2", "v3", "v3 has degree 3"),
        ("6", "v2", "needs 665,280 invariant evaluations; the limit is degree 5"),
    ):
        code, out, err = run(capsys, "weights", "--degree", degree, "--invariant", name)
        assert code == 2 and out == ""
        assert want in err


def test_weights_no_bundled_system(capsys):
    code, _, err = run(capsys, "weights", "--degree", "4")
    assert code == 2
    assert "--invariant" in err


def test_failed_guard_exits_two(capsys, monkeypatch):
    from vassiliev import weights

    monkeypatch.setattr(weights, "embedding_genus", lambda code: 1)
    code, out, err = run(capsys, "weights", "--degree", "2", "--invariant", "v2")
    assert code == 2 and out == ""
    assert "not planar" in err


def test_weights_json(capsys):
    code, out, _ = run(capsys, "weights", "--degree", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["one_term_ok"] and doc["four_term_ok"]
    assert {r["diagram"]: r["value"] for r in doc["rows"]}["1 2 1 2"] == "1"


def test_weights_json_prints_the_relation_report_whole(capsys, monkeypatch):
    # a w3 that is 1 on the diagram of three isolated chords breaks 1T
    # there and 4T on the four quadruples that hold it
    from vassiliev import weights

    monkeypatch.setattr(weights, "w3", lambda d: int(weights.chord_word(d) == "1 1 2 2 3 3"))
    words = [weights.chord_word(d) for d in weights.enumerate_chord_diagrams(3)]
    rows = ", ".join(f'{{"diagram": "{w}", "value": "{int(w == "1 1 2 2 3 3")}"}}' for w in words)
    violations = (
        '"1T: 1 1 2 2 3 3 -> 1", '
        '"4T: 1 2 2 1 3 3 | 1 2 1 2 3 3 | 1 2 1 2 3 3 | 1 1 2 2 3 3 -> -1", '
        '"4T: 1 1 2 2 3 3 | 1 2 1 2 3 3 | 1 2 1 2 3 3 | 1 2 2 1 3 3 -> 1", '
        '"4T: 1 1 2 3 3 2 | 1 1 2 3 2 3 | 1 1 2 3 2 3 | 1 1 2 2 3 3 -> -1", '
        '"4T: 1 1 2 2 3 3 | 1 1 2 3 2 3 | 1 1 2 3 2 3 | 1 1 2 3 3 2 -> 1"'
    )
    want = f'{{"four_term_ok": false, "one_term_ok": false, "rows": [{rows}], "violations": [{violations}]}}\n'
    assert run(capsys, "weights", "--degree", "3", "--format", "json") == (1, want, "")


def test_weights_refuses_a_negative_degree(capsys):
    with pytest.raises(SystemExit) as err:
        main(["weights", "--degree", "-2"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "non-negative" in captured.err


# -- expansion ---------------------------------------------------------------------

def test_expansion_check(capsys):
    code, out, _ = run(capsys, "expansion", "check", "--degree", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "probe,knot,residual"
    assert all(line.endswith(",0") for line in lines[1:])


def test_expansion_solve(capsys):
    code, out, _ = run(capsys, "expansion", "solve", "--degree", "3")
    assert code == 0
    assert "probe=v2  knot=4_1  value=-1" in out
    assert "probe=v3  knot=4_1  value=0" in out


def test_expansion_check_degree_two(capsys):
    code, out, _ = run(capsys, "expansion", "check", "--degree", "2")
    assert code == 0


def test_expansion_inconsistent_file(capsys, tmp_path):
    doc = tmp_path / "lie.json"
    doc.write_text('{"degree": 2, "terms": [{"coeff": {"v3": "1"}, "knot": "3_1"}]}')
    code, out, _ = run(capsys, "expansion", "check", "--file", str(doc))
    assert code == 1
    code, out, _ = run(capsys, "expansion", "solve", "--file", str(doc))
    assert code == 1
    assert "forces 0 =" in out


def test_expansion_refuses_a_repeated_basis_name(capsys, tmp_path):
    table = tmp_path / "twice.jsonl"
    table.write_text(
        '{"name": "unknot", "gauss": ""}\n'
        '{"name": "3_1", "gauss": "%s"}\n'
        '{"name": "3_1", "gauss": "O1+ U2- O4- U1+ O3+ U4- O2- U3+"}\n' % TREFOIL
    )
    code, out, err = run(capsys, "expansion", "check", "--degree", "2", "--table", str(table))
    assert code == 2 and out == ""
    assert "'3_1' occurs 2 times" in err


def test_expansion_refuses_a_basis_knot_named_by_two_terms(capsys, tmp_path):
    # two unknowns under one name used to collapse: solve printed v2(3_1) = 0
    doc = tmp_path / "twice.json"
    doc.write_text(
        '{"degree": 3, "terms": [{"coeff": {"v2": "1"}, "knot": "3_1"}, '
        '{"coeff": {"v3": "1"}, "knot": "3_1"}]}'
    )
    for action in ("check", "solve"):
        code, out, err = run(capsys, "expansion", action, "--file", str(doc))
        assert (code, out) == (2, "")
        assert "basis knot '3_1' is named by 2 terms" in err


def test_expansion_refuses_a_degree_with_no_probe(capsys, tmp_path):
    # no canonical invariant has degree 1: nothing would be checked
    doc = tmp_path / "linear.json"
    doc.write_text('{"degree": 1, "terms": [{"coeff": {"v2": "1"}, "knot": "3_1"}]}')
    for action in ("check", "solve"):
        code, out, err = run(capsys, "expansion", action, "--file", str(doc), "--format", "json")
        assert (code, out) == (2, "")
        assert "expansion of degree 1" in err


def test_expansion_malformed_file(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{")
    code, _, err = run(capsys, "expansion", "check", "--file", str(doc))
    assert code == 2


# -- README ------------------------------------------------------------------------

def readme_examples():
    """(command, output) for each ```sh block of README.md that starts
    with "$ vassiliev": the lines under the command are its stdout."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    return [block.split("\n", 1) for block in blocks if block.startswith("$ vassiliev ")]


def test_readme_examples_print_what_they_show(capsys):
    examples = readme_examples()
    assert examples
    for command, shown in examples:
        assert run(capsys, *shlex.split(command)[2:]) == (0, shown, ""), command


# -- determinism --------------------------------------------------------------------

def test_output_is_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--suite", "invariance",
                        "--perturbations", "25", "--seed", "3", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "compute", "--format", "csv")
        runs.append(out)
    assert runs[0] == runs[1]


def test_json_values_are_rational_strings(capsys):
    _, out, _ = run(capsys, "expansion", "solve", "--degree", "3", "--format", "json")
    doc = json.loads(out)
    for row in doc["rows"]:
        assert isinstance(row["value"], str)


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["compute", "--code", TREFOIL]) == 141
    assert capsys.readouterr().err == ""
