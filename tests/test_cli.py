import io
import json
import sys

import pytest

from vassiliev.cli import main

from conftest import TREFOIL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute -------------------------------------------------------------------

def test_compute_trefoil(capsys):
    code, out, _ = run(capsys, "compute", "--code", TREFOIL)
    assert code == 0
    assert "v2_lannes=1" in out and "v3_thm=1" in out and "consistent=yes" in out


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


def test_patterns_dir_missing_file_refused(capsys, doubled_v2_dir):
    code, out, err = run(capsys, "compute", "--method", "lannes", "--patterns-dir", "/nonexistent")
    assert code == 2 and out == ""
    assert "v2.pat" in err
    (doubled_v2_dir / "v3_theorem.pat").unlink()
    code, out, err = run(capsys, "compute", "--patterns-dir", str(doubled_v2_dir))
    assert code == 2 and out == ""
    assert "v3_theorem.pat" in err


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
    from vassiliev import cli

    monkeypatch.setattr(cli, "w3", lambda d: 1 if cli.chord_word(d) == "1 2 3 1 2 3" else 0)
    code, out, _ = run(capsys, "verify", "--suite", "4t")
    assert code == 1
    assert out.startswith("FAIL 4t: 4T: ")


def test_verify_bad_suite_name(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


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


def test_weights_below_invariant_degree_refused(capsys):
    # below its degree an invariant's alternating sum depends on the
    # realization, so there is no weight to print
    for degree, name, want in (("1", "v2", 2), ("2", "v3", 3)):
        code, out, err = run(capsys, "weights", "--degree", degree, "--invariant", name)
        assert code == 2 and out == ""
        assert f"{name} has degree {want}" in err


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


def test_expansion_malformed_file(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{")
    code, _, err = run(capsys, "expansion", "check", "--file", str(doc))
    assert code == 2


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
