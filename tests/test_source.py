"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import vassiliev

SOURCE = Path(vassiliev.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a guard written as one would
    # stop running; guards raise errors instead
    files = sorted(SOURCE.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(files) >= 9 and found == []


def test_package_parses_as_its_oldest_supported_python():
    # pyproject.toml's requires-python is read with a regex, since tomllib
    # needs 3.11; ast.parse then refuses syntax newer than that floor, such
    # as except* under (3, 10)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups())
    files = sorted(SOURCE.glob("*.py"))
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
    assert len(files) >= 9


def test_no_global_statements_in_the_package():
    # state shared between calls lives on the object it belongs to, so no
    # function rebinds a module name
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # a frozen dataclass writes its methods through exec when it is
    # defined, and importing dataclasses loads inspect: start-up that every
    # process pays, so the value classes share codes._Value instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SOURCE.parent), os.environ.get("PYTHONPATH"))))}
    probe = "import sys, vassiliev.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _calls(name: str):
    """(file, innermost enclosing function, node) of every call of the bare
    name in the package."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                yield path.name, inside[-1] if inside else "", node


def test_generated_code_runs_only_through_the_pattern_kernel():
    # diagrams._kernel writes and compiles the matcher from a trie's
    # integers; no other code may turn text into code
    found = [(file, function) for name in ("exec", "eval", "compile") for file, function, _ in _calls(name)]
    assert found == [("diagrams.py", "_kernel")]


def test_no_tuple_is_built_from_a_generator():
    # tuple(<generator>) grows its result by resizing, and the tuples it
    # frees then pile up on the interpreter's free lists until a full
    # collection; tuple([...]) is built at its final size
    found = [
        f"{file}:{node.lineno}"
        for file, _, node in _calls("tuple")
        if node.args and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert found == []


def test_only_codes_and_coordinates_read_a_passage_role_or_visit():
    # the over end and the double-point convention are decided by pairs();
    # coordinates.delta stays because the benchmark's tracer wraps it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in ("codes.py", "coordinates.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("role", "visit")
    ]
    assert found == []
