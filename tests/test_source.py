"""Checks on the package source itself."""

import ast
import re
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


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_dataclasses_are_kept_for_classes_that_validate_or_cache():
    # a frozen dataclass costs several times a NamedTuple to define at
    # import, so it is kept only where __post_init__ or a cached_property
    # needs it; a class that only holds fields is a NamedTuple
    classes = {
        node.name: node
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef)
    }

    def needs_dataclass(node: ast.ClassDef) -> bool:
        own = any(
            isinstance(item, ast.FunctionDef)
            and (item.name == "__post_init__" or "cached_property" in map(_decorator_name, item.decorator_list))
            for item in node.body
        )
        bases = (classes.get(getattr(base, "id", None)) for base in node.bases)
        return own or any(needs_dataclass(base) for base in bases if base is not None)

    dataclasses = [n for n in classes.values() if "dataclass" in map(_decorator_name, n.decorator_list)]
    assert dataclasses
    assert [n.name for n in dataclasses if not needs_dataclass(n)] == []


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
