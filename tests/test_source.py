"""Checks on the package source itself."""

import ast
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
