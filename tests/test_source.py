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
