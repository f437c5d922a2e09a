"""Checks on the package source itself."""
import ast
from pathlib import Path

import graphasym


def test_the_package_has_no_assert_statements():
    # `python -O` strips a bare assert, so a check the code depends on raises a
    # GraphAsymError subclass instead
    package = Path(graphasym.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
