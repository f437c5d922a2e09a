"""Checks on the package source itself."""
import ast
import re
from pathlib import Path

import graphasym

SRC = Path(graphasym.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_the_package_has_no_assert_statements():
    # `python -O` strips a bare assert, so a check the code depends on raises a
    # GraphAsymError subclass instead
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_has_no_exec_or_eval_call():
    # code generated at import costs every cold command its compile time
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("exec", "eval")
    ]
    assert found == []


def test_only_the_cli_imports_csv_or_json():
    # the layout of every printed and written table is decided in one module
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and {(a.name if isinstance(node, ast.Import) else node.module or "") for a in node.names}
        & {"csv", "json"}
    ]
    assert found == []


def test_every_public_name_has_a_reader_besides_the_tests():
    # a public module-level function or class that no other package module,
    # no script, no README line and no second line of its own module names
    # is reachable from tests alone: it belongs in tests/oracles.py or nowhere
    modules = {p.name: p.read_text() for p in sorted((ROOT / "src" / "graphasym").glob("*.py"))}
    outside = [(ROOT / "README.md").read_text()]
    outside += [p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))]
    unread = []
    for name, text in modules.items():
        readers = outside + [t for other, t in modules.items() if other not in (name, "__init__.py")]
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own_lines = sum(1 for line in text.splitlines() if word.search(line))
            if own_lines < 2 and not any(word.search(t) for t in readers):
                unread.append(f"{name}:{node.name}")
    assert unread == []
