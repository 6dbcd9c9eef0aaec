"""Source-level guards: no private cross-module imports, no duplicated function bodies."""

import ast
from collections import defaultdict
from pathlib import Path

import besovlab

SOURCES = sorted(Path(besovlab.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _body_without_docstring(node) -> list:
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return body


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_private_names_imported_from_sibling_modules():
    offences = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("besovlab"):
                continue
            offences += [f"{path.name}: {alias.name}" for alias in node.names if _is_private(alias.name)]
    assert offences == []


def test_no_two_functions_share_a_body():
    bodies = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body_without_docstring(node)
            if len(body) >= 2:
                key = "\n".join(ast.dump(stmt) for stmt in body)
                bodies[key].append(f"{path.name}:{node.lineno} {node.name}")
    duplicates = [names for names in bodies.values() if len(names) > 1]
    assert duplicates == []
