"""Library and script invariants are explicit checks, never ``assert``s:
``python -O`` strips asserts, so an invariant written as one silently
stops being checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_library_or_scripts():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
