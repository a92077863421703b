"""Every name the library modules and scripts import is used: an unused
import is dead weight that also misleads readers about dependencies."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# imported but never called, so perfbench/spans.py can trace calls through it
EXEMPT = {("src/modmatroid/matroids.py", "cokernel")}


def test_no_unused_imports_in_library_or_scripts():
    files = [
        p for p in sorted((ROOT / "src" / "modmatroid").glob("*.py")) if p.name != "__init__.py"
    ] + sorted((ROOT / "scripts").glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded and (rel, name) not in EXEMPT:
                        found.append(f"{rel}:{node.lineno} {name}")
    assert not found, found
