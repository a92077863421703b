"""The package exports only what the library, the scripts or the benchmark
use: a public name that only the tests reach belongs in the tests."""

import ast
from pathlib import Path
from types import ModuleType

import modmatroid

ROOT = Path(__file__).resolve().parent.parent

# the README's example builds its table from this constant
EXEMPT = {"TRIVIAL"}


def loaded_names() -> set[str]:
    files = [path for path in sorted((ROOT / "src" / "modmatroid").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_exports_are_not_modules():
    modules = [name for name in modmatroid.__all__
               if isinstance(getattr(modmatroid, name), ModuleType)]
    assert not modules, modules


def test_every_export_is_used_outside_the_tests():
    unused = sorted(set(modmatroid.__all__) - loaded_names() - EXEMPT)
    assert not unused, unused
