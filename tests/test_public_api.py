"""The package exports and defines only what the library, the scripts or
the benchmark use: a public name that only the tests reach belongs in the
tests."""

import ast
from pathlib import Path
from types import ModuleType

import modmatroid
from test_bench_targets import tracer_targets

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


def public_definitions() -> list[tuple[str, str]]:
    """(module file, name) of every public top-level function or class and
    every public method in the library; a method is named Class.method."""
    found = []
    for path in sorted((ROOT / "src" / "modmatroid").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(path.name, f"{node.name}.{item.name}") for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def test_every_definition_is_used_outside_the_tests():
    # the tracer reaches its targets by name, so they count as used
    used = loaded_names() | EXEMPT | {attr for _, attr in tracer_targets()}
    definitions = public_definitions()
    assert definitions
    unused = [f"{module}:{name}" for module, name in definitions
              if name.rpartition(".")[2] not in used]
    assert not unused, unused
