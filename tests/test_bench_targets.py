"""The benchmark's tracer reaches the library through names that the library
itself may stop calling; a deleted name or cache breaks the traced runs,
so the names are checked here.  perfbench/spans.py is read, not imported."""

import ast
import importlib
from pathlib import Path

from test_no_unused_imports import EXEMPT

ROOT = Path(__file__).resolve().parent.parent


def tracer_targets() -> list[tuple[str, str]]:
    """(caller module, attribute) of every entry of ``spans.TARGETS``."""
    path = ROOT / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"modmatroid.{module}"), attr)
    ]
    assert not missing, missing


def test_counted_caches_keep_cache_info():
    # spans.cache_counts reads these four caches
    for module, attr in (("surjections", "check_square"), ("surjections", "check_m1"),
                         ("abgroups", "localize"), ("abgroups", "factorize")):
        fn = getattr(importlib.import_module(f"modmatroid.{module}"), attr)
        assert callable(getattr(fn, "cache_info", None)), f"{module}.{attr}"


def test_unused_import_exemptions_are_tracer_targets():
    targets = set(tracer_targets())
    for path, name in EXEMPT:
        assert (Path(path).stem, name) in targets, (path, name)
