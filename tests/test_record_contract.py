"""The record contract of ``test_records`` covers every public record of
the package, records added later included, and ``Record``'s one
constructor refuses a field it cannot bind."""

import importlib
import pkgutil

import pytest

import modmatroid
from modmatroid.abgroups import FgAbGroup
from modmatroid.intmat import Record
from modmatroid.matroids import Violation, ZMatroid
from test_records import RECORDS


def _records():
    """Every subclass of Record defined in the package, at any depth."""
    for info in pkgutil.iter_modules(modmatroid.__path__):
        if info.name != "__main__":
            importlib.import_module(f"modmatroid.{info.name}")
    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("modmatroid."):
                found.append(sub)
                stack.append(sub)
    return found


def test_every_public_record_is_in_the_contract_table():
    public = {cls for cls in _records() if not cls.__name__.startswith("_")}
    assert {FgAbGroup, ZMatroid} <= public  # a subclass of a subclass is found too
    assert public <= {cls for cls, *_ in RECORDS}, public - {cls for cls, *_ in RECORDS}


def test_only_validating_records_write_a_constructor():
    own = {cls.__name__ for cls in _records() if "__init__" in cls.__dict__}
    assert own == {"FgAbGroup", "DMod", "Realization", "QamData", "_Table"}
    for cls in _records():
        assert set(cls._defaults) <= set(cls._fields), cls


@pytest.mark.parametrize("make, message", [
    (lambda: Violation(1, "b", "c", "L2a", 2, 1, 0), r"Violation\(\) takes 6 fields, 7 given"),
    (lambda: Violation(1, "b", "c", kind="L2a", depth=1), r"Violation\(\) has no field 'depth'"),
    (lambda: Violation(1, "b", "c", "L2a", mask=2), r"Violation\(\) got field 'mask' twice"),
    (lambda: Violation(1, "b", kind="L2a"), r"Violation\(\) missing field 'c'"),
    # every field by position, and a keyword as well
    (lambda: Violation(1, "b", "c", "L2a", 2, 1, depth=1), r"Violation\(\) has no field 'depth'"),
    (lambda: Violation(1, "b", "c", "L2a", 2, 1, index=1), r"Violation\(\) got field 'index' twice"),
], ids=["surplus", "unknown", "repeated", "missing", "unknown-after-all", "repeated-after-all"])
def test_record_constructor_refuses_what_it_cannot_bind(make, message):
    with pytest.raises(TypeError, match=message):
        make()
