"""Every Sphinx cross-reference in the ``dha`` sources names a real object.

A ``:func:``, ``:class:``, ``:meth:`` or ``:attr:`` reference in a
docstring or doc comment must resolve in its own module, in the ``dha``
package, or (a bare name) on a class of its module, dataclass fields
included.  Deleting an object while a reference to it stays behind fails
here.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import dha

SRC = Path(dha.__file__).parent
ROLE = re.compile(r":(?:func|class|meth|attr):`~?([\w.]+)`")


def _has(obj, name) -> bool:
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
    return hasattr(obj, name) or name in fields


def _resolves(module, target: str) -> bool:
    target = target.removeprefix("dha.")
    for root in (module, dha):
        obj = root
        for part in target.split("."):
            if not _has(obj, part):
                break
            obj = getattr(obj, part, None)
        else:
            return True
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
               if c.__module__ == module.__name__]
    return "." not in target and any(_has(c, target) for c in classes)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_cross_references_resolve(path):
    module = importlib.import_module(f"dha.{path.stem}" if path.stem != "__init__" else "dha")
    targets = ROLE.findall(path.read_text())
    assert [t for t in targets if not _resolves(module, t)] == []


def test_references_are_found():
    assert sum(len(ROLE.findall(p.read_text())) for p in SRC.glob("*.py")) >= 40
