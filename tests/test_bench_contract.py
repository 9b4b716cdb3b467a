"""The benchmark's span tracer still fits the library.

``perfbench/tracer.py`` swaps named module-level functions and ``Network``
methods of ``dha`` for timing wrappers.  A refactor of ``src/`` that
renames or removes one of them would break ``perfbench/run.py --trace 1``;
these tests catch that, and check that uninstalling restores every
original object.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dha  # noqa: F401  (imports every dha submodule the tracer patches)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dha_state():
    """Every name bound in a dha module or a patched class, with its object."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "dha" or name.startswith("dha."):
            for key, value in vars(mod).items():
                state[(name, key)] = value
    return state


def test_every_trace_target_exists(tracer_module):
    for _, module, attr in tracer_module.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for _, module, cls_name, attr in tracer_module.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None and callable(vars(cls).get(attr)), f"{module}.{cls_name}.{attr}"


def test_install_wraps_and_uninstall_restores(tracer_module):
    before = _dha_state()
    methods = {(module, cls, attr): vars(getattr(sys.modules[module], cls))[attr]
               for _, module, cls, attr in tracer_module.METHODS}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for _, module, attr in tracer_module.FUNCTIONS:
            assert before[(module, attr)] is not getattr(sys.modules[module], attr)
        for (module, cls, attr), original in methods.items():
            assert vars(getattr(sys.modules[module], cls))[attr] is not original
    finally:
        tracer.uninstall()
    after = _dha_state()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    for (module, cls, attr), original in methods.items():
        assert vars(getattr(sys.modules[module], cls))[attr] is original
