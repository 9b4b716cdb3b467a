"""The benchmark's span tracer still fits the library.

``perfbench/tracer.py`` swaps named module-level functions and ``Network``
methods of ``dha`` for timing wrappers.  A refactor of ``src/`` that
renames or removes one of them would break ``perfbench/run.py --trace 1``;
these tests catch that, check that uninstalling restores every original
object, and run every probe on the arguments and result of one real call.
"""

import importlib
import importlib.util
import inspect
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


def _probe_calls(tmp_path):
    """One small call per probed trace target: span name -> positional arguments."""
    group = dha.group_from_descriptor("C2")
    rep = dha.regular_rep_copies(group, 4, "X")
    iso = dha.isotypic_basis(rep)
    system = dha.random_symmetric_stable_system(group, rep, 0.9, sigma=0.01, seed=0)
    data = dha.generate_dataset(system, n_train=3, n_test=0, horizon=5, seed=0)
    x, y = dha.snapshot_pairs(data)
    return {
        "isotypic.isotypic_basis": (rep,),
        "commutant.hom_basis": (iso, iso),
        "commutant.commutant_basis": (iso,),
        "koopman.eedmd_fit": (x, y, iso),
        "systems.save_dataset": (data, tmp_path / "data"),
        "koopman.save_model": (dha.train("edmd", data, dha.TrainConfig()), tmp_path / "model.json"),
    }


def test_every_probe_reads_a_real_call(tracer_module, tmp_path):
    calls = _probe_calls(tmp_path)
    assert calls.keys() == tracer_module.PROBES.keys()
    targets = {name: (module, attr) for name, module, attr in tracer_module.FUNCTIONS}
    for name, probe in tracer_module.PROBES.items():
        module, attr = targets[name]
        fn = getattr(importlib.import_module(module), attr)
        result = fn(*calls[name])
        # Bound as Tracer._wrap binds a traced call before handing it to the probe.
        attrs = probe(inspect.signature(fn).bind(*calls[name]).arguments, result)
        assert isinstance(attrs, dict) and attrs, name
