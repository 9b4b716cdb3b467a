"""Span-recording wrappers around the public entry points of each dha module.

The traced run replaces the module-level names the library calls through
(``dha.nets.hom_basis``, ``dha.koopman.adam_step``, ``dha.systems.rollout``,
...) and the ``Network.forward``/``Network.backward`` methods with wrappers
that record one span per call: name, start, end, parent span and pass id.
Spans stay in memory; :meth:`Tracer.dump` writes them out when the run ends.
Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` restores the
original objects, so untraced passes in the same process run the plain code.

Span names are ``<module>.<function>`` after the module that defines the
function, whichever module calls it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute)
FUNCTIONS = [
    ("groups.irreps_real", "dha.groups", "irreps_real"),
    ("isotypic.isotypic_basis", "dha.isotypic", "isotypic_basis"),
    ("commutant.hom_basis", "dha.commutant", "hom_basis"),
    ("commutant.commutant_basis", "dha.commutant", "commutant_basis"),
    ("commutant.assemble", "dha.commutant", "assemble"),
    ("commutant.coordinates", "dha.commutant", "coordinates"),
    ("nets.equivariant_net", "dha.nets", "equivariant_net"),
    ("nets.dense_net", "dha.nets", "dense_net"),
    ("nets.adam_step", "dha.nets", "adam_step"),
    ("systems.generate_dataset", "dha.systems", "generate_dataset"),
    ("systems.rollout", "dha.systems", "rollout"),
    ("systems.system_noise", "dha.systems", "system_noise"),
    ("systems.save_dataset", "dha.systems", "save_dataset"),
    ("systems.load_dataset", "dha.systems", "load_dataset"),
    ("koopman.train", "dha.koopman", "train"),
    ("koopman.edmd_fit", "dha.koopman", "edmd_fit"),
    ("koopman.eedmd_fit", "dha.koopman", "eedmd_fit"),
    ("koopman.save_model", "dha.koopman", "save_model"),
    ("koopman.load_model", "dha.koopman", "load_model"),
    ("koopman.predict_batch", "dha.koopman", "predict_batch"),
    ("analysis.prediction_mse", "dha.analysis", "prediction_mse"),
    ("analysis.spectrum", "dha.analysis", "spectrum"),
]

# (span name, defining module, class, method)
METHODS = [
    ("nets.forward", "dha.nets", "Network", "forward"),
    ("nets.backward", "dha.nets", "Network", "backward"),
]


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# Probes read exact counts off a call's arguments and result.  ``key`` marks
# the call's input, for the distinct-inputs ratio; ``bytes`` and ``flops``
# are computed from array sizes, not measured.
def _probe_isotypic_basis(a, result):
    return {"key": _digest(a["rep"].matrices)}


def _probe_hom_basis(a, result):
    return {"key": _digest(a["basis_in"].q, a["basis_out"].q), "bytes": result.nbytes}


def _probe_commutant_basis(a, result):
    return {"bytes": result.basis_matrices.nbytes}


def _probe_eedmd_fit(a, result):
    m, n_snap = a["x"].shape
    n = len(result.basis)
    return {"flops": n * n * m * n_snap + n * m * m * n_snap}


def _probe_save_dataset(a, result):
    return {"bytes": sum(p.stat().st_size for p in Path(a["directory"]).iterdir())}


def _probe_save_model(a, result):
    return {"bytes": Path(a["path"]).stat().st_size}


PROBES = {
    "isotypic.isotypic_basis": _probe_isotypic_basis,
    "commutant.hom_basis": _probe_hom_basis,
    "commutant.commutant_basis": _probe_commutant_basis,
    "koopman.eedmd_fit": _probe_eedmd_fit,
    "systems.save_dataset": _probe_save_dataset,
    "koopman.save_model": _probe_save_model,
}


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, pass_id, attrs]``; ``parent`` is
    the index of the enclosing span or ``None`` for a call made by the
    benchmark itself.
    """

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                span[5] = probe(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Swap every ``dha`` module's reference to each target for a wrapper."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dha" or n.startswith("dha.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, pass_id, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "pass": pass_id}
                if attrs:
                    row["attrs"] = {k: v for k, v in attrs.items() if k != "key"}
                fh.write(json.dumps(row) + "\n")


def pass_profile(spans, pass_id) -> dict:
    """Busy time, self time, call count and probe totals per span name in one pass.

    Busy time counts only the outermost span of a name, so a name nested
    in itself is not counted twice; self time is a span's duration minus
    its direct children's.  ``covered`` is the time inside spans the
    benchmark opened directly.
    """
    ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
    child_time = defaultdict(float)
    for i in ids:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    keys = defaultdict(set)
    covered = 0.0
    for i in ids:
        name, start, end, parent, _, attrs = spans[i]
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            busy[name] += duration
        if parent is None:
            covered += duration
        for k, v in (attrs or {}).items():
            if k == "key":
                keys[name].add(v)
            else:
                sums[(name, k)] += v
    return {
        "busy": dict(busy),
        "self": dict(self_time),
        "calls": dict(calls),
        "sums": dict(sums),
        "distinct": {name: len(v) for name, v in keys.items()},
        "covered": covered,
    }


def layer_metrics(profiles, pass_seconds) -> dict:
    """Per-layer metrics: medians over traced passes of each pass's profile."""

    def med(values):
        return statistics.median(values)

    def exact(values):
        # Counts repeat exactly from pass to pass; report them as integers.
        value = statistics.median(values)
        return int(value) if float(value).is_integer() else value

    def busy(name):
        return med([p["busy"].get(name, 0.0) for p in profiles])

    def self_s(name):
        return med([p["self"].get(name, 0.0) for p in profiles])

    def calls(name):
        return exact([p["calls"].get(name, 0) for p in profiles])

    def total(name, key):
        return exact([p["sums"].get((name, key), 0) for p in profiles])

    def distinct_ratio(name):
        return med([p["distinct"].get(name, 0) / p["calls"][name] if p["calls"].get(name) else 0.0
                    for p in profiles])

    out = {}
    for name, *_ in FUNCTIONS + METHODS:
        out[f"{name}_s"] = busy(name)
        out[f"{name}_calls"] = calls(name)
    for name in ("koopman.train", "koopman.eedmd_fit", "koopman.load_model"):
        out[f"{name}_self_s"] = self_s(name)
    out["isotypic.isotypic_basis_distinct_ratio"] = distinct_ratio("isotypic.isotypic_basis")
    out["commutant.hom_basis_distinct_ratio"] = distinct_ratio("commutant.hom_basis")
    out["commutant.basis_bytes"] = (total("commutant.hom_basis", "bytes")
                                    + total("commutant.commutant_basis", "bytes"))
    out["koopman.eedmd_gram_flops"] = total("koopman.eedmd_fit", "flops")
    out["koopman.train_steps"] = calls("nets.adam_step")
    out["systems.dataset_bytes"] = total("systems.save_dataset", "bytes")
    out["koopman.model_bytes"] = total("koopman.save_model", "bytes")
    out["trace.coverage"] = med([p["covered"] / s for p, s in zip(profiles, pass_seconds)])
    return out
