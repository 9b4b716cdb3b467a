"""The train step is bitwise equal to the straightforward implementation.

``Network.forward`` and ``Network.backward`` work in place on one buffer
per layer, and ``adam_step`` updates one flat vector.  The oracle below is
the earlier version of the three functions (fresh arrays for every bias
add, activation and derivative; one update per parameter array), and every
result must match it with ``np.array_equal``.  The digest test retrains
small ``dae``, ``dae_aug`` and ``edae`` models and compares sha256 digests
of their parameters and training reports with the ones the earlier version
wrote (``tests/data/make_train_digests.py``).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dha.groups import group_from_descriptor, regular_rep_copies
from dha.isotypic import isotypic_basis
from dha.nets import Layer, Network, adam_init, adam_step, dense_net, equivariant_net

from conftest import random_orthogonal

DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# Oracle: the train step before it worked in place
# ---------------------------------------------------------------------------


def _act(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad_from_output(name, out):
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(out)


def oracle_forward(net, x):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    h = x if net.input_transform is None else x @ net.input_transform.T
    weights = [layer.weight_matrix() for layer in net.layers]
    inputs, outputs = [], []
    for layer, w in zip(net.layers, weights):
        inputs.append(h)
        z = h @ w.T + layer.bias_vector()
        h = _act(layer.activation, z)
        outputs.append(h)
    y = h if net.output_transform is None else h @ net.output_transform.T
    cache = {"weights": weights, "inputs": inputs, "outputs": outputs, "squeeze": squeeze}
    return (y[0] if squeeze else y), cache


def oracle_backward(net, cache, output_cotangent):
    g = np.asarray(output_cotangent, dtype=np.float64)
    if cache["squeeze"]:
        g = g[None, :]
    if net.output_transform is not None:
        g = g @ net.output_transform
    grads = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = g * _act_grad_from_output(layer.activation, cache["outputs"][i])
        gw, gb = gz.T @ cache["inputs"][i], gz.sum(axis=0)
        if layer.kind == "equivariant":
            gw = layer.table.coordinates(layer.q_out @ gw @ layer.q_in.T)
            gb = layer.bias_basis.T @ gb
        grads[2 * i], grads[2 * i + 1] = gw, gb
        g = gz @ cache["weights"][i]
    if net.input_transform is not None:
        g = g @ net.input_transform
    return grads, (g[0] if cache["squeeze"] else g)


def oracle_adam_init(params):
    return {"step": 0, "m": [np.zeros_like(p) for p in params],
            "v": [np.zeros_like(p) for p in params]}


def oracle_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    step = state["step"] + 1
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        new_params.append(p - lr * (m / c1) / (np.sqrt(v / c2) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, {"step": step, "m": new_m, "v": new_v}


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _dense(dims, hidden, output):
    def build(rng):
        net = dense_net(dims, rng, hidden_activation=hidden, output_activation=output)
        for layer in net.layers:
            layer.bias = rng.standard_normal(layer.bias.shape)
        return net
    return build


def _equivariant(descriptor, transforms):
    def build(rng):
        group = group_from_descriptor(descriptor)
        n = group.order
        rep_in = regular_rep_copies(group, 2 * n, "X")
        rep_out = regular_rep_copies(group, n, "Z")
        kwargs = {}
        if "in" in transforms:
            kwargs["input_transform"] = random_orthogonal(rng, rep_in.dim)
        if "out" in transforms:
            kwargs["output_transform"] = isotypic_basis(rep_out).q
        net = equivariant_net(rep_in, [2 * n, 3 * n], rep_out, rng, **kwargs)
        for layer in net.layers:
            layer.beta = rng.standard_normal(layer.beta.shape)
        return net
    return build


CASES = {
    "dense-tanh-identity": _dense([5, 7, 7, 3], "tanh", "identity"),
    "dense-width1-out": _dense([4, 6, 1], "tanh", "identity"),
    "dense-width1-hidden": _dense([3, 1, 4, 2], "tanh", "tanh"),
    "dense-all-identity": _dense([4, 5, 2], "identity", "identity"),
    "dense-tanh-out": _dense([2, 9, 9, 9, 2], "tanh", "tanh"),
}
for _d in ("C2", "C3", "C4", "C2xC2"):
    CASES[f"{_d}-plain"] = _equivariant(_d, ())
    CASES[f"{_d}-transforms"] = _equivariant(_d, ("in", "out"))


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.shape == y.shape
        assert np.array_equal(x, y)


@pytest.mark.parametrize("batch", [None, 1, 37])
@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_backward_match_oracle(case, batch):
    rng = np.random.default_rng(sum(map(ord, case)) + (batch or 0))
    net = CASES[case](rng)
    shape = (net.in_dim,) if batch is None else (batch, net.in_dim)
    x = 2.0 * rng.standard_normal(shape)
    y, cache = net.forward(x)
    y_ref, cache_ref = oracle_forward(net, x)
    assert np.array_equal(y, y_ref)
    _assert_same(cache["outputs"], cache_ref["outputs"])
    cot = rng.standard_normal(y.shape)
    kept = [o.copy() for o in cache["outputs"]], cot.copy()
    for _ in range(2):  # backward leaves the cache and the cotangent as they were
        grads, gx = net.backward(cache, cot)
        grads_ref, gx_ref = oracle_backward(net, cache_ref, cot)
        _assert_same(grads, grads_ref)
        assert np.array_equal(gx, gx_ref) and gx.shape == x.shape
        _assert_same(cache["outputs"], kept[0])
        assert np.array_equal(cot, kept[1])


@pytest.mark.parametrize("case", ["dense-tanh-identity", "dense-all-identity", "C3-transforms"])
def test_backward_strided_cotangent_matches_oracle(case):
    rng = np.random.default_rng(5)
    net = CASES[case](rng)
    x = rng.standard_normal((11, net.in_dim))
    _, cache = net.forward(x)
    _, cache_ref = oracle_forward(net, x)
    wide = rng.standard_normal((net.out_dim, 2 * 11))
    for cot in (np.asfortranarray(wide[:, :11].T), wide.T[::2]):
        grads, gx = net.backward(cache, cot)
        grads_ref, gx_ref = oracle_backward(net, cache_ref, cot)
        _assert_same(grads, grads_ref)
        assert np.array_equal(gx, gx_ref)


@pytest.mark.parametrize("case", ["dense-tanh-identity", "dense-width1-out", "C2xC2-transforms"])
def test_adam_steps_match_oracle(case):
    rng = np.random.default_rng(9)
    net = CASES[case](rng)
    x = rng.standard_normal((13, net.in_dim))
    target = rng.standard_normal((13, net.out_dim))
    params = [p.copy() for p in net.parameters()]
    params_ref = [p.copy() for p in params]
    state, state_ref = adam_init(params), oracle_adam_init(params_ref)
    for _ in range(5):
        net.set_parameters(params_ref)
        y, cache = oracle_forward(net, x)
        grads, _ = oracle_backward(net, cache, 2.0 * (y - target))
        grads[0] = grads[0] * 1e3  # moments of very different sizes
        prev, held = params, [[a.copy() for a in arrays] for arrays in (params, grads)]
        params, state = adam_step(params, grads, state, lr=1e-2)
        params_ref, state_ref = oracle_adam_step(params_ref, grads, state_ref, lr=1e-2)
        _assert_same(params, params_ref)
        assert state["step"] == state_ref["step"]
        for key in ("m", "v"):
            assert np.array_equal(state[key], np.concatenate([a.ravel() for a in state_ref[key]]))
        # The step writes none of its inputs and returns new arrays.
        _assert_same(prev, held[0])
        _assert_same(grads, held[1])
        assert not any(np.shares_memory(p, q) for p in params for q in prev)


def test_unknown_activation_rejected():
    net = Network([Layer("dense", "relu", weight=np.eye(2), bias=np.zeros(2))])
    with pytest.raises(ValueError, match="relu"):
        net.forward(np.ones(2))


def _load_digest_script():
    spec = importlib.util.spec_from_file_location("make_train_digests",
                                                  DATA / "make_train_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trained_models_match_reference_digests():
    script = _load_digest_script()
    expected = json.loads((DATA / "train_digests.json").read_text())
    got = {name: script.digest(script.train(variant, data, config))
           for name, variant, data, config in script.cases()}
    assert got == expected
