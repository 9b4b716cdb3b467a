import numpy as np
import pytest

from dha.groups import make_cyclic, group_from_descriptor, regular_rep_copies
from dha.isotypic import isotypic_basis
from dha.koopman import TrainConfig, train
from dha.nets import (
    InvalidStateError,
    Layer,
    Network,
    TrainingDivergenceError,
    _lent_workspace,
    adam_init,
    adam_step,
    default_hidden_width,
    dense_net,
    equivariant_net,
    net_equivariance_residual,
)
from dha.systems import generate_dataset, random_symmetric_stable_system


def finite_difference_grads(loss_of_params, params, h=1e-6):
    """Central-difference gradient oracle over a parameter list."""
    grads = []
    for pi, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            bumped = [q.copy() for q in params]
            bumped[pi].reshape(-1)[j] = flat[j] + h
            up = loss_of_params(bumped)
            bumped[pi].reshape(-1)[j] = flat[j] - h
            down = loss_of_params(bumped)
            gflat[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def flat_parameters(net):
    """One vector over ``net``'s parameters, with every layer's arrays rebound to views of it."""
    arrays = net.parameters()
    flat = np.concatenate(arrays, axis=None)
    chunks = np.split(flat, np.cumsum([a.size for a in arrays]))
    net.set_parameters([c.reshape(a.shape) for c, a in zip(chunks, arrays)])
    return flat


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_identity_layer_passthrough():
    net = Network([Layer("identity", weight=np.eye(3), bias=np.zeros(3))])
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = net.forward(x)
    assert np.array_equal(y, x)


def test_zero_weights_tanh_gives_zero():
    net = Network([Layer("tanh", weight=np.zeros((4, 3)), bias=np.zeros(4))])
    y, _ = net.forward(np.array([[3.0, 1.0, -7.0]]))
    assert np.array_equal(y, np.zeros((1, 4)))


def test_dim_mismatch_rejected():
    net = dense_net([3, 4], np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        net.forward(np.zeros((1, 5)))


def test_layers_that_do_not_chain_rejected():
    first = Layer("tanh", weight=np.zeros((3, 2)), bias=np.zeros(3))
    second = Layer("identity", weight=np.zeros((1, 2)), bias=np.zeros(1))
    with pytest.raises(ValueError, match="3 -> 2"):
        Network([first, second])


def test_cotangent_shape_mismatch_rejected():
    net = dense_net([3, 4], np.random.default_rng(0))
    _, cache = net.forward(np.zeros((2, 3)))
    for cot in (np.zeros(4), np.zeros((1, 4)), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="cotangent"):
            net.backward(cache, cot)


@pytest.mark.parametrize("builder", ["dense", "equivariant"])
def test_parameters_are_the_layer_arrays(builder):
    rng = np.random.default_rng(2)
    if builder == "dense":
        net = dense_net([4, 5, 3], rng)
    else:
        rep = regular_rep_copies(make_cyclic(3), 6)
        net = equivariant_net(rep, [6], rep, rng)
    params = net.parameters()
    assert len(params) == 2 * len(net.layers)
    for i, layer in enumerate(net.layers):
        assert params[2 * i] is layer.weight and params[2 * i + 1] is layer.bias
    fresh = [p.copy() for p in params]
    net.set_parameters(fresh)
    for i, layer in enumerate(net.layers):
        assert layer.weight is fresh[2 * i] and layer.bias is fresh[2 * i + 1]


def test_equivariant_net_forward_equivariance():
    rng = np.random.default_rng(0)
    g = group_from_descriptor("C2xC2")
    rep_in = regular_rep_copies(g, 8, "X")
    rep_lat = regular_rep_copies(g, 8, "Z")
    iso = isotypic_basis(rep_lat)
    net = equivariant_net(rep_in, [8], rep_lat, rng, output_transform=iso.q)
    assert net_equivariance_residual(net, rep_in, iso.rotated_rep(), seed=1) <= 1e-9


def test_equivariant_bias_is_group_fixed():
    rng = np.random.default_rng(1)
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    net = equivariant_net(rep, [6], rep, rng)
    for layer in net.layers:
        layer.bias = rng.standard_normal(layer.bias.shape)
        b = layer.bias_vector()
        out_dim = b.shape[0]
        out_rep = regular_rep_copies(g, out_dim)
        for gg in g.elements():
            assert np.max(np.abs(out_rep.matrices[gg] @ b - b)) <= 1e-12


def test_output_rep_without_trivial_component_has_no_bias():
    from dha.groups import irreps_real, rep_direct_sum

    rng = np.random.default_rng(4)
    g = make_cyclic(2)
    rep_in = regular_rep_copies(g, 4)
    sign = irreps_real(g)[1].as_representation()
    rep_out = rep_direct_sum([sign] * 3)
    net = equivariant_net(rep_in, [4], rep_out, rng)
    last = net.layers[-1]
    assert last.bias.shape == (0,) and last.basis.trivial_columns.shape == (3, 0)
    assert np.array_equal(last.bias_vector(), np.zeros(3))
    assert net_equivariance_residual(net, rep_in, rep_out, seed=5) <= 1e-9
    x = rng.standard_normal((5, 4))
    t = rng.standard_normal((5, 3))

    def loss_of(params):
        net.set_parameters(params)
        y, _ = net.forward(x)
        return float(np.sum((y - t) ** 2))

    params = [p.copy() for p in net.parameters()]
    net.set_parameters(params)
    y, cache = net.forward(x)
    grads, dx = net.backward(cache, 2.0 * (y - t))
    assert grads[-1].shape == (0,) and dx.shape == x.shape
    for a, b in zip(grads, finite_difference_grads(loss_of, params)):
        assert a.shape == b.shape
        if a.size:
            assert np.max(rel_err(a, b)) <= 1e-4


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def test_linear_layer_gradient_closed_form():
    # y = W x + b, loss = ||y - t||^2; hand-computed 2x2 case.
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    net = Network([Layer("identity", weight=w.copy(), bias=np.zeros(2))])
    x = np.array([[1.0, 2.0]])
    t = np.array([[0.0, 1.0]])
    y, cache = net.forward(x)
    assert np.array_equal(y, [[5.0, 11.0]])
    grads, gx = net.backward(cache, 2.0 * (y - t))
    assert np.array_equal(grads[0], [[10.0, 20.0], [20.0, 40.0]])
    assert np.array_equal(grads[1], [10.0, 20.0])
    assert np.array_equal(gx, [[70.0, 100.0]])


def test_saturated_tanh_gradient_vanishes():
    net = Network([Layer("tanh", weight=np.eye(1), bias=np.zeros(1))])
    y, cache = net.forward(np.array([[20.0]]))
    grads, gx = net.backward(cache, np.ones((1, 1)))
    assert abs(gx[0, 0]) <= 1e-8
    assert abs(grads[0][0, 0]) <= 1e-8 * 20


@pytest.mark.parametrize("builder", ["dense", "equivariant"])
def test_gradients_match_finite_differences(builder):
    rng = np.random.default_rng(12)
    g = make_cyclic(3)
    if builder == "dense":
        net = dense_net([4, 5, 3], rng)
        in_dim = 4
    else:
        rep_in = regular_rep_copies(g, 3)
        rep_out = regular_rep_copies(g, 6)
        iso = isotypic_basis(rep_out)
        net = equivariant_net(rep_in, [6], rep_out, rng, output_transform=iso.q)
        in_dim = 3
    x = rng.standard_normal((3, in_dim))
    t = rng.standard_normal((3, net.out_dim))

    def loss_of(params):
        net.set_parameters(params)
        y, _ = net.forward(x)
        return float(np.sum((y - t) ** 2))

    params = [p.copy() for p in net.parameters()]
    net.set_parameters(params)
    y, cache = net.forward(x)
    grads, _ = net.backward(cache, 2.0 * (y - t))
    fd = finite_difference_grads(loss_of, params)
    for a, b in zip(grads, fd):
        if a.size:
            assert np.max(rel_err(a, b)) <= 1e-4


def test_stale_cache_rejected():
    rng = np.random.default_rng(3)
    net = dense_net([2, 2], rng)
    _, cache = net.forward(np.zeros((1, 2)))
    net.set_parameters([p.copy() for p in net.parameters()])
    with pytest.raises(InvalidStateError):
        net.backward(cache, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------


def _workspace_net():
    rep = regular_rep_copies(make_cyclic(3), 6)
    return equivariant_net(rep, [6, 6], rep, np.random.default_rng(6),
                           output_transform=isotypic_basis(rep).q)


def test_forward_in_workspace_makes_earlier_cache_stale():
    net = _workspace_net()
    rng = np.random.default_rng(7)
    x1, x2 = rng.standard_normal((2, 5, 6))
    cot = rng.standard_normal((5, 6))
    with _lent_workspace([net]):
        y1, cache1 = net.forward(x1)
        expected = net.backward(cache1, cot)
        kept = y1.copy()
        y2, cache2 = net.forward(x2)  # same row count: writes the same buffers
        assert np.shares_memory(y1, y2) and not np.array_equal(y1, kept)
        with pytest.raises(InvalidStateError, match="later forward"):
            net.backward(cache1, cot)
        net.backward(cache2, cot)
        # The same inputs again give the same gradients through reused buffers.
        _, cache3 = net.forward(x1)
        grads, gx = net.backward(cache3, cot)
    assert all(np.array_equal(a, b) for a, b in zip(grads + [gx], expected[0] + [expected[1]]))


def test_forward_without_cache_is_not_differentiable():
    net = _workspace_net()
    with _lent_workspace([net]) as workspace:
        workspace.keep_cache = False
        y, cache = net.forward(np.ones((3, 6)))
        with pytest.raises(InvalidStateError, match="kept no activations"):
            net.backward(cache, np.ones(y.shape))


def test_forward_outside_training_returns_fresh_arrays():
    net = _workspace_net()
    x = np.random.default_rng(8).standard_normal((4, 6))
    (y1, cache1), (y2, cache2) = net.forward(x), net.forward(x)
    assert np.array_equal(y1, y2)
    for a in [y1] + cache1["outputs"]:
        for b in [y2] + cache2["outputs"]:
            assert not np.shares_memory(a, b)
    _, gx1 = net.backward(cache1, np.ones(y1.shape))
    _, gx2 = net.backward(cache2, np.ones(y2.shape))
    assert not np.shares_memory(gx1, gx2)


@pytest.mark.parametrize("variant", ["dae", "edae"])
def test_train_returns_networks_without_workspace(variant):
    group = make_cyclic(3)
    rep = regular_rep_copies(group, 6)
    system = random_symmetric_stable_system(group, rep, 0.9, sigma=0.01, seed=0)
    data = generate_dataset(system, n_train=4, n_test=0, horizon=8, seed=0)
    model = train(variant, data, TrainConfig(latent_dim=6, horizon=3, epochs=2, batch=8,
                                             hidden_layers=1, width=6))
    assert model.encoder._workspace is None and model.decoder._workspace is None


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_noop():
    params = np.array([1.0, -2.0])
    adam_step(params, np.zeros(2), adam_init(params), lr=0.1)
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_constant_gradient_approaches_signed_rate():
    params = np.array([0.0])
    grads = np.array([3.7])
    state = adam_init(params)
    for _ in range(500):
        before = params.copy()
        adam_step(params, grads, state, lr=0.01)
        step = params - before
    assert abs(step[0] + 0.01) <= 1e-6  # step -> -lr * sign(g)


def test_adam_single_step_scalar_hand_computation():
    lr, b1, b2, eps, g = 0.05, 0.9, 0.999, 1e-8, 2.5
    # Hand: m = (1-b1) g, v = (1-b2) g^2, mhat = g, vhat = g^2,
    # step = -lr * g / (|g| + eps).
    expected = -lr * g / (abs(g) + eps)
    params = np.array([0.0])
    state = adam_init(params)
    adam_step(params, np.array([g]), state, lr=lr)
    assert abs(params[0] - expected) <= 1e-12
    assert state["step"] == 1


def test_adam_rejects_nonfinite_gradient():
    params = np.array([0.5, 0.0])
    state = adam_init(params)
    with pytest.raises(TrainingDivergenceError):
        adam_step(params, np.array([1.0, np.nan]), state, lr=0.1)
    # Nothing was written before the check.
    assert np.array_equal(params, [0.5, 0.0]) and state["step"] == 0
    assert not np.any(state["m"]) and not np.any(state["v"])


def test_equivariance_preserved_under_training():
    rng = np.random.default_rng(4)
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    iso = isotypic_basis(rep)
    net = equivariant_net(rep, [6], rep, rng, output_transform=iso.q)
    rep_out = iso.rotated_rep()
    x = rng.standard_normal((8, 6))
    t = rng.standard_normal((8, 6))
    params = flat_parameters(net)
    state = adam_init(params)
    for _ in range(25):
        y, cache = net.forward(x)
        grads, _ = net.backward(cache, 2.0 * (y - t))
        adam_step(params, np.concatenate(grads, axis=None), state, lr=1e-2)
    assert net_equivariance_residual(net, rep, rep_out, seed=5) <= 1e-9


def test_training_is_deterministic():
    def run():
        rng = np.random.default_rng(77)
        net = dense_net([3, 8, 3], rng)
        x = rng.standard_normal((16, 3))
        t = rng.standard_normal((16, 3))
        params = flat_parameters(net)
        state = adam_init(params)
        for _ in range(30):
            y, cache = net.forward(x)
            grads, _ = net.backward(cache, 2.0 * (y - t))
            adam_step(params, np.concatenate(grads, axis=None), state, lr=1e-3)
        return params

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_default_hidden_width():
    assert default_hidden_width(3, 6) == 24
    assert default_hidden_width(4, 5) == 20
    assert default_hidden_width(5, 2) == 10
