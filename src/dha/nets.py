"""Minimal feed-forward networks with exact reverse-mode gradients.

Every layer is one record holding its trained ``weight`` and ``bias``.  A
dense layer uses them as its matrix and vector; an equivariant layer holds
block coefficients over a generator table and coordinates in the trivial
isotypic component, so its matrix and vector are equivariant for any
values.  Hidden equivariant layers act on stacks of regular-representation
copies in the group-element basis, where the pointwise ``tanh`` commutes
with the permutation action; an optional fixed orthogonal transform on the
input or output side moves between that basis and the isotypic one.
Networks take and return ``(batch, dim)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .commutant import _GeneratorTable, _generator_table
from .groups import Representation, regular_rep_copies
from .isotypic import IsotypicBasis, isotypic_basis

__all__ = [
    "InvalidStateError",
    "TrainingDivergenceError",
    "Layer",
    "Network",
    "dense_net",
    "equivariant_net",
    "default_hidden_width",
    "adam_init",
    "adam_step",
    "net_equivariance_residual",
]


class InvalidStateError(RuntimeError):
    """Backward pass invoked with a cache from stale parameters."""


class TrainingDivergenceError(RuntimeError):
    """Non-finite gradients or loss."""


@dataclass
class Layer:
    """One affine-plus-activation layer with trained arrays ``weight`` and ``bias``.

    A dense layer (``table is None``) uses them as its matrix and vector.
    An equivariant layer holds coordinates: ``weight`` over the
    equivariant-map generator ``table``, so the matrix is
    ``q_out.T @ table.assemble(weight) @ q_in`` (isotypic changes of basis
    ``q_in``/``q_out``), and ``bias`` over ``bias_basis``; equivariance
    holds structurally for any parameter values.
    """

    activation: str
    weight: np.ndarray
    bias: np.ndarray
    table: _GeneratorTable | None = field(default=None, repr=False)
    q_in: np.ndarray | None = field(default=None, repr=False)
    q_out: np.ndarray | None = field(default=None, repr=False)
    bias_basis: np.ndarray | None = field(default=None, repr=False)

    def weight_matrix(self) -> np.ndarray:
        if self.table is None:
            return self.weight
        return self.q_out.T @ self.table.assemble(self.weight) @ self.q_in

    def bias_vector(self) -> np.ndarray:
        if self.table is None:
            return self.bias
        return self.bias_basis @ self.bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] if self.table is None else self.q_in.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0] if self.table is None else self.q_out.shape[1]


class Network:
    """A feed-forward chain of layers with optional fixed end transforms.

    ``input_transform`` (if given) is an orthogonal matrix applied to the
    input before the first layer; ``output_transform`` after the last.
    Both are constants, not parameters.
    """

    def __init__(self, layers, input_transform=None, output_transform=None):
        self.layers = list(layers)
        self.input_transform = input_transform
        self.output_transform = output_transform
        self._version = 0
        for prev, layer in zip(self.layers, self.layers[1:]):
            if layer.in_dim != prev.out_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {layer.in_dim}")

    @property
    def in_dim(self) -> int:
        d = self.layers[0].in_dim
        return d if self.input_transform is None else self.input_transform.shape[1]

    @property
    def out_dim(self) -> int:
        d = self.layers[-1].out_dim
        return d if self.output_transform is None else self.output_transform.shape[0]

    def parameters(self):
        """``[weight, bias]`` of every layer, in layer order."""
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]

    def set_parameters(self, params):
        params = list(params)
        if len(params) != 2 * len(self.layers):
            raise ValueError("parameter list does not match network structure")
        for i, layer in enumerate(self.layers):
            layer.weight, layer.bias = params[2 * i:2 * i + 2]
        self._version += 1

    def forward(self, x: np.ndarray):
        """Evaluate on ``(batch, in_dim)`` input; returns ``(y, cache)``.

        Each layer adds its bias and applies ``tanh`` in place on ``h @ w.T``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"input of shape {x.shape} is not (batch, {self.in_dim})")
        h = x if self.input_transform is None else x @ self.input_transform.T
        weights = [layer.weight_matrix() for layer in self.layers]
        inputs, outputs = [], []
        for layer, w in zip(self.layers, weights):
            inputs.append(h)
            h = h @ w.T
            h += layer.bias_vector()
            if layer.activation == "tanh":
                np.tanh(h, out=h)
            elif layer.activation != "identity":
                raise ValueError(f"unknown activation {layer.activation!r}")
            outputs.append(h)
        y = h if self.output_transform is None else h @ self.output_transform.T
        cache = {"version": self._version, "weights": weights, "inputs": inputs, "outputs": outputs}
        return y, cache

    def backward(self, cache, output_cotangent: np.ndarray):
        """Exact gradients for all parameters and the input.

        ``output_cotangent`` has the ``(batch, out_dim)`` shape of the forward
        output; gradients come back as a list aligned with :meth:`parameters`,
        plus the input cotangent.  A ``tanh`` layer forms ``(1 - out * out) * g``
        in one reused buffer.
        """
        if cache["version"] != self._version:
            raise InvalidStateError("network parameters changed since the cached forward pass")
        # Identity layers reduce g itself; sums round differently off C order.
        g = np.ascontiguousarray(output_cotangent, dtype=np.float64)
        if g.shape != (cache["inputs"][0].shape[0], self.out_dim):
            raise ValueError(f"cotangent of shape {g.shape} does not match the forward output")
        if self.output_transform is not None:
            g = g @ self.output_transform
        grads = [None] * (2 * len(self.layers))
        buf = None
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == "tanh":
                out = cache["outputs"][i]
                reuse = buf is not None and buf.shape == out.shape
                gz = buf = np.multiply(out, out, out=buf if reuse else None)
                np.subtract(1.0, gz, out=gz)
                gz *= g
            else:
                gz = g
            # Both add rows in order, einsum faster; sum adds a lone column pairwise.
            gb = np.einsum("ij->j", gz) if gz.shape[1] > 1 else gz.sum(axis=0)
            gw = gz.T @ cache["inputs"][i]
            if layer.table is not None:
                gw = layer.table.coordinates(layer.q_out @ gw @ layer.q_in.T)
                gb = layer.bias_basis.T @ gb
            grads[2 * i], grads[2 * i + 1] = gw, gb
            g = gz @ cache["weights"][i]
        if self.input_transform is not None:
            g = g @ self.input_transform
        return grads, g


def _glorot(rng, out_dim, in_dim):
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


def dense_net(dims, rng, hidden_activation="tanh", output_activation="identity") -> Network:
    """Fully-connected network with Glorot-uniform weights and zero biases."""
    layers = []
    for i in range(len(dims) - 1):
        act = hidden_activation if i < len(dims) - 2 else output_activation
        layers.append(Layer(act, _glorot(rng, dims[i + 1], dims[i]), np.zeros(dims[i + 1])))
    return Network(layers)


def default_hidden_width(group_order: int, in_dim: int) -> int:
    """Smallest multiple of the group order that is at least ``4 * in_dim``."""
    return int(np.ceil(4 * in_dim / group_order)) * group_order


def _trivial_basis(iso: IsotypicBasis) -> np.ndarray:
    """Orthonormal columns spanning the trivial isotypic component."""
    for blk in iso.blocks:
        if blk.label == "triv":
            return iso.q[blk.slice].T.copy()
    return np.zeros((iso.dim, 0))


def _equivariant_layer(basis_in, basis_out, activation, rng) -> Layer:
    table = _generator_table(basis_out.blocks, basis_in.blocks)
    seed = _glorot(rng, basis_out.dim, basis_in.dim)
    trivial = _trivial_basis(basis_out)
    return Layer(activation, table.coordinates(basis_out.q @ seed @ basis_in.q.T),
                 np.zeros(trivial.shape[1]), table=table, q_in=basis_in.q, q_out=basis_out.q,
                 bias_basis=trivial)


def equivariant_net(
    rep_in: Representation,
    hidden_widths,
    rep_out: Representation,
    rng,
    input_transform=None,
    output_transform=None,
    hidden_activation="tanh",
    output_activation="identity",
) -> Network:
    """Equivariant network ``rep_in -> regular-copy hiddens -> rep_out``.

    Hidden widths must be multiples of the group order.  Each layer's
    ``weight`` starts as the coordinates of a Glorot-uniform dense weight
    over the equivariant-map generators, matching the variance of the dense
    baseline.
    """
    group = rep_in.group
    chain = [isotypic_basis(rep_in)]
    for w in hidden_widths:
        chain.append(isotypic_basis(regular_rep_copies(group, w)))
    chain.append(isotypic_basis(rep_out))
    layers = []
    for i in range(len(chain) - 1):
        act = hidden_activation if i < len(chain) - 2 else output_activation
        layers.append(_equivariant_layer(chain[i], chain[i + 1], act, rng))
    return Network(layers, input_transform=input_transform, output_transform=output_transform)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def adam_init(params):
    """Step 0 and zero moments ``m``, ``v``: one flat vector each over ``params``."""
    n = sum(p.size for p in params)
    return {"step": 0, "m": np.zeros(n), "v": np.zeros(n)}


def adam_step(params, grads, state, lr):
    """One bias-corrected adaptive-moment update; returns new params/state.

    The moment decays are 0.9 and 0.999, with 1e-8 added to the denominator.
    All parameters are updated at once, elementwise, into one new flat vector
    (never in place: forward caches still hold the old weights)."""
    g = np.concatenate(grads, axis=None)
    if not np.all(np.isfinite(g)):
        raise TrainingDivergenceError("non-finite gradient in optimizer step")
    step = state["step"] + 1
    decay1, decay2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - decay1 ** step
    c2 = 1.0 - decay2 ** step
    m = decay1 * state["m"] + (1.0 - decay1) * g
    v = decay2 * state["v"] + (1.0 - decay2) * g * g
    flat = np.concatenate(params, axis=None)
    flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    ends = np.cumsum([p.size for p in params])
    new_params = [flat[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]
    return new_params, {"step": step, "m": m, "v": v}


def net_equivariance_residual(net: Network, rep_in: Representation, rep_out: Representation,
                              seed: int = 0) -> float:
    """Largest relative violation of ``f(rho_in(g) x) = rho_out(g) f(x)`` over 8 random inputs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, rep_in.dim))
    y, _ = net.forward(x)
    worst = 0.0
    for g in rep_in.group.elements():
        yg, _ = net.forward(x @ rep_in.matrices[g].T)
        gy = y @ rep_out.matrices[g].T
        worst = max(worst, float(np.max(np.abs(yg - gy))) / max(1.0, float(np.max(np.abs(gy)))))
    return worst
