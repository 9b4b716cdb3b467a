"""Minimal feed-forward networks with exact reverse-mode gradients.

Two layer kinds: plain dense layers, and equivariant layers whose weight
is stored as block coefficients ``theta`` over a generator table and
whose bias is constrained to the trivial isotypic component.  Hidden
equivariant layers act on stacks of regular-representation copies in the
group-element basis, where the pointwise ``tanh`` commutes with the
permutation action; an optional fixed orthogonal transform on the input
or output side moves between that basis and the isotypic one.
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
    """Non-finite gradients or loss; carries the last finite checkpoint if any."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass
class Layer:
    """One affine-plus-activation layer.

    ``kind == "dense"`` uses ``weight``/``bias`` directly as parameters.
    ``kind == "equivariant"`` stores coordinates ``theta`` over the
    equivariant-map generator ``table``, so the weight is
    ``q_out.T @ table.assemble(theta) @ q_in`` (isotypic changes of basis
    ``q_in``/``q_out``), and the bias is ``bias_basis @ beta``; equivariance
    holds structurally for any parameter values.
    """

    kind: str
    activation: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    theta: np.ndarray | None = None
    table: _GeneratorTable | None = field(default=None, repr=False)
    q_in: np.ndarray | None = field(default=None, repr=False)
    q_out: np.ndarray | None = field(default=None, repr=False)
    beta: np.ndarray | None = None
    bias_basis: np.ndarray | None = field(default=None, repr=False)

    def weight_matrix(self) -> np.ndarray:
        if self.kind == "dense":
            return self.weight
        return self.q_out.T @ self.table.assemble(self.theta) @ self.q_in

    def bias_vector(self) -> np.ndarray:
        if self.kind == "dense":
            return self.bias
        return self.bias_basis @ self.beta

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] if self.kind == "dense" else self.q_in.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0] if self.kind == "dense" else self.q_out.shape[1]

    def parameters(self):
        if self.kind == "dense":
            return [self.weight, self.bias]
        return [self.theta, self.beta]

    def set_parameters(self, params):
        if self.kind == "dense":
            self.weight, self.bias = params
        else:
            self.theta, self.beta = params


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
        dims = [self.layers[0].in_dim]
        for layer in self.layers:
            if layer.in_dim != dims[-1]:
                raise ValueError(f"layer dims do not chain: {dims[-1]} -> {layer.in_dim}")
            dims.append(layer.out_dim)

    @property
    def in_dim(self) -> int:
        d = self.layers[0].in_dim
        return d if self.input_transform is None else self.input_transform.shape[1]

    @property
    def out_dim(self) -> int:
        d = self.layers[-1].out_dim
        return d if self.output_transform is None else self.output_transform.shape[0]

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def set_parameters(self, params):
        params = list(params)
        if len(params) != 2 * len(self.layers):
            raise ValueError("parameter list does not match network structure")
        for i, layer in enumerate(self.layers):
            layer.set_parameters(params[2 * i:2 * i + 2])
        self._version += 1

    def forward(self, x: np.ndarray):
        """Evaluate on ``(batch, in_dim)`` input; returns ``(y, cache)``.

        Each layer adds its bias and applies ``tanh`` in place on ``h @ w.T``.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape[1]} does not match {self.in_dim}")
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
        cache = {"version": self._version, "weights": weights, "inputs": inputs,
                 "outputs": outputs, "squeeze": squeeze}
        return (y[0] if squeeze else y), cache

    def backward(self, cache, output_cotangent: np.ndarray):
        """Exact gradients for all parameters and the input.

        ``output_cotangent`` has the shape of the forward output; gradients
        come back as a list aligned with :meth:`parameters` (equivariant
        layers in theta/beta coordinates), plus the input cotangent.  A
        ``tanh`` layer forms ``(1 - out * out) * g`` in one reused buffer.
        """
        if cache["version"] != self._version:
            raise InvalidStateError("network parameters changed since the cached forward pass")
        # Identity layers reduce g itself; sums round differently off C order.
        g = np.ascontiguousarray(output_cotangent, dtype=np.float64)
        if cache["squeeze"]:
            g = g[None, :]
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
            if layer.kind == "equivariant":
                gw = layer.table.coordinates(layer.q_out @ gw @ layer.q_in.T)
                gb = layer.bias_basis.T @ gb
            grads[2 * i], grads[2 * i + 1] = gw, gb
            g = gz @ cache["weights"][i]
        if self.input_transform is not None:
            g = g @ self.input_transform
        return grads, (g[0] if cache["squeeze"] else g)


def _glorot(rng, out_dim, in_dim):
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


def dense_net(dims, rng, hidden_activation="tanh", output_activation="identity") -> Network:
    """Fully-connected network with Glorot-uniform weights and zero biases."""
    layers = []
    for i in range(len(dims) - 1):
        act = hidden_activation if i < len(dims) - 2 else output_activation
        layers.append(
            Layer("dense", act, weight=_glorot(rng, dims[i + 1], dims[i]), bias=np.zeros(dims[i + 1]))
        )
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
    return Layer(
        "equivariant", activation,
        theta=table.coordinates(basis_out.q @ seed @ basis_in.q.T),
        table=table, q_in=basis_in.q, q_out=basis_out.q,
        beta=np.zeros(trivial.shape[1]), bias_basis=trivial,
    )


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

    Hidden widths must be multiples of the group order.  ``theta`` is
    initialized with the coordinates of a Glorot-uniform dense weight over
    the equivariant-map generators, matching the variance of the dense
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
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    m = beta1 * state["m"] + (1.0 - beta1) * g
    v = beta2 * state["v"] + (1.0 - beta2) * g * g
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
