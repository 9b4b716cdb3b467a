"""Minimal feed-forward networks with exact reverse-mode gradients.

Every layer is one record holding its trained ``weight`` and ``bias``.  A
dense layer uses them as its matrix and vector; an equivariant layer holds
coordinates over a :class:`~dha.commutant.CommutantBasis` of the maps from
its input to its output space, so its matrix and vector are equivariant
for any values.  Hidden equivariant layers act on stacks of regular-representation
copies in the group-element basis, where the pointwise ``tanh`` commutes
with the permutation action; an optional fixed orthogonal transform on the
input or output side moves between that basis and the isotypic one.
Networks take and return ``(batch, dim)`` arrays.  Outside training every
pass allocates its own arrays; :func:`dha.koopman.train` lends its networks
one :class:`_Workspace` whose buffers every step and validation pass reuse.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .commutant import CommutantBasis
from .groups import Representation, regular_rep_copies
from .isotypic import isotypic_basis

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
    """Backward pass invoked with a cache from stale parameters or overwritten activations."""


class TrainingDivergenceError(RuntimeError):
    """Non-finite gradients or loss."""


@dataclass
class Layer:
    """One affine-plus-activation layer with trained arrays ``weight`` and ``bias``.

    A dense layer (``basis is None``) uses them as its matrix and vector.
    An equivariant layer holds coordinates over ``basis``, the maps from
    its input space to its output space: ``weight`` over the generators, so
    the matrix is ``basis.matrix(weight)``, and ``bias`` over
    ``basis.trivial_columns``; equivariance holds structurally for any
    parameter values.
    """

    activation: str
    weight: np.ndarray
    bias: np.ndarray
    basis: CommutantBasis | None = field(default=None, repr=False)

    def weight_matrix(self) -> np.ndarray:
        if self.basis is None:
            return self.weight
        return self.basis.matrix(self.weight)

    def bias_vector(self) -> np.ndarray:
        if self.basis is None:
            return self.bias
        return self.basis.trivial_columns @ self.bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] if self.basis is None else self.basis.iso_in.dim

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0] if self.basis is None else self.basis.iso.dim


class _Workspace:
    """Float64 buffers that the passes of one training run write in place.

    :meth:`take` hands out a buffer named by an owner and a role: a
    C-contiguous view of the front of one flat array that grows to the
    largest request, so the full and the last partial batch share memory,
    and so do the train steps and the validation pass.  A ``shared``
    buffer, one that the validation pass uses too, is allocated for
    ``rows`` rows (the most that any pass of the run has) at once, so
    that it never grows and leaves the block it outgrew behind on the
    heap.  Flat arrays start on a 64-byte boundary: ``malloc`` places large
    blocks 16 bytes past a page boundary, where elementwise loops over
    64-byte vectors run about half as fast.  ``generation[owner]`` counts
    the forward passes that wrote the owner's buffers; a cache that
    records an older count holds overwritten activations.  ``keep_cache``
    is false for a validation pass, whose forwards keep no activations and
    run each network through two alternating layer buffers.
    """

    def __init__(self, rows=0):
        self.rows = rows
        self.keep_cache = True
        self.generation = {}
        self._flat = {}
        self._views = {}

    def take(self, owner, role, shape, shared=False) -> np.ndarray:
        """A ``shape`` buffer; a ``shared`` one has shape ``(rows, width)``."""
        view = self._views.get((owner, role, shape))
        if view is None:
            n = math.prod(shape)
            flat = self._flat.get((owner, role))
            if flat is None or flat.size < n:
                size = max(n, self.rows * shape[1]) if shared else n
                raw = np.empty(size + 8)
                start = -raw.ctypes.data % 64 // 8
                flat = self._flat[owner, role] = raw[start:start + size]
                # Views of the smaller array would keep it alive.
                self._views = {key: v for key, v in self._views.items() if key[:2] != (owner, role)}
            view = self._views[owner, role, shape] = flat[:n].reshape(shape)
        return view


@contextmanager
def _lent_workspace(networks, rows=0):
    """Lend ``networks`` one fresh :class:`_Workspace` for the ``with`` block, and take it back.

    ``rows`` is the most rows that any pass in the block has."""
    workspace = _Workspace(rows)
    for net in networks:
        net._workspace = workspace
    try:
        yield workspace
    finally:
        for net in networks:
            net._workspace = None


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
        self._workspace = None
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

        Each layer writes ``h @ w.T`` into its own buffer, then adds its bias
        and applies ``tanh`` there in place.  Buffers come from the lent
        workspace during training and are fresh arrays otherwise.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"input of shape {x.shape} is not (batch, {self.in_dim})")
        ws = self._workspace if self._workspace is not None else _Workspace()
        ws.generation[self] = generation = ws.generation.get(self, 0) + 1
        keep = ws.keep_cache
        n = len(self.layers)

        def buffer(step, width):
            # Step -1 is the input transform and step n the output transform.  A validation
            # pass runs through the buffers of steps 0 and 1 alone.
            key = step if keep else step % 2
            return ws.take(self, key, (len(x), width), shared=key in (0, 1))

        h = x
        if self.input_transform is not None:
            h = np.matmul(x, self.input_transform.T, out=buffer(-1, self.input_transform.shape[0]))
        weights = [layer.weight_matrix() for layer in self.layers]
        inputs, outputs = [], []
        for i, (layer, w) in enumerate(zip(self.layers, weights)):
            inputs.append(h)
            h = np.matmul(h, w.T, out=buffer(i, w.shape[0]))
            h += layer.bias_vector()
            if layer.activation == "tanh":
                np.tanh(h, out=h)
            elif layer.activation != "identity":
                raise ValueError(f"unknown activation {layer.activation!r}")
            outputs.append(h)
        y = h
        if self.output_transform is not None:
            y = np.matmul(h, self.output_transform.T, out=buffer(n, self.output_transform.shape[0]))
        cache = {"version": self._version, "workspace": ws, "generation": generation if keep else None,
                 "weights": weights, "inputs": inputs, "outputs": outputs}
        return y, cache

    def backward(self, cache, output_cotangent: np.ndarray):
        """Exact gradients for all parameters and the input.

        ``output_cotangent`` has the ``(batch, out_dim)`` shape of the forward
        output; gradients come back as a list aligned with :meth:`parameters`,
        plus the input cotangent.  A ``tanh`` layer forms ``(1 - out * out) * g``
        in one reused buffer, and the layer cotangents alternate between two.
        In a workspace all networks share these three buffers, so the input
        cotangent returned is valid until the next backward pass.
        """
        if cache["version"] != self._version:
            raise InvalidStateError("network parameters changed since the cached forward pass")
        if cache["generation"] is None:
            raise InvalidStateError("the forward pass kept no activations")
        if cache["workspace"].generation[self] != cache["generation"]:
            raise InvalidStateError("a later forward pass overwrote the cached activations")
        # Identity layers reduce g itself; sums round differently off C order.
        g = np.ascontiguousarray(output_cotangent, dtype=np.float64)
        rows = len(cache["inputs"][0])
        if g.shape != (rows, self.out_dim):
            raise ValueError(f"cotangent of shape {g.shape} does not match the forward output")
        ws = self._workspace if self._workspace is not None else _Workspace()

        def cotangent(step, width):
            # Step i's input cotangent; step n is the output transform and step -1 the input one.
            return ws.take("backward", step % 2, (rows, width))

        n = len(self.layers)
        if self.output_transform is not None:
            g = np.matmul(g, self.output_transform, out=cotangent(n, self.output_transform.shape[1]))
        grads = [None] * (2 * n)
        for i in range(n - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == "tanh":
                out = cache["outputs"][i]
                gz = np.multiply(out, out, out=ws.take("backward", "gz", out.shape))
                np.subtract(1.0, gz, out=gz)
                gz *= g
            else:
                gz = g
            # Both add rows in order, einsum faster; sum adds a lone column pairwise.
            gb = np.einsum("ij->j", gz) if gz.shape[1] > 1 else gz.sum(axis=0)
            gw = gz.T @ cache["inputs"][i]
            if layer.basis is not None:
                gw = layer.basis.matrix_coordinates(gw)
                gb = layer.basis.trivial_columns.T @ gb
            grads[2 * i], grads[2 * i + 1] = gw, gb
            w = cache["weights"][i]
            g = np.matmul(gz, w, out=cotangent(i, w.shape[1]))
        if self.input_transform is not None:
            g = np.matmul(g, self.input_transform, out=cotangent(-1, self.input_transform.shape[1]))
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
        basis = CommutantBasis(chain[i + 1], chain[i])
        weight = basis.matrix_coordinates(_glorot(rng, basis.iso.dim, basis.iso_in.dim))
        layers.append(Layer(act, weight, np.zeros(basis.trivial_columns.shape[1]), basis))
    return Network(layers, input_transform=input_transform, output_transform=output_transform)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def adam_init(params):
    """Step 0 and zero moments ``m``, ``v`` shaped like the flat parameter vector ``params``."""
    return {"step": 0, "m": np.zeros_like(params), "v": np.zeros_like(params)}


def adam_step(params, grads, state, lr):
    """One bias-corrected adaptive-moment update of the flat vector ``params`` and the moments, in place.

    The moment decays are 0.9 and 0.999, with 1e-8 added to the denominator.  ``grads`` is left
    as it is; a non-finite gradient raises ``TrainingDivergenceError`` before anything is written."""
    if not np.all(np.isfinite(grads)):
        raise TrainingDivergenceError("non-finite gradient in optimizer step")
    state["step"] = step = state["step"] + 1
    decay1, decay2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - decay1 ** step
    c2 = 1.0 - decay2 ** step
    m, v = state["m"], state["v"]
    m *= decay1
    m += (1.0 - decay1) * grads
    v *= decay2
    v += (1.0 - decay2) * grads * grads
    params -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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
