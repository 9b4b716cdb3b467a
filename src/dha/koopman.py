"""Global linear model fitting on trajectory data.

Five variants share one structure, encoder -> linear operator -> decoder:
closed-form least squares on fixed observables (``edmd``, and ``eedmd``
restricted to the commutant so the operator is block-diagonal in the
isotypic basis), and gradient-trained dynamics autoencoders (``dae``,
``dae_aug`` with group data augmentation, and the equivariant ``edae``
whose encoder/decoder are equivariant networks and whose operator lives in
the latent commutant).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._util import decode_f64, encode_f64, fingerprint, fmt17, typed
from .commutant import (
    EquivariantLinearMap,
    _stamps,
    assemble,
    commutant_basis,
    coordinates,
)
from .groups import Representation, quadratic_features, regular_rep_copies, symmetric_square_rep, rep_direct_sum
from .isotypic import IsotypicBasis, isotypic_basis
from .nets import (
    Network,
    TrainingDivergenceError,
    adam_init,
    adam_step,
    default_hidden_width,
    dense_net,
    equivariant_net,
)
from .systems import TrajectoryDataset, rep_descriptor, rep_from_descriptor

__all__ = [
    "TrainConfig",
    "KoopmanModel",
    "snapshot_pairs",
    "edmd_fit",
    "eedmd_fit",
    "train",
    "predict_batch",
    "n_trainable_params",
    "save_model",
    "load_model",
    "save_metrics_csv",
]

VARIANTS = ("edmd", "eedmd", "dae", "dae_aug", "edae")


# ---------------------------------------------------------------------------
# Closed-form fits
# ---------------------------------------------------------------------------


def snapshot_pairs(dataset: TrajectoryDataset, splits=("train", "val")) -> tuple:
    """Stack one-step snapshot pairs ``(X, Y)`` of shape ``(dim, N)``."""
    xs, ys = [], []
    for i, tag in enumerate(dataset.splits):
        if tag in splits:
            traj = dataset.trajectories[i]
            xs.append(traj[:-1])
            ys.append(traj[1:])
    if not xs:
        raise ValueError(f"dataset has no trajectories in splits {splits}")
    return np.concatenate(xs).T, np.concatenate(ys).T


def default_ridge(x: np.ndarray) -> float:
    """Scale-aware tiny ridge: ``1e-9 * trace(X X^T) / m``."""
    return 1e-9 * float(np.sum(x * x)) / x.shape[0]


def edmd_fit(x: np.ndarray, y: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Least-squares operator minimizing ``||Y - K X||_F^2 + ridge ||K||_F^2``.

    ``x`` and ``y`` are ``(m, N)`` snapshot matrices.  ``ridge=None`` uses
    :func:`default_ridge`; ``ridge=0`` on rank-deficient data follows the
    pseudo-inverse (minimum-norm) convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"snapshot matrices must share shape (m, N); got {x.shape} and {y.shape}")
    if ridge is None:
        ridge = default_ridge(x)
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    return _ridge_lstsq(x, y, ridge)


def _ridge_lstsq(x: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """``K`` minimizing ``||Y - K X||_F^2 + ridge ||K||_F^2``; minimum norm at ``ridge=0``."""
    if ridge == 0.0:
        kt, *_ = np.linalg.lstsq(x.T, y.T, rcond=None)
        return np.ascontiguousarray(kt.T)
    gram = x @ x.T + ridge * np.eye(x.shape[0])
    return np.ascontiguousarray(np.linalg.solve(gram, x @ y.T).T)


def eedmd_fit(
    x: np.ndarray,
    y: np.ndarray,
    basis: IsotypicBasis,
    ridge: float | None = None,
) -> EquivariantLinearMap:
    """Ridge least squares restricted to the commutant of the state rep.

    Snapshots are rotated into the isotypic basis and the operator is
    solved in the free coordinates of the commutant basis, which keeps it
    exactly block-diagonal.  The normal equations split into one
    ``(m e) x (m e)`` system per block with ``m`` right-hand sides.
    With ``ridge=0`` and full-rank group-augmented data this equals the
    group-averaging projection of the plain :func:`edmd_fit` solution on
    the augmented snapshots.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.shape[0] != basis.dim:
        raise ValueError("snapshot matrices must be (dim, N) for the basis dimension")
    if ridge is None:
        ridge = default_ridge(x)
    cbasis = commutant_basis(basis)
    xr, yr = basis.q @ x, basis.q @ y
    theta = []
    for blk in basis.blocks:
        stamps, m = _stamps(blk.irrep), blk.multiplicity
        # Regressor (k, s) is stamp s applied to input copy k; samples are (row, snapshot).
        z = np.einsum("src,kcn->ksrn", stamps, xr[blk.slice].reshape(m, blk.irrep.dim, -1))
        z = z.reshape(m * len(stamps), -1)
        theta.append(_ridge_lstsq(z, yr[blk.slice].reshape(m, -1), ridge).reshape(-1))
    return EquivariantLinearMap(cbasis, np.concatenate(theta))


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


#: Least value of each numeric :class:`TrainConfig` field.
_TRAIN_MINIMA = {"latent_dim": 0, "horizon": 1, "gamma": 0, "lr": 0, "epochs": 0, "batch": 1, "seed": 0,
                 "patience": 0, "hidden_layers": 0, "width": 1, "max_windows": 1, "ridge": 0}
_OBSERVABLES = ("identity", "poly2")


@dataclass
class TrainConfig:
    """Hyperparameters for :func:`train`, and the one definition of the training settings.

    Construction checks every field and raises ``ValueError`` naming it.
    Integer fields take an ``int`` (not a ``bool``), float fields an
    ``int`` or ``float``, each at least its ``_TRAIN_MINIMA`` value; the
    ``| None`` fields also take ``None``, and ``observable`` is one of
    ``_OBSERVABLES``.  No value is converted, so :meth:`config_hash` hashes
    the settings as given.  ``latent_dim=0`` is unset (closed-form
    variants size their operator by the observables), and an unset
    ``width`` follows :func:`~dha.nets.default_hidden_width`.
    """

    latent_dim: int = 0
    horizon: int = 10
    gamma: float | None = None
    lr: float = 1e-3
    epochs: int = 300
    batch: int = 64
    seed: int = 0
    patience: int = 30
    hidden_layers: int = 4
    width: int | None = None
    max_windows: int | None = None
    ridge: float | None = None
    observable: str = "identity"
    decoder_equivariant: bool = True

    def __post_init__(self):
        for f in fields(self):
            value, kind, optional = getattr(self, f.name), f.type.split(" | ")[0], f.type.endswith("| None")
            if kind == "str":
                ok, want = value in _OBSERVABLES, f"one of {_OBSERVABLES}"
            elif kind == "bool":
                ok, want = isinstance(value, bool), "true or false"
            else:
                low = _TRAIN_MINIMA[f.name]
                ok = (isinstance(value, int if kind == "int" else (int, float))
                      and not isinstance(value, bool) and value >= low)
                want = f"{'an integer' if kind == 'int' else 'a number'} >= {low}"
            if not (ok or optional and value is None):
                raise ValueError(f"training setting {f.name} must be {want}{' or null' * optional}, "
                                 f"got {value!r}")

    def config_hash(self) -> str:
        return fingerprint(asdict(self))


def _parse_train_config(settings) -> TrainConfig:
    """The :class:`TrainConfig` of a training block (a config file's or a checkpoint's).

    Raises ``ValueError`` naming an unknown key or a field that
    :class:`TrainConfig` rejects.
    """
    if not isinstance(settings, dict):
        raise ValueError(f"training settings must be an object, got {settings!r}")
    unknown = sorted(set(settings) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown training setting(s) {', '.join(unknown)}")
    return TrainConfig(**settings)


def _check_variant(variant: str, group_order: int, config: TrainConfig):
    """Raise ``ValueError`` unless ``config`` builds ``variant`` for a group of this order.

    Autoencoders need ``latent_dim >= 1``.  ``edae``'s latent and hidden
    spaces are stacks of regular-representation copies, so its
    ``latent_dim`` and an explicit ``width`` must be multiples of the order.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant not in ("edmd", "eedmd") and config.latent_dim < 1:
        raise ValueError(f"latent_dim must be set for autoencoder variant {variant}")
    for name in ("latent_dim", "width") if variant == "edae" else ():
        size = getattr(config, name)
        if size is not None and size % group_order:
            raise ValueError(
                f"edae {name} {size} is not a multiple of the group order {group_order}: its "
                "latent and hidden spaces are stacks of regular-representation copies, each "
                f"copy the regular representation of dimension {group_order}"
            )


@dataclass
class KoopmanModel:
    """A global linear model ``decode(K^h encode(x))`` in one of the variants.

    Closed-form variants have no networks (``encoder is None``): they
    encode with the fixed ``observable`` map and decode by truncating the
    features to the state.  Autoencoder variants encode and decode with
    their networks.  A commutant operator (``eedmd``, ``edae``) keeps its
    coordinates in ``k_map`` and its dense matrix, in the original feature
    basis, in ``k_matrix``.  :func:`train` and :func:`load_model` start
    from the same unfitted model of each variant.
    """

    variant: str
    rep_x: Representation
    latent_dim: int
    k_matrix: np.ndarray
    observable: str = "identity"
    encoder: Network | None = None
    decoder: Network | None = None
    k_map: EquivariantLinearMap | None = None
    latent_iso: IsotypicBasis | None = None
    feature_iso: IsotypicBasis | None = None
    config: TrainConfig | None = None
    training_report: dict | None = None

    @property
    def state_dim(self) -> int:
        return self.rep_x.dim

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.k_matrix))))

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.encoder is None:
            return _features(x, self.observable)
        z, _ = self.encoder.forward(x)
        return z

    def decode(self, z: np.ndarray) -> np.ndarray:
        if self.decoder is None:
            return np.asarray(z)[..., : self.state_dim]
        x, _ = self.decoder.forward(z)
        return x

    def refresh_k(self):
        """Re-assemble the dense operator after a ``k_map`` coordinate update."""
        if self.k_map is not None:
            k = assemble(self.k_map)
            if self.feature_iso is not None:
                k = self.feature_iso.q.T @ k @ self.feature_iso.q
            self.k_matrix = k


def _features(x: np.ndarray, observable: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if observable == "identity":
        return x
    if observable == "poly2":
        return np.concatenate([x, quadratic_features(x)], axis=-1)
    raise ValueError(f"unknown observable map {observable!r}")


def _feature_rep(rep_x: Representation, observable: str) -> Representation:
    if observable == "identity":
        return rep_x
    return rep_direct_sum([rep_x, symmetric_square_rep(rep_x)], "features")


# ---------------------------------------------------------------------------
# The multi-step autoencoder loss
# ---------------------------------------------------------------------------


def _rollout(z0: np.ndarray, k_mat: np.ndarray, steps: int) -> np.ndarray:
    """Latents ``K^h z0`` for ``h = 0 .. steps`` in one ``(B, steps + 1, L)`` buffer."""
    zhat = np.empty((z0.shape[0], steps + 1, z0.shape[1]))
    zhat[:, 0] = z0
    for h in range(1, steps + 1):
        np.matmul(zhat[:, h - 1], k_mat.T, out=zhat[:, h])
    return zhat


def _batch_loss_and_grads(encoder, decoder, k_mat, windows, gamma, need_grads=True):
    """Mean loss over a window batch plus gradients for enc/dec/K: the one definition of the loss.

    Window ``x_t .. x_{t+H}`` adds ``||x_{t+h} - dec(K^h z_t)||^2 + gamma ||enc(x_{t+h}) - K^h z_t||^2``
    over ``h = 0 .. H``, ``z_t = enc(x_t)``; a non-finite loss raises ``TrainingDivergenceError``."""
    B, hp1, m = windows.shape
    H = hp1 - 1
    flat = windows.reshape(B * hp1, m)
    z_flat, enc_cache = encoder.forward(flat)
    L = z_flat.shape[1]
    z = z_flat.reshape(B, hp1, L)
    zhat = _rollout(z[:, 0], k_mat, H)
    xhat_flat, dec_cache = decoder.forward(zhat.reshape(B * hp1, L))
    xhat = xhat_flat.reshape(B, hp1, m)
    r = xhat - windows
    s = zhat - z
    s[:, 0] = 0.0
    recon = float(np.sum(r * r)) / B
    latent = float(np.sum(s * s)) / B
    loss = recon + gamma * latent
    if not np.isfinite(loss):
        raise TrainingDivergenceError("non-finite training loss")
    if not need_grads:
        return loss, recon, latent, None
    grads_dec, d_zhat_flat = decoder.backward(dec_cache, (2.0 / B) * r.reshape(B * hp1, m))
    d_zhat = d_zhat_flat.reshape(B, hp1, L)
    d_zhat[:, 1:] += (2.0 * gamma / B) * s[:, 1:]
    dk = np.zeros_like(k_mat)
    a = d_zhat[:, H].copy()
    for h in range(H, 0, -1):
        dk += a.T @ zhat[:, h - 1]
        a = a @ k_mat + d_zhat[:, h - 1]
    d_z = (-2.0 * gamma / B) * s
    d_z[:, 0] = a
    grads_enc, _ = encoder.backward(enc_cache, d_z.reshape(B * hp1, L))
    return loss, recon, latent, (grads_enc, grads_dec, dk)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _windows(dataset: TrajectoryDataset, tag: str, h: int) -> np.ndarray:
    trajs = dataset.split(tag)
    if trajs.shape[0] == 0:
        return np.zeros((0, h + 1, dataset.dim))
    T = trajs.shape[1] - 1
    if h > T:
        raise ValueError(f"window horizon {h} exceeds trajectory length {T}")
    starts = np.arange(T - h + 1)
    idx = starts[:, None] + np.arange(h + 1)[None, :]
    return trajs[:, idx].reshape(-1, h + 1, dataset.dim)


def _new_model(variant, rep_x, config, rng) -> KoopmanModel:
    """The unfitted model of ``variant``; :func:`train` fits it, :func:`load_model` fills it.

    ``edmd``/``eedmd`` get the feature dimension of ``config.observable``
    and, for ``eedmd``, the isotypic basis of the feature representation.
    ``dae``/``dae_aug``/``edae`` draw their networks from ``rng``; ``edae``
    maps to a latent stack of regular-representation copies.  The operator
    starts at the identity; a commutant operator holds its coordinates,
    which :meth:`KoopmanModel.refresh_k` assembles to ``k_matrix``.
    """
    group, m = rep_x.group, rep_x.dim
    _check_variant(variant, group.order, config)
    encoder = decoder = latent_iso = feature_iso = None
    if variant in ("edmd", "eedmd"):
        observable = config.observable
        L = _features(np.zeros(m), observable).shape[-1]
        if variant == "eedmd":
            feature_iso = isotypic_basis(_feature_rep(rep_x, observable))
    else:
        observable, L = "identity", config.latent_dim
        width = config.width or default_hidden_width(group.order, m)
        hidden = [width] * config.hidden_layers
        if variant == "edae":
            latent_rep = regular_rep_copies(group, L, "Z")
            latent_iso = isotypic_basis(latent_rep)
            encoder = equivariant_net(rep_x, hidden, latent_rep, rng, output_transform=latent_iso.q)
            if config.decoder_equivariant:
                decoder = equivariant_net(latent_rep, hidden, rep_x, rng, input_transform=latent_iso.q.T)
            else:
                decoder = dense_net([L] + hidden + [m], rng)
        else:
            encoder = dense_net([m] + hidden + [L], rng)
            decoder = dense_net([L] + hidden + [m], rng)
    k, k_map = np.eye(L), None
    iso = latent_iso if latent_iso is not None else feature_iso
    if iso is not None:
        cbasis = commutant_basis(iso)
        k_map = EquivariantLinearMap(cbasis, coordinates(k, cbasis))
    return KoopmanModel(variant, rep_x, L, k, observable=observable, encoder=encoder,
                        decoder=decoder, k_map=k_map, latent_iso=latent_iso,
                        feature_iso=feature_iso, config=config)


def _fit_closed_form(model: KoopmanModel, dataset: TrajectoryDataset) -> KoopmanModel:
    """Least-squares operator on the snapshot features, plus a one-row report."""
    config = model.config
    x, y = snapshot_pairs(dataset)
    fx, fy = model.encode(x.T).T, model.encode(y.T).T
    if model.k_map is None:
        model.k_matrix = edmd_fit(fx, fy, config.ridge)
    else:
        model.k_map = eedmd_fit(fx, fy, model.feature_iso, config.ridge)
        model.refresh_k()
    resid = np.matmul(model.k_matrix, fx)  # (fy - K fx) ** 2, formed in place
    np.subtract(fy, resid, out=resid)
    resid *= resid
    train_mse = float(np.mean(np.sum(resid, axis=0)))
    row = {"epoch": 0, "train_loss": train_mse, "val_loss": train_mse, "recon_term": train_mse,
           "latent_term": 0.0, "spectral_radius": model.spectral_radius}
    model.training_report = {"metrics": [row], "best_epoch": 0, "n_snapshots": fx.shape[1],
                             "seed": config.seed, "config_hash": config.config_hash()}
    return model


def _networks(model: KoopmanModel) -> list:
    return [net for net in (model.encoder, model.decoder) if net is not None]


def _model_params(model: KoopmanModel):
    """Network parameters in encoder, decoder order, then the operator (``theta`` or ``K``)."""
    k_param = model.k_map.theta.copy() if model.k_map is not None else model.k_matrix.copy()
    return [p for net in _networks(model) for p in net.parameters()] + [k_param]


def _apply_params(model: KoopmanModel, params):
    it = iter(params)
    for net in _networks(model):
        net.set_parameters([next(it) for _ in range(2 * len(net.layers))])
    k_param = next(it)
    if model.k_map is not None:
        model.k_map = EquivariantLinearMap(model.k_map.basis, k_param)
        model.refresh_k()
    else:
        model.k_matrix = k_param


def train(variant: str, dataset: TrajectoryDataset, config: TrainConfig) -> KoopmanModel:
    """Fit one model variant on the dataset's training split.

    Closed-form variants solve the snapshot least squares directly.
    Autoencoder variants run minibatch adaptive-moment descent over
    stride-1 windows of length ``horizon + 1``, track the validation loss
    each epoch, stop early after ``patience`` stagnant epochs and return
    the best-validation checkpoint.  ``gamma`` defaults to
    ``sqrt(state_dim / latent_dim)``.  Everything is deterministic given
    the config seed.
    """
    rng = np.random.default_rng(config.seed)
    model = _new_model(variant, dataset.rep_x, config, rng)
    if model.encoder is None:
        return _fit_closed_form(model, dataset)
    rep_x = dataset.rep_x
    gamma = config.gamma if config.gamma is not None else float(np.sqrt(rep_x.dim / model.latent_dim))
    model.refresh_k()

    windows = _windows(dataset, "train", config.horizon)
    if config.max_windows is not None and config.max_windows < windows.shape[0]:
        pick = rng.permutation(windows.shape[0])[: config.max_windows]
        windows = windows[np.sort(pick)]
    val_windows = _windows(dataset, "val", config.horizon)
    if windows.shape[0] == 0:
        raise ValueError("dataset provides no training windows")

    params = _model_params(model)
    state = adam_init(params)
    metrics = []
    best = {"val": np.inf, "params": [p.copy() for p in params], "epoch": -1}
    stale = 0
    n_win = windows.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n_win)
        if variant == "dae_aug":
            g_ids = rng.integers(0, rep_x.group.order, size=n_win)
        epoch_loss = epoch_recon = epoch_latent = 0.0
        n_batches = 0
        for start in range(0, n_win, config.batch):
            batch_idx = order[start:start + config.batch]
            batch = windows[batch_idx]
            if variant == "dae_aug":
                rho = rep_x.matrices[g_ids[batch_idx]]
                batch = np.einsum("bij,bhj->bhi", rho, batch)
            try:
                loss, recon, latent, (grads_enc, grads_dec, dk) = _batch_loss_and_grads(
                    model.encoder, model.decoder, model.k_matrix, batch, gamma
                )
                if model.k_map is not None:
                    dk = coordinates(dk, model.k_map.basis)
                params, state = adam_step(params, grads_enc + grads_dec + [dk], state, lr=config.lr)
            except TrainingDivergenceError as err:
                err.checkpoint = best["params"]
                raise
            _apply_params(model, params)
            epoch_loss += loss
            epoch_recon += recon
            epoch_latent += latent
            n_batches += 1
        if val_windows.shape[0]:
            val_loss, _, _, _ = _batch_loss_and_grads(
                model.encoder, model.decoder, model.k_matrix, val_windows, gamma, need_grads=False
            )
        else:
            val_loss = epoch_loss / n_batches
        metrics.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n_batches,
                "val_loss": val_loss,
                "recon_term": epoch_recon / n_batches,
                "latent_term": epoch_latent / n_batches,
                "spectral_radius": model.spectral_radius,
            }
        )
        if val_loss < best["val"] - 1e-12:
            best = {"val": val_loss, "params": [p.copy() for p in params], "epoch": epoch}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    _apply_params(model, best["params"])
    model.training_report = {
        "metrics": metrics,
        "best_epoch": best["epoch"],
        "gamma": gamma,
        "n_windows": int(n_win),
        "seed": config.seed,
        "config_hash": config.config_hash(),
    }
    return model


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_batch(model: KoopmanModel, x0: np.ndarray, horizon: int) -> np.ndarray:
    """Decoded latent rollout for a batch of initial states.

    Returns ``(batch, horizon, state_dim)`` holding the predictions for
    steps ``1 .. horizon``.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if x0.shape[1] != model.state_dim:
        raise ValueError(f"initial states must have width {model.state_dim}")
    out = np.zeros((x0.shape[0], horizon, model.state_dim))
    zhat = _rollout(model.encode(x0), model.k_matrix, horizon)
    for h in range(horizon):
        out[:, h] = model.decode(zhat[:, h + 1])
    return out


def n_trainable_params(model: KoopmanModel) -> int:
    """Number of fitted parameters: network weights and biases plus the operator.

    The operator counts its commutant coordinates if it has them and its
    ``latent_dim ** 2`` entries otherwise, so ``edmd`` reports the size of
    its least-squares operator.
    """
    return int(sum(p.size for p in _model_params(model)))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: KoopmanModel, path):
    """JSON checkpoint: architecture header plus the base64 float64 parameters
    of :func:`_model_params`, the list :func:`load_model` fills."""
    cfg = asdict(model.config) if model.config is not None else {}
    header = {
        "variant": model.variant,
        "rep_x": rep_descriptor(model.rep_x),
        "latent_dim": model.latent_dim,
        "observable": model.observable,
        "config": cfg,
        "spectral_radius": model.spectral_radius,
    }
    if model.k_map is not None:
        header["basis_fingerprint"] = model.k_map.basis.layout_fingerprint()
    *nets, k = _model_params(model)
    doc = {
        "format": "dha-model-v1",
        "header": header,
        "k_payload": {"kind": "dense" if model.k_map is None else "theta", "data": encode_f64(k)},
        "training_report": model.training_report,
    }
    if nets:
        doc["net_params"] = encode_f64(np.concatenate(nets, axis=None))
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_model(path) -> KoopmanModel:
    """Rebuild a checkpoint's model as :func:`train` builds it, then fill in its parameters.

    The stored config is parsed like a config file's training block, so
    it passes the same field checks.  A header or payload that does not
    describe that model raises ``ValueError``: a document, ``header``,
    ``rep_x`` or payload field of the wrong JSON type, an unknown variant or
    config key, a config value of the wrong type or range, a
    ``latent_dim`` or observable other than the rebuilt model's, a
    commutant block layout that does not match, a payload of the wrong
    size, or a non-finite parameter.
    """
    doc = typed(json.loads(Path(path).read_text()), dict, "checkpoint")
    if doc.get("format") != "dha-model-v1":
        raise ValueError("not a model checkpoint")
    header = typed(doc["header"], dict, "header")
    rep_x = rep_from_descriptor(header["rep_x"])
    config = _parse_train_config(header["config"])
    model = _new_model(header["variant"], rep_x, config, np.random.default_rng(config.seed))
    stored = (header["latent_dim"], header["observable"])
    if stored != (model.latent_dim, model.observable):
        raise ValueError(
            f"checkpoint latent_dim and observable {stored} do not match the rebuilt "
            f"model's {(model.latent_dim, model.observable)}"
        )
    if model.k_map is not None and header.get("basis_fingerprint") != model.k_map.basis.layout_fingerprint():
        raise ValueError("checkpoint block layout does not match the rebuilt basis")
    *nets, k = _model_params(model)
    flat = decode_f64(typed(doc.get("net_params", ""), str, "net_params"))
    k_param = decode_f64(typed(typed(doc["k_payload"], dict, "k_payload")["data"], str, "k_payload.data"))
    if flat.size != sum(p.size for p in nets) or k_param.size != k.size:
        raise ValueError("checkpoint parameter payload does not match the architecture")
    if not (np.all(np.isfinite(flat)) and np.all(np.isfinite(k_param))):
        raise ValueError("checkpoint holds non-finite parameters")
    chunks = np.split(flat, np.cumsum([p.size for p in nets], dtype=int))
    _apply_params(model, [c.reshape(p.shape) for c, p in zip(chunks, nets)] + [k_param.reshape(k.shape)])
    model.training_report = doc.get("training_report")
    return model


def save_metrics_csv(report: dict, path):
    """Write the per-epoch metrics table of a training report."""
    cols = ["epoch", "train_loss", "val_loss", "recon_term", "latent_term", "spectral_radius"]
    lines = [",".join(cols)]
    for row in report["metrics"]:
        lines.append(",".join(fmt17(row[c]) if c != "epoch" else str(row[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")
