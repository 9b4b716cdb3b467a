import numpy as np
import pytest

from dha.commutant import assemble, equivariance_residual, equivariant_project
from dha.groups import group_from_descriptor, make_cyclic, regular_rep_copies
from dha.isotypic import isotypic_basis
from dha.koopman import (
    KoopmanModel,
    TrainConfig,
    _batch_loss_and_grads,
    edmd_fit,
    eedmd_fit,
    load_model,
    n_trainable_params,
    predict_batch,
    save_metrics_csv,
    save_model,
    snapshot_pairs,
    train,
)
from dha.nets import Layer, Network, TrainingDivergenceError
from dha.systems import generate_dataset, random_symmetric_stable_system, rollout


def make_dataset(desc="C3", m=6, sigma=0.0, n_constraints=0, n_train=8, n_test=8,
                 horizon=40, sys_seed=3, data_seed=1, radius=0.95):
    g = group_from_descriptor(desc)
    rep = regular_rep_copies(g, m, "X")
    system = random_symmetric_stable_system(
        g, rep, radius, sigma=sigma, n_constraints=n_constraints, seed=sys_seed
    )
    ds = generate_dataset(system, n_train=n_train, n_test=n_test, horizon=horizon, seed=data_seed)
    return system, ds


def identity_model(k):
    """Linear autoencoder with identity encoder/decoder around operator k."""
    m = k.shape[0]
    enc = Network([Layer("dense", "identity", weight=np.eye(m), bias=np.zeros(m))])
    dec = Network([Layer("dense", "identity", weight=np.eye(m), bias=np.zeros(m))])
    rep = regular_rep_copies(make_cyclic(1), m, "X")
    return KoopmanModel("dae", rep, m, k, encoder=enc, decoder=dec)


def dae_loss(model, window, gamma=None):
    """Per-window reference for the loss the train step minimizes: ``(loss, recon, latent)``.

    ``window`` holds states ``x_t .. x_{t+H}``; the loss is
    ``sum_h ||x_{t+h} - dec(K^h z_t)||^2 + gamma ||enc(x_{t+h}) - K^h z_t||^2``
    with ``z_t = enc(x_t)``, rolled out one matrix-vector product at a time.
    ``gamma`` defaults to the train step's ``sqrt(state_dim / latent_dim)``.
    """
    if gamma is None:
        gamma = np.sqrt(model.state_dim / model.latent_dim)
    z = model.encode(window)
    zhat = [z[0]]
    for _ in range(len(window) - 1):
        zhat.append(model.k_matrix @ zhat[-1])
    zhat = np.array(zhat)
    recon = float(np.sum((model.decode(zhat) - window) ** 2))
    latent = float(np.sum((zhat[1:] - z[1:]) ** 2))
    return recon + gamma * latent, recon, latent


# ---------------------------------------------------------------------------
# Closed-form fits
# ---------------------------------------------------------------------------


def test_edmd_self_map_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 10))
    k = edmd_fit(x, x, ridge=0.0)
    assert np.max(np.abs(k - np.eye(3))) <= 1e-10


def test_edmd_recovers_noiseless_linear_system():
    system, ds = make_dataset(sigma=0.0)
    x, y = snapshot_pairs(ds)
    k = edmd_fit(x, y, ridge=0.0)
    assert np.linalg.norm(k - system.a) <= 1e-8


def test_edmd_single_pair_pseudo_inverse_convention():
    x = np.array([[1.0], [0.0]])
    y = np.array([[0.0], [1.0]])
    k = edmd_fit(x, y, ridge=0.0)
    assert np.allclose(k, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_edmd_shape_validation():
    with pytest.raises(ValueError):
        edmd_fit(np.zeros((2, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        edmd_fit(np.zeros((2, 5)), np.zeros((2, 5)), ridge=-1.0)


def test_eedmd_recovers_with_fewer_snapshots_than_edmd():
    system, ds = make_dataset(sigma=0.0)
    iso = isotypic_basis(system.rep_x)
    x, y = snapshot_pairs(ds)
    xs, ys = x[:, :3], y[:, :3]  # 3 snapshot pairs < state dim 6
    emap = eedmd_fit(xs, ys, iso, ridge=0.0)
    k_eq = iso.q.T @ assemble(emap) @ iso.q
    assert np.linalg.norm(k_eq - system.a) <= 1e-8
    k_plain = edmd_fit(xs, ys, ridge=0.0)
    assert np.linalg.norm(k_plain - system.a) >= 1e-2


def test_eedmd_equals_projected_augmented_edmd():
    rng = np.random.default_rng(1)
    for desc in ["C2", "C3", "C4", "C2xC2"]:
        g = group_from_descriptor(desc)
        rep = regular_rep_copies(g, 2 * g.order)
        iso = isotypic_basis(rep)
        x = rng.standard_normal((rep.dim, rep.dim + 3))
        y = rng.standard_normal((rep.dim, rep.dim + 3))
        x_aug = np.concatenate([m @ x for m in rep.matrices], axis=1)
        y_aug = np.concatenate([m @ y for m in rep.matrices], axis=1)
        oracle = equivariant_project(edmd_fit(x_aug, y_aug, ridge=0.0), rep)
        k_eq = iso.q.T @ assemble(eedmd_fit(x, y, iso, ridge=0.0)) @ iso.q
        assert np.max(np.abs(k_eq - oracle)) <= 1e-8


def test_eedmd_equivariant_generalization_across_copies():
    # Fit on snapshots from one quotient copy; the fitted operator is a
    # single global matrix, so per-copy prediction errors coincide.
    system, ds = make_dataset(sigma=0.0, n_train=6, n_test=0)
    iso = isotypic_basis(system.rep_x)
    x, y = snapshot_pairs(ds)
    emap = eedmd_fit(x, y, iso, ridge=0.0)
    k_eq = iso.q.T @ assemble(emap) @ iso.q
    rng = np.random.default_rng(2)
    x0 = rng.uniform(-1, 1, system.dim)
    rep = system.rep_x
    errs = []
    for g in rep.group.elements():
        start = rep.matrices[g] @ x0
        truth = rollout(system, start, 10)
        pred = start.copy()
        err = 0.0
        for t in range(1, 11):
            pred = k_eq @ pred
            err += float(np.sum((pred - truth[t]) ** 2))
        errs.append(err)
    assert np.max(errs) - np.min(errs) <= 1e-8 * max(1e-12, np.max(errs))


def test_eedmd_large_ridge_shrinks_to_zero():
    system, ds = make_dataset()
    iso = isotypic_basis(system.rep_x)
    x, y = snapshot_pairs(ds)
    emap = eedmd_fit(x, y, iso, ridge=1e12)
    assert np.max(np.abs(emap.theta)) <= 1e-6


# ---------------------------------------------------------------------------
# The autoencoder loss
# ---------------------------------------------------------------------------


def test_perfect_linear_autoencoder_has_zero_loss():
    system, ds = make_dataset(sigma=0.0, m=6)
    model = identity_model(system.a.copy())
    model.rep_x = system.rep_x
    window = ds.trajectories[0, :11]
    loss, _, _ = dae_loss(model, window, gamma=1.0)
    assert loss <= 1e-12


def test_gamma_zero_drops_latent_term():
    k = np.array([[0.4]])
    model = identity_model(k)
    window = np.array([[1.0], [0.5]])
    loss, recon, latent = dae_loss(model, window, gamma=0.0)
    assert loss == pytest.approx(recon)
    assert latent > 0.0  # still reported, just unweighted


def test_hand_computed_two_step_loss():
    # Scalar system x' = 0.5 x, identity nets, K = 0.4, x_t = 1, gamma = 1:
    # loss = (1-1)^2 + (0.5-0.4)^2 + (0.5-0.4)^2 = 0.02.
    model = identity_model(np.array([[0.4]]))
    loss, recon, latent = dae_loss(model, np.array([[1.0], [0.5]]), gamma=1.0)
    assert loss == pytest.approx(0.02)
    assert recon == pytest.approx(0.01)
    assert latent == pytest.approx(0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_rollout_raises_training_divergence():
    # K = 1e200 overflows the latent rollout at h = 2, so the loss is not finite.
    model = identity_model(np.array([[1e200]]))
    windows = np.ones((1, 4, 1))
    with pytest.raises(TrainingDivergenceError, match="non-finite training loss"):
        _batch_loss_and_grads(model.encoder, model.decoder, model.k_matrix, windows, 1.0)


@pytest.mark.parametrize("desc", ["C3", "C2xC2"])
@pytest.mark.parametrize("variant", ["dae", "dae_aug", "edae"])
def test_dae_loss_is_the_loss_training_minimizes(desc, variant):
    # The reference dae_loss (one window, default gamma) and the training step's
    # batch loss agree per window and on the mean.
    from dha.koopman import _apply_params, _model_params, _new_model

    group = group_from_descriptor(desc)
    rep = regular_rep_copies(group, 2 * group.order, "X")
    cfg = TrainConfig(latent_dim=group.order, horizon=6, hidden_layers=1, width=2 * group.order)
    rng = np.random.default_rng(5)
    model = _new_model(variant, rep, cfg, rng)
    _apply_params(model, [p + 0.1 * rng.standard_normal(p.shape) for p in _model_params(model)])
    windows = rng.standard_normal((5, cfg.horizon + 1, rep.dim))
    gamma = float(np.sqrt(rep.dim / cfg.latent_dim))  # train's default

    def batch_loss(w):
        return _batch_loss_and_grads(model.encoder, model.decoder, model.k_matrix, w, gamma,
                                     need_grads=False)[0]

    per_window = [dae_loss(model, w)[0] for w in windows]
    for w, want in zip(windows, per_window):
        assert abs(batch_loss(w[None]) - want) <= 1e-12 * abs(want)
    mean = float(np.mean(per_window))
    assert abs(batch_loss(windows) - mean) <= 1e-12 * abs(mean)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initialized_model():
    _, ds = make_dataset(sigma=0.01)
    cfg = TrainConfig(latent_dim=12, horizon=5, epochs=0, seed=0)
    model = train("edae", ds, cfg)
    assert model.training_report["best_epoch"] == -1
    # The initial operator is the identity in commutant coordinates.
    assert np.max(np.abs(model.k_matrix - np.eye(12))) <= 1e-9
    loss, _, _ = dae_loss(model, ds.trajectories[0, :6])
    assert np.isfinite(loss)


def test_linear_dae_approaches_edmd_train_loss():
    # 2-dimensional C2-symmetric system, identity-activation nets with no
    # hidden layers: the trained model's mean window loss should come
    # within 5% of the loss of the one-step least-squares solution.
    system, ds = make_dataset(desc="C2", m=2, sigma=0.05, n_train=6, n_test=0, horizon=30)
    x, y = snapshot_pairs(ds)
    k_ref = edmd_fit(x, y)
    ref_model = identity_model(k_ref)
    cfg = TrainConfig(
        latent_dim=2, horizon=3, epochs=400, batch=64, lr=1e-2, seed=1,
        hidden_layers=0, patience=400, gamma=1.0,
    )
    model = train("dae", ds, cfg)

    def mean_window_loss(m):
        losses = []
        for i, tag in enumerate(ds.splits):
            if tag != "train":
                continue
            traj = ds.trajectories[i]
            for t in range(len(traj) - 3):
                losses.append(dae_loss(m, traj[t:t + 4], gamma=1.0)[0])
        return float(np.mean(losses))

    trained = mean_window_loss(model)
    reference = mean_window_loss(ref_model)
    assert trained <= 1.05 * reference


def test_edae_stays_equivariant_after_training():
    system, ds = make_dataset(desc="C2", m=4, sigma=0.01, horizon=20)
    cfg = TrainConfig(latent_dim=8, horizon=4, epochs=5, seed=2)
    model = train("edae", ds, cfg)
    assert equivariance_residual(
        assemble(model.k_map), model.k_map.basis.rep
    ) <= 1e-10
    rep = system.rep_x
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, (10, 4))
    base = predict_batch(model, x0, 6)
    for g in rep.group.elements():
        moved = predict_batch(model, x0 @ rep.matrices[g].T, 6)
        ref = np.einsum("ij,bhj->bhi", rep.matrices[g], base)
        assert np.linalg.norm(moved - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))


def test_dae_aug_runs_and_differs_from_dae():
    _, ds = make_dataset(desc="C2", m=4, sigma=0.01, horizon=20)
    cfg = TrainConfig(latent_dim=8, horizon=4, epochs=3, seed=0)
    plain = train("dae", ds, cfg)
    aug = train("dae_aug", ds, cfg)
    assert not np.array_equal(plain.k_matrix, aug.k_matrix)


def test_training_determinism():
    _, ds = make_dataset(desc="C3", m=6, sigma=0.01, horizon=20)
    cfg = TrainConfig(latent_dim=6, horizon=4, epochs=4, seed=9)
    a = train("edae", ds, cfg)
    b = train("edae", ds, cfg)
    assert np.array_equal(a.k_matrix, b.k_matrix)
    for p, q in zip(a.encoder.parameters(), b.encoder.parameters()):
        assert np.array_equal(p, q)


def test_unknown_variant_rejected():
    _, ds = make_dataset()
    with pytest.raises(ValueError, match="variant"):
        train("kdmd", ds, TrainConfig(latent_dim=6))


def test_latent_dim_must_fit_group():
    _, ds = make_dataset(desc="C3")
    with pytest.raises(ValueError, match="regular-representation"):
        train("edae", ds, TrainConfig(latent_dim=7, epochs=1))


def test_edae_width_must_fit_group():
    _, ds = make_dataset(desc="C3")
    with pytest.raises(ValueError, match="width 5"):
        train("edae", ds, TrainConfig(latent_dim=6, width=5, epochs=1))


@pytest.mark.parametrize(
    "field, value",
    [("epochs", "3"), ("seed", "x"), ("width", "6"), ("batch", True), ("horizon", 2.0),
     ("lr", -1e-3), ("gamma", float("nan")), ("max_windows", 0), ("latent_dim", -1),
     ("observable", None), ("observable", "poly3"), ("decoder_equivariant", 1)],
)
def test_train_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=f"training setting {field} "):
        TrainConfig(**{field: value})


def test_train_config_keeps_values_as_given():
    cfg = TrainConfig(lr=1, gamma=2, ridge=0, width=None)
    assert (type(cfg.lr), type(cfg.gamma), type(cfg.ridge)) == (int, int, int)


# ---------------------------------------------------------------------------
# Loss gradients through the full pipeline
# ---------------------------------------------------------------------------


def test_full_loss_gradient_matches_finite_differences():
    _, ds = make_dataset(desc="C2", m=4, sigma=0.05, horizon=12)
    cfg = TrainConfig(latent_dim=4, horizon=3, epochs=0, seed=4, hidden_layers=1, width=4)
    model = train("edae", ds, cfg)
    windows = ds.trajectories[:2, :4]
    gamma = 1.0

    def loss_of(params):
        from dha.koopman import _apply_params
        _apply_params(model, params)
        loss, _, _, _ = _batch_loss_and_grads(
            model.encoder, model.decoder, model.k_matrix, windows, gamma, need_grads=False
        )
        return loss

    from dha.koopman import _apply_params, _model_params
    params = _model_params(model)
    _apply_params(model, params)
    loss, _, _, grads = _batch_loss_and_grads(
        model.encoder, model.decoder, model.k_matrix, windows, gamma
    )
    grads_enc, grads_dec, dk = grads
    dtheta = np.tensordot(model.k_map.basis.basis_matrices, dk, axes=([1, 2], [0, 1]))
    analytic = grads_enc + grads_dec + [dtheta]
    h = 1e-6
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        for j in range(min(flat.size, 25)):
            bumped = [q.copy() for q in params]
            bumped[pi].reshape(-1)[j] = flat[j] + h
            up = loss_of(bumped)
            bumped[pi].reshape(-1)[j] = flat[j] - h
            down = loss_of(bumped)
            fd = (up - down) / (2 * h)
            an = analytic[pi].reshape(-1)[j]
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd), abs(an))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def test_zero_horizon_prediction_is_empty():
    system, ds = make_dataset()
    model = train("edmd", ds, TrainConfig())
    assert predict_batch(model, ds.trajectories[:1, 0], 0).shape == (1, 0, 6)


def test_exact_model_matches_noiseless_rollout():
    system, ds = make_dataset(sigma=0.0)
    model = train("edmd", ds, TrainConfig(ridge=0.0))
    x0 = ds.trajectories[0, 0]
    truth = rollout(system, x0, 15)
    pred = predict_batch(model, x0[None], 15)[0]
    assert np.max(np.abs(pred - truth[1:])) <= 1e-8


def test_eigenvector_orbit_law():
    rng = np.random.default_rng(8)
    g = make_cyclic(5)
    rep = regular_rep_copies(g, 10)
    iso = isotypic_basis(rep)
    from dha.commutant import commutant_basis, EquivariantLinearMap

    cb = commutant_basis(iso)
    emap = EquivariantLinearMap(cb, rng.standard_normal(len(cb)))
    k = assemble(emap)
    rho = iso.rotated_rep()
    vals, vecs = np.linalg.eig(k)
    for lam, v in zip(vals, vecs.T):
        for gg in g.elements():
            gv = rho.matrices[gg] @ v
            assert np.linalg.norm(k @ gv - lam * gv) <= 1e-8 * np.linalg.norm(v)


def test_parameter_count_ordering():
    _, ds = make_dataset(desc="C3", m=6, sigma=0.01, horizon=15)
    cfg = TrainConfig(latent_dim=12, horizon=3, epochs=0, seed=0)
    edae = train("edae", ds, cfg)
    dae = train("dae", ds, cfg)
    assert n_trainable_params(edae) < n_trainable_params(dae)


@pytest.mark.parametrize("observable, n_edmd, n_eedmd", [("identity", 36, 12), ("poly2", 729, 243)])
def test_parameter_count_includes_every_fitted_operator(observable, n_edmd, n_eedmd):
    # C3, m = 6: edmd fits a full latent_dim x latent_dim operator (6 or
    # 6 + 21 = 27 features), eedmd only its commutant coordinates.
    _, ds = make_dataset(desc="C3", m=6, sigma=0.01, horizon=15)
    edmd = train("edmd", ds, TrainConfig(observable=observable))
    eedmd = train("eedmd", ds, TrainConfig(observable=observable))
    assert n_trainable_params(edmd) == edmd.latent_dim ** 2 == n_edmd
    assert n_trainable_params(eedmd) == eedmd.k_map.theta.size == n_eedmd


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["edmd", "eedmd", "dae", "dae_aug", "edae"])
def test_checkpoint_roundtrip(variant, tmp_path):
    _, ds = make_dataset(desc="C2", m=4, sigma=0.01, horizon=15)
    cfg = TrainConfig(latent_dim=8, horizon=3, epochs=2, seed=1)
    model = train(variant, ds, cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    x0 = ds.trajectories[:1, 0]
    assert np.array_equal(predict_batch(loaded, x0, 5), predict_batch(model, x0, 5))
    assert loaded.spectral_radius == pytest.approx(model.spectral_radius)


def test_poly2_observables_roundtrip(tmp_path):
    _, ds = make_dataset(desc="C2", m=2, sigma=0.02, horizon=15)
    cfg = TrainConfig(observable="poly2", ridge=None)
    for variant in ("edmd", "eedmd"):
        model = train(variant, ds, cfg)
        assert model.latent_dim == 2 + 3
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        loaded = load_model(path)
        x0 = ds.trajectories[:1, 0]
        assert np.allclose(predict_batch(loaded, x0, 4), predict_batch(model, x0, 4), atol=1e-12)


def test_metrics_csv(tmp_path):
    _, ds = make_dataset(desc="C2", m=4, sigma=0.01, horizon=15)
    model = train("dae", ds, TrainConfig(latent_dim=4, horizon=3, epochs=3, seed=0))
    path = tmp_path / "metrics.csv"
    save_metrics_csv(model.training_report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,recon_term,latent_term,spectral_radius"
    assert len(lines) == 4


def test_dae_loss_applies_to_closed_form_variants():
    system, ds = make_dataset(sigma=0.0)
    model = train("edmd", ds, TrainConfig(ridge=0.0))
    loss, recon, latent = dae_loss(model, ds.trajectories[0, :5], gamma=1.0)
    assert loss <= 1e-12  # exact operator, identity observables
    assert recon <= 1e-12 and latent <= 1e-12
