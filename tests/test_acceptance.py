"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 7 and 8 train 24 autoencoder models and take
a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from dha.analysis import prediction_mse, spectrum
from dha.cli import cmd_sweep, validate_config, DEFAULT_CONFIG
from dha.commutant import (
    EquivariantLinearMap,
    assemble,
    commutant_basis,
    equivariant_project,
)
from dha.groups import (
    conjugate_representation,
    group_from_descriptor,
    irreps_real,
    regular_rep_copies,
    regular_representation,
    rep_direct_sum,
    make_cyclic,
)
from dha.isotypic import isotypic_basis, isotypic_project
from dha.koopman import (
    TrainConfig,
    edmd_fit,
    eedmd_fit,
    predict_batch,
    train,
    _batch_loss_and_grads,
)
from dha.systems import (
    TrajectoryDataset,
    generate_dataset,
    random_symmetric_stable_system,
    rollout,
    system_noise,
)

from conftest import ABELIAN_GROUPS_LE_16, random_orthogonal


def report(n, name, elapsed, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} [{name}]: PASS in {elapsed:.1f}s{extra}")


def scrambled(group, table, mults, rng):
    parts = []
    for ir, m in zip(table, mults):
        parts.extend([ir.as_representation()] * int(m))
    plain = rep_direct_sum(parts)
    return conjugate_representation(plain, random_orthogonal(rng, plain.dim))


# ---------------------------------------------------------------------------
# 1. Harmonic correctness
# ---------------------------------------------------------------------------


def test_criterion_1_harmonic_correctness():
    t0 = time.time()
    checked = 0
    for desc in ABELIAN_GROUPS_LE_16:
        group = group_from_descriptor(desc)
        table = irreps_real(group)
        rng = np.random.default_rng(42)
        for _ in range(50):
            mults = rng.integers(0, 3, size=len(table))
            if mults.sum() == 0:
                mults[0] = 1
            rep = scrambled(group, table, mults, rng)
            basis = isotypic_basis(rep)
            found = {blk.label: blk.multiplicity for blk in basis.blocks}
            recovered = [found.get(ir.label, 0) for ir in table]
            assert recovered == list(mults)
            assert basis.conjugation_residual() <= 1e-8
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, "harmonic correctness", elapsed, f"{checked} scrambled representations")


# ---------------------------------------------------------------------------
# 2. Schur / commutant oracle
# ---------------------------------------------------------------------------


def test_criterion_2_commutant_oracle():
    t0 = time.time()
    for desc in ABELIAN_GROUPS_LE_16:
        group = group_from_descriptor(desc)
        reg = regular_representation(group)
        iso = isotypic_basis(reg)
        cb = commutant_basis(iso)
        d = reg.dim
        rows = [
            np.kron(reg.matrices[g], np.eye(d)) - np.kron(np.eye(d), reg.matrices[g].T)
            for g in group.elements()
        ]
        svals = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
        null_dim = int(np.sum(svals <= 1e-8 * max(1.0, svals[0])))
        assert len(cb) == null_dim == group.order
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "commutant oracle", elapsed, f"{len(ABELIAN_GROUPS_LE_16)} regular representations")


# ---------------------------------------------------------------------------
# 3. Equivariant-fit oracle
# ---------------------------------------------------------------------------


def test_criterion_3_equivariant_fit_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    descs = ["C2", "C3", "C4", "C2xC2"]
    for trial in range(20):
        group = group_from_descriptor(descs[trial % 4])
        table = irreps_real(group)
        while True:
            mults = rng.integers(0, 3, size=len(table))
            dim = int(sum(m * ir.dim for m, ir in zip(mults, table)))
            if 2 <= dim <= 8:
                break
        rep = scrambled(group, table, mults, rng)
        iso = isotypic_basis(rep)
        n = rep.dim + 3
        x = rng.standard_normal((rep.dim, n))
        y = rng.standard_normal((rep.dim, n))
        x_aug = np.concatenate([m @ x for m in rep.matrices], axis=1)
        y_aug = np.concatenate([m @ y for m in rep.matrices], axis=1)
        oracle = equivariant_project(edmd_fit(x_aug, y_aug, ridge=0.0), rep)
        fitted = iso.q.T @ assemble(eedmd_fit(x, y, iso, ridge=0.0)) @ iso.q
        assert np.linalg.norm(fitted - oracle) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, "equivariant-fit oracle", elapsed, "20 instances")


# ---------------------------------------------------------------------------
# 4. Exact recovery with few snapshots
# ---------------------------------------------------------------------------


def test_criterion_4_exact_recovery():
    t0 = time.time()
    cases = [("C2", 4), ("C3", 6), ("C2xC2", 8), ("C4", 8), ("C3", 9)]
    for seed in range(10):
        desc, m = cases[seed % len(cases)]
        group = group_from_descriptor(desc)
        rep = regular_rep_copies(group, m, "X")
        system = random_symmetric_stable_system(group, rep, 0.95, seed=seed)
        iso = isotypic_basis(rep)
        cb = commutant_basis(iso)
        n = len(cb) + 2
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((m, n))
        y = system.a @ x
        fitted = iso.q.T @ assemble(eedmd_fit(x, y, iso, ridge=0.0)) @ iso.q
        assert np.linalg.norm(fitted - system.a) <= 1e-6
        if n < m:  # cannot occur for abelian groups: commutant dim >= m
            plain = edmd_fit(x, y, ridge=0.0)
            assert np.linalg.norm(plain - system.a) >= 1e-2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, "exact recovery", elapsed, "10 seeded instances at N = commutant dim + 2")


# ---------------------------------------------------------------------------
# 5. Gradient checks on the full equivariant autoencoder loss
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trained_edae():
    group = make_cyclic(2)
    rep = regular_rep_copies(group, 4, "X")
    system = random_symmetric_stable_system(group, rep, 0.95, sigma=0.02,
                                            n_constraints=1, seed=5)
    ds = generate_dataset(system, n_train=8, n_test=8, horizon=25, seed=6)
    cfg = TrainConfig(latent_dim=8, horizon=3, epochs=30, batch=64, lr=2e-3, seed=0)
    model = train("edae", ds, cfg)
    return system, ds, model


def test_criterion_5_gradient_checks(small_trained_edae):
    t0 = time.time()
    system, ds, model = small_trained_edae
    windows = ds.trajectories[:1, :4]  # one window, horizon 3
    gamma = float(np.sqrt(4 / 8))

    params = model.params.copy()
    _, _, _, grads = _batch_loss_and_grads(
        model.encoder, model.decoder, model.k_matrix, windows, gamma
    )
    grads_enc, grads_dec, dk = grads
    dtheta = np.tensordot(model.k_map.basis.basis_matrices, dk, axes=([1, 2], [0, 1]))
    analytic = np.concatenate(grads_enc + grads_dec + [dtheta], axis=None)
    assert analytic.size == params.size

    def loss_of(p):
        model.params[:] = p
        model._sync_params()
        value, _, _, _ = _batch_loss_and_grads(
            model.encoder, model.decoder, model.k_matrix, windows, gamma, need_grads=False
        )
        return value

    h = 1e-6
    n_checked = 0
    worst = 0.0
    for j in range(params.size):
        bumped = params.copy()
        bumped[j] = params[j] + h
        up = loss_of(bumped)
        bumped[j] = params[j] - h
        down = loss_of(bumped)
        fd = (up - down) / (2.0 * h)
        an = analytic[j]
        rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
        worst = max(worst, rel)
        assert rel <= 1e-4
        n_checked += 1
    loss_of(params)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, "gradient checks", elapsed, f"{n_checked} parameters, worst rel err {worst:.1e}")


# ---------------------------------------------------------------------------
# 6. Structural equivariance of trained models
# ---------------------------------------------------------------------------


def test_criterion_6_structural_equivariance(small_trained_edae):
    t0 = time.time()
    system, _, model = small_trained_edae
    rep = system.rep_x
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1.0, 1.0, (100, rep.dim))
    base = predict_batch(model, x0, 8)
    for g in rep.group.elements():
        moved = predict_batch(model, x0 @ rep.matrices[g].T, 8)
        ref = np.einsum("ij,bhj->bhi", rep.matrices[g], base)
        for b in range(100):
            norm = np.linalg.norm(base[b])
            assert np.linalg.norm(moved[b] - ref[b]) <= 1e-8 * max(norm, 1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(6, "structural equivariance", elapsed, "100 states x all group elements")


# ---------------------------------------------------------------------------
# 7 & 8. Desk-scale reproduction of the qualitative experiment claims
# ---------------------------------------------------------------------------

BUDGETS = (64, 256, 1024)
SEEDS = (0, 1, 2, 3)
EXP_STEPS = 3500
EXP_BOX = 2.0


def _paired_test_set(system, n_base, horizon, seed0, box):
    """Exact group copies of shared initial states with transported noise."""
    rep = system.rep_x
    rng = np.random.default_rng(seed0)
    trajs, tags = [], []
    made = 0
    while made < n_base:
        x0 = rng.uniform(-box, box, system.dim)
        if not system.feasible(x0):
            continue
        eps = system_noise(system, horizon, noise_seed=77000 + made)
        for g in rep.group.elements():
            trajs.append(
                rollout(system, rep.matrices[g] @ x0, horizon, noise=eps @ rep.matrices[g].T)
            )
            tags.append("test")
        made += 1
    return TrajectoryDataset(np.array(trajs), tuple(tags), rep, 1.0, {})


@pytest.fixture(scope="module")
def sample_efficiency_experiment():
    """C3 system, m=6, latent 12, sigma=0.01; budgets x seeds x variants.

    Every run gets the same optimizer-step budget so the axis isolates the
    data budget.  Models at the largest budget are reused for the
    quotient-generalization criterion, evaluated on a paired test set.
    """
    t0 = time.time()
    group = make_cyclic(3)
    rep = regular_rep_copies(group, 6, "X")
    system = random_symmetric_stable_system(
        group, rep, 0.97, sigma=0.01, n_constraints=2, seed=0, offset_range=(-0.3, -0.1)
    )
    paired = _paired_test_set(system, 24, 12, seed0=999, box=EXP_BOX)
    mse, per_copy = {}, {}
    for seed in SEEDS:
        ds = generate_dataset(system, n_train=28, n_test=48, horizon=50,
                              seed=100 + seed, init_box=EXP_BOX)
        for budget in BUDGETS:
            epochs = int(np.ceil(EXP_STEPS / np.ceil(budget / 64)))
            for variant in ("dae", "edae"):
                cfg = TrainConfig(
                    latent_dim=12, horizon=10, gamma=None, lr=1e-3, epochs=epochs,
                    batch=64, seed=seed, patience=10**9, hidden_layers=2, width=24,
                    max_windows=budget,
                )
                model = train(variant, ds, cfg)
                mse[(variant, budget, seed)] = prediction_mse(model, ds, horizon=10).aggregate
                if budget == BUDGETS[-1]:
                    per_copy[(variant, seed)] = prediction_mse(model, paired, horizon=10).per_copy
    return {"mse": mse, "per_copy": per_copy, "elapsed": time.time() - t0}


def test_criterion_7_sample_efficiency_ordering(sample_efficiency_experiment):
    exp = sample_efficiency_experiment
    mse = exp["mse"]
    gaps = {}
    for budget in BUDGETS:
        dae_mean = float(np.mean([mse[("dae", budget, s)] for s in SEEDS]))
        edae_mean = float(np.mean([mse[("edae", budget, s)] for s in SEEDS]))
        assert edae_mean <= dae_mean, f"budget {budget}: eDAE {edae_mean} > DAE {dae_mean}"
        gaps[budget] = dae_mean - edae_mean
    assert gaps[BUDGETS[0]] > gaps[BUDGETS[-1]], (
        f"gap at smallest budget {gaps[BUDGETS[0]]:.4f} does not exceed "
        f"gap at largest {gaps[BUDGETS[-1]]:.4f}"
    )
    assert exp["elapsed"] < 600.0
    detail = ", ".join(f"gap@{b}={gaps[b]:.3f}" for b in BUDGETS)
    report(7, "sample-efficiency ordering", exp["elapsed"], detail)


def test_criterion_8_quotient_generalization(sample_efficiency_experiment):
    t0 = time.time()
    per_copy = sample_efficiency_experiment["per_copy"]
    edae_ok = 0
    dae_hits = 0
    for seed in SEEDS:
        copies = per_copy[("edae", seed)]
        worst, best = max(copies.values()), min(copies.values())
        if (worst - best) / worst <= 0.05:
            edae_ok += 1
        copies = per_copy[("dae", seed)]
        if max(copies.values()) >= 2.0 * copies[0]:
            dae_hits += 1
    assert edae_ok == len(SEEDS), f"eDAE per-copy spread above 5% on {len(SEEDS) - edae_ok} seeds"
    assert dae_hits >= 3, f"DAE worst-copy error >= 2x train-copy on only {dae_hits}/4 seeds"
    report(8, "quotient generalization", time.time() - t0,
           f"eDAE spread <= 5% on {edae_ok}/4, DAE >= 2x on {dae_hits}/4")


# ---------------------------------------------------------------------------
# 9. Parseval and spectrum invariants
# ---------------------------------------------------------------------------


def test_criterion_9_parseval_and_spectrum():
    t0 = time.time()
    group = make_cyclic(5)
    rep = regular_rep_copies(group, 10, "X")
    basis = isotypic_basis(rep)
    rng = np.random.default_rng(13)

    vectors = rng.standard_normal((1000, 10))
    comps = np.stack(
        [isotypic_project(vectors, basis, i) for i in range(len(basis.blocks))]
    )
    assert np.max(np.abs(comps.sum(axis=0) - vectors)) <= 1e-12
    energies = np.sum(comps * comps, axis=2).sum(axis=0)
    assert np.max(np.abs(energies - np.sum(vectors * vectors, axis=1))) <= 1e-12

    cb = commutant_basis(basis)
    for _ in range(1000):
        emap = EquivariantLinearMap(cb, rng.standard_normal(len(cb)))
        rep_spec = spectrum(emap)
        full = np.linalg.eigvals(assemble(emap))
        tagged = np.concatenate(rep_spec.eigenvalues)
        assert tagged.size == full.size
        dist = np.abs(np.sort_complex(tagged) - np.sort_complex(full))
        assert np.max(dist) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(9, "Parseval and spectrum invariants", elapsed, "1000 vectors, 1000 operators")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_10_sweep_determinism(tmp_path):
    import hashlib

    t0 = time.time()
    config = dict(DEFAULT_CONFIG)
    config.update(
        {
            "group": "C2",
            "state_dim": 4,
            "sigma": 0.01,
            "n_constraints": 1,
            "dataset": {"n_train": 4, "n_test": 6, "horizon": 20, "init_box": 1.0, "seed": 0},
            "variants": ["edmd", "eedmd"],
            "training": dict(DEFAULT_CONFIG["training"], latent_dim=4, horizon=5, epochs=2),
            "eval_horizon": 5,
            "seeds": [0, 1],
            "output_dir": None,
        }
    )
    validate_config(config)

    def tree_hash(root):
        h = hashlib.sha256()
        for f in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
        return h.hexdigest()

    a = cmd_sweep(config, "samples", [20, 40], out_dir=tmp_path / "a", workers=1)
    b = cmd_sweep(config, "samples", [20, 40], out_dir=tmp_path / "b", workers=1)
    ha, hb = tree_hash(a), tree_hash(b)
    assert ha == hb
    report(10, "end-to-end determinism", time.time() - t0, f"tree hash {ha[:12]}")
