import hashlib

import numpy as np
import pytest

from dha.commutant import equivariance_residual
from dha.groups import (
    group_from_descriptor,
    make_cyclic,
    regular_rep_copies,
    regular_representation,
)
from dha.isotypic import isotypic_basis
from dha.systems import (
    InfeasibilityError,
    SymmetricLinearSystem,
    TrajectoryDataset,
    generate_dataset,
    import_trajectories,
    load_dataset,
    orbit_representative,
    random_symmetric_stable_system,
    rollout,
    save_dataset,
    system_noise,
)


def feasible_x0(system, seed=0, box=1.0):
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        x = rng.uniform(-box, box, system.dim)
        if system.feasible(x):
            return x
    raise AssertionError("no feasible point found")


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


def test_trivial_group_system_is_plain_random_stable():
    g = make_cyclic(1)
    rep = regular_rep_copies(g, 4)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, seed=1)
    assert abs(sys0.spectral_radius() - 0.9) <= 1e-8
    # No symmetry constraint: generically no zero structure.
    assert np.count_nonzero(sys0.a) == 16


@pytest.mark.parametrize("seed", range(5))
def test_system_postconditions(seed):
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.95, sigma=0.1, n_constraints=2, seed=seed)
    assert equivariance_residual(sys0.a, rep) <= 1e-10
    assert abs(sys0.spectral_radius() - 0.95) <= 1e-8
    assert sys0.constraints_closed(tol=1e-10)


def test_c2_block_spectra_match_isotypic_blocks():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 4)
    sys0 = random_symmetric_stable_system(g, rep, 0.95, seed=3)
    iso = isotypic_basis(rep)
    rotated = iso.q @ sys0.a @ iso.q.T
    per_block = []
    for blk in iso.blocks:
        per_block.extend(np.linalg.eigvals(rotated[blk.slice, blk.slice]))
    full = np.linalg.eigvals(sys0.a)
    assert np.allclose(
        np.sort_complex(np.array(per_block)), np.sort_complex(full), atol=1e-8
    )
    # Off-diagonal coupling between blocks vanishes for an equivariant matrix.
    for i, bi in enumerate(iso.blocks):
        for j, bj in enumerate(iso.blocks):
            if i != j:
                assert np.max(np.abs(rotated[bi.slice, bj.slice])) <= 1e-12


def test_bad_spectral_radius_rejected():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    with pytest.raises(ValueError):
        random_symmetric_stable_system(g, rep, 1.2, seed=0)


# ---------------------------------------------------------------------------
# Rollout
# ---------------------------------------------------------------------------


def test_scalar_geometric_decay():
    g = make_cyclic(1)
    rep = regular_rep_copies(g, 2)
    a = 0.5 * np.eye(2)
    sys0 = SymmetricLinearSystem(a, rep, 0.0, np.zeros((0, 2)), np.zeros(0), 0.5)
    x0 = np.array([1.0, -2.0])
    traj = rollout(sys0, x0, 10)
    for t in range(11):
        assert np.allclose(traj[t], 0.5**t * x0, atol=1e-14)


def test_noiseless_rollout_is_equivariant():
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.95, sigma=0.0, n_constraints=2, seed=5)
    x0 = feasible_x0(sys0, seed=2)
    base = rollout(sys0, x0, 60)
    for gg in g.elements():
        moved = rollout(sys0, rep.matrices[gg] @ x0, 60)
        assert np.max(np.abs(moved - base @ rep.matrices[gg].T)) <= 1e-10


def test_transported_noise_equivariance():
    g = group_from_descriptor("C2xC2")
    rep = regular_rep_copies(g, 8)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.05, n_constraints=1, seed=6)
    x0 = feasible_x0(sys0, seed=3)
    eps = system_noise(sys0, 40, noise_seed=9)
    base = rollout(sys0, x0, 40, noise=eps)
    for gg in g.elements():
        moved = rollout(sys0, rep.matrices[gg] @ x0, 40, noise=eps @ rep.matrices[gg].T)
        assert np.max(np.abs(moved - base @ rep.matrices[gg].T)) <= 1e-10


def test_noise_stream_is_counter_based_and_reproducible():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=1.0, seed=0)
    full = system_noise(sys0, 10, noise_seed=123)
    again = system_noise(sys0, 10, noise_seed=123)
    assert np.array_equal(full, again)
    # Prefix property: shorter draws agree with the prefix of longer ones.
    short = system_noise(sys0, 4, noise_seed=123)
    assert np.array_equal(short, full[:4])


def test_infeasible_initial_state_rejected():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    c = np.array([0.0, 0.0])
    sys0 = SymmetricLinearSystem(0.5 * np.eye(2), rep, 0.0, C, c, 0.5)
    with pytest.raises(InfeasibilityError):
        rollout(sys0, np.array([-1.0, -1.0]), 3)


def test_constraint_projection_restores_feasibility():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    # Symmetric pair of constraints: x_0 >= -0.2 and x_1 >= -0.2.
    C = np.eye(2)
    c = np.array([-0.2, -0.2])
    a = np.array([[0.0, 0.9], [0.9, 0.0]])  # equivariant swap-scaled dynamics
    sys0 = SymmetricLinearSystem(a, rep, 0.0, C, c, 0.9)
    traj = rollout(sys0, np.array([1.0, -0.2]), 20)
    assert np.all(traj @ C.T >= c - 1e-9)


def test_stability_envelope():
    g = make_cyclic(4)
    rep = regular_rep_copies(g, 8)
    for seed in range(3):
        sys0 = random_symmetric_stable_system(g, rep, 0.95, sigma=0.0, seed=seed)
        x0 = np.ones(8)
        traj = rollout(sys0, x0, 200)
        assert np.linalg.norm(traj[-1]) < np.linalg.norm(x0)


# ---------------------------------------------------------------------------
# Orbit representatives
# ---------------------------------------------------------------------------


def test_fixed_point_maps_to_identity():
    rep = regular_representation(make_cyclic(4))
    x = np.ones(4) * 0.3
    gid, canon = orbit_representative(x, rep)
    assert gid == 0
    assert np.array_equal(canon, x)


def test_c2_lexicographic_max():
    rep = regular_representation(make_cyclic(2))
    gid, canon = orbit_representative(np.array([1.0, 2.0]), rep)
    assert np.array_equal(canon, [2.0, 1.0])
    assert gid == 1


def test_canonical_form_is_orbit_invariant():
    rng = np.random.default_rng(5)
    rep = regular_rep_copies(group_from_descriptor("C2xC3"), 6)
    for _ in range(20):
        x = rng.standard_normal(6)
        _, canon = orbit_representative(x, rep)
        for g in rep.group.elements():
            _, canon2 = orbit_representative(rep.matrices[g] @ x, rep)
            assert np.array_equal(canon, canon2)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


def test_training_inits_are_canonical():
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.02, n_constraints=1, seed=0)
    ds = generate_dataset(sys0, n_train=12, n_test=8, horizon=20, seed=4)
    for i, tag in enumerate(ds.splits):
        if tag in ("train", "val"):
            gid, canon = orbit_representative(ds.trajectories[i, 0], rep)
            assert gid == 0
            assert np.array_equal(canon, ds.trajectories[i, 0])
    assert ds.splits.count("val") == max(1, round(0.1 * 12))


def test_init_box_bounds_broadcast_and_are_checked():
    g = make_cyclic(3)
    sys0 = random_symmetric_stable_system(g, regular_rep_copies(g, 6), 0.9, sigma=0.02, seed=0)
    scalar = generate_dataset(sys0, 4, 3, 5, init_box=0.5, seed=1)
    for box in ((-0.5, 0.5), (np.full(6, -0.5), 0.5), (np.full(6, -0.5), np.full(6, 0.5))):
        same = generate_dataset(sys0, 4, 3, 5, init_box=box, seed=1)
        assert np.array_equal(same.trajectories, scalar.trajectories)
    pair = generate_dataset(sys0, 4, 3, 5, init_box=(-1.0, 0.5), seed=1).trajectories[:, 0]
    assert np.all(pair >= -1.0) and np.all(pair <= 0.5)
    for box in ((-1.0, 0.5, 2.0), (np.zeros(5), 1.0), (1.0, -1.0), -1.0, (np.zeros(6), np.full(6, -1.0))):
        with pytest.raises(ValueError, match="init_box"):
            generate_dataset(sys0, 4, 3, 5, init_box=box, seed=1)


def test_trivial_group_train_and_test_share_distribution():
    g = make_cyclic(1)
    rep = regular_rep_copies(g, 3)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, seed=1)
    ds = generate_dataset(sys0, n_train=40, n_test=40, horizon=5, seed=2)
    # With only one quotient copy canonicalization is the identity, so both
    # splits draw from the same uniform box.
    train0 = ds.split("train")[:, 0]
    test0 = ds.split("test")[:, 0]
    assert np.max(np.abs(train0)) <= 1.0 and np.max(np.abs(test0)) <= 1.0
    assert abs(train0.mean() - test0.mean()) < 0.25


def test_test_inits_cover_quotient_copies_uniformly():
    # Monte-Carlo check of the copy distribution for C4 on uniform draws.
    g = make_cyclic(4)
    rep = regular_rep_copies(g, 4)
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        gid, _ = orbit_representative(rng.uniform(-1, 1, 4), rep)
        counts[gid] += 1
    fractions = counts / n
    assert np.all(np.abs(fractions - 0.25) <= 0.05)


def test_infeasible_box_raises():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    # Both rows demand x_i >= 2, impossible inside [-1, 1]^2.
    C = np.eye(2)
    c = np.array([2.0, 2.0])
    sys0 = SymmetricLinearSystem(0.5 * np.eye(2), rep, 0.0, C, c, 0.5)
    with pytest.raises(InfeasibilityError, match="feasible"):
        generate_dataset(sys0, n_train=2, n_test=0, horizon=3, seed=0)


def test_thin_feasible_set_found_in_halved_box():
    # Two constraint orbits at offsets in (-0.3, -0.1) leave a region around
    # the origin too small for 10 000 draws from [-1, 1]^16 to hit.
    g = group_from_descriptor("C2xC2xC2")
    rep = regular_rep_copies(g, 16)
    sys0 = random_symmetric_stable_system(g, rep, sigma=0.01, n_constraints=2, seed=1,
                                          offset_range=(-0.3, -0.1))
    data = generate_dataset(sys0, 4, 2, 5, seed=0)
    assert all(sys0.feasible(x) for x in data.trajectories[:, 0])


def test_infeasible_box_error_names_last_box():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    sys0 = SymmetricLinearSystem(0.5 * np.eye(2), rep, 0.0, np.eye(2), np.array([2.0, 2.0]), 0.5)
    with pytest.raises(InfeasibilityError, match=r"halved .* 8 times .*0\.0039"):
        generate_dataset(sys0, n_train=1, n_test=0, horizon=3, init_box=1.0, seed=0)


def test_diverging_projected_loop_error_names_trajectory_step_and_size():
    # No two constraint rows are nearly opposed, yet the projected closed
    # loop diverges (A has spectral radius 0.95 but norm 1.57): at ~3e11 a
    # 1e-6 violation is below rounding and 64 projection passes cannot close it.
    g = group_from_descriptor("C2xC2")
    rep = regular_rep_copies(g, 12, "X")
    sys0 = random_symmetric_stable_system(g, rep, 0.95, sigma=0.01, n_constraints=2, seed=81,
                                          offset_range=(-2.0, -1.0))
    rows = sys0.constraint_rows / np.linalg.norm(sys0.constraint_rows, axis=1, keepdims=True)
    assert np.min(rows @ rows.T) > 0.2
    with pytest.raises(InfeasibilityError, match=r"^trajectory 9, step 174: .* max\|x\| 3\.186e\+11"):
        generate_dataset(sys0, n_train=12, n_test=0, horizon=500, seed=81)


def test_dataset_files_roundtrip_and_determinism(tmp_path):
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.01, n_constraints=1, seed=2)
    ds = generate_dataset(sys0, n_train=5, n_test=3, horizon=12, seed=7)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(ds, d1)
    save_dataset(ds, d2)
    digests = []
    for d in (d1, d2):
        h = hashlib.sha256()
        for f in sorted(d.iterdir()):
            h.update(f.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    loaded = load_dataset(d1)
    assert np.array_equal(loaded.trajectories, ds.trajectories)
    assert loaded.splits == ds.splits
    assert loaded.rep_x.dim == 6

    # Regenerating with the same seed gives bitwise-identical data.
    ds_again = generate_dataset(sys0, n_train=5, n_test=3, horizon=12, seed=7)
    assert np.array_equal(ds_again.trajectories, ds.trajectories)


def test_importer_accepts_external_layout(tmp_path):
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 4)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.0, seed=3)
    ds = generate_dataset(sys0, n_train=3, n_test=2, horizon=6, seed=1)
    save_dataset(ds, tmp_path / "ext")
    imported = import_trajectories(
        tmp_path / "ext", {"group": "C2", "kind": "regular_copies", "copies": 2}
    )
    assert np.array_equal(imported.trajectories, ds.trajectories)
    relabeled = import_trajectories(tmp_path / "ext", rep, splits=["test"] * 5)
    assert set(relabeled.splits) == {"test"}


@pytest.mark.parametrize(
    "splits, message",
    [(("train", "val", "valid"), "trajectory 2 has unknown split tag 'valid'"),
     (("train", "test"), "2 split tags for 3 trajectories")],
)
def test_dataset_checks_split_tags(splits, message):
    rep = regular_rep_copies(make_cyclic(2), 2)
    with pytest.raises(ValueError, match=message):
        TrajectoryDataset(np.zeros((3, 4, 2)), splits, rep, 1.0, {})


def test_explicit_rep_descriptor_roundtrip():
    from dha.groups import conjugate_representation, irreps_real, rep_direct_sum
    from dha.systems import rep_descriptor, rep_from_descriptor

    rng = np.random.default_rng(0)
    g = make_cyclic(3)
    table = irreps_real(g)
    plain = rep_direct_sum([table[0].as_representation(), table[1].as_representation()])
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    scrambled = conjugate_representation(plain, v)
    desc = rep_descriptor(scrambled)
    assert desc["kind"] == "explicit"
    back = rep_from_descriptor(desc)
    assert np.array_equal(back.matrices, scrambled.matrices)
    reg_desc = rep_descriptor(regular_rep_copies(g, 6))
    assert reg_desc == {"group": "C3", "kind": "regular_copies", "copies": 2}
