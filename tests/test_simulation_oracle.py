"""The batched simulator and CSV writer against the per-trajectory reference.

The oracle below is the per-trajectory simulation loop the library used
before it stepped all trajectories of a dataset together: a fresh Philox
generator for every step and constraint projection row by row.  Every
check is bitwise equality, not a tolerance.
"""

import numpy as np
import pytest

from dha._util import fmt17
from dha.groups import group_from_descriptor, regular_rep_copies
from dha.systems import (
    TrajectoryDataset,
    _traj_noise_key,
    generate_dataset,
    orbit_representative,
    random_symmetric_stable_system,
    rollout,
    save_dataset,
    system_noise,
)

GROUPS = ["C2", "C3", "C2xC2", "C2xC2xC2"]


def oracle_noise(system, steps, noise_seed):
    out = np.zeros((steps, system.dim))
    if system.sigma == 0.0:
        return out
    for t in range(steps):
        gen = np.random.Generator(np.random.Philox(key=noise_seed, counter=[0, 0, t, 0]))
        out[t] = system.sigma * gen.standard_normal(system.dim)
    return out


def oracle_project(x, C, c, counter, max_passes=8):
    for _ in range(max_passes):
        clean = True
        for k in range(C.shape[0]):
            gap = float(C[k] @ x - c[k])
            if gap < -1e-12:
                x = x - gap / float(C[k] @ C[k]) * C[k]
                clean = False
                counter[0] += 1
        if clean:
            return x
    return x


def oracle_rollout(system, x0, steps, noise_seed=0, noise=None, counter=None):
    counter = [0] if counter is None else counter
    eps = oracle_noise(system, steps, noise_seed) if noise is None else np.asarray(noise)
    traj = np.zeros((steps + 1, system.dim))
    traj[0] = x0
    C, c = system.constraint_rows, system.constraint_offsets
    x = np.asarray(x0, dtype=np.float64)
    for t in range(steps):
        x = system.a @ x + eps[t]
        if C.shape[0]:
            x = oracle_project(x, C, c, counter)
        traj[t + 1] = x
    return traj


def oracle_trajectories(system, n_train, n_test, horizon, seed, counter):
    m = system.dim
    low, high = -np.ones(m), np.ones(m)
    rng_train = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    rng_test = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    def draw(rng):
        while True:
            x = rng.uniform(low, high)
            if system.feasible(x):
                return x

    trajs = np.zeros((n_train + n_test, horizon + 1, m))
    for i in range(n_train):
        _, x0 = orbit_representative(draw(rng_train), system.rep_x)
        trajs[i] = oracle_rollout(system, x0, horizon, _traj_noise_key(seed, i), counter=counter)
    for i in range(n_test):
        x0 = draw(rng_test)
        key = _traj_noise_key(seed, n_train + i)
        trajs[n_train + i] = oracle_rollout(system, x0, horizon, key, counter=counter)
    return trajs


def oracle_save(dataset, directory):
    header = "t," + ",".join(f"x{j}" for j in range(dataset.dim))
    for i in range(dataset.n_trajectories):
        lines = [header]
        for t in range(dataset.horizon + 1):
            lines.append(f"{t}," + ",".join(fmt17(v) for v in dataset.trajectories[i, t]))
        (directory / f"traj_{i:05d}.csv").write_text("\n".join(lines) + "\n")


def make_system(descriptor, sigma, n_constraints, seed=0):
    group = group_from_descriptor(descriptor)
    rep = regular_rep_copies(group, 2 * group.order, "X")
    # Offsets close to the origin make the constraints bind during rollouts.
    return random_symmetric_stable_system(
        group, rep, 0.95, sigma=sigma, n_constraints=n_constraints, seed=seed,
        offset_range=(-0.45, -0.15),
    )


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_constraints", [0, 1, 2])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("descriptor", GROUPS)
def test_generate_dataset_matches_per_trajectory_oracle(descriptor, sigma, n_constraints):
    system = make_system(descriptor, sigma, n_constraints)
    counter = [0]
    expected = oracle_trajectories(system, 5, 6, 40, seed=3, counter=counter)
    ds = generate_dataset(system, 5, 6, 40, seed=3)
    assert_bitwise(ds.trajectories, expected)
    if n_constraints:
        # The constrained cases really exercise the projection.
        assert counter[0] > 0


@pytest.mark.parametrize("n_constraints", [0, 2])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("descriptor", GROUPS)
def test_rollout_and_noise_match_oracle(descriptor, sigma, n_constraints):
    system = make_system(descriptor, sigma, n_constraints, seed=1)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-0.3, 0.3, system.dim)
    while not system.feasible(x0):
        x0 = rng.uniform(-0.3, 0.3, system.dim)
    key = _traj_noise_key(9, 4)
    assert_bitwise(system_noise(system, 30, key), oracle_noise(system, 30, key))
    assert_bitwise(rollout(system, x0, 30, noise_seed=key), oracle_rollout(system, x0, 30, key))
    g = system.rep_x.group.order - 1
    moved = system.rep_x.matrices[g]
    noise = oracle_noise(system, 30, key) @ moved.T + 0.01 * rng.standard_normal((30, system.dim))
    assert_bitwise(rollout(system, moved @ x0, 30, noise=noise),
                   oracle_rollout(system, moved @ x0, 30, noise=noise))


def test_rollout_is_a_dataset_trajectory():
    system = make_system("C2xC2", 0.05, 2)
    ds = generate_dataset(system, 4, 3, 25, seed=7)
    for i in range(ds.n_trajectories):
        again = rollout(system, ds.trajectories[i, 0], 25, noise_seed=_traj_noise_key(7, i))
        assert_bitwise(again, ds.trajectories[i])


def test_save_dataset_bytes_match_fmt17_writer(tmp_path):
    system = make_system("C3", 0.05, 2)
    ds = generate_dataset(system, 3, 2, 12, seed=1)
    trajs = np.array(ds.trajectories)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.0, 0.1, 1 / 3, 123456789.0]
    trajs[0].reshape(-1)[6:6 + len(special)] = special
    ds = TrajectoryDataset(trajs, ds.splits, ds.rep_x, ds.dt, ds.provenance)
    save_dataset(ds, tmp_path / "new")
    (tmp_path / "old").mkdir()
    oracle_save(ds, tmp_path / "old")
    for i in range(ds.n_trajectories):
        name = f"traj_{i:05d}.csv"
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
