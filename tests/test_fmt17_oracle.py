"""The vectorized ``%.17g`` kernel and the dataset writer against CPython.

``_fmt17_fields`` must give exactly the bytes of ``"%.17g" % v`` for every
double: the exact integer path (``1e-10 <= |x| < 1e15``) and the
one-at-a-time fallback for everything else.  Over a million values cover
every decimal exponent, both ends of the exact range, powers of ten and
their neighbours, exact rounding ties, zeros, subnormals and the extremes.
"""

import numpy as np
import pytest

from dha._util import _fmt17_fields
from dha.groups import make_cyclic, regular_rep_copies
from dha.systems import TrajectoryDataset, _SAVE_CHUNK, load_dataset, save_dataset


def _kernel_text(x) -> str:
    fields = _fmt17_fields(x)
    assert fields.shape == (len(x), 24) and fields.dtype == np.uint8
    lines = np.zeros((len(x), 25), np.uint8)
    lines[:, :24] = fields
    lines[:, 24] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def assert_matches_percent_g(x):
    x = np.asarray(x, dtype=np.float64)
    got = _kernel_text(x).splitlines()
    want = ["%.17g" % v for v in x.tolist()]
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError(f"{x[i]!r}: kernel wrote {got[i]!r}, %.17g gives {want[i]!r}")


def _both_signs(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, -x])


def _neighbours(x, ulps=3):
    """``x`` and its ``ulps`` nearest doubles on either side."""
    out = [np.asarray(x, dtype=np.float64)]
    for direction in (0.0, np.inf):
        y = out[0]
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def test_random_doubles_from_1e_320_to_1e308():
    rng = np.random.default_rng(0)
    n = 300_000
    x = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-320, 308, n).astype(np.float64)
    x[rng.random(n) < 0.5] *= -1.0
    raw = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)
    subnormal = np.frombuffer(rng.bytes(8 * 20_000), dtype=np.uint64) & np.uint64(2**52 - 1)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308, -1.8e308 / 2]
    assert_matches_percent_g(np.concatenate([
        x, raw[np.isfinite(raw)], _both_signs(subnormal.view(np.float64)), extremes]))


def test_every_decimal_exponent_group():
    rng = np.random.default_rng(1)
    x = [rng.uniform(10.0**e, 10.0 ** (e + 1), 12_000) for e in range(-13, 18)]
    assert_matches_percent_g(_both_signs(np.concatenate(x)))


def test_exact_range_edges_and_powers_of_ten():
    powers = 10.0 ** np.arange(-30, 31)
    assert_matches_percent_g(_both_signs(_neighbours(np.concatenate([powers, [1e-10, 1e15]]))))


def test_rounding_ties_are_broken_to_even():
    # c / 2**(17 + r) with c odd has 18 significant digits ending in 5 when
    # it lies in [10**-r, 10**(1 - r)): an exact tie at 17 digits.
    rng = np.random.default_rng(2)
    ties = []
    for r in range(-14, 9):
        lo, hi = 10.0**-r * 2.0 ** (17 + r), 10.0 ** (1 - r) * 2.0 ** (17 + r)
        c = rng.integers(int(lo) // 2, int(hi) // 2, 16_000) * 2 + 1
        ties.append(c[(c > lo) & (c < hi)] / 2.0 ** (17 + r))
    c = np.arange(2**17 + 1, 10 * 2**17, 2)  # every tie c / 2**17 in [1, 10)
    ties.append(rng.choice(c, 100_000, replace=False) / 2.0**17)
    x = np.concatenate(ties)
    assert x.size > 400_000
    assert_matches_percent_g(_both_signs(x))


def test_values_just_below_a_new_digit():
    below = np.nextafter(10.0 ** np.arange(-12, 17), 0)
    rng = np.random.default_rng(3)
    nines = (10.0**17 - rng.integers(1, 60, 2000)) * 10.0 ** rng.integers(-27, -1, 2000)
    assert_matches_percent_g(_both_signs(np.concatenate([_neighbours(below, 5), nines])))


@pytest.mark.parametrize("n", [0, 1, 65_537])
def test_input_lengths(n):
    rng = np.random.default_rng(n)
    assert_matches_percent_g(rng.standard_normal(n) * 10.0 ** rng.integers(-12, 16, n))


def _template_writer(dataset, directory):
    """The row-template writer ``save_dataset`` used before the kernel."""
    header = "t," + ",".join(f"x{j}" for j in range(dataset.dim))
    row = "%d," + ",".join(["%.17g"] * dataset.dim)
    for i, traj in enumerate(dataset.trajectories):
        lines = [header] + [row % (t, *values) for t, values in enumerate(traj.tolist())]
        (directory / f"traj_{i:05d}.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n, horizon, dim", [
    (5, 9, 3),  # one chunk
    (7, _SAVE_CHUNK // 6 - 1, 3),  # two trajectories per chunk, a last chunk of one
    (3, _SAVE_CHUNK // 2, 2),  # one trajectory per chunk, each over the chunk size
    (2, 0, 2),  # a single row
])
def test_save_dataset_chunks_match_template_writer(tmp_path, n, horizon, dim):
    rng = np.random.default_rng(horizon)
    shape = (n, horizon + 1, dim)
    trajs = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 16, shape)
    trajs.reshape(-1)[:4] = [0.0, -0.0, 5e-324, -1.2345678901234567e-100]
    rep = regular_rep_copies(make_cyclic(1), dim, "X")
    ds = TrajectoryDataset(trajs, ("test",) * n, rep, 1.0, {})
    save_dataset(ds, tmp_path / "new")
    (tmp_path / "old").mkdir()
    _template_writer(ds, tmp_path / "old")
    for i in range(n):
        name = f"traj_{i:05d}.csv"
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
    assert load_dataset(tmp_path / "new").trajectories.tobytes() == trajs.tobytes()
