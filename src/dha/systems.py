"""Synthetic symmetric stochastic linear systems and trajectory datasets.

Systems evolve as ``x_{t+1} = A x_t + eps_t`` with an equivariant dynamics
matrix ``A``, isotropic white noise of scale ``sigma``, and optional
half-space constraints closed under the group action (so feasibility is a
group-invariant property).  Dataset generation draws training initial
states from a single quotient copy (the lexicographic-max orbit
representative) while test initial states cover all copies uniformly.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._util import (
    _fmt17_fields,
    canonical_json,
    decode_f64,
    encode_f64,
    fingerprint,
    fmt17,
    frozen_array,
    typed,
)
from .commutant import equivariance_residual, equivariant_project
from .groups import FiniteGroup, Representation, group_from_descriptor, regular_rep_copies

__all__ = [
    "InfeasibilityError",
    "SymmetricLinearSystem",
    "TrajectoryDataset",
    "random_symmetric_stable_system",
    "rollout",
    "system_noise",
    "orbit_representative",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "import_trajectories",
    "rep_from_descriptor",
    "rep_descriptor",
]


class InfeasibilityError(RuntimeError):
    """Constraint handling failed to produce a feasible state."""


@dataclass(frozen=True)
class SymmetricLinearSystem:
    """A stable equivariant linear system with optional half-space constraints.

    The feasible set is ``{x : C x >= c}`` rowwise; the constraint rows are
    closed under the group action so that feasibility is group-invariant.
    """

    a: np.ndarray
    rep_x: Representation
    sigma: float
    constraint_rows: np.ndarray
    constraint_offsets: np.ndarray
    spectral_radius_target: float

    def __post_init__(self):
        object.__setattr__(self, "a", frozen_array(self.a))
        object.__setattr__(self, "constraint_rows", frozen_array(self.constraint_rows))
        object.__setattr__(self, "constraint_offsets", frozen_array(self.constraint_offsets))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.constraint_rows.shape[0]

    def feasible(self, x, tol: float = 1e-9) -> bool:
        if self.n_constraints == 0:
            return True
        return bool(np.all(self.constraint_rows @ np.asarray(x) >= self.constraint_offsets - tol))

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.a))))

    def constraints_closed(self, tol: float = 1e-10) -> bool:
        """Every transformed constraint row appears in the set with equal offset."""
        C, c = self.constraint_rows, self.constraint_offsets
        for g in self.rep_x.group.elements():
            moved = C @ self.rep_x.matrices[g]
            for k in range(C.shape[0]):
                dist = np.max(np.abs(C - moved[k]), axis=1) + np.abs(c - c[k])
                if float(np.min(dist)) > tol:
                    return False
        return True

    def fingerprint(self) -> str:
        return fingerprint(
            {
                "group": self.rep_x.group.descriptor,
                "dim": self.dim,
                "a": [fmt17(v) for v in self.a.reshape(-1)],
                "sigma": fmt17(self.sigma),
                "rows": [fmt17(v) for v in self.constraint_rows.reshape(-1)],
                "offsets": [fmt17(v) for v in self.constraint_offsets],
            }
        )


def random_symmetric_stable_system(
    group: FiniteGroup,
    rep_x: Representation,
    spectral_radius: float = 0.95,
    sigma: float = 0.0,
    n_constraints: int = 0,
    seed: int = 0,
    offset_range: tuple = (-2.0, -1.0),
) -> SymmetricLinearSystem:
    """Draw a random equivariant matrix, rescale it to the target radius.

    The raw matrix has i.i.d. normal entries and is projected onto the
    commutant by group averaging; constraint rows are random unit
    directions closed under the group action with a shared offset drawn
    from ``offset_range`` (negative values keep a neighbourhood of the
    origin feasible).  A nilpotent projection is redrawn, up to 16 draws.
    """
    if rep_x.group != group:
        raise ValueError("rep_x is not a representation of the given group")
    if not 0.0 < spectral_radius < 1.0:
        raise ValueError(f"spectral radius target must lie in (0, 1), got {spectral_radius}")
    m = rep_x.dim
    rng = np.random.default_rng(seed)
    for _ in range(16):
        proj = equivariant_project(rng.standard_normal((m, m)), rep_x)
        radius = float(np.max(np.abs(np.linalg.eigvals(proj))))
        if radius >= 1e-12:
            break
    else:
        raise RuntimeError("equivariant projection produced a nilpotent matrix 16 times in a row")
    a = proj * (spectral_radius / radius)
    rows, offsets = [], []
    for _ in range(n_constraints):
        base = rng.standard_normal(m)
        base /= np.linalg.norm(base)
        off = rng.uniform(*offset_range)
        for g in group.elements():
            cand = base @ rep_x.matrices[group.inverse_table[g]]
            dup = any(
                np.max(np.abs(cand - r)) + abs(off - o) <= 1e-9 for r, o in zip(rows, offsets)
            )
            if not dup:
                rows.append(cand)
                offsets.append(off)
    C = np.array(rows) if rows else np.zeros((0, m))
    c = np.array(offsets) if offsets else np.zeros(0)
    system = SymmetricLinearSystem(a, rep_x, float(sigma), C, c, float(spectral_radius))
    assert equivariance_residual(system.a, rep_x) <= 1e-10
    assert abs(system.spectral_radius() - spectral_radius) <= 1e-8
    return system


def system_noise(system: SymmetricLinearSystem, steps: int, noise_seed: int) -> np.ndarray:
    """The exact noise sequence a rollout with this seed will consume.

    Counter-based: step ``t`` draws from a Philox stream keyed by
    ``noise_seed`` at counter block ``t``, so any step is reproducible
    independently of generation order and the sequence can be transformed
    (e.g. group-transported) before being replayed through ``rollout``.
    These are the per-step blocks the batched simulator behind
    :func:`rollout` and :func:`generate_dataset` adds.
    """
    out = np.zeros((steps, system.dim))
    for t, block in enumerate(_noise_blocks([noise_seed], steps, system.dim, system.sigma)):
        out[t] = block[0]
    return out


def _noise_blocks(keys, steps: int, dim: int, sigma: float):
    """Yield the ``(len(keys), dim)`` noise block of each step ``t < steps``.

    Row ``i`` of block ``t`` is ``sigma`` times ``dim`` standard normals from
    the Philox stream keyed by ``keys[i]`` at counter ``[0, 0, t, 0]``.  One
    bit generator is reused and its state reset before every draw, which
    yields the same bits as a fresh generator per (trajectory, step).  The
    state dict holds plain ints and lists, which the setter reads faster
    than arrays.
    """
    block = np.zeros((len(keys), dim))
    if sigma == 0.0:
        for _ in range(steps):
            yield block
        return
    words = [np.random.Philox(key=key).state["state"]["key"].tolist() for key in keys]
    rows = list(block)
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    state["buffer"] = state["buffer"].tolist()
    philox = state["state"] = {"counter": None, "key": None}
    for t in range(steps):
        philox["counter"] = [0, 0, t, 0]
        for key, row in zip(words, rows):
            philox["key"] = key
            bits.state = state
            gen.standard_normal(out=row)
        yield sigma * block


def _project_constraints(x, C, c, max_passes: int = 8):
    # Cyclic projection converges geometrically; after max_passes a violation
    # up to 1e-6 is accepted, and larger ones keep cycling up to 8 * max_passes.
    for n_pass in range(1, 8 * max_passes + 1):
        clean = True
        for k in range(C.shape[0]):
            gap = float(C[k] @ x - c[k])
            if gap < -1e-12:
                x = x - gap / float(C[k] @ C[k]) * C[k]
                clean = False
        if clean or (n_pass >= max_passes and np.min(C @ x - c) >= -1e-6):
            return x
    worst = float(np.min(C @ x - c))
    raise InfeasibilityError(
        f"constraint projection did not converge in {n_pass} passes (violation {worst:.3e})"
    )


def _simulate(system: SymmetricLinearSystem, x0: np.ndarray, steps: int, noise) -> np.ndarray:
    """Advance the rows of ``x0`` together; returns ``(n, steps + 1, dim)``.

    ``noise`` yields one ``(n, dim)`` block per step.  A step is
    ``x <- A x + eps_t`` for all rows at once through a stacked ``matmul``,
    which is bitwise equal to ``A @ x`` row by row.  The batched constraint
    gaps only screen rows: a row whose gaps come within a margin of
    violation (far above the rounding difference to a per-row product) goes
    through the sequential projection, so the projection makes the same
    decisions with the same arithmetic as for a single trajectory.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    x = np.array(x0, dtype=np.float64)
    if not all(system.feasible(row) for row in x):
        raise InfeasibilityError("initial state violates the constraints")
    trajs = np.empty((x.shape[0], steps + 1, system.dim))
    trajs[:, 0] = x
    C, c = system.constraint_rows, system.constraint_offsets
    c_norm1 = np.abs(C).sum(axis=1)
    for t, eps in enumerate(noise):
        x = np.matmul(system.a, x[..., None])[..., 0] + eps
        if C.shape[0]:
            margin = 1e-9 * (1.0 + np.abs(x).max(axis=1, keepdims=True) * c_norm1 + np.abs(c))
            for i in np.flatnonzero(~np.all(x @ C.T - c >= margin, axis=1)):
                try:
                    x[i] = _project_constraints(x[i], C, c)
                except InfeasibilityError as err:
                    raise InfeasibilityError(f"trajectory {i}, step {t + 1}: {err}; max|x| "
                                             f"{np.abs(x[i]).max():.3e} before projection") from None
        trajs[:, t + 1] = x
    return trajs


def rollout(
    system: SymmetricLinearSystem,
    x0: np.ndarray,
    steps: int,
    noise_seed: int = 0,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate ``steps`` transitions; returns ``(steps + 1, dim)`` with row 0 = x0.

    Violated constraint rows are handled after each step by projection onto
    the offending half-space, iterated in row order for up to 64 passes (a
    violation up to 1e-6 is accepted after 8; past 64 the error names the step).
    Pass ``noise`` to override the seeded stream (same shape as
    :func:`system_noise` returns).  This is the one-trajectory case of the
    batched simulator :func:`generate_dataset` uses, so a rollout equals the
    dataset trajectory with the same initial state and noise key bit for bit.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.dim,):
        raise ValueError(f"initial state must have length {system.dim}")
    if noise is None:
        blocks = _noise_blocks([noise_seed], steps, system.dim, system.sigma)
    else:
        eps = np.asarray(noise)
        if eps.shape != (steps, system.dim):
            raise ValueError(f"noise must have shape ({steps}, {system.dim})")
        blocks = (eps[t:t + 1] for t in range(steps))
    return _simulate(system, x0[None], steps, blocks)[0]


def orbit_representative(x: np.ndarray, rep_x: Representation):
    """Deterministic quotient-copy assignment.

    Returns ``(g_index, canonical_x)`` where ``canonical_x = rho(g) x`` is
    the lexicographically largest orbit element and ``g_index`` the
    smallest element id achieving it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep_x.dim,):
        raise ValueError(f"vector length {x.shape} does not match dim {rep_x.dim}")
    candidates = np.einsum("gij,j->gi", rep_x.matrices, x)
    best = 0
    for g in range(1, rep_x.group.order):
        if tuple(candidates[g]) > tuple(candidates[best]):
            best = g
    return best, candidates[best]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryDataset:
    """Fixed-length trajectories with split tags and provenance.

    ``trajectories`` has shape ``(n, horizon + 1, dim)``; ``splits`` must hold
    one of ``train``/``val``/``test`` per trajectory (else ``ValueError``).
    """

    trajectories: np.ndarray
    splits: tuple
    rep_x: Representation
    dt: float
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "trajectories", frozen_array(self.trajectories))
        self._check()

    @classmethod
    def _adopt(cls, trajectories: np.ndarray, *rest) -> TrajectoryDataset:
        """A dataset over ``trajectories`` frozen in place, not copied.

        Only for a C-ordered float64 array this module built and hands
        over, which no caller holds; the constructor copies every other one.
        """
        trajectories.setflags(write=False)
        ds = object.__new__(cls)
        for field, value in zip(fields(cls), (trajectories, *rest)):
            object.__setattr__(ds, field.name, value)
        ds._check()
        return ds

    def _check(self):
        for i, tag in enumerate(self.splits):
            if tag not in ("train", "val", "test"):
                raise ValueError(f"trajectory {i} has unknown split tag {tag!r}; expected train, val or test")
        if len(self.splits) != self.n_trajectories:
            raise ValueError(f"{len(self.splits)} split tags for {self.n_trajectories} trajectories")
        if not np.all(np.isfinite(self.trajectories)):
            raise ValueError("trajectories contain non-finite samples")

    @property
    def n_trajectories(self) -> int:
        return self.trajectories.shape[0]

    @property
    def horizon(self) -> int:
        return self.trajectories.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.trajectories.shape[2]

    def split(self, tag: str) -> np.ndarray:
        idx = [i for i, s in enumerate(self.splits) if s == tag]
        return self.trajectories[idx]


def _draw_feasible(rng, system, low, high, max_attempts=10_000):
    """Rejection-sample ``[low, high]``; if that fails, the box halved about
    its centre (up to 8 times, ``max_attempts // 8`` draws each)."""
    centre, half = (high + low) / 2.0, (high - low) / 2.0
    for k in range(9):
        lo, hi = (low, high) if k == 0 else (centre - half / 2.0 ** k, centre + half / 2.0 ** k)
        for _ in range(max_attempts if k == 0 else max_attempts // 8):
            x = rng.uniform(lo, hi)
            if system.feasible(x):
                return x
    box = ", ".join(np.array2string(v, precision=4, threshold=8) for v in (lo, hi))
    raise InfeasibilityError(
        f"fewer than 1 feasible sample in {max_attempts} draws from the initial box "
        f"or from it halved about its centre 8 times (last box tried: [{box}])"
    )


def generate_dataset(
    system: SymmetricLinearSystem,
    n_train: int,
    n_test: int,
    horizon: int,
    init_box: float | tuple = 1.0,
    seed: int = 0,
) -> TrajectoryDataset:
    """Simulate a train/val/test trajectory dataset.

    Training initial states are drawn uniformly from the box and mapped to
    their canonical orbit representative, confining them to one quotient
    copy; test initial states are left untouched so they cover all copies.
    The last ~10% of training trajectories are re-tagged as validation.
    :func:`_init_bounds` reads ``init_box``.

    All trajectories advance together, one step at a time.  Trajectory
    ``i`` keeps its own Philox noise key and draws step ``t`` at counter
    block ``t``, so it equals ``rollout(system, x0_i, horizon,
    noise_seed=key_i)`` bit for bit.
    """
    if n_train < 1 or n_test < 0:
        raise ValueError("need at least one training trajectory")
    m = system.dim
    low, high = _init_bounds(init_box, m)
    rng_train = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    rng_test = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    x0 = [orbit_representative(_draw_feasible(rng_train, system, low, high), system.rep_x)[1]
          for _ in range(n_train)]
    x0 += [_draw_feasible(rng_test, system, low, high) for _ in range(n_test)]
    keys = [_traj_noise_key(seed, i) for i in range(n_train + n_test)]
    trajs = _simulate(system, np.reshape(x0, (len(keys), m)), horizon,
                      _noise_blocks(keys, horizon, m, system.sigma))
    n_val = min(n_train - 1, max(1, round(0.1 * n_train))) if n_train >= 2 else 0
    splits = (
        ["train"] * (n_train - n_val) + ["val"] * n_val + ["test"] * n_test
    )
    provenance = {
        "system": system.fingerprint(),
        "seed": seed,
        "n_train": n_train,
        "n_val": n_val,
        "n_test": n_test,
        "horizon": horizon,
    }
    return TrajectoryDataset(trajs, tuple(splits), system.rep_x, 1.0, provenance)


def _init_bounds(init_box, m: int) -> tuple:
    """``(m,)`` bounds from a number ``b`` (``[-b, b]``) or a ``(low, high)`` pair of numbers or
    ``(m,)`` vectors; another shape, or ``low > high``, raises ``ValueError`` naming ``init_box``."""
    try:
        if np.isscalar(init_box):
            init_box = (-float(init_box), float(init_box))
        low, high = (np.broadcast_to(np.asarray(v, dtype=np.float64), (m,)) for v in init_box)
    except (TypeError, ValueError):
        raise ValueError(f"init_box must be a number or a [low, high] pair of numbers or "
                         f"length-{m} vectors, got {init_box!r}") from None
    if not np.all(low <= high):
        raise ValueError(f"init_box low bound exceeds its high bound: {init_box!r}")
    return low, high


def _traj_noise_key(seed: int, index: int) -> int:
    # Distinct 128-bit Philox keys per trajectory.
    return (int(seed) % (1 << 64)) + (int(index) << 64)


# ---------------------------------------------------------------------------
# Representation descriptors and file layout
# ---------------------------------------------------------------------------


def rep_descriptor(rep: Representation) -> dict:
    """JSON-serializable description; regular-copy stacks stay compact."""
    group = rep.group
    if rep.dim % group.order == 0:
        copies = rep.dim // group.order
        candidate = regular_rep_copies(group, rep.dim)
        if np.array_equal(candidate.matrices, rep.matrices):
            return {"group": group.descriptor, "kind": "regular_copies", "copies": copies}
    return {
        "group": group.descriptor,
        "kind": "explicit",
        "dim": rep.dim,
        "matrices": encode_f64(rep.matrices),
    }


def rep_from_descriptor(desc: dict) -> Representation:
    """Inverse of :func:`rep_descriptor`; a malformed field raises ``ValueError`` naming it."""
    group = group_from_descriptor(typed(typed(desc, dict, "rep_x")["group"], str, "rep_x.group"))
    kind = desc.get("kind", "regular_copies")
    if kind == "regular_copies":
        return regular_rep_copies(group, typed(desc["copies"], int, "rep_x.copies") * group.order, "X")
    if kind != "explicit":
        raise ValueError(f"rep_x.kind must be 'regular_copies' or 'explicit', got {kind!r:.40}")
    dim = typed(desc["dim"], int, "rep_x.dim")
    mats = decode_f64(typed(desc["matrices"], str, "rep_x.matrices"), (group.order, dim, dim))
    return Representation(group, mats, "X")


#: Values per formatting chunk in :func:`save_dataset` (whole trajectories, at least one).
_SAVE_CHUNK = 8192


def save_dataset(dataset: TrajectoryDataset, directory):
    """Write ``manifest.json`` plus one CSV per trajectory.

    CSV header is ``t,x0,x1,...``; each row is the step ``t`` and the state,
    every value written as :func:`fmt17` writes it (17 significant digits,
    so the round trip is bit exact).  Output bytes are deterministic.

    The values are formatted by ``_util._fmt17_fields``, whose bytes equal
    ``fmt17``'s: exact integer arithmetic for ``1e-10 <= |x| < 1e15``, and
    ``fmt17`` itself for zeros, subnormals and every value outside that
    range.  It runs on chunks of whole trajectories of about ``_SAVE_CHUNK``
    values: past ~10k values its temporaries outgrow the cache and the
    allocator's reuse, and the kernel runs about twice as slow.  Each value
    fills a 24-byte slot and a separator of a zeroed line buffer, and a
    file is its buffer with the NUL bytes deleted.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "dim": dataset.dim,
        "horizon": dataset.horizon,
        "dt": dataset.dt,
        "n_trajectories": dataset.n_trajectories,
        "splits": list(dataset.splits),
        "rep_x": rep_descriptor(dataset.rep_x),
        "provenance": dataset.provenance,
    }
    (directory / "manifest.json").write_text(canonical_json(manifest))
    n, rows, dim = dataset.trajectories.shape
    header = ("t," + ",".join(f"x{j}" for j in range(dim)) + "\n").encode()
    per = max(1, _SAVE_CHUNK // max(1, rows * dim))
    # A line is t, ",", then per value a 24-byte field and "," (NUL after
    # the last value), then "\n".
    steps = np.arange(rows).astype(f"S{len(str(rows - 1))}")
    width = steps.itemsize
    lines = np.zeros((min(per, n), rows, width + 1 + 25 * dim + 1), np.uint8)
    lines[..., :width] = steps.view(np.uint8).reshape(rows, width)
    lines[..., width] = ord(",")
    lines[..., -1] = ord("\n")
    slots = lines[..., width + 1:-1].reshape(len(lines), rows, dim, 25)
    slots[..., :-1, 24] = ord(",")
    for start in range(0, n, per):
        chunk = dataset.trajectories[start:start + per]
        slots[:len(chunk), ..., :24] = _fmt17_fields(chunk).reshape(len(chunk), rows, dim, 24)
        for i in range(len(chunk)):
            text = lines[i].tobytes().translate(None, b"\0")
            (directory / f"traj_{start + i:05d}.csv").write_bytes(header + text)


def _read_dataset(directory: Path, manifest: dict, rep, splits, dt) -> TrajectoryDataset:
    """Parse the ``traj_*.csv`` files a manifest names into a dataset.

    Each file must hold a header and ``horizon + 1`` rows of ``dim + 1``
    finite numbers, with one split tag per trajectory; malformed input
    raises ``ValueError`` and a missing file ``OSError``.  The lines after
    the header are counted, blank ones included, before one ``np.loadtxt``
    call parses them all; ``loadtxt`` rejects ragged rows and skips blank
    lines, so its shape must match as well.
    """
    n, dim, horizon = (manifest[k] for k in ("n_trajectories", "dim", "horizon"))
    trajs = np.empty((n, horizon + 1, dim))
    for i in range(n):
        name = f"traj_{i:05d}.csv"
        body = (directory / name).read_text().strip().partition("\n")[2]
        n_lines = body.count("\n") + 1 if body else 0
        if n_lines != horizon + 1:
            raise ValueError(f"{name}: {n_lines} rows, expected {horizon + 1}")
        try:
            values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        if values.shape != (horizon + 1, dim + 1):
            raise ValueError(f"{name}: {values.shape[0]} rows of {values.shape[1]} columns, "
                             f"expected {horizon + 1} rows of {dim + 1}")
        trajs[i] = values[:, 1:]
    return TrajectoryDataset._adopt(trajs, tuple(splits), rep, float(dt),
                                    manifest.get("provenance", {}))


def _read_manifest(directory: Path) -> dict:
    """A dataset's ``manifest.json``; a field of the wrong type raises ``ValueError`` naming it."""
    manifest = typed(json.loads((directory / "manifest.json").read_text()), dict, "manifest")
    for key, kind in (("n_trajectories", int), ("dim", int), ("horizon", int), ("splits", list),
                      ("dt", (int, float))):
        if key in manifest:
            typed(manifest[key], kind, key)
    return manifest


def load_dataset(directory) -> TrajectoryDataset:
    """Read a dataset written by :func:`save_dataset`; malformed files raise ``ValueError``."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    return _read_dataset(directory, manifest, rep_from_descriptor(manifest["rep_x"]),
                         manifest["splits"], manifest["dt"])


def import_trajectories(directory, rep_x: Representation | dict, splits=None) -> TrajectoryDataset:
    """Read externally produced trajectories in the dataset file layout.

    The caller supplies the representation acting on the recorded state
    (either a :class:`Representation` or a descriptor dict).  Any split
    tags or provenance present in the manifest are kept unless overridden.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    rep = rep_x if isinstance(rep_x, Representation) else rep_from_descriptor(rep_x)
    if rep.dim != manifest["dim"]:
        raise ValueError(f"representation dim {rep.dim} does not match recorded width {manifest['dim']}")
    if splits is None:
        splits = manifest.get("splits", ["test"] * manifest["n_trajectories"])
    return _read_dataset(directory, manifest, rep, splits, manifest.get("dt", 1.0))
