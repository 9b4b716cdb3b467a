"""Experiment orchestration: synth, fit, eval, sweep, decompose, spectra.

One JSON config document drives everything; command-line ``--set``
flags override individual paths (``--set training.lr=1e-3``).  Every
command prints a single summary line, writes deterministic output trees
(identical configs hash identically), and exits with 0 on success, 2 on
config errors, 3 on numeric failures and 4 on I/O failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._util import canonical_json, fmt17
from .analysis import emit_plot_data, isotypic_energy, prediction_mse, spectrum
from .groups import group_from_descriptor, regular_rep_copies
from .isotypic import DecompositionError, isotypic_basis, save_isotypic_basis
from .koopman import (
    TrainConfig,
    _check_variant,
    _parse_train_config,
    load_model,
    n_trainable_params,
    save_metrics_csv,
    save_model,
    train,
)
from .nets import TrainingDivergenceError
from .systems import (
    InfeasibilityError,
    _init_bounds,
    generate_dataset,
    load_dataset,
    random_symmetric_stable_system,
    save_dataset,
)

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "validate_config",
    "cmd_synth",
    "cmd_fit",
    "cmd_eval",
    "cmd_sweep",
    "cmd_decompose",
    "cmd_spectra",
    "main",
]

OUTPUT_ROOT_ENV = "DHA_OUTPUT_ROOT"

DEFAULT_CONFIG = {
    "group": "C3",
    "state_dim": 6,
    "spectral_radius": 0.95,
    "sigma": 0.01,
    "n_constraints": 2,
    "constraint_offset_range": [-2.0, -1.0],
    "system_seed": 0,
    "dataset": {"n_train": 16, "n_test": 64, "horizon": 100, "init_box": 1.0, "seed": 0},
    "variants": ["dae", "edae"],
    # TrainConfig's defaults; each run's seed comes from "seeds".
    "training": {k: v for k, v in asdict(TrainConfig(latent_dim=12)).items() if k != "seed"},
    "eval_horizon": 10,
    "seeds": [0, 1, 2, 3],
    "output_dir": None,
}


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _with_setting(config: dict, dotted: str, value) -> dict:
    """A copy of ``config`` with the setting at ``dotted`` (``training.lr``) set to ``value``.

    The sections on the path are copied, so ``config`` is left as it was.
    """
    keys = dotted.split(".")
    out = node = dict(config)
    for i, key in enumerate(keys[:-1]):
        section = node.get(key, {})
        if not isinstance(section, dict):
            raise ValueError(f"cannot set {dotted!r}: {'.'.join(keys[:i + 1])!r} is not a section")
        node[key] = dict(section)
        node = node[key]
    node[keys[-1]] = value
    return out


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of the default setting ``default`` (``None``: a path or ``None``)."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(value, bool):
        return isinstance(default, bool)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def _check_shape(node: dict, shape: dict, path=""):
    """Raise ``ValueError`` naming the first setting of ``node`` that ``shape`` does not allow.

    ``shape`` is ``DEFAULT_CONFIG`` or one of its sections.  A key must be
    one of its keys, a section an object, and a value of the default's
    type: an ``int`` for an integer, an ``int`` or ``float`` for a float,
    a list of the first item's type for a list.  ``dataset.init_box`` also
    takes a ``[low, high]`` pair.  Training values are checked by
    :class:`TrainConfig`.
    """
    for key, value in node.items():
        where = path + key
        if key not in shape:
            raise ValueError(f"unknown config key {where!r}")
        default = shape[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"config section {where!r} must be an object, got {value!r}")
            _check_shape(value, default, where + ".")
        elif path != "training." and not _fits(value, default) and not (
            where == "dataset.init_box" and isinstance(value, list) and len(value) == 2
        ):
            want = "a string or null" if default is None else f"a {type(default).__name__} like {default!r}"
            raise ValueError(f"config setting {where!r} must be {want}, got {value!r}")


def load_config(path, overrides=()) -> dict:
    """Read a JSON config, fill in ``DEFAULT_CONFIG`` and apply ``--set`` overrides.

    Each override is ``path.to.key=value``; the value is parsed as JSON,
    or kept as a string if it is not JSON.  The result passes
    :func:`validate_config`; every error is a ``ValueError`` naming the
    setting.
    """
    user = json.loads(Path(path).read_text())
    if not isinstance(user, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    config = _merge(DEFAULT_CONFIG, user)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like path.to.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config = _with_setting(config, dotted, value)
    validate_config(config)
    return config


#: The least value of each count, horizon and scale outside ``training``.
_LOWER_BOUNDS = {"sigma": 0.0, "n_constraints": 0, "dataset.n_train": 1, "dataset.n_test": 0,
                 "dataset.horizon": 1, "eval_horizon": 1}


def validate_config(config: dict):
    """Raise ``ValueError`` naming the first setting a run cannot use.

    Keys and value types must follow ``DEFAULT_CONFIG`` (an unknown key
    at any level is an error), each setting in ``_LOWER_BOUNDS`` must reach
    its bound, ``constraint_offset_range`` must be a ``[low, high]`` pair,
    ``dataset.init_box`` must pass :func:`~dha.systems._init_bounds`,
    the training block must parse as a :class:`TrainConfig`, and every
    variant must be buildable from it for the group, so no run starts on a
    config that a later run rejects.
    """
    _check_shape(config, DEFAULT_CONFIG)
    for dotted, low in _LOWER_BOUNDS.items():
        section, _, key = dotted.rpartition(".")
        value = (config[section] if section else config)[key]
        if not value >= low:
            raise ValueError(f"config setting {dotted!r} must be at least {low}, got {value!r}")
    offsets = config["constraint_offset_range"]
    if len(offsets) != 2 or not offsets[0] <= offsets[1]:
        raise ValueError("config setting 'constraint_offset_range' must be a [low, high] pair "
                         f"with low <= high, got {offsets!r}")
    group = group_from_descriptor(config["group"])
    if config["state_dim"] % group.order:
        raise ValueError(
            f"state_dim {config['state_dim']} must be a multiple of the group order "
            f"{group.order} (the state carries stacked regular-representation copies)"
        )
    if not 0.0 < config["spectral_radius"] < 1.0:
        raise ValueError("spectral_radius must lie in (0, 1)")
    _init_bounds(config["dataset"]["init_box"], config["state_dim"])
    seeds = config["seeds"]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {seeds}")
    training = _parse_train_config(config["training"])
    for variant in config["variants"]:
        _check_variant(variant, group.order, training)


def _output_dir(config, flag_value, default_name) -> Path:
    if flag_value:
        return Path(flag_value)
    if config.get("output_dir"):
        return Path(config["output_dir"]) / default_name
    root = os.environ.get(OUTPUT_ROOT_ENV, "dha_out")
    return Path(root) / default_name


def _build_system(config):
    group = group_from_descriptor(config["group"])
    rep = regular_rep_copies(group, config["state_dim"], "X")
    return random_symmetric_stable_system(
        group,
        rep,
        spectral_radius=config["spectral_radius"],
        sigma=config["sigma"],
        n_constraints=config["n_constraints"],
        seed=config["system_seed"],
        offset_range=tuple(config["constraint_offset_range"]),
    )


def _generate(config, system, seed_offset=0):
    ds = config["dataset"]
    return generate_dataset(system, n_train=ds["n_train"], n_test=ds["n_test"],
                            horizon=ds["horizon"], init_box=ds["init_box"],
                            seed=ds["seed"] + seed_offset)


def _train_config(config, seed) -> TrainConfig:
    return _parse_train_config({**config["training"], "seed": seed})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(config: dict, out_dir=None) -> Path:
    """Generate a system + dataset directory with a summary document."""
    out = _output_dir(config, out_dir, "dataset")
    system = _build_system(config)
    dataset = _generate(config, system)
    save_dataset(dataset, out)
    iso = isotypic_basis(system.rep_x)
    summary = {
        "system_fingerprint": system.fingerprint(),
        "group": config["group"],
        "state_dim": system.dim,
        "spectral_radius": system.spectral_radius(),
        "sigma": system.sigma,
        "n_constraint_rows": system.n_constraints,
        "isotypic_blocks": len(iso.blocks),
        "block_layout": [[b.label, b.irrep.dim, b.multiplicity] for b in iso.blocks],
        "config": config,
    }
    (out / "summary.json").write_text(canonical_json(summary))
    print(
        f"synth: wrote {dataset.n_trajectories} trajectories "
        f"({summary['isotypic_blocks']} isotypic blocks) to {out}"
    )
    return out


def cmd_fit(config: dict, dataset_dir, out_dir=None) -> Path:
    """Train every configured (variant, seed) pair; write models and metrics."""
    out = _output_dir(config, out_dir, "models")
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(dataset_dir)
    rows = []
    for variant in config["variants"]:
        for seed in config["seeds"]:
            model = train(variant, dataset, _train_config(config, seed))
            stem = f"{variant}_seed{seed}"
            save_model(model, out / f"model_{stem}.json")
            save_metrics_csv(model.training_report, out / f"metrics_{stem}.csv")
            rows.append((variant, seed, n_trainable_params(model), model.spectral_radius))
    (out / "fit_summary.json").write_text(
        canonical_json(
            [
                {"variant": v, "seed": s, "n_params": n, "spectral_radius": r}
                for v, s, n, r in rows
            ]
        )
    )
    print(f"fit: trained {len(rows)} models into {out}")
    return out


def cmd_eval(model_path, dataset_dir, horizon: int, out_dir=None) -> Path:
    """Evaluate one model checkpoint on the dataset's test split."""
    out = Path(out_dir) if out_dir else Path(model_path).parent
    out.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    dataset = load_dataset(dataset_dir)
    report = prediction_mse(model, dataset, horizon=horizon)
    stem = Path(model_path).stem.replace("model_", "")
    (out / f"mse_{stem}.json").write_text(canonical_json(report.to_json()))
    emit_plot_data(
        {"mse": (np.arange(1, horizon + 1), report.per_horizon_mse)},
        out / f"mse_{stem}",
        title=f"prediction error ({stem})",
        x_label="horizon step",
        y_label="MSE",
    )
    print(f"eval: {stem} aggregate {horizon}-step MSE {report.aggregate:.6g} -> {out}")
    return out


#: The setting each sweep axis replaces, as ``--set`` would.
SWEEP_AXES = {"samples": "training.max_windows", "state_dim": "state_dim",
              "latent_dim": "training.latent_dim", "sigma": "sigma"}


def _sweep_point(payload):
    """Train and evaluate every variant at one point's config and seed."""
    config, axis, value, seed = (payload[k] for k in ("config", "axis", "value", "seed"))
    point_dir = Path(payload["point_dir"])
    point_dir.mkdir(parents=True, exist_ok=True)
    system = _build_system(config)
    dataset = _generate(config, system, seed)
    tcfg = _train_config(config, seed)
    rows = []
    for variant in config["variants"]:
        model = train(variant, dataset, tcfg)
        save_model(model, point_dir / f"model_{variant}.json")
        report = prediction_mse(model, dataset, horizon=config["eval_horizon"])
        rows.append({"axis": axis, "value": value, "variant": variant, "seed": seed,
                     "test_mse": report.aggregate, "n_params": n_trainable_params(model)})
    (point_dir / "rows.json").write_text(canonical_json(rows))
    return rows


def cmd_sweep(config: dict, axis: str, values, out_dir=None, workers: int | None = None) -> Path:
    """Run the experiment grid over one axis and aggregate across seeds.

    Each value replaces the axis's setting in ``SWEEP_AXES`` (``samples``
    is ``training.max_windows``), and every point's config is validated
    before any runs.  Each (value, seed) point runs in its own
    subdirectory; aggregation is a deterministic post-pass writing a long
    CSV and a mean/min/max chart per variant.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {tuple(SWEEP_AXES)}")
    points = [(value, _with_setting(config, SWEEP_AXES[axis], value)) for value in values]
    for _, point in points:
        validate_config(point)
    out = _output_dir(config, out_dir, f"sweep_{axis}")
    out.mkdir(parents=True, exist_ok=True)
    payloads = [{"config": point, "axis": axis, "value": value, "seed": seed,
                 "point_dir": str(out / f"point_{axis}{value}_seed{seed}")}
                for value, point in points for seed in config["seeds"]]
    workers = workers or os.cpu_count() or 1
    if workers > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    rows = [row for batch in results for row in batch]
    rows.sort(key=lambda r: (str(r["variant"]), float(r["value"]), int(r["seed"])))
    header = "axis,value,variant,seed,test_mse,n_params"
    lines = [header] + [
        f"{r['axis']},{fmt17(float(r['value']))},{r['variant']},{r['seed']},"
        f"{fmt17(r['test_mse'])},{r['n_params']}"
        for r in rows
    ]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

    series = {}
    for variant in config["variants"]:
        vals = sorted({float(r["value"]) for r in rows if r["variant"] == variant})
        mean, lo, hi = [], [], []
        for v in vals:
            errs = [r["test_mse"] for r in rows if r["variant"] == variant and float(r["value"]) == v]
            mean.append(float(np.mean(errs)))
            lo.append(float(np.min(errs)))
            hi.append(float(np.max(errs)))
        series[f"{variant} mean"] = (np.array(vals), np.array(mean))
        series[f"{variant} min"] = (np.array(vals), np.array(lo))
        series[f"{variant} max"] = (np.array(vals), np.array(hi))
    emit_plot_data(
        series,
        out / "sweep_plot",
        title=f"test MSE vs {axis}",
        log_y=True,
        x_label=axis,
        y_label="test MSE",
    )
    print(f"sweep: {len(rows)} runs over {axis} -> {out}")
    return out


def cmd_decompose(dataset_dir, out_dir=None, limit: int = 8) -> Path:
    """Isotypic basis of a dataset's state space plus the energy of the first ``limit`` trajectories."""
    if limit < 0:
        raise ValueError(f"trajectory limit must be at least 0, got {limit}")
    dataset = load_dataset(dataset_dir)
    out = Path(out_dir) if out_dir else Path(dataset_dir) / "decomposition"
    out.mkdir(parents=True, exist_ok=True)
    iso = isotypic_basis(dataset.rep_x)
    save_isotypic_basis(iso, out / "isotypic_basis.json")
    for i in range(min(limit, dataset.n_trajectories)):
        energy = isotypic_energy(dataset.trajectories[i], iso)
        emit_plot_data(
            energy.series(),
            out / f"energy_traj{i:05d}",
            title=f"isotypic energy, trajectory {i}",
            x_label="t",
            y_label="energy",
        )
    print(f"decompose: {len(iso.blocks)} blocks, energy for "
          f"{min(limit, dataset.n_trajectories)} trajectories -> {out}")
    return out


def cmd_spectra(model_path, out_dir=None) -> Path:
    """Symmetry-tagged spectrum report for a fitted model."""
    model = load_model(model_path)
    out = Path(out_dir) if out_dir else Path(model_path).parent
    out.mkdir(parents=True, exist_ok=True)
    if model.k_map is not None:
        report = spectrum(model.k_map)
    else:
        report = spectrum(model.k_matrix)
    stem = Path(model_path).stem.replace("model_", "")
    report.save(out / f"spectrum_{stem}.json")
    lines = ["block,re,im"]
    for label, vals in zip(report.block_labels, report.eigenvalues):
        for v in vals:
            lines.append(f"{label},{fmt17(v.real)},{fmt17(v.imag)}")
    (out / f"spectrum_{stem}.csv").write_text("\n".join(lines) + "\n")
    print(
        f"spectra: {stem} spectral radius {report.spectral_radius:.6g} "
        f"({len(report.block_labels)} blocks) -> {out}"
    )
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dha", description="Symmetric dynamical systems: datasets, models, analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("config", help="JSON experiment config")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="PATH=VALUE", help="override a config entry")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("synth", help="generate a symmetric system and dataset")
    add_config(p)

    p = sub.add_parser("fit", help="train configured model variants on a dataset")
    add_config(p)
    p.add_argument("dataset", help="dataset directory from synth")

    p = sub.add_parser("eval", help="evaluate a model checkpoint on a dataset")
    p.add_argument("model", help="model checkpoint file")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="run an experiment grid over one axis")
    add_config(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values, e.g. 64,256,1024")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: available parallelism)")

    p = sub.add_parser("decompose", help="isotypic basis and energy of a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--out", default=None)
    p.add_argument("--limit", type=int, default=8)

    p = sub.add_parser("spectra", help="symmetry-tagged spectrum of a model")
    p.add_argument("model", help="model checkpoint file")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(load_config(args.config, args.overrides), args.out)
        elif args.command == "fit":
            cmd_fit(load_config(args.config, args.overrides), args.dataset, args.out)
        elif args.command == "eval":
            cmd_eval(args.model, args.dataset, args.horizon, args.out)
        elif args.command == "sweep":
            values = [json.loads(v) for v in args.values.split(",")]
            cmd_sweep(load_config(args.config, args.overrides), args.axis, values,
                      args.out, args.workers)
        elif args.command == "decompose":
            cmd_decompose(args.dataset, args.out, args.limit)
        elif args.command == "spectra":
            cmd_spectra(args.model, args.out)
        return 0
    except (
        np.linalg.LinAlgError,
        TrainingDivergenceError,
        DecompositionError,
        InfeasibilityError,
        FloatingPointError,
    ) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
