import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dha._util import decode_f64, encode_f64

from dha.cli import (
    DEFAULT_CONFIG,
    cmd_decompose,
    cmd_eval,
    cmd_fit,
    cmd_spectra,
    cmd_sweep,
    cmd_synth,
    load_config,
    main,
)
from dha.systems import load_dataset


def write_config(tmp_path, **overrides):
    config = {
        "group": "C2",
        "state_dim": 4,
        "sigma": 0.01,
        "n_constraints": 1,
        "dataset": {"n_train": 4, "n_test": 6, "horizon": 20, "init_box": 1.0, "seed": 0},
        "variants": ["edmd", "eedmd"],
        "training": {"latent_dim": 4, "horizon": 5, "epochs": 2},
        "eval_horizon": 5,
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def tree_hash(root):
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_synth_writes_dataset_and_summary(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = cmd_synth(cfg)
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["group"] == "C2"
    assert summary["isotypic_blocks"] == 2


def test_synth_c5_reports_three_isotypic_blocks(tmp_path):
    cfg = load_config(
        write_config(tmp_path, group="C5", state_dim=10, variants=["edmd"]),
    )
    out = cmd_synth(cfg)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["isotypic_blocks"] == 3  # C5: trivial plus two rotation types


def test_synth_is_deterministic(tmp_path):
    cfg = load_config(write_config(tmp_path))
    a = cmd_synth(cfg, out_dir=tmp_path / "d1")
    b = cmd_synth(cfg, out_dir=tmp_path / "d2")
    assert tree_hash(a) == tree_hash(b)


def test_trivial_group_synth(tmp_path):
    cfg = load_config(
        write_config(tmp_path, group="C1", state_dim=3, n_constraints=0, variants=["edmd"])
    )
    out = cmd_synth(cfg)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["isotypic_blocks"] == 1


def test_fit_eval_decompose_spectra_pipeline(tmp_path):
    cfg = load_config(write_config(tmp_path))
    data_dir = cmd_synth(cfg)
    model_dir = cmd_fit(cfg, data_dir)
    models = sorted(model_dir.glob("model_*.json"))
    assert len(models) == 2  # two variants x one seed
    assert len(sorted(model_dir.glob("metrics_*.csv"))) == 2
    eval_dir = cmd_eval(models[1], data_dir, horizon=5, out_dir=tmp_path / "eval")
    reports = list(eval_dir.glob("mse_*.json"))
    assert len(reports) == 1
    report = json.loads(reports[0].read_text())
    assert report["horizon"] == 5
    assert report["aggregate"] > 0
    dec_dir = cmd_decompose(data_dir, limit=2)
    assert (dec_dir / "isotypic_basis.json").exists()
    assert len(list(dec_dir.glob("energy_traj*.csv"))) == 2
    spec_dir = cmd_spectra(models[1], out_dir=tmp_path / "spec")
    spec = json.loads(next(spec_dir.glob("spectrum_*.json")).read_text())
    labels = [b["label"] for b in spec["blocks"]]
    assert labels == ["triv", "sgn"]


def test_sweep_single_point_matches_single_eval(tmp_path):
    cfg = load_config(write_config(tmp_path, variants=["eedmd"]))
    out = cmd_sweep(cfg, "samples", [50], workers=1)
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one run
    point_rows = json.loads((out / "point_samples50_seed0" / "rows.json").read_text())
    assert len(point_rows) == 1
    csv_val = float(rows[1].split(",")[4])
    assert csv_val == pytest.approx(point_rows[0]["test_mse"])


def test_sweep_row_shape_two_values(tmp_path):
    cfg = load_config(write_config(tmp_path, seeds=[0, 1]))
    out = cmd_sweep(cfg, "samples", [30, 60], workers=1)
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    # 2 variants x 2 seeds x 2 values
    assert len(lines) == 1 + 8
    assert (out / "sweep_plot.svg").exists()


def test_sweep_determinism(tmp_path):
    cfg = load_config(write_config(tmp_path, variants=["eedmd"]))
    a = cmd_sweep(cfg, "samples", [40], out_dir=tmp_path / "s1", workers=1)
    b = cmd_sweep(cfg, "samples", [40], out_dir=tmp_path / "s2", workers=1)
    assert tree_hash(a) == tree_hash(b)


def test_latent_dim_validation_names_constraint_origin(tmp_path):
    path = write_config(tmp_path, variants=["edae"], training={"latent_dim": 7, "epochs": 1})
    with pytest.raises(ValueError, match="regular representation"):
        load_config(path)


def test_duplicate_seeds_rejected(tmp_path):
    path = write_config(tmp_path, seeds=[1, 1])
    with pytest.raises(ValueError, match="distinct"):
        load_config(path)


def test_state_dim_validation(tmp_path):
    path = write_config(tmp_path, group="C3", state_dim=4)
    with pytest.raises(ValueError, match="multiple of the group order"):
        load_config(path)


def test_set_overrides(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, ["training.lr=0.01", "group=C2", "dataset.n_train=8"])
    assert cfg["training"]["lr"] == 0.01
    assert cfg["dataset"]["n_train"] == 8


def test_main_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, variants=["edmd"])
    assert main(["synth", str(path)]) == 0
    assert main(["synth", str(tmp_path / "missing.json")]) == 4
    bad = write_config(tmp_path, seeds=[2, 2])
    assert main(["synth", str(bad)]) == 2
    out = capsys.readouterr()
    assert "synth: wrote" in out.out
    assert "distinct" in out.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, group="C3", state_dim=6, variants=["dae"],
                        training={"latent_dim": 6, "horizon": 3, "epochs": 2, "lr": 1e150,
                                  "hidden_layers": 1, "width": 6})
    data_dir = cmd_synth(load_config(path))
    assert main(["fit", str(path), str(data_dir)]) == 3
    assert "numeric failure: non-finite training loss" in capsys.readouterr().err


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DHA_OUTPUT_ROOT", str(tmp_path / "root"))
    path = write_config(tmp_path, output_dir=None, variants=["edmd"])
    cfg = load_config(path)
    out = cmd_synth(cfg)
    assert str(out).startswith(str(tmp_path / "root"))


def test_fit_neural_variant_through_cli(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            variants=["edae"],
            training={"latent_dim": 4, "horizon": 3, "epochs": 2, "hidden_layers": 1, "width": 4},
        )
    )
    data_dir = cmd_synth(cfg)
    model_dir = cmd_fit(cfg, data_dir)
    model_file = model_dir / "model_edae_seed0.json"
    assert model_file.exists()
    eval_dir = cmd_eval(model_file, data_dir, horizon=3, out_dir=tmp_path / "ev")
    assert any(eval_dir.glob("mse_edae_seed0.json"))
    spec_dir = cmd_spectra(model_file, out_dir=tmp_path / "sp")
    assert any(spec_dir.glob("spectrum_edae_seed0.json"))


#: Manifest fields given a value of the wrong type or content, by case name.
MANIFEST_CASES = {"null_n_trajectories": ("n_trajectories", None), "number_splits": ("splits", 5),
                  "regular_kind": ("rep_x", {"group": "C2", "kind": "regular", "copies": 2}),
                  "unknown_split_tag": ("splits", ["train", "bogus", 7, None])}


def _corrupt(data_dir, case):
    """Damage one trajectory file, or a manifest field, of a saved dataset in the named way."""
    if case in MANIFEST_CASES:
        key, value = MANIFEST_CASES[case]
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest[key] = value
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        return
    path = data_dir / "traj_00001.csv"
    lines = path.read_text().splitlines()
    if case == "missing_file":
        path.unlink()
        return
    if case == "truncated":
        lines = lines[:-5]
    elif case == "extra_row":
        lines.append(lines[-1])
    elif case == "short_row":
        lines[3] = lines[3].rsplit(",", 1)[0]
    elif case == "non_numeric":
        lines[3] = lines[3].replace(",", ",abc,", 1).rsplit(",", 1)[0]
    elif case == "nan":
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    elif case == "header_only":
        lines = lines[:1]
    elif case == "blank_line":
        lines.insert(4, "")
    elif case == "trailing_comma":
        lines[3] += ","
    elif case == "blank_line_and_extra_row":
        lines.insert(4, "")
        lines.append(lines[-1])
    elif case == "blank_line_for_a_row":
        lines[4] = ""
    elif case == "crlf":
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        return
    elif case == "empty":
        path.write_text("")
        return
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "case, code, message",
    [("truncated", 2, "traj_00001.csv"), ("extra_row", 2, "traj_00001.csv"),
     ("short_row", 2, "traj_00001.csv"), ("non_numeric", 2, "traj_00001.csv"),
     ("nan", 2, "non-finite"), ("missing_file", 4, "traj_00001.csv"),
     ("empty", 2, "traj_00001.csv"), ("header_only", 2, "traj_00001.csv"),
     ("blank_line", 2, "traj_00001.csv"), ("trailing_comma", 2, "traj_00001.csv"),
     ("blank_line_and_extra_row", 2, "traj_00001.csv"),
     ("blank_line_for_a_row", 2, "traj_00001.csv"), ("crlf", 0, ""),
     ("null_n_trajectories", 2, "n_trajectories"), ("number_splits", 2, "splits"),
     ("regular_kind", 2, "rep_x.kind"),
     ("unknown_split_tag", 2, "trajectory 1 has unknown split tag 'bogus'")],
)
def test_corrupt_dataset_exit_codes(tmp_path, capsys, case, code, message):
    cfg = load_config(write_config(tmp_path, variants=["edmd"]))
    data_dir = cmd_synth(cfg)
    _corrupt(data_dir, case)
    assert main(["decompose", str(data_dir), "--out", str(tmp_path / "dec")]) == code
    assert message in capsys.readouterr().err


CHECKPOINT = Path(__file__).resolve().parent / "data" / "checkpoint_edae_c3.json"


def _corrupt_checkpoint(doc, case):
    """Damage a loaded ``edae`` checkpoint document in the named way; returns the document."""
    header = doc["header"]
    if case == "unknown_config_key":
        header["config"]["bogus"] = 1
    elif case == "unknown_variant":
        header["variant"] = "nope"
    elif case == "latent_dim":
        header["latent_dim"] = 12
    elif case == "block_layout":
        header["basis_fingerprint"] = "0" * 64
    elif case == "nan_net_params":
        flat = decode_f64(doc["net_params"])
        flat[3] = np.nan
        doc["net_params"] = encode_f64(flat)
    elif case == "inf_theta":
        theta = decode_f64(doc["k_payload"]["data"])
        theta[0] = np.inf
        doc["k_payload"]["data"] = encode_f64(theta)
    elif case == "short_net_params":
        doc["net_params"] = encode_f64(decode_f64(doc["net_params"])[:-1])
    elif case == "string_seed":
        header["config"]["seed"] = "x"
    elif case == "string_width":
        header["config"]["width"] = "6"
    elif case == "string_rep_x":
        header["rep_x"] = "C2"
    elif case == "list_header":
        doc["header"] = []
    elif case == "number_k_data":
        doc["k_payload"]["data"] = 5
    elif case == "regular_kind":
        header["rep_x"]["kind"] = "regular"
    elif case == "list_document":
        return [1, 2]
    return doc


@pytest.mark.parametrize(
    "case, message",
    [("unknown_config_key", "bogus"), ("unknown_variant", "unknown variant 'nope'"),
     ("latent_dim", "latent_dim"), ("block_layout", "block layout"),
     ("nan_net_params", "non-finite"), ("inf_theta", "non-finite"),
     ("short_net_params", "payload does not match"), ("string_seed", "seed"),
     ("string_width", "width"), ("string_rep_x", "rep_x"), ("list_header", "header"),
     ("number_k_data", "k_payload.data"), ("list_document", "checkpoint"),
     ("regular_kind", "rep_x.kind")],
)
def test_corrupt_checkpoint_exit_codes(tmp_path, capsys, case, message):
    doc = _corrupt_checkpoint(json.loads(CHECKPOINT.read_text()), case)
    path = tmp_path / "model_edae_seed0.json"
    path.write_text(json.dumps(doc))
    assert main(["spectra", str(path), "--out", str(tmp_path / "sp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err


def test_config_rejects_unknown_variant(tmp_path):
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        load_config(write_config(tmp_path, variants=["edmd", "nope"]))


@pytest.mark.parametrize(
    "case, fields, flags, message",
    [("unknown_key", {"sigm": 0.5}, [], "'sigm'"),
     ("unknown_section_key", {"dataset": {"n_trian": 3}}, [], "'dataset.n_trian'"),
     ("unknown_training_key", {}, ["training.lerning_rate=0.1"], "lerning_rate"),
     ("training_seed", {}, ["training.seed=3"], "'training.seed'"),
     ("set_through_value", {}, ["group.x=1"], "'group'"),
     ("section_not_object", {}, ["dataset=5"], "'dataset'"),
     ("training_not_object", {"training": [4]}, [], "'training'"),
     ("seeds_not_list", {}, ["seeds=3"], "'seeds'"),
     ("float_state_dim", {}, ["state_dim=4.0"], "'state_dim'"),
     ("float_n_train", {}, ["dataset.n_train=2.5"], "'dataset.n_train'"),
     ("string_eval_horizon", {}, ["eval_horizon=five"], "'eval_horizon'"),
     ("string_sigma", {"sigma": "0.1"}, [], "'sigma'"),
     ("bad_init_box", {}, ["dataset.init_box=[1,2,3]"], "'dataset.init_box'"),
     ("string_epochs", {"training": {"epochs": "3"}}, [], "epochs"),
     ("bool_batch", {}, ["training.batch=true"], "batch"),
     ("negative_lr", {}, ["training.lr=-1"], "lr"),
     ("null_observable", {}, ["training.observable=null"], "observable"),
     ("edae_width", {"variants": ["dae", "edae"]}, ["training.width=5"], "width"),
     ("negative_n_constraints", {}, ["n_constraints=-1"], "'n_constraints'"),
     ("empty_offset_range", {}, ["constraint_offset_range=[]"], "'constraint_offset_range'"),
     ("long_offset_range", {}, ["constraint_offset_range=[-2,-1,3]"], "'constraint_offset_range'"),
     ("reversed_offset_range", {}, ["constraint_offset_range=[-1,-2]"], "'constraint_offset_range'"),
     ("negative_sigma", {"sigma": -0.01}, [], "'sigma'"),
     ("zero_n_train", {}, ["dataset.n_train=0"], "'dataset.n_train'"),
     ("negative_n_test", {}, ["dataset.n_test=-1"], "'dataset.n_test'"),
     ("zero_horizon", {}, ["dataset.horizon=0"], "'dataset.horizon'"),
     ("zero_eval_horizon", {}, ["eval_horizon=0"], "'eval_horizon'"),
     ("reversed_init_box", {}, ["dataset.init_box=[0.5,-1]"], "init_box")],
)
def test_bad_config_exit_codes(tmp_path, capsys, case, fields, flags, message):
    path = write_config(tmp_path, **fields)
    argv = ["synth", str(path)] + [arg for flag in flags for arg in ("--set", flag)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err


def test_init_box_takes_number_or_pair(tmp_path):
    path = write_config(tmp_path)
    assert load_config(path, ["dataset.init_box=2"])["dataset"]["init_box"] == 2
    assert load_config(path, ["dataset.init_box=[-1,0.5]"])["dataset"]["init_box"] == [-1, 0.5]


@pytest.mark.parametrize("n_constraints", [1, 0])
def test_synth_draws_from_an_init_box_pair(tmp_path, n_constraints):
    path = write_config(tmp_path, n_constraints=n_constraints)
    out = tmp_path / "ds"
    argv = ["synth", str(path), "--set", "dataset.init_box=[-1,0.5]", "--out", str(out)]
    assert main(argv) == 0
    x0 = load_dataset(out).trajectories[:, 0]
    assert np.all(x0 >= -1.0) and np.all(x0 <= 0.5)


def test_decompose_rejects_a_negative_limit(tmp_path, capsys):
    data_dir = cmd_synth(load_config(write_config(tmp_path)))
    assert main(["decompose", str(data_dir), "--limit", "-1"]) == 2
    assert "limit" in capsys.readouterr().err


def test_closed_form_variants_ignore_latent_dim(tmp_path):
    path = write_config(tmp_path, group="C3", state_dim=6, variants=["eedmd"],
                        training={"latent_dim": 10})
    assert load_config(path)["training"]["latent_dim"] == 10


def test_overrides_leave_defaults_untouched(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"variants": ["edmd"]}))
    before = json.dumps(DEFAULT_CONFIG)
    cfg = load_config(path, ["training.lr=0.5", "dataset.n_train=3"])
    assert (cfg["training"]["lr"], cfg["dataset"]["n_train"]) == (0.5, 3)
    assert json.dumps(DEFAULT_CONFIG) == before


def test_fit_checks_every_variant_before_training(tmp_path, capsys):
    fields = dict(group="C3", state_dim=6, variants=["dae", "edae"],
                  training={"latent_dim": 6, "horizon": 3, "epochs": 1, "hidden_layers": 1})
    path = write_config(tmp_path, **fields)
    data_dir = cmd_synth(load_config(path))
    models = tmp_path / "models"
    assert main(["fit", str(path), str(data_dir), "--out", str(models),
                 "--set", "training.width=5"]) == 2
    assert "width" in capsys.readouterr().err
    assert not list(models.glob("model_*"))


@pytest.mark.parametrize("horizon", ["0", "-2"])
def test_eval_rejects_horizon_below_one(tmp_path, capsys, horizon):
    cfg = load_config(write_config(tmp_path, variants=["edmd"]))
    data_dir = cmd_synth(cfg)
    model = cmd_fit(cfg, data_dir) / "model_edmd_seed0.json"
    assert main(["eval", str(model), str(data_dir), "--horizon", horizon]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, values, flags, message",
    [("samples", "20", ["eval_horizon=0"], "horizon"),
     ("samples", "20.5", [], "max_windows"),
     ("latent_dim", "4,7", [], "latent_dim"),
     ("state_dim", "4,5", [], "state_dim"),
     ("sigma", "0.01", ["dataset.init_box=[0.5,-1]"], "init_box")],
)
def test_sweep_points_are_checked_configs(tmp_path, capsys, axis, values, flags, message):
    path = write_config(tmp_path, variants=["eedmd", "edae"],
                        training={"latent_dim": 4, "horizon": 3, "epochs": 1, "hidden_layers": 1})
    out = tmp_path / "sweep"
    argv = ["sweep", str(path), "--axis", axis, "--values", values, "--workers", "1", "--out", str(out)]
    assert main(argv + [arg for flag in flags for arg in ("--set", flag)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # a rejected config stops the sweep before any point runs


def test_sweep_leaves_config_untouched(tmp_path):
    cfg = load_config(write_config(tmp_path, variants=["eedmd"]))
    before = json.dumps(cfg)
    cmd_sweep(cfg, "latent_dim", [2], workers=1)
    assert json.dumps(cfg) == before
