"""One workload of the dha benchmark, run in a process of its own.

``perfbench/run.py`` starts this script with BLAS already pinned to one
thread.  It builds the workload's system from the seed (the set-up), runs
one warm-up pass at toy sizes and then ``synth -> fit -> eval`` passes for
the requested time, checks the outputs of every pass, and writes its result as JSON to
``--result``.  The library is driven only through the public functions of
``dha.systems``, ``dha.koopman`` and ``dha.analysis`` (``dha.groups`` and
``dha.isotypic`` for the set-up), and every call is timed from outside.

With ``--trace 1`` passes alternate between untraced and traced ones; the
traced passes give the per-layer numbers and the untraced ones the tracing
overhead.  With ``--setup-only`` the script times the set-up alone.
"""

import time

# Set-up time counts the import of numpy and dha, so the clock starts first.
_START = time.perf_counter()

import argparse
import copy
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import dha
from dha import analysis, commutant, groups, isotypic, koopman, nets, systems

import tracer as tracing

TOL = 1e-9


def build_system(spec, seed):
    """The set-up: group, state representation, its isotypic basis, system."""
    group = groups.group_from_descriptor(spec["group"])
    rep = groups.regular_rep_copies(group, spec["state_dim"], "X")
    isotypic.isotypic_basis(rep)
    return systems.random_symmetric_stable_system(
        group,
        rep,
        spectral_radius=spec["spectral_radius"],
        sigma=spec["sigma"],
        n_constraints=spec["n_constraints"],
        seed=seed,
        offset_range=(-2.0, -1.0),
    )


def toy(spec):
    """The same pipeline at toy sizes: a few short trajectories, one epoch.

    The warm-up pass runs it, so every code path has run once before the
    measured passes at a fraction of a full pass's time.
    """
    spec = copy.deepcopy(spec)
    group = groups.group_from_descriptor(spec["group"])
    dim = 2 * group.order
    spec["state_dim"] = dim
    spec["dataset"].update(n_train=4, n_test=4, horizon=12)
    if spec["training"]:
        spec["training"].update(latent_dim=dim, width=dim, hidden_layers=1, epochs=1, patience=1)
    spec["eval"]["horizon"] = min(spec["eval"]["horizon"], 5)
    return spec


def _optimizer_steps(report, batch):
    epochs = len(report["metrics"])
    return epochs * math.ceil(report["n_windows"] / batch)


class PassFailed(Exception):
    """An operation of the pipeline raised; carries the operations attempted."""

    def __init__(self, ops, error):
        super().__init__(f"{type(error).__name__}: {error}")
        self.ops = ops


def run_pass(spec, system, seed, pass_dir):
    """One closed-loop ``synth -> fit -> eval`` pass; returns timings and outputs.

    Each stage starts when the previous one returns.  Every library call is
    one operation; if one raises, :class:`PassFailed` says how many ran.
    """
    clock = time.perf_counter
    ds_spec, ev_spec = spec["dataset"], spec["eval"]
    out = {"ops": 0, "models": {}, "reloaded": {}, "train_s": 0.0, "train_steps": 0}

    def op(fn, *args, **kwargs):
        out["ops"] += 1
        return fn(*args, **kwargs)

    try:
        t0 = clock()
        dataset = op(systems.generate_dataset, system, n_train=ds_spec["n_train"],
                     n_test=ds_spec["n_test"], horizon=ds_spec["horizon"],
                     init_box=ds_spec["init_box"], seed=seed)
        t_gen = clock()
        op(systems.save_dataset, dataset, pass_dir / "dataset")
        t_synth = clock()
        loaded = op(systems.load_dataset, pass_dir / "dataset")
        for variant, n_seeds in spec["fits"].items():
            for k in range(n_seeds):
                config = koopman.TrainConfig(**spec["training"], seed=seed + k)
                start = clock()
                model = op(koopman.train, variant, loaded, config)
                if model.encoder is not None:
                    out["train_s"] += clock() - start
                    out["train_steps"] += _optimizer_steps(model.training_report, config.batch)
                name = f"{variant}_seed{seed + k}"
                out["models"][name] = model
                if ev_spec["reload"]:
                    op(koopman.save_model, model, pass_dir / f"model_{name}.json")
        t_fit = clock()
        for name, model in out["models"].items():
            if ev_spec["reload"]:
                model = op(koopman.load_model, pass_dir / f"model_{name}.json")
                out["reloaded"][name] = model
            op(analysis.prediction_mse, model, loaded, horizon=ev_spec["horizon"])
            if model.variant in ev_spec["spectrum"]:
                op(analysis.spectrum, model.k_map if model.k_map is not None else model.k_matrix)
        t_eval = clock()
    except Exception as err:  # a failed operation is counted, not fatal to the run
        raise PassFailed(out["ops"], err) from err
    steps = dataset.n_trajectories * dataset.horizon
    out.update(
        dataset=dataset,
        loaded=loaded,
        timings={
            "pass_s": t_eval - t0,
            "synth_s": t_synth - t0,
            "fit_s": t_fit - t_synth,
            "eval_s": t_eval - t_fit,
            "sim_steps_per_s": steps / (t_gen - t0),
        },
    )
    return out


def _group_average(a, rep):
    """``P_G(A) = (1/|G|) sum_g rho(g) A rho(g)^T`` for an orthogonal rep."""
    return np.einsum("gij,jk,glk->il", rep.matrices, a, rep.matrices) / rep.group.order


def _normal_equation_residual(model, loaded, rep=None):
    """``||P((KX - Y) X^T + lam K)|| / ||Y X^T||``: zero at the ridge optimum.

    ``P`` is the group average for the commutant-restricted fit and the
    identity for the plain one; ``lam`` is the fits' default ridge.
    """
    x, y = koopman.snapshot_pairs(loaded)
    k = model.k_matrix
    grad = (k @ x - y) @ x.T + koopman.default_ridge(x) * k
    if rep is not None:
        grad = _group_average(grad, rep)
    return float(np.linalg.norm(grad) / np.linalg.norm(y @ x.T))


def run_checks(spec, result):
    """The correctness gate; returns ``[(check, ok, detail)]``."""
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    dataset, loaded = result["dataset"], result["loaded"]
    rep_x = loaded.rep_x
    check("dataset_roundtrip",
          loaded.trajectories.shape == dataset.trajectories.shape
          and loaded.trajectories.tobytes() == dataset.trajectories.tobytes()
          and loaded.splits == dataset.splits
          and np.array_equal(loaded.rep_x.matrices, dataset.rep_x.matrices))
    x0 = loaded.split("test")[:, 0]
    horizon = spec["eval"]["horizon"]
    for name, model in result["models"].items():
        check(f"{name}.finite_operator", np.all(np.isfinite(model.k_matrix)))
        if model.variant == "edmd":
            r = _normal_equation_residual(model, loaded)
            check(f"{name}.normal_equation", r <= TOL, f"{r:.3e}")
        if model.variant == "eedmd":
            r = commutant.equivariance_residual(model.k_matrix, rep_x)
            check(f"{name}.equivariance", r <= TOL, f"{r:.3e}")
            r = _normal_equation_residual(model, loaded, rep_x)
            check(f"{name}.projected_normal_equation", r <= TOL, f"{r:.3e}")
        if model.variant == "edae":
            latent = model.latent_iso.rotated_rep()
            r = nets.net_equivariance_residual(model.encoder, rep_x, latent)
            check(f"{name}.encoder_equivariance", r <= TOL, f"{r:.3e}")
            r = nets.net_equivariance_residual(model.decoder, latent, rep_x)
            check(f"{name}.decoder_equivariance", r <= TOL, f"{r:.3e}")
        if name in result["reloaded"]:
            before = koopman.predict_batch(model, x0, horizon)
            after = koopman.predict_batch(result["reloaded"][name], x0, horizon)
            check(f"{name}.reload_predict_bitwise", before.tobytes() == after.tobytes())
    return checks


def blas_info() -> dict:
    """BLAS vendor from numpy's build config, thread count from the loaded library."""
    info = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def run(spec, seed, seconds, trace, work_dir, deadline):
    """Warm up, then measure passes for ``seconds``; returns the result document.

    Untraced runs measure at least one pass.  Traced runs alternate
    untraced and traced passes and measure at least one of each.  Beyond
    that, no pass starts once ``seconds`` have passed or if it would likely
    end after ``1.5 * seconds`` or after ``deadline``.
    """
    system = build_system(spec, seed)
    setup_s = time.perf_counter() - _START
    tracer = tracing.Tracer() if trace else None
    tally = {"attempted": 0, "failed": 0, "failures": []}
    untraced, traced, profiles = [], [], []

    def one_pass(n_pass, use_trace, spec=spec, system=system):
        pass_dir = work_dir / f"pass{n_pass:03d}"
        pass_dir.mkdir(parents=True)
        if use_trace:
            tracer.pass_id = n_pass
            tracer.install()
        try:
            result = run_pass(spec, system, seed, pass_dir)
        except PassFailed as err:
            tally["attempted"] += err.ops
            tally["failed"] += 1
            tally["failures"].append(f"pass {n_pass}: {err}")
            return None
        finally:
            if use_trace:
                tracer.uninstall()
            shutil.rmtree(pass_dir)
        tally["attempted"] += result["ops"]
        checks = run_checks(spec, result)
        tally["attempted"] += len(checks)
        for name, ok, detail in checks:
            if not ok:
                tally["failed"] += 1
                tally["failures"].append(f"pass {n_pass}: check {name} failed {detail}".rstrip())
        return result

    warm_spec = toy(spec)
    one_pass(0, False, warm_spec, build_system(warm_spec, seed))
    n_pass = 1
    started = time.perf_counter()
    while True:
        use_trace = bool(trace) and len(traced) < len(untraced)
        begin = time.perf_counter()
        result = one_pass(n_pass, use_trace)
        last = time.perf_counter() - begin
        if result is not None and use_trace:
            traced.append(result["timings"]["pass_s"])
            profiles.append(tracing.pass_profile(tracer.spans, n_pass))
        elif result is not None:
            untraced.append({**result["timings"], "train_s": result["train_s"],
                             "train_steps": result["train_steps"]})
        n_pass += 1
        enough = bool(untraced and (traced or not trace))
        elapsed = time.perf_counter() - started
        if enough and (elapsed >= seconds or elapsed + last > 1.5 * seconds):
            break
        if time.time() + 1.5 * last > deadline or tally["failed"] > 8:
            break

    doc = {
        **tally,
        "setup_s": setup_s,
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "samples": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"numpy": np.__version__, "blas": blas_info(), "dha": dha.__version__},
    }
    if untraced:
        doc["medians"] = {
            key: statistics.median(s[key] for s in untraced)
            for key in ("pass_s", "synth_s", "fit_s", "eval_s", "sim_steps_per_s")
        }
        train_s = sum(s["train_s"] for s in untraced)
        steps = sum(s["train_steps"] for s in untraced)
        doc["train_steps_per_s"] = steps / train_s if train_s > 0 else 0.0
    if trace and traced and untraced:
        layers = tracing.layer_metrics(profiles, traced)
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                         / doc["medians"]["pass_s"] - 1.0)
        doc["per_layer"] = layers
    return doc, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", type=Path, required=True, help="workload spec (JSON)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--deadline", type=float, default=math.inf,
                        help="wall-clock time (epoch seconds) after which no pass starts")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(dha.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dha was imported from {dha.__file__}, not from the checkout", file=sys.stderr)
        return 2
    spec = json.loads(args.spec.read_text())
    if args.setup_only:
        build_system(spec, args.seed)
        doc = {"setup_s": time.perf_counter() - _START}
    else:
        doc, tracer = run(spec, args.seed, args.seconds, args.trace, args.work_dir, args.deadline)
        if tracer is not None and args.spans is not None:
            tracer.dump(args.spans)
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
