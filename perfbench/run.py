"""Benchmark of the dha library: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload accept --seed 0 --seconds 30 --trace 0

The workloads are defined in ``perfbench/workloads.json`` and the metric
names and units in ``BENCHMARK.json``.  This launcher imports no numpy: it
pins BLAS to one thread in the environment of every process it starts,
refuses a workload whose computed dense-basis bytes exceed the memory cap,
times the set-up in several fresh processes, and runs the workload itself
in one more (``perfbench/workload.py``), which checks every pass.

It prints every metric with its unit on standard error and, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Samples, the environment and (for traced runs) the spans are written to
``.perfbench_out/``, never inside a dha output tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# Single-threaded numbers measure the program, not the scheduler.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 6  # extra set-up samples, each in a fresh process
PASS_DEADLINE_S = 130  # no pass starts that would likely end after this
TIME_LIMIT_S = 172  # the workload process is killed after this


def group_order(descriptor: str) -> int:
    """Order of a product of cyclic groups written like ``C2xC2xC2``."""
    return math.prod(int(factor[1:]) for factor in descriptor.split("x"))


def dense_bytes(spec) -> dict:
    """Computed bytes of the dense stacks a workload materializes at once.

    States, hidden layers and latents are stacks of regular-representation
    copies, so every real irrep of ``G`` has multiplicity ``dim / |G|`` and
    the equivariant maps ``a -> b`` number ``a * b / |G|``.  ``eedmd`` holds
    the commutant stack ``(n, m, m)`` and the product ``(n, m, N)``; ``edae``
    holds every layer's ``hom_basis`` stack for the encoder and the decoder,
    one more during construction, and the latent commutant stack.
    """
    order = group_order(spec["group"])
    m = spec["state_dim"]
    n_snapshots = spec["dataset"]["n_train"] * spec["dataset"]["horizon"]
    out = {}
    if "eedmd" in spec["fits"]:
        n = m * m // order
        out["eedmd"] = 8 * n * m * (n_snapshots + m)
    if "edae" in spec["fits"]:
        t = spec["training"]
        dims = [m] + [t["width"]] * t["hidden_layers"] + [t["latent_dim"]]
        stacks = [8 * a * a * b * b // order for a, b in zip(dims, dims[1:])]
        out["edae"] = 2 * sum(stacks) + max(stacks) + 8 * t["latent_dim"] ** 4 // order
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": child_env.get("numpy"),
        "blas_vendor": child_env.get("blas", {}).get("vendor"),
        "blas_threads": child_env.get("blas", {}).get("threads"),
        "blas_env": BLAS_ENV,
        "git_commit": git_commit(),
    }


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    started = time.time()
    parser = argparse.ArgumentParser(description="Run one workload of the dha benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure passes after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", type=Path, default=HERE / "workloads.json",
                        help="workload definitions (the smoke test passes tiny ones)")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file.name} not found at the checkout root {ROOT}")
    if not (ROOT / "src" / "dha" / "__init__.py").is_file():
        return fail(f"the dha sources (src/dha) are missing from the checkout {ROOT}")
    bench = json.loads(bench_file.read_text())
    doc = json.loads(args.spec.read_text())
    spec = doc["workloads"].get(args.workload)
    if spec is None:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(doc['workloads'])}")
    if args.seconds < 0:
        return fail("--seconds must be nonnegative")
    sizes = dense_bytes(spec)
    cap = doc["memory_cap_bytes"]
    for what, size in sizes.items():
        if size > cap:
            return fail(f"refusing {args.workload}: computed {what} bytes {size} "
                        f"exceed the memory cap {cap}")

    env = {**os.environ, **BLAS_ENV}
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        work.mkdir(parents=True)
        spec_file = work / "spec.json"
        spec_file.write_text(json.dumps(spec))

        def child(*extra, result):
            cmd = [sys.executable, str(HERE / "workload.py"), "--spec", str(spec_file),
                   "--seed", str(args.seed), "--result", str(result), *extra]
            remaining = started + TIME_LIMIT_S - time.time()
            try:
                done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                      timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                return None, "the workload process ran out of time and was killed"
            if done.returncode != 0:
                return None, f"the workload process exited with code {done.returncode}"
            return json.loads(result.read_text()), None

        setup_samples = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe, error = child("--setup-only", result=work / f"setup{i}.json")
                if error:
                    return fail(error)
                setup_samples.append(probe["setup_s"])
        res, error = child(
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work / "passes"),
            "--spans", str(OUT_DIR / f"{tag}-spans.jsonl"),
            "--deadline", str(started + PASS_DEADLINE_S),
            result=work / "result.json",
        )
        if error:
            return fail(error)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in res["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if "medians" not in res or (args.trace and "per_layer" not in res):
        return fail(f"no pass of {args.workload} completed")
    if args.trace:
        values = {
            **res["per_layer"],
            "koopman.train_steps_per_s": res["train_steps_per_s"],
            "systems.sim_steps_per_s": res["medians"]["sim_steps_per_s"],
            **{f"stage.{key}": res["medians"][key] for key in ("synth_s", "fit_s", "eval_s")},
            "bench.fail_frac": res["failed"] / res["attempted"],
        }
        declared = bench["per_layer"]
    else:
        setup_samples.append(res["setup_s"])
        values = {
            **res["medians"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "passes": res["passes"],
        "pass_samples": res["samples"],
        "setup_samples": setup_samples,
        "computed_dense_bytes": sizes,
        "all_layer_values": res.get("per_layer"),
        "environment": environment(res["env"]),
    }
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"perfbench: {args.workload} seed {args.seed}: {res['passes']} passes, "
          f"env {json.dumps(record['environment'])}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"perfbench:   {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
