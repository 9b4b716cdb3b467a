"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs a tiny pass of every workload through ``perfbench/run.py``, untraced
and traced, and checks that the result line names every metric of
``BENCHMARK.json`` with its unit, that no operation or check failed, and
that end-to-end values are positive.  It also checks that the benchmark
refuses a workload over the memory cap and that it fails, printing no
result, in a directory without the dha sources.  Exits non-zero on the
first failure.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORK_DIR
from workload import toy


def run(spec_file, workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--spec", str(spec_file)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAIL {message}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads((HERE / "workloads.json").read_text())
    work = WORK_DIR / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        small = {**doc, "workloads": {k: toy(v) for k, v in doc["workloads"].items()}}
        spec_file = work / "workloads.json"
        spec_file.write_text(json.dumps(small))
        for workload in doc["workloads"]:
            for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                done = run(spec_file, workload, trace)
                check(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n"
                      f"{done.stderr[-3000:]}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{workload}: result keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
                for name, metric in result["metrics"].items():
                    value = metric["value"]
                    check(isinstance(value, (int, float)) and math.isfinite(value),
                          f"{workload}: {name} = {value!r}")
                    check(trace or value > 0, f"{workload}: end-to-end {name} = {value}")
                if trace:
                    check(result["metrics"]["bench.fail_frac"]["value"] == 0,
                          f"{workload}: fail_frac {result['metrics']['bench.fail_frac']}")
                print(f"smoke: ok {workload} trace {trace}: {len(got)} metrics, "
                      f"{result['attempted']} operations and checks")

        huge = copy.deepcopy(doc)
        paper = huge["workloads"]["paper"]
        paper["state_dim"] = 128
        paper["dataset"]["n_train"] = 200
        spec_file.write_text(json.dumps(huge))
        done = run(spec_file, "paper", 0)
        check(done.returncode != 0 and "memory cap" in done.stderr,
              f"an m=128 eedmd was not refused: exit {done.returncode}")
        print("smoke: ok memory cap refuses m=128")

        bare = work / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(HERE / "workloads.json", "simulate", 0, cwd=bare)
        check(done.returncode != 0 and not done.stdout.strip(),
              f"ran without the dha sources: exit {done.returncode}, stdout {done.stdout!r}")
        print("smoke: ok fails without the dha sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
