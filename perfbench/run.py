"""Benchmark entry point: one workload, measured in its own process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric (and writes the spans of the
last traced pass under ``.perfbench_out/``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Set-up is timed this many times per run (one per process); setup_s is the median.
SETUP_SAMPLES = 5
#: Every process this script starts must have ended by then.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def provenance() -> dict:
    """Host facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def run_worker(args, extra, tmp: str, deadline: float):
    """Run one worker process; returns (setup seconds, last JSON line or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One process, no extra threads: the host this was tuned on has 2 cores.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
        *extra,
    ]
    spawned = time.time()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with code {process.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    ready = next(line["ready"] for line in lines if "ready" in line)
    final = lines[-1] if "metrics" in lines[-1] else None
    return ready - spawned, final


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    config = load_config()
    names = [workload["name"] for workload in config["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    listed = config["per_layer"] if args.trace else config["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    extra = []
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        extra = [
            "--spans-out",
            os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
        ]
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            seconds, _ = run_worker(args, ["--setup-only"], tmp, deadline)
            setup.append(seconds)
        seconds, result = run_worker(args, extra, tmp, deadline)
        setup.append(seconds)
    except (RuntimeError, subprocess.TimeoutExpired, StopIteration, ValueError) as error:
        return fail(f"workload {args.workload!r} did not complete: {error}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    if result is None:
        return fail(f"workload {args.workload!r} printed no result")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} passes {result['passes']}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
