"""One workload in one process: set up, measure, check, report.

Started by ``run.py``; not meant to be run by hand.  It prints one
``{"ready": <epoch seconds>}`` line when set-up is done (the parent times
set-up from its own spawn time) and, unless ``--setup-only`` is given, a
final JSON line with the measured metrics and the operation counts.

With ``--trace 0`` every pass is untraced.  With ``--trace 1`` untraced
and traced passes alternate; the traced ones give the per-layer metrics
and the untraced ones the base of ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads
from checks import Checker
from speed import SpeedClock
from spans import PER_LAYER_METRICS, Recorder, install, layer_metrics, uninstall

_clock = time.perf_counter
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden(name: str, seed: int):
    """This workload's golden digests when ``seed`` has a record, else ``None``.

    A record made for other workload parameters counts as no digests at
    all, so every operation fails instead of passing unchecked.
    """
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden.get("params") != workloads.params_digest() or golden.get("seed") != seed:
        return {}
    return golden["workloads"].get(name, {})


#: Passes every measured run makes, however short ``--seconds`` is.
MIN_PASSES = 3


def phase_rate(passes, phase: str, count) -> float:
    """``count(pass, phase)`` summed over the passes per reference second of ``phase``.

    A session workload has one phase and keeps no state from run to run,
    so its rerun is its first run: every phase name reports that phase.
    The host's speed is cancelled by the reference seconds (``speed.py``),
    so what is left to average over is the cost of the evolution
    trajectories, which differ from pass to pass.
    """
    seconds = 0.0
    done = 0
    for result in passes:
        name = phase if phase in result.seconds else next(iter(result.seconds))
        seconds += result.seconds[name]
        done += count(result, name)
    return done / seconds


def generations(result, phase: str) -> int:
    """Generations completed in the primary phase (``evolve``, or ``cold``)."""
    return result.generations


def runs(result, phase: str) -> int:
    return result.runs[phase]


def end_to_end(passes, checker, peak_rss_mb: float) -> dict:
    return {
        "gen_per_s": phase_rate(passes, "cold", generations),
        "campaign_runs_per_s": phase_rate(passes, "cold", runs),
        "rerun_runs_per_s": phase_rate(passes, "rerun", runs),
        "peak_rss_mb": peak_rss_mb,
        # Fixed passes, however many fit in the time, so a change that only
        # speeds up the simulator leaves it unchanged.
        "sim_platform_s": sum(result.sim_platform_s for result in passes[:MIN_PASSES]),
        "ops_ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for this process")
    parser.add_argument("--spans-out", help="where a traced run writes its last pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Traced spans must not contain the speed sampler's time, so a traced
    # run measures plain seconds.
    SpeedClock.sampling = not args.trace
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tmp)
    print(json.dumps({"ready": time.time()}), flush=True)
    if args.setup_only:
        return 0

    checker = Checker(workload, load_golden(args.workload, args.seed))
    untraced, traced, layers = [], [], []
    recorder = None
    deadline = _clock() + args.seconds
    while True:
        # A traced pass repeats the inputs of the untraced pass before it,
        # so the overhead compares like with like.
        tracing = bool(args.trace) and len(untraced) > len(traced)
        if tracing:
            recorder = Recorder()
            installed = install(recorder)
            try:
                result = workload.run_pass(state, len(traced), recorder)
            finally:
                uninstall(installed)
            traced.append(result)
            values = layer_metrics(recorder)
            values["backends.persistent.index_bytes"] = result.index_bytes
            values["host.wait_s"] = result.wait_s
            layers.append(values)
        else:
            result = workload.run_pass(state, len(untraced))
            untraced.append(result)
            if len(untraced) == MIN_PASSES:
                # Over fixed passes, so a faster program, which fits more
                # passes in the time, does not get more chances at a peak.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = {phase: result.runs[phase] / result.seconds[phase] for phase in result.seconds}
        print(
            f"{'traced ' if tracing else ''}pass {len(traced if tracing else untraced) - 1} "
            f"reference seconds {result.seconds} runs/s {rates} "
            f"cpu seconds {result.cpu_s:.3f} wait {result.wait_s:.4f}",
            file=sys.stderr,
        )
        # Checked between passes, then dropped, so memory does not grow with passes.
        for outcome in result.outcomes:
            checker.check(outcome)
        result.outcomes.clear()
        if _clock() >= deadline and len(untraced) >= MIN_PASSES and (not args.trace or traced):
            break

    checker.finish()
    for error in checker.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: statistics.fmean(values[name] for values in layers)
            for name in PER_LAYER_METRICS
        }
        # Traced pass i repeated the inputs of untraced pass i.
        base = phase_rate(untraced[: len(traced)], "cold", generations)
        metrics["trace.overhead_frac"] = base / phase_rate(traced, "cold", generations) - 1.0
        if args.spans_out:
            recorder.write(args.spans_out)
    else:
        metrics = end_to_end(untraced, checker, peak_rss_mb)
    print(
        json.dumps(
            {
                "attempted": checker.attempted,
                "failed": checker.failed,
                "passes": len(untraced) + len(traced),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
