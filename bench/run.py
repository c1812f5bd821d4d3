"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workload's inputs from the seed,
times rounds over them for about S seconds, runs the workload's correctness
gate, and prints one JSON object as the last line of standard output:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits 1 when a gate fails, and without a result
when the checkout holds no ``src/acdsim`` to measure.

The rates are scaled to the host's usual speed with `calibration`: a
`calibration.Pacer` runs calibration chunks all through every round, and the
rounds' wall time, chunks excluded, is multiplied by ``REFERENCE_CHUNK_S``
over the chunks' mean time. The comment lines give the unscaled rates too.
Set-up time is not scaled: the start of a fresh interpreter does not follow
calibration chunks timed around it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 12     # set-up probes per run, half before the rounds, half after
MIN_TRACED_ROUNDS = 2


def median_iqr(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def time_setup(w, env: dict, repeats: int) -> list[float]:
    """Wall time of `repeats` fresh interpreters doing the workload's set-up.

    No timeout: with one, `subprocess` polls for the exit in steps growing
    to 50 ms, which rounds short wall times up to those steps."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(w.probe_argv(), check=True, env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def timed_rounds(w, seconds: float) -> tuple[list, calibration.Pacer, list[str]]:
    """(round, wall seconds) for rounds 0, 1, ... until `seconds` of them
    are timed, the pacer that ran calibration chunks during them, and the
    gate problems of their outputs. Round 0 gets the full gate. There is no
    warm-up round: the package keeps no state between calls that a warm-up
    would fill. A round's outputs are dropped once checked, so that the
    process's peak memory does not grow with the number of rounds."""
    rounds, problems = [], []
    pacer = calibration.Pacer()
    while pacer.work < seconds:
        inp = w.inputs(len(rounds))
        timed = pacer.work
        pacer.start(timer=w.in_process)
        r = w.run(inp)
        pacer.stop()
        problems += w.check(inp, r, full=not rounds)
        r.outputs = []
        rounds.append((r, pacer.work - timed))
    return rounds, pacer, problems


def traced_rounds(w, inp, seconds: float, tracing) -> tuple[list, list]:
    """Alternate untraced and traced rounds of `w.traced_run` on the same
    inputs; returns (untraced walls, [(round, wall, per-layer metrics)])."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        start = time.perf_counter()
        w.traced_run(inp)
        untraced.append(time.perf_counter() - start)
        with tracing.Tracer() as tracer:
            start = time.perf_counter()
            r = w.traced_run(inp)
            wall = time.perf_counter() - start
        r.outputs = []
        traced.append((r, wall, tracing.layer_metrics(tracer, wall)))
    return untraced, traced


def end_to_end(rounds, scale: float, setup, w) -> dict:
    usage = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    seconds = sum(wall for _, wall in rounds) * scale
    return {
        "episodes_per_s": sum(r.ok for r, _ in rounds) / seconds,
        "steps_per_s": sum(r.steps for r, _ in rounds) / seconds,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(untraced, traced, setup, w, tracing) -> tuple[dict, list[str]]:
    problems = []
    layers = [m for _, _, m in traced]
    for name in tracing.EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced rounds: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(wall for _, wall, _ in traced)
                                       / statistics.median(untraced))
    if w.in_process:
        startup = serial = parallel = speedup = 0.0
    else:
        serial, parallel = w.cli_walls()
        startup, speedup = statistics.median(setup), serial / parallel
    metrics.update({"cli.startup_s": startup, "cli.serial_s": serial,
                    "cli.parallel_s": parallel, "cli.parallel_speedup": speedup})
    return metrics, problems


def run(args, declared: dict) -> dict:
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    env = workloads.subprocess_env()
    # set-up is reported with tracing off, and as cli.startup_s on cli-parallel
    probes = SETUP_REPEATS // 2 if not args.trace or not w.in_process else 0
    setup = time_setup(w, env, probes)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        w.prepare(args.seed, workdir)
        if args.trace:
            inp = w.inputs(0)
            first = w.run(inp)
            problems = w.check(inp, first, full=True)
            first.outputs = []
            untraced, traced = traced_rounds(w, inp, args.seconds, tracing)
            problems += [f"traced round {i + 1} output differs from the first round"
                         for i, (r, _, _) in enumerate(traced) if r.digest != first.digest]
            rounds = [(first, 0.0)] + [(r, wall) for r, wall, _ in traced]
            metrics, count_problems = per_layer(untraced, traced, setup, w, tracing)
            problems += count_problems
        else:
            rounds, pacer, problems = timed_rounds(w, args.seconds)
            setup += time_setup(w, env, SETUP_REPEATS - probes)
            metrics = end_to_end(rounds, pacer.scale(), setup, w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A refusal (an AcdError, on detect-logs) is an outcome the gate checks
    # against the reference like a label: it fails only if the reference
    # holds another outcome for that unit, and then the gate fails the run.
    attempted = sum(r.units for r, _ in rounds)
    errors: dict = {}
    for r, _ in rounds:
        for kind, count in r.errors.items():
            errors[kind] = errors.get(kind, 0) + count
    refused = sum(errors.values())
    failed = attempted - sum(r.ok for r, _ in rounds) - refused

    print(f"# workload {args.workload} seed {args.seed}: first set {w.first_set}, "
          f"{len(rounds)} rounds{', the first untraced' if args.trace else ''}")
    if not args.trace:
        for label, values in (
                ("unscaled episodes_per_s per round", [r.ok / wall for r, wall in rounds]),
                ("unscaled steps_per_s per round", [r.steps / wall for r, wall in rounds]),
                ("setup_s per probe", setup)):
            med, q1, q3 = median_iqr(values)
            print(f"# {label}: median {med:.6g}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"n={len(values)}")
        print(f"# calibration: {pacer.chunks} chunks, {pacer.cal:.6g} s over "
              f"{pacer.work:.6g} s of rounds; scale to usual-host seconds {pacer.scale():.6g}")
    print(f"# attempted {attempted}, refused as the reference expects {refused} "
          f"(refusal ratio {refused / attempted:.4f}), errors {json.dumps(errors, sort_keys=True)}, "
          f"failed {failed}")
    for problem in problems:
        print(f"# GATE FAILED: {problem}")

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
                           "BENCHMARK.json")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "acdsim" / "__init__.py").is_file():
        print("bench: this checkout has no src/acdsim to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"# environment: {json.dumps(environment())}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    result = run(args, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
