"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/collect.py --workload loop-auto --seeds 0-9 [--trace] \
        [--record bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, for
the ``run_seconds`` of BENCHMARK.json, and prints for every metric the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (quartile distance over median) next to the bound from
BENCHMARK.json. A seed listed
twice must give the same count metrics both times. ``--record`` merges the
summary, the raw values and the environment into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import EXACT_COUNTS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "repeats": len(values), "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(ln.split(":", 1)[1]) for ln in lines
               if ln.startswith("# environment:"))
    result = json.loads(lines[-1])
    result["refused"] = next(int(ln.split("expects ", 1)[1].split()[0]) for ln in lines
                             if ln.startswith("# attempted"))
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    record = (json.loads(args.record.read_text())
              if args.record and args.record.exists() else {})
    failed = False
    for workload in args.workload:
        seeds = parse_seeds(args.seeds)
        results, envs = [], []
        for seed in seeds:
            result, env = run_once(workload, seed, seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: a correctness gate failed")
                failed = True
            results.append(result)
            envs.append(env)
        for name in EXACT_COUNTS if args.trace else ():
            by_seed: dict = {}
            for seed, result in zip(seeds, results):
                by_seed.setdefault(seed, set()).add(result["metrics"][name]["value"])
            for seed, values in by_seed.items():
                if len(values) > 1:
                    print(f"{workload} seed {seed}: {name} is not exact: {sorted(values)}")
                    failed = True
        stats = {}
        print(f"{workload}: {len(seeds)} runs of {seconds} s, seeds {args.seeds}")
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            stats[name] = s
            verdict = ""
            if bound is not None:
                verdict = (f"bound {bound}: " + ("ok" if s["iqr_over_median"] <= bound / 3
                           else "within bound" if s["iqr_over_median"] <= bound else "TOO WIDE"))
            print(f"  {name:28s} {s['median']:14.6g} {s['unit']:6s} "
                  f"[{s['q1']:.6g} .. {s['q3']:.6g}] spread {s['iqr_over_median']:.3f} {verdict}")
        attempted = [r["attempted"] for r in results]
        fails = [r["failed"] for r in results]
        refused = [r["refused"] for r in results]
        print(f"  attempted {sum(attempted)}, refused as the reference expects "
              f"{sum(refused)}, failed {sum(fails)}")
        record.setdefault("environment", envs[0])
        record.setdefault(section, {})[workload] = {
            "seeds": seeds, "run_seconds": seconds, "metrics": stats,
            "fail_ratio": sum(fails) / sum(attempted),
            "refusal_ratio": sum(refused) / sum(attempted),
            "loadavg_at_start": [e["loadavg"] for e in envs],
        }
    if args.record:
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
