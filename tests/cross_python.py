"""The numpy-free commands write the same bytes under every interpreter given.

    python tests/cross_python.py python3.10 python3.11 python3.12 python3.13

Each interpreter runs the same chain of commands from this checkout's `src`,
in a fresh directory of its own: `simulate` with the random and a Q
defender, `train --curve`, `evaluate` as JSON and as CSV, and `replay` of
each simulated log. The scenario is the bundled enterprise8 with costs that
are not dyadic fractions, so a reward's last bits depend on the order its
terms are added in. Every command must exit 0, and its stdout, stderr and
the files it writes must be byte-equal to those under the first
interpreter; the script prints each difference and exits 1 on any.

pytest does not collect this file: it needs the interpreters, which a
plain test run does not have.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COSTS = {"survival_bonus": 0.1, "scan_cost": 0.07, "patch_cost": 0.13,
         "isolate_cost_per_step": 0.3}
COMMANDS = [
    ["simulate", "--scenario", "s.json", "--seed", "5", "--defender", "random",
     "--out", "random.jsonl"],
    ["train", "--scenario", "s.json", "--episodes", "300", "--seed", "0",
     "--out", "q.json", "--curve", "curve.csv"],
    ["simulate", "--scenario", "s.json", "--seed", "5", "--defender", "q:q.json",
     "--out", "q.jsonl"],
    ["evaluate", "--scenario", "s.json", "--qtable", "q.json", "--episodes", "200",
     "--seed", "5", "--out", "eval.json"],
    ["evaluate", "--scenario", "s.json", "--qtable", "q.json", "--episodes", "200",
     "--seed", "5", "--format", "csv"],
    ["replay", "--log", "random.jsonl"],
    ["replay", "--log", "q.jsonl"],
]


def run_all(python: str) -> dict:
    """{what: bytes} of every command's exit code, stdout and stderr and of
    every file in its directory, for `COMMANDS` run in order under `python`."""
    scenario = json.loads((SRC / "acdsim" / "data" / "enterprise8.json").read_text("utf-8"))
    scenario["costs"] = COSTS
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    outputs = {}
    with tempfile.TemporaryDirectory() as work:
        Path(work, "s.json").write_text(json.dumps(scenario), "utf-8")
        for i, argv in enumerate(COMMANDS):
            done = subprocess.run([python, "-m", "acdsim.cli", *argv], cwd=work, env=env,
                                  capture_output=True)
            name = f"{i}: acdsim {' '.join(argv)}"
            outputs[name + " exit code"] = str(done.returncode).encode()
            outputs[name + " stdout"] = done.stdout
            outputs[name + " stderr"] = done.stderr
        for path in sorted(Path(work).iterdir()):
            outputs[path.name] = path.read_bytes()
    return outputs


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tests/cross_python.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    runs = {python: run_all(python) for python in pythons}
    first = runs[pythons[0]]
    failed = [f"{pythons[0]}: {name} is {value.decode()}"
              for name, value in first.items() if name.endswith("exit code") and value != b"0"]
    for python in pythons[1:]:
        for name in sorted(first.keys() | runs[python].keys()):
            if first.get(name) != runs[python].get(name):
                failed.append(f"{python}: {name} differs from {pythons[0]}'s")
    versions = [subprocess.run([p, "--version"], capture_output=True, text=True).stdout.strip()
                for p in pythons]
    print(f"{len(first)} outputs under {', '.join(versions)}")
    for line in failed:
        print(line)
    print("differ" if failed else "same bytes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
