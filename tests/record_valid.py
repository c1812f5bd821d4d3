"""Record `valid_invocations.json`, the byte-identity corpus of the command
line: for each invocation its exit code, the sha256 of its stdout and of its
stderr, and the sha256 of each file it writes, from in-process runs of
`acdsim.cli.main` in order in one fresh directory. Later invocations read
what earlier ones wrote (a Q-table, logs, loop reports).

    PYTHONPATH=src python -m tests.record_valid

`test_valid_invocations.py` replays the corpus. A change that alters an
output on purpose re-records it, so the corpus's diff names each output that
changed; `record_malformed.py` does the same for the malformed inputs.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from acdsim.cli import default_scenario_path

from .record_malformed import edited, file_digests, run_case, write_files

CORPUS = Path(__file__).with_name("valid_invocations.json")

# (file name, its document) of the specs and approval files the cases read
DOCS = {
    "fork.json": {"topology": "fork-b", "slices": 8},
    "confounded.json": {"topology": "confounded-c", "slices": 8},
    "confounded-slice.json": {"topology": "confounded-c", "slices": 8,
                              "per_slice_confounder": True, "schedule": [1, 0, True]},
    "chain-int.json": {"topology": "chain-a", "slices": 8,
                       "params": {"spontaneous": 0, "edge_strength": 1}},
    "approvals.json": [True, False, True, True, False],
}

LOOP = ["loop", "--seed", "7"]

CASES = [
    ["--version"],
    ["simulate", "--seed", "5", "--out", "s5.jsonl"],
    ["simulate", "--seed", "3", "--horizon", "8", "--defender", "random", "--out", "r3.jsonl"],
    ["simulate", "--lenient", "--scenario", "colour.json", "--seed", "1", "--out", "c1.jsonl"],
    ["replay", "--log", "s5.jsonl"],
    ["replay", "--log", "r3.jsonl"],
    ["replay", "--log", "c1.jsonl"],
    ["detect", "--log", "r3.jsonl"],
    ["detect", "--log", "r3.jsonl", "--dbn", "confounded-slice.json", "--seed", "2",
     "--indicators-out", "r3-ind.csv", "--out", "r3-detect.json"],
    ["detect", "--log", "s5.jsonl"],
    ["train", "--episodes", "60", "--seed", "0", "--out", "q.json", "--curve", "curve.csv"],
    ["simulate", "--defender", "q:q.json", "--seed", "2", "--out", "q2.jsonl"],
    ["evaluate", "--qtable", "q.json", "--episodes", "12", "--seed", "0", "--out", "e.json"],
    ["evaluate", "--qtable", "q.json", "--episodes", "12", "--seed", "0", "--parallel", "2"],
    ["evaluate", "--qtable", "q.json", "--episodes", "12", "--seed", "0", "--format", "csv",
     "--out", "e.csv"],
    ["evaluate", "--qtable", "q.json", "--episodes", "12", "--seed", "0", "--format", "csv",
     "--parallel", "2"],
    ["causal", "build", "--topology", "chain-a", "--slices", "5", "--out", "chain5.json"],
    ["causal", "build", "--topology", "fork-b", "--slices", "3"],
    ["causal", "build", "--topology", "confounded-c", "--slices", "6",
     "--schedule", "1,0,0,1,1,0", "--out", "cc6.json"],
    ["causal", "marginal", "--model", "chain5.json", "--query", "Y@4=1"],
    ["causal", "observational", "--model", "chain5.json", "--target", "Y@4=1",
     "--given", "X@0=1"],
    ["causal", "do", "--model", "chain5.json", "--target", "Y@4=1", "--do", "X@2=0"],
    ["causal", "do", "--model", "cc6.json", "--target", "Y@3=1", "--do", "X@3=1",
     "--given", "X@0=1"],
    ["causal", "marginal", "--model", "cc6.json", "--query", "U=1,Y@5=1"],
    [*LOOP, "--autonomy", "advise", "--out", "l-advise.json"],
    [*LOOP, "--autonomy", "confirm", "--dbn", "fork.json", "--approve", "file:approvals.json",
     "--out", "l-fork.json"],
    [*LOOP, "--autonomy", "auto", "--dbn", "confounded.json", "--out", "l-u.json"],
    [*LOOP, "--autonomy", "auto", "--dbn", "confounded-slice.json", "--out", "l-us.json"],
    [*LOOP, "--autonomy", "auto", "--dbn", "chain-int.json", "--tau", "0.6",
     "--noise", "0.1,0.1", "--out", "l-int.json"],
    [*LOOP, "--autonomy", "auto", "--episodes", "3", "--out", "l3.json"],
    [*LOOP, "--autonomy", "auto", "--episodes", "3", "--parallel", "2", "--out", "l3p.json"],
    [*LOOP, "--autonomy", "confirm", "--dbn", "confounded-slice.json", "--approve", "always",
     "--episodes", "2", "--parallel", "2", "--out", "l2p.json"],
    *[[command, "--log", report] for report in ("l-advise.json", "l-fork.json", "l-u.json",
                                                "l-us.json", "l-int.json")
      for command in ("replay", "detect")],
    # every autonomy level over every spec, two episodes each
    *[["loop", "--seed", "11", "--episodes", "2", "--autonomy", autonomy, *dbn,
       "--approve", "file:approvals.json", "--window", "4", "--lookahead", "2",
       "--out", f"g-{autonomy}-{i}.json"]
      for i, dbn in enumerate(([], ["--dbn", "fork.json"], ["--dbn", "confounded.json"],
                               ["--dbn", "confounded-slice.json"], ["--dbn", "chain-int.json"]))
      for autonomy in ("advise", "confirm", "auto")],
    [*LOOP, "--autonomy", "confirm", "--approve", "never", "--episodes", "2", "--out",
     "l-never.json"],
    *[["simulate", "--seed", str(seed), "--defender", defender, "--out", f"{defender}{seed}.jsonl"]
      for seed in range(6) for defender in ("nop", "random")],
    *[["replay", "--log", f"{defender}{seed}.jsonl"] for seed in range(6)
      for defender in ("nop", "random")],
    ["train", "--episodes", "40", "--seed", "3", "--alpha", "0.3", "--gamma", "0.9",
     "--epsilon-start", "0.5", "--epsilon-end", "0.1", "--epsilon-decay", "0.9",
     "--out", "q3.json"],
    ["detect", "--log", "l-fork.json", "--dbn", "fork.json", "--out", "l-fork-detect.json"],
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_files() -> dict[str, str]:
    """{file name: text} of every file the cases read and no case writes."""
    files = {name: json.dumps(doc) + "\n" for name, doc in DOCS.items()}
    with open(default_scenario_path(), encoding="utf-8") as fh:
        files["colour.json"] = edited(json.load(fh), ("nodes", 0, "colour"), "red")
    return dict(sorted(files.items()))


def run_corpus(files: dict[str, str], directory) -> list[dict]:
    """Each case's record, run in order in `directory` after writing `files`."""
    write_files(files, directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        records = []
        for argv in CASES:
            before = file_digests(".")
            code, stdout, stderr = run_case(argv)
            after = file_digests(".")
            records.append({
                "argv": argv,
                "exit": code,
                "stdout_sha256": _sha256(stdout),
                "stderr_sha256": _sha256(stderr),
                "written": {name: digest for name, digest in after.items()
                            if before.get(name) != digest},
            })
        return records
    finally:
        os.chdir(cwd)


def record() -> dict:
    files = make_files()
    with tempfile.TemporaryDirectory() as work:
        return {"files": files, "cases": run_corpus(files, work)}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
