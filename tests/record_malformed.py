"""Record `malformed_inputs.json`, the table of malformed-input cases: for
each case the command line, the input files it reads, its exit code and its
exact stderr line, from an in-process run of `acdsim.cli.main`.

    PYTHONPATH=src python tests/record_malformed.py

Each case feeds the command line one malformed input: a tampered log, a
bad model, DBN spec or Q-table, an out-of-range option, an event value
outside its set, and for every input kind an over-large integer, a mistyped
field and an unknown key. `test_malformed_inputs.py` replays the table
in-process, and a CI step replays it through the installed `acdsim`. A
change that alters an exit code or an error message on purpose re-records
it, so the table's diff names each case that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import traceback
from pathlib import Path

from acdsim.agents import META_ACTIONS
from acdsim.cli import default_scenario_path, main

TABLE = Path(__file__).with_name("malformed_inputs.json")
BIG = 10 ** 400  # an integer no float can hold

# (file name, its document) of the models, specs, Q-tables, loop reports and
# approval files the cases read
DOCS = {
    "bad-model.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [0.5, 0.5]}},
    "latent-string.json": {"variables": [{"name": "A", "latent": "no"}], "parents": {},
                           "cpts": {"A": [0.5]}},
    "cpt-string.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": ["0.5"]}},
    "cpt-bool.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [True]}},
    "big-model.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [BIG]}},
    "typo-model.json": {"variables": [{"name": "A", "slice": "0"}], "parents": {},
                        "cpts": {"A": [0.5]}},
    "key-model.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [0.5]},
                       "note": 1},
    "bad-spec.json": {"topology": "chain-a", "slices": 4, "params": {"spontaneous": 2.0}},
    "confounder-string.json": {"topology": "confounded-c", "slices": 8,
                               "per_slice_confounder": "false"},
    "schedule-mixed.json": {"topology": "confounded-c", "slices": 8, "schedule": ["no", {}, 0]},
    "schedule-empty.json": {"topology": "confounded-c", "slices": 8, "schedule": []},
    "big-spec.json": {"topology": "chain-a", "slices": 4, "params": {"edge_strength": BIG}},
    "typo-spec.json": {"topology": "chain-a", "slices": "4"},
    "key-spec.json": {"topology": "chain-a", "slices": 4, "sloces": 5},
    "q7.json": {"actions": [*META_ACTIONS, "extra"],
                "entries": [{"key": [0, 0, 0], "values": [0.0] * 6 + [1.0]}]},
    "q-nan.json": {"actions": list(META_ACTIONS),
                   "entries": [{"key": [0, 0, 0], "values": [float("nan")] * 6}]},
    "q-bit2.json": {"actions": ["nop"], "entries": [{"key": [0, 1, 0], "values": [0.0]},
                                                    {"key": [0, 2, 0], "values": [0.0]}]},
    "q-range.json": {"actions": ["nop"], "entries": [{"key": [-7, 0, 99], "values": [0.0]}]},
    "q-twice.json": {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [0.0]},
                                                     {"key": [0, 0, 0], "values": [0.0]}]},
    "big-q.json": {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [BIG]}]},
    "typo-q.json": {"actions": ["nop"], "entries": [{"key": ["0", 0, 0], "values": [0.0]}]},
    "key-q.json": {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [0.0]}],
                   "note": 1},
    "report-int.json": {"episode_jsonl": 5},
    "report-list.json": {"episode_jsonl": ["a"]},
    "big-approvals.json": [BIG],
    "typo-approvals.json": ["no"],
    "key-approvals.json": {"0": True},
}

# (file name, JSON path, value) of each edit of the bundled scenario
SCENARIO_EDITS = [
    ("nan-cost.json", ("costs",), {"survival_bonus": float("nan")}),
    ("big-scenario.json", ("nodes", 0, "defence"), BIG),
    ("typo-scenario.json", ("nodes", 0, "vulns", 0, "severity"), "0.9"),
    ("key-scenario.json", ("nodes", 0, "colour"), "red"),
]

# (file name, line, JSON path, value) of each edit of the seed-5 nop log;
# line 0 is the header, line 1 the first step
LOG_EDITS = [
    ("seed.jsonl", 0, ("seed",), 6),
    ("bogus.jsonl", 1, ("def", "kind"), "bogus"),
    ("big-log.jsonl", 1, ("reward",), BIG),
    ("typo-log.jsonl", 1, ("reward",), "1.0"),
    ("key-log.jsonl", 1, ("note",), 1),
    ("event-kind.jsonl", 1, ("events", 0, "kind"), "bogus"),
    ("outcome.jsonl", 1, ("events", 0, "outcome"), "bogus"),
    ("alert-kind.jsonl", 1, ("events", 1, "alert_kind"), "bogus"),
]

SPEC_CASES = ["bad-spec.json", "confounder-string.json", "schedule-mixed.json",
              "schedule-empty.json"]

CASES = [
    ["replay", "--log", "seed.jsonl"],
    ["replay", "--log", "bogus.jsonl"],
    ["causal", "marginal", "--model", "bad-model.json", "--query", "A=1"],
    *[argv for spec in SPEC_CASES for argv in (
        ["detect", "--log", "one.jsonl", "--dbn", spec],
        ["loop", "--dbn", spec, "--out", "bad.json"])],
    *[["causal", "marginal", "--model", model, "--query", "A=1"]
      for model in ("latent-string.json", "cpt-string.json", "cpt-bool.json")],
    ["causal", "build", "--topology", "confounded-c", "--slices", "3", "--schedule", "1,x,0"],
    ["causal", "marginal", "--model", "c2.json", "--query", "X@0=1,X@0=0"],
    ["causal", "build", "--topology", "chain-a", "--slices", "0"],
    ["causal", "build", "--topology", "chain-a", "--slices", "3", "--spontaneous", "2"],
    ["evaluate", "--qtable", "q7.json", "--episodes", "1"],
    ["train", "--episodes", "3", "--alpha", "nan", "--out", "bad-q.json"],
    ["train", "--episodes", "3", "--epsilon-decay", "-1", "--out", "bad-q.json"],
    ["evaluate", "--qtable", "q-nan.json", "--episodes", "1"],
    *[[command, "--log", report] for report in ("report-int.json", "report-list.json")
      for command in ("replay", "detect")],
    ["simulate", "--scenario", "nan-cost.json", "--out", "nan.jsonl"],
    ["train", "--scenario", "nan-cost.json", "--episodes", "20", "--out", "nan-q.json"],
    *[["evaluate", "--qtable", table, "--episodes", "1"]
      for table in ("q-bit2.json", "q-range.json", "q-twice.json")],
    # every input kind: an over-large integer, a mistyped field, an unknown key
    *[argv for fault in ("big", "typo", "key") for argv in (
        ["simulate", "--scenario", f"{fault}-scenario.json", "--out", "bad.jsonl"],
        ["replay", "--log", f"{fault}-log.jsonl"],
        ["detect", "--log", f"{fault}-log.jsonl"],
        ["detect", "--log", "one.jsonl", "--dbn", f"{fault}-spec.json"],
        ["causal", "marginal", "--model", f"{fault}-model.json", "--query", "A=1"],
        ["evaluate", "--qtable", f"{fault}-q.json", "--episodes", "1"],
        ["loop", "--autonomy", "confirm", "--approve", f"file:{fault}-approvals.json",
         "--out", "bad.json"])],
    # an event value outside its set
    *[[command, "--log", log] for log in ("event-kind.jsonl", "outcome.jsonl", "alert-kind.jsonl")
      for command in ("replay", "detect")],
]


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `main(argv)` in the current directory.
    An exception that escapes `main` counts as exit 1 with the last line of
    its traceback on stderr, as the interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - recorded, not handled
            return 1, out.getvalue(), traceback.format_exception_only(exc)[-1]
    return code, out.getvalue(), err.getvalue()


def write_files(files: dict[str, str], directory) -> None:
    """Write each {file name: text} of `files` into `directory`."""
    for name, text in files.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def file_digests(directory) -> dict[str, str]:
    """{file name: sha256 of its bytes} of every file in `directory`."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir()) if path.is_file()}


def edited(doc, path, value) -> str:
    """The compact JSON text of `doc`, keys sorted, with the value at JSON
    path `path` set to `value`; `doc` itself is left as it was."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def make_files() -> dict[str, str]:
    """{file name: text} of every file the cases read."""
    files = {name: json.dumps(doc) + "\n" for name, doc in DOCS.items()}
    with open(default_scenario_path(), encoding="utf-8") as fh:
        scenario = json.load(fh)
    for name, path, value in SCENARIO_EDITS:
        files[name] = edited(scenario, path, value)
    with tempfile.TemporaryDirectory() as work:
        logs = {}
        for name, argv in (("s.jsonl", ["simulate", "--seed", "5"]),
                           ("one.jsonl", ["simulate", "--seed", "1"]),
                           ("c2.json", ["causal", "build", "--topology", "chain-a",
                                        "--slices", "2"])):
            path = os.path.join(work, name)
            code, _, stderr = run_case(argv + ["--out", path])
            assert (code, stderr) == (0, "")
            logs[name] = Path(path).read_text(encoding="utf-8")
    files["one.jsonl"], files["c2.json"] = logs["one.jsonl"], logs["c2.json"]
    lines = logs["s.jsonl"].splitlines()
    for name, line, path, value in LOG_EDITS:
        changed = list(lines)
        changed[line] = edited(json.loads(lines[line]), path, value)
        files[name] = "\n".join(changed) + "\n"
    return dict(sorted(files.items()))


def record() -> dict:
    files = make_files()
    cases = []
    with tempfile.TemporaryDirectory() as work:
        write_files(files, work)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in CASES:
                code, _, stderr = run_case(argv)
                cases.append({"argv": argv, "exit": code, "stderr": stderr})
        finally:
            os.chdir(cwd)
    return {"files": files, "cases": cases}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
