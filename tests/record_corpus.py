"""Record `corpus.json`, the byte-identity corpus of the command line: every
case, valid or refused, runs in order in one fresh directory after the
corpus's `files` are written there, through in-process `acdsim.cli.main`.
Later cases read what earlier ones wrote (a Q-table, logs, loop reports,
models). Each case records its command line, its exit code, its exact
stderr (`""` for a valid run, `USAGE_ERROR` for a usage error),
the sha256 of its stdout and the sha256 of each file it writes or changes;
a refused case writes and prints nothing.

    PYTHONPATH=src python -m tests.record_corpus

`test_corpus.py` replays the corpus and checks invariants on the files the
replay writes; run as a module, it replays the corpus through the installed
`acdsim`. A change that alters an output, an error message or an exit code
on purpose re-records the corpus, so its diff names each case that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import tempfile
import traceback
from pathlib import Path

from acdsim._util import sha256_hex
from acdsim.agents import META_ACTIONS
from acdsim.cli import default_scenario_path, main

CORPUS = Path(__file__).with_name("corpus.json")
BIG = 10 ** 400  # an integer no float can hold
# the message argparse gives a usage error changes between Python versions,
# so the record keeps only that it was one
USAGE_ERROR = "usage error"


def point_masses(parents: dict) -> dict:
    """A model document of the variables "NAME" or "NAME@SLICE" in `parents`, each with
    its parents there and every CPT row 1.0, so enumeration follows one path."""
    return {"variables": [{"name": name, "slice": int(at)} if at else {"name": name}
                          for name, _, at in (v.partition("@") for v in parents)],
            "parents": parents, "cpts": {v: [1.0] * 2 ** len(ps) for v, ps in parents.items()}}


def model(**doc) -> dict:
    """A model document of one variable X, `doc`'s members in place of its own."""
    return {"variables": [{"name": "X"}], "parents": {}, "cpts": {"X": [0.5]}, **doc}


def spec(**doc) -> dict:
    """A chain-a DBN spec of 8 slices, `doc`'s members in place of its own."""
    return {"topology": "chain-a", "slices": 8, **doc}


# (file name, target) of models of 13 point masses that the slice engine refuses,
# so `causal observational` enumerates them: no time-indexed variable, a global
# with a parent, a missing slice, 13 variables in one slice, a parent two back
UNSLICED = {
    "untimed-model.json": ({f"A{i}": [] for i in range(13)}, "A0=1"),
    "global-parent-model.json": ({**{f"X@{t}": [] for t in range(12)}, "G": ["X@0"]}, "G=1"),
    "gap-model.json": ({f"X@{t}": [] for t in (0, *range(2, 14))}, "X@13=1"),
    "wide-model.json": ({f"X{i}@0": [] for i in range(13)}, "X0=1"),
    "skip-model.json": ({f"X@{t}": [f"X@{t - 1 - (t == 2)}"] if t else [] for t in range(13)},
                        "X@12=1"),
}

# (file name, document) of models, DBN specs and Q-tables that break a rule
BAD_MODELS = {
    "nameless-model.json": model(variables=[{"slice": 0}]),
    "name-int-model.json": model(variables=[{"name": 3}]),
    "variable-string-model.json": model(variables=["X"]),
    "variables-object-model.json": model(variables={"X": {}}),
    "parents-list-model.json": model(parents=[]),
    "cpts-list-model.json": model(cpts=[[0.5]]),
    "list-model.json": [{"name": "X"}],
    "cpt-undeclared-model.json": model(cpts={"X": [0.5], "B": [0.3]}),
    "latent-int-model.json": model(variables=[{"name": "X", "latent": 1}]),
    "cpt-text-model.json": model(cpts={"X": "1"}),
    "parents-string-model.json": model(parents={"X": "B"}),
    "superscript-model.json": model(cpts={"X@\u00b2": [0.5]}),
}
BAD_SPECS = {
    "param-key-spec.json": spec(params={"bogus": 1}),
    "param-string-spec.json": spec(params={"persistence": "high"}),
    "params-list-spec.json": spec(params=[0.9]),
    "schedule-int-spec.json": spec(schedule=1),
    "list-spec.json": ["chain-a", 8],
    "weak-spec.json": spec(params={"persistence": 0.01}),
    "zero-slices-spec.json": spec(slices=0),
    "bool-slices-spec.json": spec(slices=True),
    "confounder-int-spec.json": spec(topology="confounded-c", per_slice_confounder=0),
    "schedule-two-spec.json": spec(topology="confounded-c", schedule=[1, 2]),
    "schedule-float-spec.json": spec(topology="confounded-c", schedule=[1.0, 0]),
}
BAD_QTABLES = {
    "q-key1.json": {"actions": ["nop"], "entries": [{"key": [1], "values": [0.0]}]},
    "q-no-values.json": {"actions": ["nop"], "entries": [{"key": [1, 0, 0]}]},
    "q-entries-object.json": {"actions": ["nop"], "entries": {"key": [1, 0, 0], "values": [0.0]}},
    "q-entry-list.json": {"actions": ["nop"], "entries": [[1, 0, 0]]},
    "q-ninf.json": {"actions": ["nop"],
                    "entries": [{"key": [1, 0, 0], "values": [float("-inf")]}]},
    "q-bool.json": {"actions": ["nop"], "entries": [{"key": [1, 0, 0], "values": [False]}]},
    "q-key-bool.json": {"actions": ["nop"], "entries": [{"key": [1, True, 0], "values": [0.0]}]},
    "q-no-actions.json": {"actions": [], "entries": [{"key": [0, 0, 0], "values": []}]},
}

# (file name, its document) of the models, specs, Q-tables, loop reports and
# approval files the cases read
DOCS = {
    "fork.json": {"topology": "fork-b", "slices": 8},
    "confounded.json": {"topology": "confounded-c", "slices": 8},
    "confounded-slice.json": {"topology": "confounded-c", "slices": 8,
                              "per_slice_confounder": True, "schedule": [1, 0, True]},
    "chain-int.json": {"topology": "chain-a", "slices": 8,
                       "params": {"spontaneous": 0, "edge_strength": 1}},
    # deterministic: it cannot explain noiseless frames of most logs
    "hard.json": {"topology": "chain-a", "slices": 8,
                  "params": {"spontaneous": 0, "persistence": 1, "edge_strength": 1,
                             "root_activation": 1}},
    "approvals.json": [True, False, True, True, False],
    "bad-model.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [0.5, 0.5]}},
    "cycle-model.json": {"variables": [{"name": "A"}, {"name": "B"}],
                         "parents": {"A": ["B"], "B": ["A"]},
                         "cpts": {"A": [0.5, 0.5], "B": [0.5, 0.5]}},
    "orphan-model.json": {"variables": [{"name": "A"}], "parents": {"A": ["B"]},
                          "cpts": {"A": [0.5, 0.5]}},
    "twice-model.json": {"variables": [{"name": "A"}, {"name": "A"}], "parents": {},
                         "cpts": {"A": [0.5]}},
    "cpt-high.json": {"variables": [{"name": "A"}], "parents": {}, "cpts": {"A": [1.5]}},
    "unnamed-model.json": {"variables": [{"name": ""}], "parents": {}, "cpts": {}},
    "undeclared-model.json": {"variables": [{"name": "A"}], "parents": {"B": []},
                              "cpts": {"A": [0.5]}},
    "ref-at-model.json": {"variables": [{"name": "A"}], "parents": {"X@": []},
                          "cpts": {"A": [0.5]}},
    "ref-empty-model.json": {"variables": [{"name": "A"}], "parents": {"": []},
                             "cpts": {"A": [0.5]}},
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
    "topology-spec.json": {"topology": "chain-z", "slices": 4},
    "param-spec.json": {"topology": "chain-a", "slices": 4, "params": {"persistence": 1.5}},
    "strength-spec.json": {"topology": "chain-a", "slices": 4,
                           "params": {"spontaneous": 0.5, "edge_strength": 0.1}},
    "alternating.json": {"topology": "confounded-c", "slices": 4, "schedule": [True, False]},
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
    "q-key2.json": {"actions": ["nop"], "entries": [{"key": [0, 0], "values": [0.0]}]},
    "q-values.json": {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [0.0, 0.0]}]},
    "typo-q.json": {"actions": ["nop"], "entries": [{"key": ["0", 0, 0], "values": [0.0]}]},
    "key-q.json": {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [0.0]}],
                   "note": 1},
    # the single-slice chain Z -> X -> Y, and two untimed variables A -> B
    "chain1.json": {"variables": [{"name": n, "slice": 0} for n in "ZXY"],
                    "parents": {"X@0": ["Z@0"], "Y@0": ["X@0"]},
                    "cpts": {"Z@0": [0.5], "X@0": [0.1, 0.9], "Y@0": [0.2, 0.8]}},
    "ab-model.json": {"variables": [{"name": "A"}, {"name": "B"}], "parents": {"B": ["A"]},
                      "cpts": {"A": [0.5], "B": [0.1, 0.9]}},
    # C -> B -> A declared child first: placing A places B, then C
    "child-first-model.json": {"variables": [{"name": n} for n in "CBA"],
                               "parents": {"C": ["B"], "B": ["A"]},
                               "cpts": {"A": [0.3], "B": [0.2, 0.9], "C": [0.1, 0.6]}},
    "negative-slice-model.json": {"variables": [{"name": "X", "slice": -1}], "parents": {},
                                  "cpts": {"X@-1": [0.5]}},
    **{name: point_masses(parents) for name, (parents, _) in UNSLICED.items()},
    # plan denominators p(do | state) an ulp or two off 1.0
    "plan-den-spec.json": spec(params={"spontaneous": 0, "persistence": 0.9,
                                       "edge_strength": 0.95, "root_activation": 0.4}),
    **BAD_MODELS, **BAD_SPECS, **BAD_QTABLES,
    "report-int.json": {"episode_jsonl": 5},
    "report-list.json": {"episode_jsonl": ["a"]},
    "big-approvals.json": [BIG],
    "typo-approvals.json": ["no"],
    "key-approvals.json": {"0": True},
}

# (file name, text) of inputs that `json.dumps` does not write: no JSON, and
# JSON after leading whitespace
TEXTS = {
    "brace.json": "{",
    "spaced-model.json": "\n  " + json.dumps({"variables": [{"name": "A"}], "parents": {},
                                              "cpts": {"A": [0.25]}}) + "\n",
    **{f"{name}-approvals.json": text for name, text in (
        ("no-0", '["no", 0]'), ("one", "[true, 1]"), ("null", "[null]"), ("open", "[true,"),
        ("empty", ""))},
}

# (file name, {JSON path: value}) of each edit of the bundled scenario
SCENARIO_EDITS = [
    ("nan-cost.json", {("costs",): {"survival_bonus": float("nan")}}),
    ("two-targets.json", {("nodes", 6, "target"): True}),
    ("big-scenario.json", {("nodes", 0, "defence"): BIG}),
    ("typo-scenario.json", {("nodes", 0, "vulns", 0, "severity"): "0.9"}),
    ("key-scenario.json", {("nodes", 0, "colour"): "red"}),
    # a self-loop, an unknown endpoint, the target (node 7) cut off and
    # made an entry, a negative cost, patch_delta 0, horizon 0 and an alert
    # probability above 1: one message names every broken rule
    ("broken-scenario.json", {
        ("edges",): [[0, 0], [0, 99], [0, 2], [0, 3], [1, 2], [1, 3], [2, 4], [3, 5], [4, 5],
                     [4, 6], [5, 6]],
        ("attacker", "entry"): [0, 7],
        ("costs",): {"scan_cost": -1.0, "patch_delta": 0.0},
        ("horizon",): 0,
        ("alerts", "p_false_alert"): 1.5}),
    ("edge3-scenario.json", {("edges", 9): [6, 7, 5]}),
    # node 0 renamed -1, so its edges name no node; a defence, a severity and the
    # attacker out of range; a vulnerability id twice and one empty; an unknown
    # entry node; a non-negative target-loss penalty
    ("ranges-scenario.json", {
        ("nodes", 0, "id"): -1,
        ("nodes", 1, "defence"): 1.5,
        ("nodes", 2, "vulns"): [{"id": "a", "severity": 2.0}, {"id": "a", "severity": 0.5},
                                {"id": "", "severity": 0.5}],
        ("attacker",): {"strength": 1.5, "spread": 0, "entry": [99]},
        ("costs",): {"target_loss_penalty": 1.0}}),
    ("twice-id-scenario.json", {("nodes", 1, "id"): 0}),
    ("no-entry-scenario.json", {("attacker", "entry"): []}),
    ("attacker-list-scenario.json", {("attacker",): [0, 1]}),
]

# (file name, line, {JSON path: value}) of each edit of the seed-5 nop log;
# line 0 is the header, line 1 the first step
LOG_EDITS = [
    ("seed.jsonl", 0, {("seed",): 6}),
    ("bogus.jsonl", 1, {("def", "kind"): "bogus"}),
    ("big-log.jsonl", 1, {("reward",): BIG}),
    ("typo-log.jsonl", 1, {("reward",): "1.0"}),
    ("key-log.jsonl", 1, {("note",): 1}),
    ("event-kind.jsonl", 1, {("events", 0, "kind"): "bogus"}),
    ("outcome.jsonl", 1, {("events", 0, "outcome"): "bogus"}),
    ("alert-kind.jsonl", 1, {("events", 1, "alert_kind"): "bogus"}),
    # recorded actions the replayed game refuses
    ("patch-99.jsonl", 1, {("def",): {"kind": "patch", "node": 99}}),
    ("isolate-0.jsonl", 1, {("def",): {"kind": "isolate", "node": 0, "duration": 0}}),
    ("spread-2.jsonl", 1, {("atk", "attempts"): [2, 3]}),
    ("attempt-99.jsonl", 1, {("atk", "attempts"): [99]}),
    # replays that diverge: a reward, and no attempt, so that a later
    # attempt is on a node next to no compromised one
    ("reward.jsonl", 1, {("reward",): 99.0}),
    ("no-attempts.jsonl", 1, {("atk", "attempts"): []}),
    # a duration on a patch, which no log writes and the replayed game refuses
    ("patch-5.jsonl", 1, {("def",): {"kind": "patch", "node": 1, "duration": 5}}),
]

LOOP = ["loop", "--seed", "7"]
EVALUATE = ["evaluate", "--qtable", "q.json", "--episodes", "12", "--seed", "0"]
SPEC_CASES = ["bad-spec.json", "confounder-string.json", "schedule-mixed.json",
              "schedule-empty.json", "topology-spec.json", "param-spec.json",
              "strength-spec.json"]

# Valid runs of every subcommand. Cases that differ only in `--parallel 2`
# and in the names of the files they write are twins: they must give the
# same bytes.
VALID = [
    ["--version"],
    ["simulate", "--seed", "5", "--out", "s5.jsonl"],
    ["simulate", "--seed", "3", "--horizon", "8", "--defender", "random", "--out", "r3.jsonl"],
    ["simulate", "--lenient", "--scenario", "key-scenario.json", "--seed", "1",
     "--out", "c1.jsonl"],
    ["replay", "--log", "s5.jsonl"],
    ["replay", "--log", "r3.jsonl"],
    ["replay", "--log", "c1.jsonl"],
    ["detect", "--log", "r3.jsonl"],
    ["detect", "--log", "r3.jsonl", "--dbn", "confounded-slice.json", "--seed", "2",
     "--indicators-out", "r3-ind.csv", "--out", "r3-detect.json"],
    ["detect", "--log", "s5.jsonl"],
    ["train", "--episodes", "60", "--seed", "0", "--out", "q.json", "--curve", "curve.csv"],
    ["simulate", "--defender", "q:q.json", "--seed", "2", "--out", "q2.jsonl"],
    [*EVALUATE, "--out", "e.json"],
    [*EVALUATE, "--parallel", "2"],
    [*EVALUATE, "--format", "csv", "--out", "e.csv"],
    [*EVALUATE, "--format", "csv", "--parallel", "2"],
    ["causal", "build", "--topology", "chain-a", "--slices", "5", "--out", "chain5.json"],
    ["causal", "build", "--topology", "fork-b", "--slices", "3"],
    ["causal", "build", "--topology", "confounded-c", "--slices", "6",
     "--schedule", "1,0,0,1,1,0", "--out", "cc6.json"],
    ["causal", "marginal", "--model", "chain5.json", "--query", "Y@4=1"],
    ["causal", "observational", "--model", "chain5.json", "--target", "Y@4=1",
     "--given", "X@0=1"],
    ["causal", "do", "--model", "chain5.json", "--target", "Y@4=1", "--do", "X@2=0"],
    ["causal", "do", "--model", "chain5.json", "--target", "Y@4=1", "--do", "X@2=0",
     "--given", "X@0=1"],
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
    # a noise of -0.0 weighs as 0.0, here after the loop has cached its engines
    *[["detect", "--log", "s5.jsonl", noise] for noise in ("--noise=-0.0,0.05",
                                                             "--noise=0.2,-0.0")],
    # the spaced spelling of a value that starts with '-'
    ["detect", "--log", "s5.jsonl", "--noise", "-0.0,0.05"],
    ["detect", "--log", "s5.jsonl", "--threshold", "-inf"],
    [*LOOP, "--autonomy", "auto", "--tau", "-inf", "--out", "l-tau.json"],
    *[[*LOOP, "--autonomy", "auto", "--episodes", "3", "--noise=-0.0,0.05", *parallel,
       "--out", f"l3z{i}.json"] for i, parallel in enumerate(([], ["--parallel", "2"]))],
    [*LOOP, "--autonomy", "auto", "--episodes", "3", "--noise=0,0.05", "--out", "l3z.json"],
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
    # a repeated run, and a serial twin of each run with --parallel 2
    EVALUATE,
    [*EVALUATE, "--format", "csv"],
    [*LOOP, "--autonomy", "auto", "--episodes", "3", "--out", "l3-again.json"],
    [*LOOP, "--autonomy", "auto", "--out", "r.json"],
    ["replay", "--log", "r.json"],
    *[[*LOOP, "--autonomy", "auto", "--dbn", "confounded.json", "--episodes", "4", *parallel,
       "--out", f"u{i}.json"] for i, parallel in enumerate(([], ["--parallel", "2"]))],
    *[[*LOOP, "--autonomy", "confirm", "--dbn", "fork.json", "--approve", "file:approvals.json",
       "--episodes", "4", *parallel, "--out", f"f{i}.json"]
      for i, parallel in enumerate(([], ["--parallel", "2"]))],
    [*LOOP, "--autonomy", "confirm", "--dbn", "confounded-slice.json", "--approve", "always",
     "--episodes", "2", "--out", "l2.json"],
    # a model that cannot explain its frames: the loop plays the no-op, and
    # detect labels the seed-1 log benign instead of failing
    ["loop", "--dbn", "hard.json", "--noise", "0,0", "--autonomy", "auto", "--tau", "0",
     "--episodes", "5", "--out", "hard-loop.json"],
    ["detect", "--log", "one.jsonl", "--dbn", "hard.json", "--noise", "0,0",
     "--out", "hard-verdict.json"],
    ["train", "--episodes", "60", "--seed", "0", "--out", "q-again.json",
     "--curve", "curve-again.csv"],
    *[["causal", "build", "--topology", topology, "--slices", "8", "--out", f"{topology}-8.json"]
      for topology in ("chain-a", "fork-b", "confounded-c")],
    ["causal", "marginal", "--model", "spaced-model.json", "--query", "A=1"],
    # a 4-step log, scored under two models
    ["simulate", "--seed", "5", "--horizon", "4", "--out", "short.jsonl"],
    ["detect", "--log", "short.jsonl", "--indicators-out", "short.csv"],
    ["detect", "--log", "short.jsonl", "--dbn", "alternating.json"],
    # a target that contradicts the evidence, a root that is always on, no
    # intervention at all, a variable named twice with one value
    ["causal", "observational", "--model", "c2.json", "--target", "X@0=1", "--given", "X@0=0"],
    ["causal", "build", "--topology", "chain-a", "--slices", "2", "--root-activation", "1",
     "--out", "on2.json"],
    ["causal", "marginal", "--model", "on2.json", "--query", "Y@1=1"],
    ["causal", "do", "--model", "c2.json", "--target", "Y@1=1", "--do", ""],
    ["causal", "marginal", "--model", "chain1.json", "--query", "X=1,X@0=1"],
    # each output on stdout, by `-`
    *[[*argv, "--out", "-"] for argv in (
        ["simulate", "--seed", "2"], ["train", "--episodes", "3", "--curve", "-"],
        ["evaluate", "--qtable", "q.json", "--episodes", "2"], ["loop", "--seed", "3"],
        ["causal", "build", "--topology", "chain-a", "--slices", "2"],
        ["detect", "--log", "r3.jsonl", "--indicators-out", "-"])],
    # models the slice engine refuses, enumerated; evidence on a global it takes
    *[["causal", "observational", "--model", name, "--target", target]
      for name, (_, target) in UNSLICED.items()],
    ["causal", "observational", "--model", "u8.json", "--target", "Y@7=1", "--given", "U=1"],
    ["causal", "build", "--topology", "chain-a", "--slices", "5", "--root-activation", "0",
     "--spontaneous", "0", "--out", "off5.json"],
    [*LOOP, "--autonomy", "auto", "--dbn", "plan-den-spec.json", "--out", "l-den.json"],
    ["replay", "--log", "l-den.json"],
]

MALFORMED = [
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
    *[[command, "--log", report] for report in ("report-int.json", "report-list.json", "l2.json")
      for command in ("replay", "detect")],
    ["simulate", "--scenario", "nan-cost.json", "--out", "nan.jsonl"],
    ["train", "--scenario", "nan-cost.json", "--episodes", "20", "--out", "nan-q.json"],
    *[["evaluate", "--qtable", table, "--episodes", "1"]
      for table in ("q-bit2.json", "q-range.json", "q-twice.json", "q-key2.json",
                    "q-values.json")],
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
    # latent evidence, with and without an intervention
    ["causal", "do", "--model", "cc6.json", "--target", "Y@3=1", "--do", "X@3=1",
     "--given", "U=1"],
    ["causal", "observational", "--model", "cc6.json", "--target", "Y@3=1", "--given", "U=1"],
    # a latent intervention is named before the evidence is ordered
    *[["causal", "do", "--model", "cc6.json", "--target", "Y@3=1", "--do", "U=1", *given]
      for given in ([], ["--given", "X@0=1"])],
    ["causal", "do", "--model", "chain5.json", "--target", "Y@4=1", "--do", "X@2=0",
     "--given", "X@2=1"],
    ["causal", "marginal", "--model", "chain-a-8.json", "--query", "Y@7=1"],
    ["causal", "marginal", "--model", "chain5.json", "--query", "Y=1"],
    ["causal", "marginal", "--model", "chain5.json", "--query", "Y@1=2"],
    *[["causal", "marginal", "--model", model, "--query", "A=1"]
      for model in ("cycle-model.json", "orphan-model.json", "twice-model.json", "cpt-high.json",
                    "unnamed-model.json", "undeclared-model.json", "ref-at-model.json",
                    "ref-empty-model.json")],
    ["evaluate", "--qtable", "q.json", "--episodes", "-1", "--out", "bad.json"],
    *[[*EVALUATE, "--parallel", parallel, "--out", "bad.json"] for parallel in ("0", "-3")],
    [*LOOP, "--parallel", "0", "--out", "bad.json"],
    ["evaluate", "--qtable", "missing.json", "--episodes", "1"],
    *[["simulate", *option, "--out", "bad.jsonl"]
      for option in (["--defender", "bogus"], ["--attacker", "bogus"], ["--horizon", "0"],
                     ["--scenario", "two-targets.json"], ["--scenario", "brace.json"],
                     ["--scenario", "broken-scenario.json"])],
    # an unwritable output, which writes nothing
    ["simulate", "--out", "nodir/x.jsonl"],
    ["detect", "--log", "s5.jsonl", "--indicators-out", "nodir/x.csv"],
    # a log of no step, and one of 32 steps, which smoothing refuses: a
    # refused detect writes no indicator CSV
    ["detect", "--log", "zero.jsonl", "--indicators-out", "zero.csv"],
    ["replay", "--log", "zero.jsonl"],
    ["detect", "--log", "nop0.jsonl", "--indicators-out", "long.csv", "--out", "long.json"],
    *[[*LOOP, *option, "--out", "bad.json"]
      for option in (["--approve", "bogus"], ["--window", "0"], ["--tau", "nan"],
                     ["--lookahead", "0"])],
    *[["detect", "--log", "s5.jsonl", *option]
      for option in (["--threshold", "nan"], ["--noise", "1.5,0.1"])],
    # a bare name and an unknown variable, a schedule of the wrong length, a
    # log of one line and an edge of three node ids
    *[["causal", "marginal", "--model", "c2.json", "--query", query] for query in ("X", "Q=1")],
    ["causal", "build", "--topology", "confounded-c", "--slices", "5", "--schedule", "1,0"],
    ["replay", "--log", "header.jsonl"],
    ["simulate", "--scenario", "edge3-scenario.json", "--out", "bad.jsonl"],
    # a second output that cannot be written: the first, a new file or
    # stdout, is not left behind either
    ["detect", "--log", "s5.jsonl", "--indicators-out", "a.csv", "--out", "nodir/x.json"],
    ["train", "--episodes", "5", "--out", "q5.json", "--curve", "nodir/c.csv"],
    ["train", "--episodes", "3", "--out", "-", "--curve", "nodir/c.csv"],
    # every rule of scenario validation, an object given as a list, no file
    *[["simulate", "--scenario", name, "--out", "bad.jsonl"]
      for name in ("ranges-scenario.json", "twice-id-scenario.json", "no-entry-scenario.json",
                   "attacker-list-scenario.json", "missing.json")],
    ["causal", "marginal", "--model", "c2.json", "--query", "X@9=1"],
    # impossible evidence, enumerated and on the engine, and evidence with
    # an untimed intervention
    ["causal", "observational", "--model", "on2.json", "--target", "Y@1=1", "--given", "Z@0=0"],
    ["causal", "observational", "--model", "off5.json", "--target", "Y@4=1", "--given", "X@3=1"],
    ["causal", "do", "--model", "ab-model.json", "--target", "B=1", "--do", "B=1",
     "--given", "A=1"],
    *[["replay", "--log", log] for log in ("patch-99.jsonl", "isolate-0.jsonl", "spread-2.jsonl",
                                           "attempt-99.jsonl", "cut.jsonl", "reward.jsonl",
                                           "no-attempts.jsonl")],
    # options, queries and input files out of range or malformed, and usage
    # errors
    *[["causal", "build", "--topology", topology, "--slices", "3", *option, "--out", "bad.json"]
      for topology, *option in (("chain-a", "--persistence", "nan"),
                                ("confounded-c", "--schedule", "1,0"),
                                ("confounded-c", "--schedule", "1,True,0"))],
    *[["causal", command, "--model", "chain1.json", *query] for command, *query in (
        ("marginal", "--query", "NOPE=1"), ("marginal", "--query", "X@\u00b2=1"),
        ("marginal", "--query", "X@0=1,X@0=0"), ("marginal", "--query", "X=0,X@0=1"),
        ("observational", "--target", "Y=1,Y=0", "--given", "X=1"),
        ("observational", "--target", "Y=1", "--given", "X=1,X@0=0"),
        ("do", "--target", "Y=1", "--do", "X=1,X=0"))],
    *[["causal", "marginal", "--model", model, "--query", "X=1"] for model in BAD_MODELS],
    *[[*command, *noise, "--out", "bad.json"]
      for command in (["detect", "--log", "s5.jsonl"], ["loop", "--autonomy", "auto"])
      for noise in (["--noise", "lots"], ["--noise=1.5,0.1"], ["--noise=0.2,nan"],
                    ["--noise=-0.5,0.1"], ["--noise", "-x"])],
    *[["loop", *option, "--out", "bad.json"]
      for option in (["--autonomy", "sentient"], ["--window", "17"], ["--window", "40"],
                     ["--episodes", "-1"])],
    *[["loop", "--dbn", spec, "--out", "bad.json"] for spec in BAD_SPECS],
    *[["train", *option, "--out", "bad-q.json"]
      for option in (["--alpha", "0"], ["--gamma", "5"], ["--gamma", "inf"],
                     ["--epsilon-start", "-0.5"], ["--epsilon-end", "2"], ["--episodes", "-1"])],
    *[["evaluate", "--qtable", table, "--episodes", "1"] for table in BAD_QTABLES],
    *[["loop", "--autonomy", "confirm", "--approve", f"file:{name}", "--out", "bad.json"]
      for name in TEXTS if name.endswith("-approvals.json")],
    ["frobnicate"],
    ["simulate"],
    # a negative seed, which `random.Random` would read as its absolute
    # value, for each command that takes one
    ["simulate", "--seed", "-5", "--out", "bad.jsonl"],
    ["train", "--episodes", "3", "--seed", "-1", "--out", "bad-q.json"],
    ["evaluate", "--qtable", "q.json", "--seed", "-3", "--episodes", "7"],
    ["detect", "--log", "s5.jsonl", "--seed", "-1"],
    ["loop", "--seed", "-1", "--out", "bad.json"],
]

# cases added after the corpus's first record, appended so that no earlier
# record moves: a benign per-step divisor of about 1e-100, whose product with
# the next slice's weights underflows unless the filter divides first; models
# that declare a child before its parent, by enumeration and on the engine; a
# negative slice, refused where the variable is read; a patch with a duration
CASES = VALID + MALFORMED + [
    ["detect", "--log", "one.jsonl", "--noise", "0.2,1e-100"],
    ["causal", "marginal", "--model", "child-first-model.json", "--query", "C=1"],
    ["causal", "observational", "--model", "reversed-chain5.json", "--target", "Y@4=1",
     "--given", "X@0=1"],
    ["causal", "marginal", "--model", "negative-slice-model.json", "--query", "X=1"],
    ["replay", "--log", "patch-5.jsonl"],
]


def run_case(argv: list[str], command: list[str] | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `argv` run in the current directory:
    through in-process `main`, or as a subprocess of `command` (such as
    `["acdsim"]`) when one is given. An exception that escapes `main` counts
    as exit 1 with the last line of its traceback on stderr."""
    if command:
        run = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8")
        return run.returncode, run.stdout, run.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - recorded, not handled
            return 1, out.getvalue(), traceback.format_exception_only(exc)[-1]
    return code, out.getvalue(), err.getvalue()


def file_digests(directory) -> dict[str, str]:
    """{file name: sha256 of its bytes} of every file in `directory`."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir()) if path.is_file()}


def edited(doc, edits: dict) -> str:
    """The compact JSON text of `doc`, keys sorted, with the value at each
    JSON path of `edits` set to its value; `doc` itself is left as it was."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits.items():
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def make_files() -> dict[str, str]:
    """{file name: text} of every file the cases read and no case writes."""
    files = {name: json.dumps(doc) + "\n" for name, doc in DOCS.items()} | TEXTS
    with open(default_scenario_path(), encoding="utf-8") as fh:
        scenario = json.load(fh)
    for name, edits in SCENARIO_EDITS:
        files[name] = edited(scenario, edits)
    with tempfile.TemporaryDirectory() as work:
        made = run_corpus({}, work, [["simulate", "--seed", "5", "--out", "s.jsonl"],
                                     ["simulate", "--seed", "1", "--out", "one.jsonl"],
                                     ["causal", "build", "--topology", "chain-a",
                                      "--slices", "2", "--out", "c2.json"],
                                     ["causal", "build", "--topology", "confounded-c",
                                      "--slices", "8", "--out", "c8.json"],
                                     ["causal", "build", "--topology", "chain-a",
                                      "--slices", "5", "--out", "c5.json"]])
        assert all(case["exit"] == 0 for case in made)
        logs = {name: Path(work, name).read_text(encoding="utf-8")
                for name in ("s.jsonl", "one.jsonl", "c2.json", "c8.json", "c5.json")}
    files["one.jsonl"], files["c2.json"] = logs["one.jsonl"], logs["c2.json"]
    # confounded-c over 8 slices, its global U not latent
    files["u8.json"] = edited(json.loads(logs["c8.json"]), {("variables", 0, "latent"): False})
    # chain-a over 5 slices, as `causal build` writes chain5.json, its variables
    # listed last first, so every parent is declared after its children
    chain5 = json.loads(logs["c5.json"])
    files["reversed-chain5.json"] = edited(chain5, {("variables",): chain5["variables"][::-1]})
    lines = logs["s.jsonl"].splitlines()
    for name, line, edits in LOG_EDITS:
        changed = list(lines)
        changed[line] = edited(json.loads(lines[line]), edits)
        files[name] = "\n".join(changed) + "\n"
    files["zero.jsonl"] = f"{lines[0]}\n{lines[-1]}\n"  # the header and the final line alone
    files["header.jsonl"] = f"{lines[0]}\n"
    files["cut.jsonl"] = "\n".join(lines[:-2] + lines[-1:]) + "\n"  # the last step cut
    return dict(sorted(files.items()))


def recorded_stderr(stderr: str) -> str:
    """`stderr` as a record keeps it: `USAGE_ERROR` for a usage error's,
    one JSON error object of type ParseError whose message starts with the
    name of the parser, `acdsim` or `acdsim COMMAND`."""
    if (stderr.startswith('{"error": {"message": "acdsim')
            and stderr.endswith('"type": "ParseError"}}\n') and stderr.count("\n") == 1):
        return USAGE_ERROR
    return stderr


def run_corpus(files: dict[str, str], directory, cases: list[list[str]] = CASES,
               command: list[str] | None = None) -> list[dict]:
    """Each case's record, run in order in `directory` after writing `files`
    there, in-process or through `command` as `run_case` runs it."""
    for name, text in files.items():
        Path(directory, name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        records = []
        for argv in cases:
            before = file_digests(".")
            code, stdout, stderr = run_case(argv, command)
            after = file_digests(".")
            records.append({
                "argv": argv,
                "exit": code,
                "stderr": recorded_stderr(stderr),
                "stdout_sha256": sha256_hex(stdout),
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
