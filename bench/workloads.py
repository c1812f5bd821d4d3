"""The four benchmark workloads.

Each workload is a closed loop with one client: a round runs every unit of
one input set one after the other, the next unit starting when the previous
one returns. Input sets come from a fixed pool, so that the outputs of every
set can be checked against `reference.json` (recorded by
`make_reference.py`). Round k of a run uses set ``(seed + k) % sets``; its
inputs are built by `inputs`, outside the timed region, and `check` runs the
correctness gate on its outputs after the round.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from acdsim import agents, causal, cli, detect, game, loop, netmodel
from acdsim._util import canonical_json, child_seed
from acdsim.errors import AcdError

from tracing import count_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

LOOP_SETS = 50
LOOP_EPISODES = 20       # loop-auto: episodes per set
LOOP_RISK_SAMPLE = 16    # loop-auto: recompute every 16th plan's risks
TRAIN_SEED = 0          # train-eval and cli-parallel: training always starts here
TRAIN_SETS = 50
TRAIN_EPISODES = 400     # train-eval: training episodes per round
EVAL_EPISODES = 400      # train-eval: frozen-greedy episodes per set
DETECT_SETS = 32
DETECT_LOGS = 48         # detect-logs: logs per set
CLI_QTABLE_EPISODES = 400  # cli-parallel: training episodes of the Q-table
CLI_SETS = 50
CLI_EPISODES = 400       # cli-parallel: episodes per `acdsim evaluate` call
CLI_PARALLEL = 2         # cli-parallel: worker processes

RISK_TOLERANCE = 1e-12
LLR_TOLERANCE = 1e-9
NOISE = detect.EmissionNoise()
LOOP_CONFIG = loop.LoopConfig(autonomy=loop.AutonomyLevel.AUTO)


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def bundled_scenario() -> netmodel.Scenario:
    return netmodel.load_scenario(Path(cli.default_scenario_path()).read_text())


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Inputs:
    """The inputs of one round: set `index` of the pool and what it holds."""

    index: int
    data: object


@dataclass
class Round:
    """What one round did."""

    units: int = 0            # episodes (logs on detect-logs) attempted
    ok: int = 0               # units that completed
    steps: int = 0            # game steps (log frames) of completed units
    errors: dict = field(default_factory=dict)  # AcdError type -> count
    digest: str = ""          # hash of every output byte of the round
    outputs: list = field(default_factory=list)  # what the gate checks


class Workload:
    """Interface of a workload; `modules` are what its set-up probe imports."""

    name = ""
    in_process = True
    modules = ()
    sets = 0

    def probe_argv(self) -> list[str]:
        """A fresh interpreter that imports the package and loads the scenario."""
        return [sys.executable, "-c",
                f"from importlib import resources; from acdsim import {', '.join(self.modules)}; "
                "netmodel.load_scenario(resources.files('acdsim')"
                ".joinpath('data/enterprise8.json').read_text())"]

    def prepare(self, seed: int, workdir: Path | None):
        self.first_set = seed % self.sets
        self.scenario = bundled_scenario()

    def inputs(self, k: int) -> Inputs:
        """Inputs of round k."""
        index = (self.first_set + k) % self.sets
        return Inputs(index, self.make(index))

    def make(self, index: int):
        raise NotImplementedError

    def run(self, inp: Inputs) -> Round:
        raise NotImplementedError

    def traced_run(self, inp: Inputs) -> Round:
        """The round the traced run times; runs in this process."""
        return self.run(inp)

    def reference(self, r: Round):
        """The part of a round's outputs recorded in `reference.json`."""
        raise NotImplementedError

    def record(self):
        """The workload's entry in `reference.json`: one per set."""
        self.prepare(0, None)
        return [self.reference(self.run(self.inputs(k))) for k in range(self.sets)]

    def check(self, inp: Inputs, r: Round, full: bool) -> list[str]:
        """Gate problems of a round; `full` adds the costly checks."""
        if self.reference(r) != load_reference()[self.name][inp.index]:
            return [f"set {inp.index}: outputs differ from the reference"]
        return []


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# loop-auto
# ---------------------------------------------------------------------------

class LoopAuto(Workload):
    """`loop.run_loop` at autonomy auto, then `report.to_json()`."""

    name = "loop-auto"
    modules = ("loop", "netmodel")
    sets = LOOP_SETS

    def make(self, index: int) -> list[int]:
        return [index * LOOP_EPISODES + i for i in range(LOOP_EPISODES)]

    def run(self, inp: Inputs) -> Round:
        r = Round()
        h = hashlib.sha256()
        for ep_seed in inp.data:
            report = loop.run_loop(self.scenario, LOOP_CONFIG, ep_seed)
            text = report.to_json()
            h.update(text.encode("utf-8"))
            r.units += 1
            r.ok += 1
            r.steps += report.summary["steps"]
            r.outputs.append(text)
        r.digest = h.hexdigest()
        return r

    def reference(self, r: Round) -> str:
        """Digest of the embedded episode logs plus the applied actions; the
        float posteriors and risks are left out and checked separately."""
        h = hashlib.sha256()
        for text in r.outputs:
            report = json.loads(text)
            applied = [[i["t"], i["action"]] for i in report["interventions"] if i["applied"]]
            h.update(report["episode_jsonl"].encode("utf-8"))
            h.update(canonical_json(applied).encode("utf-8"))
        return h.hexdigest()

    def check(self, inp: Inputs, r: Round, full: bool) -> list[str]:
        problems = super().check(inp, r, full)
        if not full:
            return problems
        plans = []
        for ep_seed, text in zip(inp.data, r.outputs):
            report = json.loads(text)
            if not game.verify_replay(report["episode_jsonl"]):
                problems.append(f"episode {ep_seed}: embedded log fails replay")
            plans += [(ep_seed, report["episode_jsonl"], i) for i in report["interventions"]]
        for ep_seed, jsonl, intervention in plans[::LOOP_RISK_SAMPLE]:
            problems += _check_plan(ep_seed, jsonl, intervention)
        return problems


def _check_plan(ep_seed: int, jsonl: str, intervention: dict) -> list[str]:
    """Recompute a plan's candidate risks through `causal.interventional` on
    a freshly built extended model, from frames rebuilt from the log."""
    cfg = LOOP_CONFIG
    log = game.parse_episode_jsonl(jsonl)
    rng = random.Random(child_seed(ep_seed, "indicators"))
    frames = [detect.apply_noise(bits, cfg.emission, rng)
              for bits in detect.ground_truth_bits(log)]
    t = intervention["t"]
    w = min(cfg.window, t)
    window = frames[t - w:t]
    model = causal.attach_emissions(
        causal.build_topology(replace(cfg.dbn, slices=w + cfg.lookahead)),
        cfg.emission.miss, cfg.emission.false_pos)
    evidence = {causal.emission_var(causal.VarId(tactic, i)): bits[tactic]
                for i, bits in enumerate(window) for tactic in detect.TACTICS
                if model.has(causal.VarId(tactic, i))}
    target = {causal.VarId("Y", w + cfg.lookahead - 1): 1}
    problems = []
    for (tactic, value), row in zip(cfg.candidates, intervention["plan"]["rationale"]):
        risk = causal.interventional(model, target, {causal.VarId(tactic, w): value}, evidence)
        if row["do"] != {f"{tactic}@{w}": value} or abs(risk - row["risk"]) > RISK_TOLERANCE:
            problems.append(f"episode {ep_seed} t={t}: plan risk {row['risk']!r} "
                            f"for {row['do']} != recomputed {risk!r}")
    return problems


# ---------------------------------------------------------------------------
# train-eval
# ---------------------------------------------------------------------------

class TrainEval(Workload):
    """`agents.train` followed by frozen-greedy `agents.evaluate`.

    Training always starts at `TRAIN_SEED`; the set picks the evaluation
    episodes. After 400 episodes the learnt policy is bimodal across training
    seeds: about half of them hold the target to the horizon (~74-step
    evaluation episodes), the rest lose it in ~20 steps. Training from one
    seed keeps the work of a round comparable across sets.
    """

    name = "train-eval"
    modules = ("agents", "netmodel")
    sets = TRAIN_SETS

    def prepare(self, seed: int, workdir: Path | None):
        super().prepare(seed, workdir)
        self.params = agents.LearningParams(episodes=TRAIN_EPISODES)
        # training reports only its returns; count its steps once
        with count_calls() as counter:
            agents.train(self.scenario, self.params, TRAIN_SEED)
        self.train_steps = counter.counts["game.step"]

    def make(self, index: int) -> int:
        return TRAIN_SEED + TRAIN_EPISODES + index * EVAL_EPISODES

    def run(self, inp: Inputs) -> Round:
        table, _ = agents.train(self.scenario, self.params, TRAIN_SEED)
        logs = agents.evaluate(self.scenario, table, EVAL_EPISODES, inp.data)
        rows = [[log.seed, log.final["t"], log.total_reward(), log.final["terminal"]]
                for log in logs]
        n = TRAIN_EPISODES + EVAL_EPISODES
        return Round(units=n, ok=n,
                     steps=self.train_steps + sum(row[1] for row in rows),
                     digest=_sha(table.save(), canonical_json(rows)))

    def reference(self, r: Round) -> str:
        return r.digest


# ---------------------------------------------------------------------------
# detect-logs
# ---------------------------------------------------------------------------

def classify_log(text: str, seed: int):
    """The chain `acdsim detect` runs on one episode log."""
    log = game.parse_episode_jsonl(text)
    seq = detect.extract_indicators(log, NOISE, seed)
    malign = causal.build_topology(causal.DbnSpec(causal.Topology.CHAIN_A,
                                                  slices=len(seq.frames)))
    benign = detect.benign_model_like(malign)
    return detect.classify(seq, benign, malign, NOISE), len(seq.frames)


def stratified_sets(lengths: list[int], per_set: int) -> list[list[int]]:
    """Split pool items into sets that hold one item of each length stratum.

    The items, ordered by length, are cut into `per_set` strata of equal size;
    set k takes the k-th item, in pool order, of every stratum. Every set then
    has about the length distribution of the whole pool.
    """
    by_length = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    size = len(lengths) // per_set
    strata = [sorted(by_length[j * size:(j + 1) * size]) for j in range(per_set)]
    return [[stratum[k] for stratum in strata] for k in range(size)]


class DetectLogs(Workload):
    """Nop-defender episode logs classified benign vs malign, one at a time.

    The pool holds the logs of episodes 0..1535. Whether a log is refused
    (over 16 steps) and what it costs both follow its length, so a set of
    logs drawn at random would vary by about 28% in classified logs per
    second from the mix alone. Sets are therefore stratified by length
    (`stratified_sets`): each holds the pool's share of refused logs.
    """

    name = "detect-logs"
    modules = ("detect", "game", "netmodel")
    sets = DETECT_SETS

    def make(self, index: int) -> list[tuple[int, str]]:
        lengths = load_reference()[self.name]["lengths"]
        seeds = stratified_sets(lengths, DETECT_LOGS)[index]
        return [(s, self.log_text(s)) for s in seeds]

    def log_text(self, seed: int) -> str:
        attacker = agents.LateralAttacker(self.scenario.attacker.spread)
        return game.episode_to_jsonl(game.run_episode(
            self.scenario, agents.NopDefender(), attacker, seed))

    def run(self, inp: Inputs) -> Round:
        r = Round()
        for s, text in inp.data:
            r.units += 1
            try:
                result, frames = classify_log(text, s)
            except AcdError as exc:
                kind = type(exc).__name__
                r.errors[kind] = r.errors.get(kind, 0) + 1
                r.outputs.append([kind, None])
                continue
            r.ok += 1
            r.steps += frames
            r.outputs.append([result.label, result.llr])
        r.digest = _sha(json.dumps(r.outputs))
        return r

    def record(self) -> dict:
        """Length and outcome of every log in the pool."""
        self.prepare(0, None)
        seeds = range(DETECT_SETS * DETECT_LOGS)
        texts = [self.log_text(s) for s in seeds]
        r = self.run(Inputs(0, list(zip(seeds, texts))))
        return {"lengths": [len(game.parse_episode_jsonl(t).steps) for t in texts],
                "outcomes": r.outputs}

    def check(self, inp: Inputs, r: Round, full: bool) -> list[str]:
        problems = []
        reference = load_reference()[self.name]["outcomes"]
        for (s, _), (label, llr) in zip(inp.data, r.outputs):
            ref_label, ref_llr = reference[s]
            if label != ref_label:
                problems.append(f"log {s}: outcome {label} != reference {ref_label}")
            elif ref_llr is not None and not abs(llr - ref_llr) <= LLR_TOLERANCE:
                problems.append(f"log {s}: llr {llr!r} != reference {ref_llr!r}")
        return problems


# ---------------------------------------------------------------------------
# cli-parallel
# ---------------------------------------------------------------------------

class CliParallel(Workload):
    """`acdsim evaluate --parallel 2` as a subprocess, one call per round.

    Every round's rows and summary must equal the reference, recorded from
    serial calls; the first round's output bytes must also equal those of
    the serial call with the same arguments.
    """

    name = "cli-parallel"
    in_process = False
    sets = CLI_SETS

    def probe_argv(self) -> list[str]:
        return [sys.executable, "-m", "acdsim.cli", "--version"]

    def prepare(self, seed: int, workdir: Path | None):
        super().prepare(seed, workdir)
        table, _ = agents.train(self.scenario,
                                agents.LearningParams(episodes=CLI_QTABLE_EPISODES), TRAIN_SEED)
        self.qtable = workdir / "qtable.json"
        self.qtable.write_text(table.save())
        self.out = workdir / "evaluate.json"
        self.walls: dict[int, list[float]] = {1: [], CLI_PARALLEL: []}

    def make(self, index: int) -> list[str]:
        return ["evaluate", "--qtable", str(self.qtable), "--episodes", str(CLI_EPISODES),
                "--seed", str(TRAIN_SEED + CLI_QTABLE_EPISODES + index * CLI_EPISODES)]

    def evaluate(self, args: list[str], parallel: int) -> bytes:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "acdsim.cli", *args,
                               "--parallel", str(parallel)],
                              capture_output=True, env=subprocess_env())
        if proc.returncode != 0:
            raise RuntimeError(f"acdsim evaluate exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')}")
        self.walls[parallel].append(time.perf_counter() - start)
        return proc.stdout

    def _round(self, out: bytes) -> Round:
        rows = json.loads(out)["episodes"]
        return Round(units=CLI_EPISODES, ok=len(rows), steps=sum(row["steps"] for row in rows),
                     digest=hashlib.sha256(out).hexdigest(), outputs=[out])

    def run(self, inp: Inputs) -> Round:
        return self._round(self.evaluate(inp.data, CLI_PARALLEL))

    def traced_run(self, inp: Inputs) -> Round:
        """The serial `acdsim evaluate` through `cli.main` in this process."""
        code = cli.main([*inp.data, "--parallel", "1", "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"acdsim evaluate exited {code}")
        return self._round(self.out.read_bytes())

    def record(self) -> list[str]:
        """Digests of the serial output of every set."""
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".bench_work"))
        try:
            self.prepare(0, workdir)
            return [self.reference(self._round(self.evaluate(self.make(k), 1)))
                    for k in range(self.sets)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def reference(self, r: Round) -> str:
        """Digest of the rows and summary; the version string is left out."""
        out = json.loads(r.outputs[0])
        return _sha(canonical_json([out["episodes"], out["summary"]]))

    def cli_walls(self) -> tuple[float, float]:
        """Median wall seconds of the serial and the parallel subprocess calls."""
        return statistics.median(self.walls[1]), statistics.median(self.walls[CLI_PARALLEL])

    def check(self, inp: Inputs, r: Round, full: bool) -> list[str]:
        problems = super().check(inp, r, full)
        if full and self.evaluate(inp.data, 1) != r.outputs[0]:
            problems.append(f"set {inp.index}: --parallel {CLI_PARALLEL} output differs "
                            "from the serial output")
        return problems


WORKLOADS = {w.name: w for w in (LoopAuto, TrainEval, DetectLogs, CliParallel)}
