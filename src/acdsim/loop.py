"""Closed detection/mitigation loop, run as a defender policy.

`LoopDefender` is an ordinary defender policy for `game.run_episode`. After
each step it turns the step's events into ground-truth tactic bits, adds
indicator noise and keeps the frame. Before each step it smooths the last
`window` frames under the malign tactic model over a sliding window; when any
tactic posterior crosses the threshold it picks the intervention that
minimizes the predicted end-of-lookahead collection risk and maps it to a
concrete defender action, gated by the configured autonomy level. Otherwise
it plays the no-op.

The indicator noise consumes a labelled RNG stream separate from the game
engine's, so loop logs replay exactly like plain episode logs. At the advise
level the policy only observes and always plays the no-op, so the trajectory
is byte-identical to a plain episode with the no-op defender and the same
seed.

The inference engines the loop queries run on the tactic model alone: the
indicator noise enters each query as per-slice likelihoods of the frames
(virtual evidence). A step filters and smooths its window with one
`DbnEngine.posteriors` call, which also returns the filtered state, and a
plan predicts from that state with one product: the do-slice follows the
window, so the window's slices are the same in every candidate model, and
each candidate's risk is a ratio of two linear functions of that state.

One process-wide cache, `_window`, keyed by the DBN spec, the lookahead,
the candidates and the window length and filled on first use, serves every
episode and configuration. An entry holds the window's engine, whose frame
table (`DbnEngine.frame_likelihoods`) fills as steps meet new frames, its
detection keys and the plan matrix. Over one loop-auto benchmark round (20
auto episodes, seeds 0-19, 915 steps, 895 evaluated, 838 plans) it had 887
hits and 8 misses. An entry is built from its key alone and no query
changes what an engine computes, so no report depends on earlier runs.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from ._util import child_seed, indented_json
from .causal import DbnEngine, VarId, build_topology, do_transform
from .config import AutonomyLevel, DbnSpec, LoopConfig
from .detect import TACTICS, TruthTracker, apply_noise
from .errors import ZeroEvidenceError
from .game import (
    NOP,
    DefenderAction,
    DefenderView,
    EpisodeLog,
    StepOutcome,
    episode_to_jsonl,
    isolate,
    restore,
    run_episode,
)
from .agents import LateralAttacker, hottest_node
from .netmodel import Scenario


@dataclass(frozen=True)
class InterventionPlan:
    do: dict                 # VarId -> 0/1 at the intervention slice; empty = do nothing
    predicted_risk: float    # p(Y at the final slice = 1 | evidence, do)
    rationale: tuple         # ((candidate do-dict, risk), ...) in declaration order

    def to_obj(self) -> dict:
        return {
            "do": {str(v): val for v, val in self.do.items()},
            "predicted_risk": self.predicted_risk,
            "rationale": [{"do": {str(v): val for v, val in c.items()}, "risk": r}
                          for c, r in self.rationale],
        }


@dataclass(frozen=True)
class LoopReport:
    log: EpisodeLog
    autonomy: AutonomyLevel
    tau: float
    detections: tuple       # per evaluated step: {"t", "posteriors", "max_tactic_posterior"}
    interventions: tuple    # {"t", "plan", "approved", "applied", "action"}
    summary: dict

    def to_obj(self) -> dict:
        return {
            "version": __version__,
            "autonomy": self.autonomy.value,
            "tau": self.tau,
            "episode_jsonl": episode_to_jsonl(self.log),
            "detections": list(self.detections),
            "interventions": list(self.interventions),
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return indented_json(self.to_obj())


# ---------------------------------------------------------------------------
# From intervention to action
# ---------------------------------------------------------------------------

def map_intervention_to_action(plan: InterventionPlan, view: DefenderView) -> DefenderAction:
    """Bridge a tactic intervention to a concrete game action.

    Suppressing lateral movement (X) isolates the node with the most last-step
    alerts; suppressing collection (Y) restores it. No alerts, or a do-nothing
    plan, maps to a no-op.
    """
    names = {v.name for v in plan.do}
    hot = hottest_node(view)
    if "X" in names:
        return isolate(hot) if hot is not None else NOP
    if "Y" in names:
        return restore(hot) if hot is not None else NOP
    return NOP


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

class _Window(NamedTuple):
    engine: DbnEngine      # the tactic model of the window's w slices
    keys: tuple            # its tactic variables' detection keys, sorted
    index: np.ndarray      # and their indices into its posterior vector
    dos: tuple             # per candidate its do pairs at slice w
    readout: np.ndarray    # the plan matrix, read-only


@functools.lru_cache(maxsize=256)
def _window(dbn: DbnSpec, lookahead: int, candidates: tuple, w: int) -> _Window:
    """The entry for a window of w frames. The (states, 2C) plan matrix's
    columns are, over slice w-1's state, p(do, Y at the last slice = 1 |
    state) for each candidate, then p(do | state) for each."""
    engine = DbnEngine(build_topology(dbn.with_slices(w)))
    keyed = sorted((str(v), i) for i, v in enumerate(engine.outputs)
                   if v.name in TACTICS and v.slice is not None)
    target = {VarId("Y", w + lookahead - 1): 1}
    dos = tuple(((VarId(cand[0], w), cand[1]),) if cand is not None else ()
                for cand in candidates)
    model = build_topology(dbn.with_slices(w + lookahead))
    vectors = [DbnEngine(do_transform(model, dict(do))).prediction_vectors(target, dict(do), w)
               for do in dos]
    readout = np.stack([num for num, _ in vectors] + [den for _, den in vectors], axis=1)
    readout.flags.writeable = False
    return _Window(engine, tuple(k for k, _ in keyed),
                   np.array([i for _, i in keyed], dtype=int), dos, readout)


def _plan(entry: _Window, alpha) -> InterventionPlan:
    """The candidate with the least p(Y at the lookahead model's last slice =
    1 | frames, do), first declared winning ties, by filtering, then
    predicting: `alpha`, the step's filtered state at slice w-1 of `entry`'s
    window of w frames, times each candidate's prediction vectors. The tests'
    reference computes the same risks with `causal.interventional` on the
    frames' `attach_emissions` model. Slices 0..w-1 match the detection
    model's, as each depends only on itself and earlier slices and the
    do-slice is w."""
    joint = alpha.reshape(-1) @ entry.readout
    # den, alpha . p(do | state) under a point-mass do, is 1 within ulps and never 0
    num, den = joint[:len(entry.dos)], joint[len(entry.dos):]
    candidates, risks = [dict(do) for do in entry.dos], (num / den).tolist()
    best = min(range(len(risks)), key=risks.__getitem__)  # the first of equal minima
    return InterventionPlan(do=candidates[best], predicted_risk=risks[best],
                            rationale=tuple(zip(candidates, risks)))


class LoopDefender:
    """Defender policy for `run_episode` that detects and intervenes.

    Each step smooths the last `window` indicator frames under the malign
    model; when the highest tactic posterior reaches tau, an intervention plan
    is built and, subject to autonomy, its mapped action replaces the no-op
    for that step. At confirm each plan takes the next of `approvals`, the
    yes/no decisions in proposal order, and is refused once they run out.
    Frames the model cannot produce have no posteriors, so they never plan,
    whatever tau is.
    `frames`, `detections` and `interventions` record what it saw and did.
    """

    def __init__(self, s: Scenario, cfg: LoopConfig, seed: int, approvals: Iterable[bool] = ()):
        self.cfg = cfg
        self.approvals = iter(approvals)
        self.truth = TruthTracker(s.attacker.entry)
        self.noise_rng = random.Random(child_seed(seed, "indicators"))
        self.frames: list[dict] = []
        self.detections: list[dict] = []
        self.interventions: list[dict] = []

    def act(self, view: DefenderView, rng) -> DefenderAction:
        if not self.frames:
            return NOP
        cfg = self.cfg
        window = self.frames[-cfg.window:]
        entry = _window(cfg.dbn, cfg.lookahead, tuple(cfg.candidates), len(window))
        try:
            posteriors, alpha, _ = entry.engine.posteriors(
                {}, entry.engine.frame_likelihoods(window, *cfg.emission))
            tactic_post = dict(zip(entry.keys, posteriors[entry.index].tolist()))
        except ZeroEvidenceError:
            tactic_post, alpha = {}, None
        max_post = max(tactic_post.values(), default=0.0)
        self.detections.append({
            "t": view.t,
            "posteriors": tactic_post,
            "max_tactic_posterior": max_post,
        })
        if alpha is None or max_post < self.cfg.tau:
            return NOP

        plan = _plan(entry, alpha)
        approved = None
        if self.cfg.autonomy is AutonomyLevel.CONFIRM:
            approved = bool(next(self.approvals, False))
        applied = self.cfg.autonomy is AutonomyLevel.AUTO or bool(approved)
        action = map_intervention_to_action(plan, view) if applied else NOP
        self.interventions.append({
            "t": view.t,
            "plan": plan.to_obj(),
            "approved": approved,
            "applied": applied,
            "action": {"kind": action.kind, "node": action.node} if applied else None,
        })
        return action

    def observe(self, outcome: StepOutcome) -> None:
        bits = self.truth.step(len(self.frames), outcome.events)  # the step's t
        self.frames.append(apply_noise(bits, self.cfg.emission, self.noise_rng))


def run_loop(s: Scenario, cfg: LoopConfig, seed: int, approvals: Iterable[bool] = ()) -> LoopReport:
    """Run one episode under the loop; deterministic given its arguments."""
    defender = LoopDefender(s, cfg, seed, approvals)
    log = run_episode(s, defender, LateralAttacker(s.attacker.spread), seed)
    interventions = defender.interventions
    return LoopReport(
        log=log,
        autonomy=cfg.autonomy,
        tau=cfg.tau,
        detections=tuple(defender.detections),
        interventions=tuple(interventions),
        summary={
            "terminal": log.final["terminal"],
            "steps": log.final["t"],
            "total_reward": log.final["total_reward"],
            "time_to_target": log.time_to_target(),
            "proposed": len(interventions),
            "applied": sum(1 for i in interventions if i["applied"]),
        },
    )
