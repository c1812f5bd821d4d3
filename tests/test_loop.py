"""Intervention selection, action mapping, and the closed loop."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import acdsim
from acdsim._util import child_seed
from acdsim.agents import LateralAttacker, NopDefender
from acdsim.causal import (
    DbnEngine,
    DbnParams,
    DbnSpec,
    Topology,
    VarId,
    attach_emissions,
    build_topology,
    emission_var,
)
from acdsim.detect import EmissionNoise, extract_indicators
from acdsim.errors import SpecError
from acdsim.game import episode_to_jsonl, extract_episode_jsonl, run_episode, verify_replay
from acdsim.loop import (
    AutonomyLevel,
    InterventionPlan,
    LoopConfig,
    LoopDefender,
    _plan,
    _window,
    map_intervention_to_action,
    run_loop,
)
from acdsim.netmodel import load_scenario

from .conftest import one_object_each, select_intervention
from .test_agents import make_defender_view


@pytest.fixture(scope="module")
def enterprise():
    from acdsim.cli import default_scenario_path
    with open(default_scenario_path(), "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


class TestSelectIntervention:
    """The reference planner that `_plan` is checked against."""

    def test_single_candidate_always_selected(self, chain_example):
        X = VarId("X", 0)
        plan = select_intervention(chain_example, {}, [{X: 0}], horizon_slice=0)
        assert plan.do == {X: 0}
        assert len(plan.rationale) == 1

    def test_movement_suppression_beats_doing_nothing(self, chain_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        plan = select_intervention(chain_example, {}, [{X: 0}, {}], horizon_slice=0)
        assert plan.do == {X: 0}
        assert plan.predicted_risk == pytest.approx(0.2)
        risks = dict((tuple(c.items()), r) for c, r in plan.rationale)
        assert risks[()] == pytest.approx(0.5)  # doing nothing leaves base risk

    def test_tie_break_first_declared(self, chain_example):
        X = VarId("X", 0)
        plan = select_intervention(chain_example, {}, [{X: 0}, {X: 0}], horizon_slice=0)
        assert plan.rationale[0][1] == plan.rationale[1][1]
        assert plan.do == {X: 0}

    def test_empty_candidates_rejected(self):
        with pytest.raises(SpecError):
            LoopConfig(candidates=())

    def test_risk_in_unit_interval(self):
        m = attach_emissions(build_topology(DbnSpec(Topology.CHAIN_A, 4)), 0.2, 0.05)
        evidence = {emission_var(VarId("X", t)): 1 for t in range(2)}
        plan = select_intervention(m, evidence,
                                   [{VarId("X", 2): 0}, {VarId("Y", 2): 0}],
                                   horizon_slice=3)
        assert 0.0 <= plan.predicted_risk <= 1.0


class TestMapIntervention:
    def test_movement_maps_to_isolate_hottest(self):
        view = make_defender_view(alerts=(3, 3, 5), edges=((3, 5), (5, 6)), target=6)
        plan = InterventionPlan(do={VarId("X", 2): 0}, predicted_risk=0.1, rationale=())
        action = map_intervention_to_action(plan, view)
        assert action.kind == "isolate" and action.node == 3

    def test_collection_no_alerts_maps_to_nop(self):
        view = make_defender_view()
        plan = InterventionPlan(do={VarId("Y", 1): 0}, predicted_risk=0.1, rationale=())
        assert map_intervention_to_action(plan, view).kind == "nop"

    def test_do_nothing_maps_to_nop(self):
        view = make_defender_view(alerts=(1,))
        plan = InterventionPlan(do={}, predicted_risk=0.5, rationale=())
        assert map_intervention_to_action(plan, view).kind == "nop"

    def test_collection_maps_to_restore_hottest(self):
        view = make_defender_view(alerts=(5,), edges=((3, 5), (5, 6)), target=6)
        plan = InterventionPlan(do={VarId("Y", 4): 0}, predicted_risk=0.1, rationale=())
        action = map_intervention_to_action(plan, view)
        assert action.kind == "restore" and action.node == 5


class TestPlanByPrediction:
    """`_plan` predicts each candidate's risk from the detection filter's last
    state; `select_intervention` on the `attach_emissions` model of window +
    lookahead slices, with the frames as `_obs` evidence, is the reference."""

    @pytest.mark.parametrize("spec", [
        DbnSpec(Topology.CHAIN_A, 8), DbnSpec(Topology.FORK_B, 8),
        DbnSpec(Topology.CONFOUNDED_C, 8),
        DbnSpec(Topology.CONFOUNDED_C, 8, per_slice_confounder=True),
        DbnSpec(Topology.CONFOUNDED_C, 8, schedule=(True, False, False)),
    ], ids=["chain", "fork", "global-U", "per-slice-U", "schedule-3"])
    @pytest.mark.parametrize("lookahead", [1, 3])
    def test_risks_equal_select_intervention(self, spec, lookahead):
        cfg = LoopConfig(dbn=spec, lookahead=lookahead,
                         candidates=(("X", 0), ("Y", 0), ("X", 1), None))
        rng = random.Random(f"{spec}{lookahead}")
        for w in range(1, cfg.window + 1):  # as at the start of an episode
            frames = [{name: rng.randint(0, 1) for name in "ZXY"} for _ in range(w)]
            engine = DbnEngine(build_topology(spec.with_slices(w)))
            _, alpha, _ = engine.posteriors({}, engine.frame_likelihoods(frames, *cfg.emission))
            plan = _plan(_window(cfg.dbn, cfg.lookahead, tuple(cfg.candidates), w), alpha)

            model = attach_emissions(build_topology(spec.with_slices(w + lookahead)),
                                     cfg.emission.miss, cfg.emission.false_pos)
            evidence = {emission_var(VarId(name, i)): bit
                        for i, frame in enumerate(frames) for name, bit in frame.items()
                        if model.has(emission_var(VarId(name, i)))}
            candidates = [{VarId(c[0], w): c[1]} if c is not None else {}
                          for c in cfg.candidates]
            expected = select_intervention(model, evidence, candidates,
                                           horizon_slice=w + lookahead - 1)
            assert [c for c, _ in plan.rationale] == candidates
            for (_, risk), (_, reference) in zip(plan.rationale, expected.rationale):
                assert risk == pytest.approx(reference, abs=1e-12), (w, plan.rationale)
            assert plan.do == expected.do

    def test_duplicate_candidates_first_declared_wins(self):
        cfg = LoopConfig(dbn=DbnSpec(Topology.CHAIN_A, 8), candidates=(None, ("X", 0), ("X", 0)))
        frames = [{"Z": 1, "X": 1, "Y": 0}] * 3
        engine = DbnEngine(build_topology(cfg.dbn.with_slices(3)))
        _, alpha, _ = engine.posteriors({}, engine.frame_likelihoods(frames, *cfg.emission))
        plan = _plan(_window(cfg.dbn, cfg.lookahead, tuple(cfg.candidates), 3), alpha)
        (nothing, r0), (first, r1), (second, r2) = plan.rationale
        assert r1 == r2 < r0
        assert plan.do is first and plan.do is not second

    def test_a_planning_step_filters_once(self, enterprise, monkeypatch):
        """One forward filter and one backward pass, both for detection: with
        its matrix cached, a plan is one product with the filtered state."""
        defender = LoopDefender(enterprise, LoopConfig(autonomy=AutonomyLevel.AUTO, tau=0.0),
                                seed=0)
        defender.frames = [{"Z": 1, "X": 1, "Y": 0}] * 5
        view = make_defender_view(alerts=(1,))
        defender.act(view, None)  # fills the caches
        calls = []
        for name in ("_forward", "_backward"):
            monkeypatch.setattr(DbnEngine, name, lambda self, *a, _name=name,
                                _run=getattr(DbnEngine, name):
                                calls.append((_name, self.T)) or _run(self, *a))
        for name in ("conditional", "loglik"):
            monkeypatch.setattr(DbnEngine, name, None)
        defender.act(view, None)
        assert len(defender.interventions) == 2
        assert calls == [("_forward", 5), ("_backward", 5)]

    @pytest.mark.parametrize("tau", [0.0, -1.0, 0.5])
    def test_a_window_the_model_cannot_explain_never_plans(self, enterprise, tau):
        """A deterministic chain-a under noiseless frames cannot produce most
        windows: such a step records empty posteriors and plays the no-op,
        whatever tau is, and every other step plans as before."""
        hard = DbnParams(spontaneous=0.0, persistence=1.0, edge_strength=1.0,
                         root_activation=1.0)
        cfg = LoopConfig(autonomy=AutonomyLevel.AUTO, tau=tau, emission=EmissionNoise(0.0, 0.0),
                         dbn=DbnSpec(Topology.CHAIN_A, 8, params=hard))
        empty = 0
        for seed in range(5):
            report = run_loop(enterprise, cfg, seed)
            planned = {record["t"] for record in report.interventions}
            for detection in report.detections:
                if detection["posteriors"]:
                    assert (detection["t"] in planned) == (detection["max_tactic_posterior"] >= tau)
                else:
                    empty += 1
                    assert detection["max_tactic_posterior"] == 0.0
                    assert detection["t"] not in planned
        assert empty


class TestWindowCache:
    def test_one_lookup_per_evaluated_step(self, enterprise):
        """A step looks its entry up once, and a plan reads that entry."""
        before = _window.cache_info()
        report = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.AUTO), seed=0)
        after = _window.cache_info()
        assert report.interventions
        lookups = after.hits + after.misses - before.hits - before.misses
        assert lookups == len(report.detections)

    def test_one_posteriors_call_per_evaluated_step(self, enterprise, monkeypatch):
        """A step smooths its window through the engine's public
        `posteriors`, once."""
        calls = []
        posteriors = DbnEngine.posteriors
        monkeypatch.setattr(DbnEngine, "posteriors", lambda self, *a:
                            calls.append(self.T) or posteriors(self, *a))
        report = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.AUTO), seed=0)
        assert report.interventions
        assert len(calls) == len(report.detections)


class TestRunLoop:
    def test_advise_is_byte_identical_to_plain_episode(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.ADVISE)
        for seed in (0, 1, 2):
            report = run_loop(enterprise, cfg, seed)
            plain = run_episode(enterprise, NopDefender(),
                                LateralAttacker(enterprise.attacker.spread), seed)
            assert episode_to_jsonl(report.log) == episode_to_jsonl(plain)
            assert report.summary["applied"] == 0

    def test_an_auto_episode_keeps_each_distinct_outcome_and_action_once(self, enterprise):
        """The loop's defender actions and the outcomes of its steps are
        shared within the episode as every policy's are."""
        for seed in (0, 1, 2):
            log = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.AUTO), seed).log
            outcomes = [rec.outcome for rec in log.steps]
            actions = [rec.defender for rec in log.steps]
            assert one_object_each(outcomes) and one_object_each(actions)
            assert len(set(actions)) < len(actions) and len(set(outcomes)) < len(outcomes)

    def test_unreachable_threshold_never_proposes(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.AUTO, tau=1.1)
        report = run_loop(enterprise, cfg, seed=0)
        assert report.interventions == ()
        assert report.summary["proposed"] == 0

    def test_proposals_only_at_or_above_threshold(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.ADVISE, tau=0.8)
        report = run_loop(enterprise, cfg, seed=5)
        by_step = {d["t"]: d["max_tactic_posterior"] for d in report.detections}
        proposal_steps = {i["t"] for i in report.interventions}
        for t, max_post in by_step.items():
            assert (t in proposal_steps) == (max_post >= cfg.tau)

    def test_confirm_never_approve_applies_nothing(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.CONFIRM)
        report = run_loop(enterprise, cfg, seed=3, approvals=())
        assert report.summary["proposed"] > 0
        assert report.summary["applied"] == 0
        assert all(i["approved"] is False for i in report.interventions)

    def test_confirm_approval_discipline(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.CONFIRM)
        report = run_loop(enterprise, cfg, seed=3, approvals=[True, False, True])
        assert any(i["applied"] for i in report.interventions)
        for record in report.interventions:
            if record["applied"]:
                assert record["approved"] is True
            else:
                assert record["approved"] is False

    def test_confirm_always_matches_auto_trajectory(self, enterprise):
        auto = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.AUTO), seed=7)
        confirmed = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.CONFIRM),
                             seed=7, approvals=itertools.repeat(True))
        assert episode_to_jsonl(auto.log) == episode_to_jsonl(confirmed.log)

    @pytest.mark.parametrize("autonomy", list(AutonomyLevel), ids=lambda a: a.value)
    def test_decisions_are_read_only_at_confirm_one_per_proposal(self, enterprise, autonomy):
        decisions = iter([True] * 100)
        report = run_loop(enterprise, LoopConfig(autonomy=autonomy), seed=3,
                          approvals=decisions)
        proposed = report.summary["proposed"]
        assert 0 < proposed < 100
        read = 100 - len(list(decisions))
        assert read == (proposed if autonomy is AutonomyLevel.CONFIRM else 0)

    def test_confirm_without_approvals_refuses_every_proposal(self, enterprise):
        report = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.CONFIRM), seed=3)
        assert report.summary["proposed"] > 0
        assert all(i["approved"] is False for i in report.interventions)

    def test_same_seed_identical_reports(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.AUTO)
        a = run_loop(enterprise, cfg, seed=11)
        b = run_loop(enterprise, cfg, seed=11)
        assert a.to_json() == b.to_json()

    def test_loop_log_replays(self, enterprise):
        cfg = LoopConfig(autonomy=AutonomyLevel.AUTO)
        report = run_loop(enterprise, cfg, seed=13)
        assert verify_replay(extract_episode_jsonl(report.to_json()))

    def test_loop_frames_reproducible_from_log(self, enterprise):
        """The report's episode log plus the labelled stream seed regenerate
        exactly the indicator frames the loop acted on."""
        seed = 17
        for autonomy in AutonomyLevel:
            cfg = LoopConfig(autonomy=autonomy)
            report = run_loop(enterprise, cfg, seed, approvals=[True, False])
            policy = LoopDefender(enterprise, cfg, seed, approvals=[True, False])
            log = run_episode(enterprise, policy,
                              LateralAttacker(enterprise.attacker.spread), seed)
            assert episode_to_jsonl(log) == episode_to_jsonl(report.log)
            seq = extract_indicators(report.log, cfg.emission,
                                     child_seed(seed, "indicators"))
            assert list(seq.frames) == policy.frames
            assert len(policy.frames) == report.log.final["t"]

    def test_plan_optimality_reproducible(self, enterprise):
        """Every recorded plan re-derives bit-for-bit from the causal module."""
        cfg = LoopConfig(autonomy=AutonomyLevel.AUTO)
        seed = 19
        report = run_loop(enterprise, cfg, seed)
        assert report.interventions
        seq = extract_indicators(report.log, cfg.emission, child_seed(seed, "indicators"))
        frames = list(seq.frames)
        for record in report.interventions[:6]:
            t = record["t"]
            w = min(cfg.window, t)
            window = frames[t - w:t]
            spec = replace(cfg.dbn, slices=w + cfg.lookahead)
            model = attach_emissions(build_topology(spec),
                                     cfg.emission.miss, cfg.emission.false_pos)
            evidence = {emission_var(VarId(name, i)): bits[name]
                        for i, bits in enumerate(window) for name in ("Z", "X", "Y")}
            candidates = [{VarId(name, w): value} for name, value in cfg.candidates]
            plan = select_intervention(model, evidence, candidates,
                                       horizon_slice=w + cfg.lookahead - 1)
            assert plan.predicted_risk == pytest.approx(
                record["plan"]["predicted_risk"], abs=1e-12)
            recorded_risks = [r["risk"] for r in record["plan"]["rationale"]]
            for (_, risk), recorded in zip(plan.rationale, recorded_risks):
                assert risk == pytest.approx(recorded, abs=1e-12)
            assert plan.to_obj()["do"] == record["plan"]["do"]

    def test_engine_cache_keeps_reports_independent_of_run_order(self, enterprise):
        # engines are cached per process and keyed by value: a seed's report
        # must not depend on what the process ran before it. Each config is
        # an expression, evaluated here and in a fresh interpreter.
        names = ("from acdsim.causal import DbnSpec, Topology; "
                 "from acdsim.detect import EmissionNoise; "
                 "from acdsim.loop import AutonomyLevel, LoopConfig")
        base = "LoopConfig(autonomy=AutonomyLevel.AUTO"
        configs = {
            "base": base + ")",
            "lookahead": base + ", lookahead=3)",
            "emission": base + ", emission=EmissionNoise(0.1, 0.1))",
            "topology": base + ", dbn=DbnSpec(Topology.FORK_B, slices=8))",
            "zero": base + ", emission=EmissionNoise(0.0, 0.05))",
            # lru_cache keys -0.0 as 0.0, so this run reuses the previous one's entries
            "signed-zero": base + ", emission=EmissionNoise(-0.0, 0.05))",
        }
        script = ("import sys; from acdsim.cli import default_scenario_path; "
                  "from acdsim.loop import run_loop; "
                  "from acdsim.netmodel import load_scenario; " + names + "; "
                  "s = load_scenario(open(default_scenario_path()).read()); "
                  "sys.stdout.write(run_loop(s, eval(sys.argv[1]), 5).to_json())")
        env = dict(os.environ, PYTHONPATH=str(Path(acdsim.__file__).resolve().parents[1]))
        procs = {name: subprocess.Popen([sys.executable, "-c", script, expr], env=env,
                                        stdout=subprocess.PIPE, text=True)
                 for name, expr in configs.items()}
        fresh = {name: proc.communicate(timeout=300)[0] for name, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values())
        assert json.loads(fresh["base"])["interventions"]  # the loop planned and acted

        scope: dict = {}
        exec(names, scope)
        cfgs = {name: eval(expr, scope) for name, expr in configs.items()}
        for seed in range(5):
            run_loop(enterprise, cfgs["base"], seed)
        assert run_loop(enterprise, cfgs["base"], 5).to_json() == fresh["base"]
        for name, cfg in cfgs.items():
            for seed in range(3):
                run_loop(enterprise, cfg, seed)
            assert run_loop(enterprise, cfg, 5).to_json() == fresh[name], name
            assert run_loop(enterprise, cfgs["base"], 5).to_json() == fresh["base"], name

    def test_bad_window_rejected(self, enterprise):
        with pytest.raises(SpecError, match="window"):
            run_loop(enterprise, LoopConfig(window=0), seed=0)
        with pytest.raises(SpecError, match="window"):
            run_loop(enterprise, LoopConfig(window=17), seed=0)

    @pytest.mark.parametrize("kwargs,message", [({"lookahead": 0}, "lookahead"),
                                                ({"tau": float("nan")}, "tau"),
                                                ({"candidates": ()}, "candidate"),
                                                ({"emission": EmissionNoise(0.2, float("nan"))},
                                                 "emission")])
    def test_bad_config_rejected_when_built(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            LoopConfig(**kwargs)

    def test_report_json_shape(self, enterprise):
        report = run_loop(enterprise, LoopConfig(autonomy=AutonomyLevel.ADVISE), seed=0)
        obj = json.loads(report.to_json())
        assert obj["autonomy"] == "advise"
        assert "episode_jsonl" in obj and "detections" in obj and "interventions" in obj
        assert obj["summary"]["steps"] == report.log.final["t"]


class TestRecordedDigests:
    """sha256 of the auto loop reports of seeds 0-9 on the bundled scenario,
    recorded before the loop's plan models were built without a throwaway
    copy; a change to any byte fails here first."""

    CONFIGS = {
        "chain-a": (LoopConfig(autonomy=AutonomyLevel.AUTO),
                    "fb5fbd0ac7be5f224ab40eb8e9d0d78ca5ad90324d472cd36c6c8dafeeee619a"),
        "confounded-c": (LoopConfig(autonomy=AutonomyLevel.AUTO, lookahead=3,
                                    dbn=DbnSpec(Topology.CONFOUNDED_C, 8,
                                                per_slice_confounder=True)),
                         "ea186d3e8d8f012f85d947202870fd14ff3836086adc94c1929df29000b1dd04"),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_report_bytes(self, enterprise, name):
        cfg, expected = self.CONFIGS[name]
        digest = hashlib.sha256()
        for seed in range(10):
            digest.update(run_loop(enterprise, cfg, seed).to_json().encode())
        assert digest.hexdigest() == expected
