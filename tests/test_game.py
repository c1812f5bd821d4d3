"""Engine mechanics: init, compromise odds, step resolution, episodes, replay."""

import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import random
import re
import types
import typing
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acdsim.agents import (
    LateralAttacker,
    LearningParams,
    NopDefender,
    QDefender,
    RandomDefender,
    evaluate,
    train,
)
from acdsim import game
from acdsim._util import canonical_json, indented_json
from acdsim.cli import default_scenario_path
from acdsim.errors import (
    IllegalActionError,
    ParseError,
    ReplayMismatchError,
    TerminalStateError,
    ValidationError,
)
from acdsim.game import (
    HORIZON_REACHED,
    NOP,
    PASS,
    TARGET_COMPROMISED,
    AttackerAction,
    AttackerView,
    DefenderAction,
    DefenderView,
    EpisodeLog,
    Event,
    StepOutcome,
    StepRecord,
    attacker_view,
    compromise_probability,
    defender_view,
    episode_to_jsonl,
    init,
    isolate,
    parse_episode_jsonl,
    patch,
    replay_episode,
    restore,
    run_episode,
    scan,
    step,
    verify_replay,
)
from acdsim.netmodel import NodeSpec, VulnSpec, load_scenario

from .conftest import (
    MINIMAL_SCENARIO,
    chain3_doc,
    chain3_log_text,
    json_path,
    jsonl_mutated,
    PassingAttacker,
    load_random_scenario,
    mutated,
    one_object_each,
    random_scenario_doc,
    shortest_hops,
)

LOG = chain3_log_text()


def edited_log(line: int, path: tuple, value) -> str:
    """LOG with the value at JSON path `path` of line `line` set to `value`."""
    lines = LOG.splitlines()
    obj = json.loads(lines[line])
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    lines[line] = json.dumps(obj)
    return "\n".join(lines) + "\n"


class TestInit:
    def test_two_node_entry(self):
        s = load_scenario(MINIMAL_SCENARIO)
        st = init(s, seed=0)
        assert st.compromised == {0}
        assert st.attacker_known == {0, 1}
        assert st.t == 0 and st.terminal is None

    def test_entry_cred_looted(self):
        doc = json.loads(MINIMAL_SCENARIO)
        doc["nodes"][0]["creds_stored"] = ["c1"]
        st = init(load_scenario(json.dumps(doc)), seed=0)
        assert st.attacker_creds == {"c1"}

    def test_same_seed_identical_states(self, chain3):
        a, b = init(chain3, 7), init(chain3, 7)
        assert a.compromised == b.compromised
        assert a.attacker_known == b.attacker_known
        assert a.rng.getstate() == b.rng.getstate()

    def test_defence_copied_not_shared(self, chain3):
        st = init(chain3, 0)
        st.defence_now[0] = 0.9
        assert chain3.topology.node(0).defence == 0.0


class TestCompromiseProbability:
    def test_hand_arithmetic(self):
        node = NodeSpec(id=0, vulns=(VulnSpec("v", 0.5),))
        p = compromise_probability(0.6, node, 0.2, cred_held=False)
        assert p == pytest.approx(0.24, rel=1e-12)

    def test_no_vulns_zero(self):
        node = NodeSpec(id=0)
        assert compromise_probability(0.9, node, 0.0, cred_held=False) == 0.0

    def test_cred_overrides_defence(self):
        node = NodeSpec(id=0, unlocks=frozenset({"c"}))
        assert compromise_probability(0.1, node, 1.0, cred_held=True) == 0.9

    def test_max_severity_used(self):
        node = NodeSpec(id=0, vulns=(VulnSpec("a", 0.2), VulnSpec("b", 0.7)))
        p = compromise_probability(1.0, node, 0.0, cred_held=False)
        assert p == pytest.approx(0.7)


class TestStep:
    def test_deterministic_chain_capture_and_return(self, chain3):
        st = init(chain3, seed=1)
        total = 0.0
        while st.terminal is None:
            view = attacker_view(st)
            frontier = sorted(n for c in view.compromised
                              for n in view.known_nodes[c] if n not in view.compromised)
            st, out = step(st, NOP, AttackerAction(frozenset(frontier[:1])))
            total += out.reward
        assert st.terminal == TARGET_COMPROMISED
        assert st.t == 2
        assert total == pytest.approx(1.0 - 100.0)

    def test_pass_and_nop_changes_only_clock(self, chain3):
        st = init(chain3, seed=5)
        before = (set(st.compromised), set(st.attacker_known), set(st.attacker_creds))
        st, out = step(st, NOP, PASS)
        assert st.t == 1
        assert (set(st.compromised), set(st.attacker_known), set(st.attacker_creds)) == before
        assert out.reward == pytest.approx(1.0)

    def test_isolate_same_step_attempt_skipped(self, chain3):
        st = init(chain3, seed=2)
        st, out = step(st, isolate(1), AttackerAction(frozenset({1})))
        attempt = [e for e in out.events if e.kind == "attempt"]
        assert attempt and attempt[0].outcome == "skipped"
        assert 1 not in st.compromised

    def test_attempt_non_adjacent_illegal(self, chain3):
        st = init(chain3, seed=0)
        with pytest.raises(IllegalActionError, match="not adjacent"):
            step(st, NOP, AttackerAction(frozenset({2})))

    def test_attempt_exceeding_spread_illegal(self, chain3):
        st = init(chain3, seed=0)
        with pytest.raises(IllegalActionError, match="spread"):
            step(st, NOP, AttackerAction(frozenset({1, 0})))

    def test_defender_unknown_node_illegal(self, chain3):
        st = init(chain3, seed=0)
        with pytest.raises(IllegalActionError, match="unknown node"):
            step(st, patch(99), PASS)

    @pytest.mark.parametrize("node", [True, 1.0], ids=repr)
    def test_a_node_that_is_not_an_int_is_illegal(self, chain3, node):
        """`True == 1 == 1.0`, so node 1 is found under either; but a log
        would write `true` or `1.0`, which its parser refuses."""
        with pytest.raises(IllegalActionError, match=f"^defender action on unknown node {node}$"):
            step(init(chain3, seed=0), patch(node), PASS)
        with pytest.raises(IllegalActionError, match=f"^attempt on unknown node {node}$"):
            step(init(chain3, seed=0), NOP, AttackerAction(frozenset({node})))

    @pytest.mark.parametrize("action,message", [
        (DefenderAction("nop", True), "nop on node True, which is not an int"),
        (DefenderAction("nop", 2.5), "nop on node 2.5, which is not an int"),
        (isolate(1, True), "isolation duration must be an int >= 1, got True"),
        (isolate(1, 1.0), "isolation duration must be an int >= 1, got 1.0"),
        (isolate(1, 2.5), "isolation duration must be an int >= 1, got 2.5"),
        (DefenderAction("patch", 1, 5), "patch duration must be the int 1, got 5"),
        (DefenderAction("scan", 1, 0), "scan duration must be the int 1, got 0"),
        (DefenderAction("nop", None, True), "nop duration must be the int 1, got True"),
        (DefenderAction("restore", 1, 1.0), "restore duration must be the int 1, got 1.0"),
    ], ids=repr)
    def test_a_node_or_a_duration_that_a_log_cannot_hold_is_illegal(self, chain3, action,
                                                                    message):
        """A log would write it, and its reader refuses `lines[1].def.node`
        or `lines[1].events[0].duration`; or, for a duration on an action other
        than an isolation, the log writes none, and its reader reads 1."""
        with pytest.raises(IllegalActionError, match=f"^{re.escape(message)}$"):
            step(init(chain3, seed=0), action, PASS)

    def test_a_nop_on_an_int_node_is_legal_and_replays(self, chain3):
        log = run_episode(chain3, game._Recorded([DefenderAction("nop", 7)] * 3),
                          PassingAttacker(), 0, horizon_override=3)
        text = episode_to_jsonl(log)
        assert '"def":{"kind":"nop","node":7}' in text
        assert verify_replay(text)

    def test_terminal_state_raises(self, chain3):
        st = init(chain3, seed=3, horizon_override=1)
        st, _ = step(st, NOP, PASS)
        assert st.terminal == HORIZON_REACHED
        with pytest.raises(TerminalStateError):
            step(st, NOP, PASS)

    def test_patch_raises_defence_and_costs(self, chain3):
        st = init(chain3, seed=0)
        st, out = step(st, patch(1), PASS)
        assert st.defence_now[1] == pytest.approx(0.2)
        assert out.reward == pytest.approx(1.0 - 1.0 - 0.5)

    def test_restore_clears_flag_keeps_creds(self):
        doc = chain3_doc()
        doc["nodes"][1]["creds_stored"] = ["gold"]
        s = load_scenario(json.dumps(doc))
        st = init(s, seed=4)
        st, _ = step(st, NOP, AttackerAction(frozenset({1})))  # certain success
        assert 1 in st.compromised and "gold" in st.attacker_creds
        st, out = step(st, restore(1), PASS)
        assert 1 not in st.compromised
        assert "gold" in st.attacker_creds
        assert out.reward == pytest.approx(1.0 - 3.0 - 2.0)

    def test_scan_records_noisy_result(self, chain3):
        st = init(chain3, seed=0)
        st, out = step(st, scan(0), PASS)
        assert 0 in st.scan_results
        t, result = st.scan_results[0]
        assert t == 0 and isinstance(result, bool)
        assert out.reward == pytest.approx(1.0 - 0.5)


class TestRunEpisode:
    def test_nop_vs_pass_horizon_five(self, chain3):
        log = run_episode(chain3, NopDefender(), PassingAttacker(), seed=0,
                          horizon_override=5)
        assert log.final["terminal"] == HORIZON_REACHED
        assert log.final["t"] == 5
        assert log.total_reward() == pytest.approx(5.0)

    def test_deterministic_chain_episode(self, chain3):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=9)
        assert log.final["terminal"] == TARGET_COMPROMISED
        assert log.final["t"] == 2

    def test_same_seed_byte_identical(self, chain3):
        a = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=11)
        b = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=11)
        assert episode_to_jsonl(a) == episode_to_jsonl(b)

    def test_return_equals_sum_of_step_rewards(self):
        rng = random.Random(12)
        for _ in range(10):
            s = load_random_scenario(rng)
            log = run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread),
                              seed=rng.randrange(1000))
            assert log.final["total_reward"] == pytest.approx(log.total_reward())


class TestInvariants:
    def test_monotone_knowledge_and_compromise(self):
        rng = random.Random(21)
        for _ in range(40):
            s = load_random_scenario(rng)
            st = init(s, seed=rng.randrange(10_000))
            defender = RandomDefender()
            attacker = LateralAttacker(s.attacker.spread)
            drng = random.Random(1)
            arng = random.Random(2)
            while st.terminal is None:
                known_before = set(st.attacker_known)
                comp_before = set(st.compromised)
                d = defender.act(defender_view(st), drng)
                a = attacker.act(attacker_view(st), arng)
                st, _ = step(st, d, a)
                assert known_before <= st.attacker_known
                if d.kind != "restore":
                    assert comp_before <= st.compromised

    def test_no_defender_win_cause_exists(self):
        import acdsim.game as game_mod
        causes = {getattr(game_mod, name) for name in dir(game_mod)
                  if name.isupper() and isinstance(getattr(game_mod, name), str)
                  and name in ("TARGET_COMPROMISED", "HORIZON_REACHED")}
        assert causes == {"target_compromised", "horizon_reached"}

    def test_defender_view_hides_compromise(self):
        rng = random.Random(31)
        for _ in range(10):
            s = load_random_scenario(rng)
            st = init(s, seed=3)
            for _ in range(5):
                if st.terminal is not None:
                    break
                assert "compromised" not in defender_view(st)._asdict()
                st, _ = step(st, NOP,
                             LateralAttacker(s.attacker.spread).act(attacker_view(st), rng))

    def test_attacker_view_restricted_to_known(self):
        rng = random.Random(32)
        for _ in range(10):
            s = load_random_scenario(rng)
            st = init(s, seed=4)
            attacker = LateralAttacker(s.attacker.spread)
            while st.terminal is None:
                view = attacker_view(st)
                known = set(view.known_nodes)
                for node, neighbors in view.known_nodes.items():
                    assert node in known
                    assert all(x in known for x in neighbors)
                assert "defence" not in type(view)._fields
                st, _ = step(st, NOP, attacker.act(view, rng))

    def test_mutating_an_attacker_view_leaves_the_next_one_unchanged(self):
        rng = random.Random(33)
        for _ in range(10):
            s = load_random_scenario(rng)
            topo = s.topology
            st = init(s, seed=5)
            attacker = LateralAttacker(s.attacker.spread)
            while st.terminal is None:
                view = attacker_view(st)
                known = st.attacker_known
                assert view.known_nodes == {
                    n: tuple(x for x in topo.neighbors(n) if x in known) for n in sorted(known)}
                assert view.known_unlocks == {n: topo.node(n).unlocks for n in sorted(known)}
                action = attacker.act(view, rng)
                for n in list(view.known_nodes):
                    view.known_nodes[n] = ()
                    view.known_unlocks[n] = frozenset({"forged"})
                view.known_nodes[-1] = (n,)
                again = attacker_view(st)
                assert -1 not in again.known_nodes and -1 not in again.known_unlocks
                assert again.known_nodes[n] == tuple(x for x in topo.neighbors(n) if x in known)
                assert again.known_unlocks[n] == topo.node(n).unlocks
                st, _ = step(st, NOP, action)

    def test_a_policy_that_scribbles_on_its_view_plays_the_same_episode(self):
        class Scribbler(LateralAttacker):
            def act(self, view, rng):
                action = super().act(view, rng)
                view.known_nodes.clear()
                view.known_unlocks.clear()
                return action

        s = enterprise8()
        for seed in range(5):
            plain = run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread), seed)
            scribbled = run_episode(s, RandomDefender(), Scribbler(s.attacker.spread), seed)
            assert episode_to_jsonl(scribbled) == episode_to_jsonl(plain)

    def test_defender_view_neighbors_match_the_topology(self):
        rng = random.Random(34)
        for s in [enterprise8()] + [load_random_scenario(rng) for _ in range(20)]:
            view = defender_view(init(s, seed=0))
            assert view.topology_edges == tuple(sorted(s.topology.edges))
            target = s.topology.target_id
            assert view.target_neighbors == s.topology.neighbors(target)
            scanned = sorted({n for e in view.topology_edges if target in e for n in e} - {target})
            assert view.target_neighbors == tuple(scanned)

    def test_capture_time_equals_bfs_distance(self):
        rng = random.Random(41)
        for _ in range(25):
            s = load_random_scenario(rng, deterministic=True)
            log = run_episode(s, NopDefender(), LateralAttacker(s.attacker.spread),
                              seed=rng.randrange(10_000))
            target = s.topology.target_id
            expected = min(shortest_hops(s.topology, e, target) for e in s.attacker.entry)
            assert log.final["terminal"] == TARGET_COMPROMISED
            assert log.final["t"] == expected


class TestReplay:
    def test_round_trip_and_replay(self):
        rng = random.Random(51)
        for _ in range(15):
            s = load_random_scenario(rng)
            log = run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread),
                              seed=rng.randrange(10_000))
            text = episode_to_jsonl(log)
            parsed = parse_episode_jsonl(text)
            assert parsed.seed == log.seed
            assert parsed.scenario == log.scenario
            assert verify_replay(text)

    def test_one_record_per_parsed_step(self, chain3, monkeypatch):
        """The last step's record gets its terminal cause when it is built."""
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=13)
        built, record = [], game.StepRecord
        monkeypatch.setattr(game, "StepRecord", lambda *a, **k: built.append(1) or record(*a, **k))
        parsed = parse_episode_jsonl(episode_to_jsonl(log))
        assert parsed.steps == log.steps
        assert parsed.steps[-1].outcome.terminal_cause == log.final["terminal"]
        assert len(built) == len(log.steps)

    def test_tampered_log_fails_replay(self, chain3):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=13)
        text = episode_to_jsonl(log)
        lines = text.splitlines()
        tampered = json.loads(lines[1])
        tampered["reward"] = tampered["reward"] + 1.0
        lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
        assert not verify_replay("\n".join(lines) + "\n")

    @pytest.mark.parametrize("horizon,terminal", [(None, TARGET_COMPROMISED),
                                                  (1, HORIZON_REACHED)])
    def test_replay_past_the_record_is_a_mismatch(self, chain3, horizon, terminal):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=13,
                          horizon_override=horizon)
        assert log.final["terminal"] == terminal
        assert replay_episode(log) == log
        with pytest.raises(ReplayMismatchError, match="past the last recorded step"):
            replay_episode(replace(log, steps=log.steps[:-1]))
        lines = episode_to_jsonl(log).splitlines()
        del lines[-2]
        text = "\n".join(lines) + "\n"
        if len(log.steps) > 1:
            assert not verify_replay(text)
        else:  # no step is left: a parse error, as the game never writes such a log
            with pytest.raises(ParseError, match="holds no step"):
                verify_replay(text)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(), mutated(LOG), jsonl_mutated(LOG)))
    @example(edited_log(1, ("reward",), "1.0"))
    @example(edited_log(1, ("reward",), 10 ** 400))
    @example(edited_log(1, ("events", 1, "outcome"), 3))
    @example(edited_log(2, ("events", 0, "creds"), "ab"))
    @example(edited_log(2, ("events", 2, "alert_kind"), ["x"]))
    @example(edited_log(1, ("events", 0, "duration"), 1.0))
    @example(edited_log(-1, ("final", "terminal"), 3))
    @example(edited_log(0, ("version",), 1))
    def test_log_text_parses_or_raises_parse_or_validation_error(self, text):
        try:
            log = parse_episode_jsonl(text)
        except (ParseError, ValidationError):
            return
        assert has_declared_types(log, EpisodeLog)


@pytest.mark.parametrize("line,path", [
    (0, ("note",)), (1, ("note",)), (1, ("def", "note")), (1, ("atk", "note")),
    (1, ("events", 0, "note")), (-1, ("note",)), (-1, ("final", "note"))])
def test_an_unknown_log_key_is_refused(line, path):
    where = json_path(path[:-1], f"lines[{line % len(LOG.splitlines())}]")
    with pytest.raises(ParseError, match=rf"^unknown key\(s\) in {re.escape(where)}: note "):
        parse_episode_jsonl(edited_log(line, path, 1))


def has_declared_types(value, hint) -> bool:
    """Whether `value` has the type `hint`, every field of a dataclass or a
    named tuple and every item of a tuple or frozenset checked against its
    annotation, and a bool not taken for an int nor an int for a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(has_declared_types(value, arg) for arg in args)
    if origin is tuple and args[-1] is not Ellipsis:
        return (type(value) is tuple and len(value) == len(args)
                and all(map(has_declared_types, value, args)))
    if origin in (tuple, frozenset):
        return type(value) is origin and all(has_declared_types(v, args[0]) for v in value)
    if dataclasses.is_dataclass(hint):
        names = [f.name for f in dataclasses.fields(hint)]
    else:
        names = getattr(hint, "_fields", None)  # a named tuple's
    if names is not None:
        hints = typing.get_type_hints(hint)
        return type(value) is hint and all(
            has_declared_types(getattr(value, name), hints[name]) for name in names)
    return type(value) is (origin or hint)


def enterprise8():
    with open(default_scenario_path(), encoding="utf-8") as fh:
        return load_scenario(fh.read())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), bundled=st.booleans(), longest=st.integers(1, 4))
def test_isolation_timers_stay_positive_and_views_show_them_all(seed, bundled, longest):
    """Random-defender episodes, isolating for up to `longest` steps: after
    every step each timer is at least 1, so the view copies them unfiltered."""
    s = enterprise8() if bundled else load_scenario(json.dumps(chain3_doc(strength=0.3)))
    state, rng = init(s, seed), random.Random(seed)
    defender, attacker = RandomDefender(), LateralAttacker(s.attacker.spread)
    while state.terminal is None:
        d = defender.act(defender_view(state), rng)
        if d.kind == "isolate":
            d = isolate(d.node, rng.randint(1, longest))
        state, _ = step(state, d, attacker.act(attacker_view(state), rng))
        assert all(k >= 1 for k in state.isolation.values())
        assert defender_view(state).isolation == state.isolation


def assert_the_log_reads_back(log):
    """`episode_to_jsonl` then `parse_episode_jsonl` gives back every record."""
    assert parse_episode_jsonl(episode_to_jsonl(log)) == log


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_a_random_defenders_log_reads_back_to_the_same_records(seed):
    s = load_random_scenario(random.Random(seed))
    assert_the_log_reads_back(run_episode(s, RandomDefender(),
                                          LateralAttacker(s.attacker.spread), seed))


# a defender action as a hostile library policy might return it: any kind,
# node and duration, legal or not
HOSTILE_ACTIONS = st.builds(DefenderAction, st.sampled_from((*game.DEFENDER_KINDS, "bogus")),
                            st.none() | st.integers(-1, 3) | st.sampled_from([True, 1.0]),
                            st.integers(-1, 3) | st.sampled_from([True, 1.0]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 31), actions=st.lists(HOSTILE_ACTIONS, min_size=1, max_size=8))
def test_a_hostile_defenders_log_reads_back_or_the_game_refused_it(seed, actions):
    """On chain3, a defender that plays drawn actions: its log gives back
    every record, or the game raised IllegalActionError."""
    s = load_scenario(json.dumps(chain3_doc(strength=0.3)))
    try:
        log = run_episode(s, game._Recorded(actions), LateralAttacker(1), seed,
                          horizon_override=len(actions))
    except IllegalActionError:
        return
    assert_the_log_reads_back(log)


@pytest.mark.parametrize("defender", ["nop", "random", "q"])
def test_an_episode_builds_each_distinct_event_once(enterprise8_logs, defender):
    """Equal events of one episode are one object: the step reuses the
    event its episode built first."""
    for log in enterprise8_logs[defender]:
        events = [e for rec in log.steps for e in rec.outcome.events]
        assert len({id(e) for e in events}) == len(set(events))


def fresh_enterprise8():
    """The bundled scenario, with no events or actions kept for it yet: an
    equal scenario that another test holds would find the same tables."""
    s = enterprise8()
    game._SHARED.pop(s, None)
    return s


def test_a_scenarios_episodes_share_events_and_actions_but_no_outcome():
    """The events and actions of a scenario's episodes are kept with the
    scenario: a later episode of the same seed plays the same objects and
    writes the same bytes, whatever ran in between. Outcomes are not kept:
    it builds its own."""
    s = fresh_enterprise8()

    def play(seed):
        return run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread), seed)

    first = play(3)
    between = [play(seed) for seed in range(10)]
    second = play(3)
    for part in (lambda rec: rec.outcome.events, lambda rec: (rec.defender,),
                 lambda rec: (rec.attacker,)):
        ids = [{id(x) for rec in log.steps for x in part(rec)} for log in (first, second)]
        assert ids[0] and ids[0] == ids[1]
    outcomes = [{id(rec.outcome) for rec in log.steps} for log in (first, second)]
    assert outcomes[0].isdisjoint(outcomes[1])
    assert episode_to_jsonl(first) == episode_to_jsonl(second) == episode_to_jsonl(between[3])


def test_a_round_of_training_and_evaluation_keeps_a_few_objects():
    """400 training and 400 frozen-greedy episodes on the bundled scenario
    keep 90 events and 42 actions with it, and the 400 evaluation logs hold
    one object per distinct event, defender action and attack."""
    s = fresh_enterprise8()
    table, _ = train(s, LearningParams(episodes=400), 0)
    logs = evaluate(s, table, 400, 400)
    events, actions = game._SHARED[s]
    assert (len(events), len(actions)) == (90, 42)
    assert sum(type(action) is DefenderAction for action in actions) == 33
    for part, count in ((lambda rec: rec.outcome.events, 56), (lambda rec: (rec.defender,), 16),
                        (lambda rec: (rec.attacker,), 6)):
        kept = [x for log in logs for rec in log.steps for x in part(rec)]
        assert one_object_each(kept) and len(set(kept)) == count


@pytest.mark.parametrize("defender", ["nop", "random", "q"])
def test_an_episode_keeps_each_distinct_outcome_and_defender_action_once(
        enterprise8_logs, defender):
    """Equal outcomes of one episode are one object, with one events tuple,
    and equal defender actions are one object, whichever policy chose them,
    in a replay of the parsed log too."""
    repeats = 0
    for log in enterprise8_logs[defender]:
        for episode in (log, replay_episode(parse_episode_jsonl(episode_to_jsonl(log)))):
            outcomes = [rec.outcome for rec in episode.steps]
            assert one_object_each(outcomes)
            assert len({id(outcome.events) for outcome in outcomes}) == len(set(outcomes))
            assert one_object_each(rec.defender for rec in episode.steps)
            repeats += len(outcomes) - len(set(outcomes))
    assert repeats


@pytest.mark.parametrize("side", ["defender", "attacker"])
def test_an_action_equal_to_a_kept_one_is_checked_before_it_is_shared(chain3, side):
    """`patch(True) == patch(1)` and `{1.0} == {1}`, but only the second of
    each is legal, and a log writes what is played: after the legal action,
    in the same episode or an earlier one, the illegal one is still refused."""
    legal, illegal, idle, message = (
        (patch(1), patch(True), PASS, "^defender action on unknown node True$")
        if side == "defender" else
        (AttackerAction(frozenset({1})), AttackerAction(frozenset({1.0})), NOP,
         "^attempt on unknown node 1.0$"))

    def play(*actions):
        played = game._Recorded(actions)
        policies = (played, game._Recorded([idle] * len(actions)))
        return run_episode(chain3, *(policies if side == "defender" else policies[::-1]), 0,
                           horizon_override=len(actions))

    with pytest.raises(IllegalActionError, match=message):
        play(legal, illegal)
    assert verify_replay(episode_to_jsonl(play(legal)))
    with pytest.raises(IllegalActionError, match=message):
        play(illegal)


def test_the_same_nodes_picked_in_another_order_are_one_action():
    """An attacker that builds a new action at every step, picking the same
    two nodes in alternate orders, plays one object in its episode."""
    s = load_scenario(json.dumps({
        "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3, "target": True}],
        "edges": [[0, 1], [0, 2], [1, 3]],
        "attacker": {"spread": 2, "entry": [0]},
        "horizon": 6,
    }))
    picks = itertools.cycle([[1, 2], [2, 1]])

    class Alternating(PassingAttacker):
        def act(self, view, rng):
            return AttackerAction(frozenset(next(picks)))

    log = run_episode(s, NopDefender(), Alternating(), 0)
    assert len(log.steps) == 6
    assert len({id(rec.attacker) for rec in log.steps}) == 1


# sha256 of the logs of `test_a_zero_reward_keeps_the_sign_of_the_bonus`,
# recorded before a step's outcomes were shared
SIGNED_ZERO_LOGS = {
    "-0.0": "7d8fc6adb40da5d37357049e853a6fe4af9033530919c76d735513d9b5143f86",
    "0.0": "5fe0fdcea93d11ba32bdbc8a1f56dc38bcc2539ab6e660838e6d4829bcfc3872",
}


@pytest.mark.parametrize("bonus", [-0.0, 0.0], ids=repr)
def test_a_zero_reward_keeps_the_sign_of_the_bonus(bonus):
    """0.0 == -0.0, so one shared outcome could stand for both zeros; but in
    an episode a zero reward of a step that does not lose the target has the
    sign of `survival_bonus`, and each is written with it."""
    with open(default_scenario_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["costs"] = {"survival_bonus": bonus}
    s = load_scenario(json.dumps(doc))
    digest = hashlib.sha256()
    for seed in range(10):
        log = run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread), seed)
        zeros = [rec.outcome.reward for rec in log.steps if rec.outcome.reward == 0.0]
        assert zeros and {math.copysign(1.0, z) for z in zeros} == {math.copysign(1.0, bonus)}
        digest.update(episode_to_jsonl(log).encode())
    assert digest.hexdigest() == SIGNED_ZERO_LOGS[repr(bonus)]


def test_total_reward_adds_left_to_right():
    """As `step` adds up `cumulative_reward`, not as CPython 3.12's
    compensated `sum` would: [1e16, 1.0, -1e16] gives 0.0 on every Python."""
    s = load_scenario(json.dumps(chain3_doc()))
    steps = tuple(StepRecord(t, NOP, PASS, StepOutcome(reward, ()))
                  for t, reward in enumerate([1e16, 1.0, -1e16]))
    log = EpisodeLog(s, s.digest, 0, game.__version__, steps, {})
    assert repr(log.total_reward()) == "0.0"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), cents=st.lists(st.integers(1, 999), min_size=8, max_size=8))
def test_total_reward_is_the_final_total_bit_for_bit(seed, cents):
    """On random scenarios whose costs are not dyadic fractions, so that the
    order of the additions moves last bits, `total_reward()` equals the
    `final["total_reward"]` that `step` adds up."""
    doc = random_scenario_doc(random.Random(seed))
    names = ("patch_cost", "patch_usability", "restore_cost", "restore_usability",
             "isolate_cost_per_step", "scan_cost", "survival_bonus")
    doc["costs"] = {name: k / 100 for name, k in zip(names, cents)}
    doc["costs"]["target_loss_penalty"] = -cents[-1] / 10
    s = load_scenario(json.dumps(doc))
    log = run_episode(s, RandomDefender(), LateralAttacker(s.attacker.spread), seed)
    assert log.total_reward().hex() == log.final["total_reward"].hex()


class TestPinnedBytes:
    """sha256 of outputs recorded before the game's per-scenario and per-view
    caches went in; a change to any byte of a log or a trained Q-table fails
    here first."""

    QTABLE = "4cf717d135517449d88b8cd110797923c146b358c1b64cbf8916588e3d1e79ac"
    LOGS = {
        "nop": "fc2038b71f9462ccdda4d3769e5b19ef005481248ed4c49c695b3a7a1c1117f2",
        "random": "7c8c3b0f7bb96b379ab73060d966089a32195ebadc7dede4fb31e917f6f470b4",
        "q": "db9866f90a5206fa8df6fe9b777caecddb6b0667503991a1c2cbb2f2dee42fd6",
    }

    def test_enterprise8_logs_and_qtable(self):
        s = enterprise8()
        table = train(s, LearningParams(episodes=50), 0)[0]
        assert hashlib.sha256(table.save().encode()).hexdigest() == self.QTABLE
        defenders = {"nop": NopDefender, "random": RandomDefender,
                     "q": lambda: QDefender(table)}
        for name, make in defenders.items():
            digest = hashlib.sha256()
            for seed in range(10):
                log = run_episode(s, make(), LateralAttacker(s.attacker.spread), seed)
                digest.update(episode_to_jsonl(log).encode())
            assert digest.hexdigest() == self.LOGS[name], name


# each per-step record type with a value for each of its fields, in order,
# that both JSON writers take: a record checks no field's type, so a list
# stands in for a frozenset and a str key for an int
RECORD_FIELDS = {
    DefenderAction: ("isolate", 3, 2),
    AttackerAction: ([2, 4],),
    Event: ("loot", 5, None, ("a", "b"), None, None, None),
    StepOutcome: (-1.5, (("alert", 2, None, (), None, "false_positive", None),), None),
    AttackerView: ({"2": (4,)}, {"2": ["a"]}, [2], ["a"], None),
    DefenderView: ((0, 1), ((0, 1),), 1, (0,), 3, (), {}, {"1": 2}, {"0": 0.25}, -2.0),
    StepRecord: (0, ("nop", None, 1), ([],), (0.5, (), "horizon_reached")),
}


@pytest.mark.parametrize("kind", RECORD_FIELDS, ids=lambda kind: kind.__name__)
def test_a_record_is_a_tuple_of_its_fields(kind):
    """A per-step record is a named tuple, as `VarId` is
    (`TestVarId::test_is_a_tuple_of_its_fields`): it equals the plain tuple
    of its fields, and both JSON writers write it as a list. It stays
    immutable, and a pickle round trip, which a process pool makes of what
    it passes, keeps its type."""
    values = RECORD_FIELDS[kind]
    record = kind(*values)
    assert record == values and len(kind._fields) == len(values)
    assert indented_json(record) == json.dumps(list(values), sort_keys=True, indent=2)
    assert canonical_json(record) == canonical_json(list(values))
    with pytest.raises(AttributeError):
        setattr(record, kind._fields[0], values[0])
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is kind and copy == record
