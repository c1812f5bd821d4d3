"""Scripted attacker, feature discretization, and tabular Q-learning."""

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acdsim.agents import (
    META_ACTIONS,
    FeatureKey,
    LateralAttacker,
    LearningParams,
    QDefender,
    QTable,
    evaluate,
    featurize,
    hottest_node,
    meta_action_to_defender_action,
    q_update,
    train,
)
from acdsim.errors import ParseError, SpecError, ValidationError
from acdsim.game import AttackerView, DefenderView, run_episode
from acdsim.netmodel import load_scenario

from .conftest import (
    AMBIGUOUS_KEY_QTABLES,
    MDP_STATES,
    chain3_doc,
    json_mutated,
    mdp_q_learn,
    mdp_value_iteration,
    mutated,
    qtable_doc,
    with_value,
)


def make_attacker_view(known_nodes, compromised, creds=(), target_seen=None, unlocks=None):
    return AttackerView(
        known_nodes={k: tuple(v) for k, v in known_nodes.items()},
        known_unlocks={k: frozenset(v) for k, v in (unlocks or {}).items()},
        compromised=frozenset(compromised),
        creds=frozenset(creds),
        target_seen=target_seen,
    )


def make_defender_view(alerts=(), isolation=None, edges=((0, 1), (1, 2)), target=2, t=1):
    nodes = tuple(sorted({n for e in edges for n in e}))
    return DefenderView(
        topology_nodes=nodes,
        topology_edges=tuple(tuple(e) for e in edges),
        target=target,
        target_neighbors=tuple(sorted({n for e in edges if target in e for n in e} - {target})),
        t=t,
        alerts_last_step=tuple(alerts),
        scan_results={},
        isolation=dict(isolation or {}),
        defence_now={n: 0.0 for n in nodes},
        cumulative_reward=0.0,
    )


class TestLateralAttacker:
    def test_empty_frontier_passes(self):
        view = make_attacker_view({0: ()}, {0})
        assert LateralAttacker(2).act(view, None).attempts == frozenset()

    def test_target_priority(self):
        view = make_attacker_view({0: (1, 2), 1: (0,), 2: (0,)}, {0}, target_seen=2)
        assert LateralAttacker(1).act(view, None).attempts == {2}

    def test_ascending_id_tie_break(self):
        view = make_attacker_view({0: (2, 5), 2: (0,), 5: (0,)}, {0})
        assert LateralAttacker(1).act(view, None).attempts == {2}

    def test_credential_priority_beats_low_id(self):
        view = make_attacker_view(
            {0: (2, 5), 2: (0,), 5: (0,)}, {0},
            creds=("k",), unlocks={5: ("k",), 2: ()},
        )
        assert LateralAttacker(1).act(view, None).attempts == {5}

    def test_spread_takes_prefix_of_priority_order(self):
        view = make_attacker_view(
            {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)}, {0}, target_seen=3)
        assert LateralAttacker(2).act(view, None).attempts == {3, 1}

    def test_the_same_nodes_picked_in_another_order_are_one_action(self):
        attacker = LateralAttacker(2)
        graph = {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)}
        first = attacker.act(make_attacker_view(graph, {0}, target_seen=3), None)
        again = attacker.act(make_attacker_view(graph, {0}, creds=("k",), target_seen=1,
                                                unlocks={3: ("k",)}), None)
        assert first is again and first.attempts == {1, 3}
        assert LateralAttacker(2).act(make_attacker_view(graph, {0}), None) is not first

    @pytest.mark.parametrize("defender", ["nop", "random", "q"])
    def test_an_episode_builds_each_distinct_attack_once(self, enterprise8_logs, defender):
        for log in enterprise8_logs[defender]:
            actions = [rec.attacker for rec in log.steps]
            assert len({id(a) for a in actions}) == len(set(actions))


class TestFeaturize:
    def test_all_quiet(self):
        assert featurize(make_defender_view()) == FeatureKey(0, False, 0)

    def test_clipping_and_target_adjacency(self):
        view = make_defender_view(alerts=(0, 0, 1, 1, 1, 1, 1), isolation={0: 1})
        assert featurize(view) == FeatureKey(3, True, 1)

    def test_two_alerts_not_adjacent(self):
        view = make_defender_view(alerts=(0, 0))
        assert featurize(view) == FeatureKey(2, False, 0)

    def test_key_space_is_finite(self):
        keys = {
            FeatureKey(a, t, i)
            for a in range(4) for t in (False, True) for i in range(3)
        }
        assert len(keys) == 24


class TestMetaActions:
    def test_hottest_counts_duplicates(self):
        view = make_defender_view(alerts=(3, 3, 5))
        assert hottest_node(view) == 3

    def test_hottest_tie_break_lowest_id(self):
        view = make_defender_view(alerts=(5, 3))
        assert hottest_node(view) == 3

    def test_no_alerts_ties_break_to_lowest_id(self):
        view = make_defender_view()
        for idx, name in enumerate(META_ACTIONS):
            action = meta_action_to_defender_action(idx, view)
            if "hottest" in name:
                assert action.node == 0   # every node ties at zero alerts

    def test_patch_target_neighbor_lowest_id(self):
        view = make_defender_view(edges=((0, 2), (1, 2), (0, 1)), target=2)
        action = meta_action_to_defender_action(META_ACTIONS.index("patch_target_neighbor"), view)
        assert action.kind == "patch" and action.node == 0


class TestLearningParams:
    @pytest.mark.parametrize("name,value", [
        ("alpha", 0.0), ("alpha", 1.5), ("alpha", math.nan), ("gamma", -0.1),
        ("gamma", 5.0), ("gamma", math.inf), ("epsilon_start", 1.01),
        ("epsilon_start", math.nan), ("epsilon_end", -1.0), ("epsilon_decay", 0.0),
        ("epsilon_decay", -1.0), ("epsilon_decay", math.nan), ("episodes", -1),
        ("episodes", math.inf),
    ])
    def test_out_of_range_raises_spec_error(self, name, value):
        with pytest.raises(SpecError, match=name):
            LearningParams(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("alpha", 1.0), ("gamma", 0.0), ("gamma", 1.0), ("epsilon_start", 0.0),
        ("epsilon_end", 1.0), ("epsilon_decay", 1.0), ("episodes", 0),
    ])
    def test_range_ends_are_accepted(self, name, value):
        assert getattr(LearningParams(**{name: value}), name) == value


class TestQUpdate:
    def test_single_backup_from_zero(self):
        table = QTable(("a", "b"))
        q_update(table, "k", 0, 1.0, "k2", LearningParams(alpha=0.1, gamma=0.95))
        assert table.row("k")[0] == pytest.approx(0.1)

    def test_zero_reward_zero_table_fixed_point(self):
        table = QTable(("a", "b"))
        q_update(table, "k", 1, 0.0, "k2", LearningParams(alpha=0.1, gamma=0.95))
        assert table.row("k")[1] == 0.0

    def test_bootstrap_hand_arithmetic(self):
        table = QTable(("a", "b"))
        table.row("k")[0] = 1.0
        table.row("k2")[1] = 2.0
        q_update(table, "k", 0, 0.0, "k2", LearningParams(alpha=0.1, gamma=0.95))
        assert table.row("k")[0] == pytest.approx(1.09)

    def test_greedy_tie_break_lowest_index(self):
        table = QTable(("a", "b", "c"))
        table.row("k")[1] = 5.0
        table.row("k")[2] = 5.0
        assert table.greedy("k") == 1

    def test_value_bound_under_bounded_rewards(self):
        rng = random.Random(3)
        params = LearningParams(alpha=0.3, gamma=0.9)
        reward_cap = 7.0
        table = QTable(("a", "b"))
        keys = ["s0", "s1", "s2"]
        for _ in range(20_000):
            k = rng.choice(keys)
            k2 = rng.choice(keys + [None])
            r = rng.uniform(-reward_cap, reward_cap)
            q_update(table, k, rng.randrange(2), r, k2, params)
        bound = reward_cap / (1.0 - params.gamma)
        assert all(abs(v) <= bound for row in table.values.values() for v in row)


class TestMdpOracle:
    def test_value_iteration_fixed_point(self):
        values, q_star, policy = mdp_value_iteration()
        assert values[1] == pytest.approx(1.0)
        assert values[2] == pytest.approx(1.5)
        assert values[0] == pytest.approx(0.95 * (0.9 * 1.5 + 0.1 * 1.0))
        assert policy == {0: 1, 1: 0, 2: 1}

    def test_q_learning_matches_oracle_policy(self):
        table = mdp_q_learn(episodes=4000, seed=5)
        _, q_star, policy = mdp_value_iteration()
        for s in MDP_STATES:
            assert table.greedy(s) == policy[s]

    def test_reward_scaling_preserves_greedy_policy(self):
        base = mdp_q_learn(episodes=3000, seed=8, reward_scale=1.0)
        scaled = mdp_q_learn(episodes=3000, seed=8, reward_scale=2.0)
        for s in MDP_STATES:
            assert base.greedy(s) == scaled.greedy(s)
            for a in (0, 1):
                assert scaled.row(s)[a] == pytest.approx(2.0 * base.row(s)[a], abs=1e-12)


class TestTrain:
    def test_zero_episodes(self, chain3):
        table, curve = train(chain3, LearningParams(episodes=0), seed=0)
        assert table.values == {} and curve == []

    def test_same_seed_identical(self, chain3):
        p = LearningParams(episodes=40)
        t1, c1 = train(chain3, p, seed=3)
        t2, c2 = train(chain3, p, seed=3)
        assert t1.values == t2.values and c1 == c2

    def test_no_threat_learns_nop_in_quiet_key(self):
        doc = chain3_doc(strength=0.0, horizon=15)
        s = load_scenario(json.dumps(doc))
        table, _ = train(s, LearningParams(episodes=400), seed=1)
        quiet = FeatureKey(0, False, 0)
        assert quiet in table.values
        assert table.greedy(quiet) == META_ACTIONS.index("nop")
        # value-iteration oracle on the induced single-key MDP: features never
        # change, so Q*(quiet, a) = (immediate reward of a) + gamma * V* and the
        # action ranking must follow the per-action costs
        row = table.values[quiet]
        nop = META_ACTIONS.index("nop")
        for idx in range(len(META_ACTIONS)):
            if idx != nop:
                assert row[nop] > row[idx]

    def test_training_actions_are_legal(self, chain3):
        class Recorder(QDefender):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.actions = []

            def act(self, view, rng):
                action = super().act(view, rng)
                self.actions.append(action)
                return action

        table = QTable(META_ACTIONS)
        agent = Recorder(table, LearningParams(), training=True)
        for i in range(20):
            run_episode(chain3, agent, LateralAttacker(1), seed=i)
        assert agent.actions
        node_ids = set(chain3.topology.node_ids)
        for action in agent.actions:
            assert action.kind in ("nop", "patch", "restore", "isolate", "scan")
            if action.kind != "nop":
                assert action.node in node_ids

    def test_evaluate_deterministic(self, chain3):
        table, _ = train(chain3, LearningParams(episodes=30), seed=0)
        a = evaluate(chain3, table, episodes=5, seed=100)
        b = evaluate(chain3, table, episodes=5, seed=100)
        assert [x.total_reward() for x in a] == [x.total_reward() for x in b]


def one_entry_qtable(key, value) -> str:
    """Q-table text over "nop" alone with one entry, as `json.dumps` writes
    it (so NaN and Infinity appear as bare words)."""
    return json.dumps({"actions": ["nop"], "entries": [{"key": key, "values": [value]}]})


class TestQTableIO:
    def test_round_trip(self, chain3):
        table, _ = train(chain3, LearningParams(episodes=50), seed=2)
        loaded = QTable.load(table.save())
        assert loaded.actions == table.actions
        assert loaded.values == table.values

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(), mutated(json.dumps(qtable_doc())), json_mutated(qtable_doc())))
    @example(one_entry_qtable([0, 0, 0], math.nan))
    @example(one_entry_qtable([0, 0, 0], math.inf))
    @example(one_entry_qtable([0, 0, 0], -math.inf))
    @example(one_entry_qtable([0, 0, 0], True))
    @example(one_entry_qtable([0, True, 0], 0.0))
    @example(one_entry_qtable([False, 0, 0], 0.0))
    @example(json.dumps(AMBIGUOUS_KEY_QTABLES[0]))
    @example(json.dumps(AMBIGUOUS_KEY_QTABLES[1]))
    @example(json.dumps(AMBIGUOUS_KEY_QTABLES[2]))
    def test_qtable_text_loads_or_raises_parse_error(self, text):
        try:
            table = QTable.load(text)
        except (ParseError, ValidationError):
            return
        assert table.actions and table.actions == META_ACTIONS[:len(table.actions)]
        assert len(table.values) == len(json.loads(text)["entries"])  # no key replaced
        for key, row in table.values.items():
            assert type(key.alert_bucket) is int and type(key.isolated_bucket) is int
            assert 0 <= key.alert_bucket <= 3 and 0 <= key.isolated_bucket <= 2
            assert all(type(x) in (int, float) and math.isfinite(x) for x in row)
        view = make_defender_view()
        for key in table.values:
            meta_action_to_defender_action(table.greedy(key), view)

    @pytest.mark.parametrize("key,value,where", [
        ([0, 0, 0], 10 ** 400, "entries[0].values[0]"),
        ([10 ** 400, 0, 0], 0.0, "entries[0].key[0]")], ids=["value", "key"])
    def test_an_integer_too_large_for_a_float_is_a_parse_error(self, key, value, where):
        with pytest.raises(ParseError, match=rf"^{re.escape(where)} must be "):
            QTable.load(one_entry_qtable(key, value))

    @pytest.mark.parametrize("path,where", [(("note",), "the document"),
                                            (("entries", 0, "note"), "entries[0]")])
    def test_an_unknown_key_is_refused(self, path, where):
        doc = with_value(json.loads(one_entry_qtable([0, 0, 0], 0.0)), path, 1)
        with pytest.raises(ParseError, match=rf"^unknown key\(s\) in {re.escape(where)}: note "):
            QTable.load(json.dumps(doc))

    def test_values_load_as_floats(self):
        table = QTable.load(one_entry_qtable([0, 0, 0], 2))
        assert table.values == {FeatureKey(0, False, 0): [2.0]}

    @pytest.mark.parametrize("doc", AMBIGUOUS_KEY_QTABLES,
                             ids=["bit-2", "out-of-range", "repeated"])
    def test_a_key_featurize_cannot_give_or_a_repeated_key_is_refused(self, doc):
        with pytest.raises(ParseError, match=r"^entries\[\d\]\.key "):
            QTable.load(json.dumps(doc))
