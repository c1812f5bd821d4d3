"""Scenario loading, validation, BFS distances, and serialization."""

import itertools
import json
import pickle
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdsim import netmodel
from acdsim.errors import ParseError, UnknownNodeError, ValidationError
from acdsim._util import canonical_json, indented_json, sha256_hex
from acdsim.netmodel import (
    NetworkTopology,
    NodeSpec,
    load_scenario,
    scenario_to_obj,
    validate_scenario,
)
from acdsim.agents import LateralAttacker, NopDefender
from acdsim.game import init, run_episode

from .conftest import (
    MINIMAL_SCENARIO,
    chain3_doc,
    chain3_full_doc,
    json_mutated,
    json_path,
    load_random_scenario,
    mutated,
    random_scenario_doc,
    shortest_hops,
    with_value,
)

SCENARIO = chain3_full_doc()


class TestLoadScenario:
    def test_minimal_two_node_document(self):
        s = load_scenario(MINIMAL_SCENARIO)
        assert len(s.topology.nodes) == 2
        assert len(s.topology.edges) == 1
        assert s.topology.target_id == 1
        assert s.attacker.entry == frozenset({0})

    def test_defaults_filled_when_costs_omitted(self):
        s = load_scenario(MINIMAL_SCENARIO)
        assert s.costs.patch_cost == 1.0
        assert s.costs.scan_cost == 0.5
        assert s.costs.restore_cost == 3.0
        assert s.costs.target_loss_penalty == -100.0
        assert s.alerts.p_alert_fail == 0.6
        assert s.alerts.scan_tpr == 0.9
        assert s.horizon == 100

    def test_defence_out_of_range(self):
        doc = chain3_doc(defence=1.3)
        with pytest.raises(ValidationError, match="defence out of range"):
            load_scenario(json.dumps(doc))

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("{nope")

    def test_unknown_key_strict_vs_lenient(self):
        doc = json.loads(MINIMAL_SCENARIO)
        doc["sneaky"] = 1
        with pytest.raises(ParseError, match="unknown key"):
            load_scenario(json.dumps(doc))
        s = load_scenario(json.dumps(doc), lenient=True)
        assert len(s.topology.nodes) == 2

    def test_unknown_node_key_strict(self):
        doc = json.loads(MINIMAL_SCENARIO)
        doc["nodes"][0]["color"] = "red"
        with pytest.raises(ParseError, match="unknown key"):
            load_scenario(json.dumps(doc))

    def test_missing_attacker_is_parse_error(self):
        with pytest.raises(ParseError, match="attacker"):
            load_scenario('{"nodes":[{"id":0}],"edges":[]}')

    @pytest.mark.parametrize("path", [
        ("nodes", 0, "defence"), ("nodes", 1, "vulns", 0, "severity"), ("attacker", "strength"),
        ("attacker", "spread"), ("attacker", "entry", 0), ("edges", 0, 1), ("horizon",)])
    def test_an_integer_too_large_for_a_float_is_a_parse_error(self, path):
        text = json.dumps(with_value(chain3_doc(), path, 10 ** 400))
        with pytest.raises(ParseError, match=rf"^{re.escape(json_path(path))} must be "):
            load_scenario(text)

    def test_wrong_type_is_parse_error(self):
        doc = json.loads(MINIMAL_SCENARIO)
        doc["nodes"][0]["defence"] = "high"
        with pytest.raises(ParseError, match="must be a number"):
            load_scenario(json.dumps(doc))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(), mutated(json.dumps(SCENARIO)), json_mutated(SCENARIO)),
           st.booleans())
    def test_scenario_text_loads_or_raises_parse_or_validation_error(self, text, lenient):
        try:
            s = load_scenario(text, lenient=lenient)
        except (ParseError, ValidationError):
            return
        init(s, seed=0)


class TestValidateScenario:
    def test_valid_chain_passes(self, chain3):
        validate_scenario(chain3)  # no raise

    def test_two_targets(self):
        doc = chain3_doc()
        doc["nodes"][0]["target"] = True
        with pytest.raises(ValidationError, match="exactly one target"):
            load_scenario(json.dumps(doc))

    def test_disconnected_graph(self):
        doc = chain3_doc()
        doc["edges"] = [[0, 1]]
        with pytest.raises(ValidationError, match="graph not connected"):
            load_scenario(json.dumps(doc))

    def test_all_violations_enumerated(self):
        doc = chain3_doc(defence=2.0)
        doc["nodes"][0]["target"] = True            # two targets
        doc["attacker"]["strength"] = 1.5           # out of range
        doc["attacker"]["spread"] = 0               # below minimum
        with pytest.raises(ValidationError) as err:
            load_scenario(json.dumps(doc))
        messages = err.value.violations
        assert len(messages) >= 4
        joined = " ".join(messages)
        assert "defence out of range" in joined
        assert "exactly one target" in joined
        assert "strength out of range" in joined
        assert "spread" in joined

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", [
        "patch_cost", "patch_usability", "restore_cost", "restore_usability",
        "isolate_cost_per_step", "scan_cost", "survival_bonus", "target_loss_penalty"])
    def test_a_non_finite_cost_is_one_violation(self, name, value):
        """`validate_scenario` refuses a scenario built with a non-finite cost;
        a scenario file cannot give one, as its reader refuses the number."""
        s = load_scenario(json.dumps(chain3_doc()))
        with pytest.raises(ValidationError) as err:
            validate_scenario(replace(s, costs=replace(s.costs, **{name: value})))
        assert err.value.violations == [f"{name} must be finite, got {value}"]
        doc = chain3_doc()
        doc["costs"] = {name: value}
        with pytest.raises(ParseError,
                           match=rf"^costs\.{name} must be a number within ±1\.8e\+308$"):
            load_scenario(json.dumps(doc))

    def test_entry_is_target_rejected(self):
        doc = chain3_doc()
        doc["attacker"]["entry"] = [2]
        with pytest.raises(ValidationError, match="is the target"):
            load_scenario(json.dumps(doc))

    def test_self_loop_rejected(self):
        doc = chain3_doc()
        doc["edges"].append([1, 1])
        with pytest.raises(ValidationError, match="self-loop"):
            load_scenario(json.dumps(doc))

    def test_validate_matches_init_success(self):
        """validate_scenario accepts exactly what init accepts."""
        rng = random.Random(42)
        for case in range(60):
            doc = random_scenario_doc(rng)
            if case % 3 == 1:  # sprinkle invalid mutations
                doc["nodes"][rng.randrange(len(doc["nodes"]))]["defence"] = 1.7
            if case % 5 == 2:
                doc["attacker"]["entry"] = [len(doc["nodes"]) - 1]  # target entry
            try:
                scenario = load_scenario(json.dumps(doc))
                valid = True
            except ValidationError:
                valid = False
            if valid:
                init(scenario, seed=0)  # must not raise


class TestValidateOnce:
    """`load_scenario` and `init` validate through `Scenario.validated`, so a
    Scenario object is checked once, however many episodes it plays."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s)
            validate_scenario(s)
        monkeypatch.setattr(netmodel, "validate_scenario", counting)
        return calls

    def test_fifty_episodes_validate_once(self, calls):
        s = load_scenario(json.dumps(chain3_doc()))
        for seed in range(50):
            run_episode(s, NopDefender(), LateralAttacker(s.attacker.spread), seed)
        assert calls == [s]
        longer = replace(s, horizon=s.horizon + 1)  # a new object is checked again
        for seed in range(3):
            init(longer, seed)
        assert len(calls) == 2 and calls[1] is longer

    def test_an_invalid_scenario_raises_at_every_init(self, calls, chain3):
        invalid = replace(chain3, horizon=0)
        for seed in range(3):
            with pytest.raises(ValidationError, match="horizon"):
                init(invalid, seed)
        assert sum(c is invalid for c in calls) == 3


class TestShortestHops:
    def test_chain_distance(self, chain3):
        assert shortest_hops(chain3.topology, 0, 2) == 2

    def test_identity(self, chain3):
        for n in (0, 1, 2):
            assert shortest_hops(chain3.topology, n, n) == 0

    def test_four_cycle_by_path_enumeration(self):
        doc = {
            "nodes": [{"id": i, "target": i == 3} for i in range(4)],
            "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "attacker": {"entry": [0]},
        }
        s = load_scenario(json.dumps(doc))
        # oracle: enumerate all simple paths 0 -> 2 and take the shortest
        adjacency = {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]}

        def paths(frontier, goal, seen):
            if frontier == goal:
                return [0]
            lengths = []
            for nxt in adjacency[frontier]:
                if nxt not in seen:
                    lengths += [1 + d for d in paths(nxt, goal, seen | {nxt})]
            return lengths

        assert min(paths(0, 2, {0})) == 2
        assert shortest_hops(s.topology, 0, 2) == 2

    def test_unknown_node(self, chain3):
        with pytest.raises(UnknownNodeError):
            shortest_hops(chain3.topology, 0, 99)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(25):
            s = load_random_scenario(rng)
            ids = s.topology.node_ids
            for a, b in itertools.combinations(ids, 2):
                assert shortest_hops(s.topology, a, b) == shortest_hops(s.topology, b, a)
            for a, b, c in itertools.islice(itertools.combinations(ids, 3), 20):
                ab = shortest_hops(s.topology, a, b)
                bc = shortest_hops(s.topology, b, c)
                ac = shortest_hops(s.topology, a, c)
                assert ac <= ab + bc


class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(13)
        for _ in range(30):
            s = load_random_scenario(rng)
            assert load_scenario(indented_json(scenario_to_obj(s))) == s

    def test_round_trip_minimal(self):
        s = load_scenario(MINIMAL_SCENARIO)
        assert load_scenario(indented_json(scenario_to_obj(s))) == s

    def test_digest_stable_and_distinct(self, chain3):
        assert chain3.digest == chain3.digest
        other = load_scenario(json.dumps(chain3_doc(strength=0.5)))
        assert chain3.digest != other.digest

    def test_digest_is_recomputed_for_a_replaced_or_unpickled_scenario(self, chain3):
        def fresh(s):
            return sha256_hex(canonical_json(scenario_to_obj(s)))

        unpickled_cold = pickle.loads(pickle.dumps(chain3))
        assert chain3.digest == fresh(chain3)
        unpickled_warm = pickle.loads(pickle.dumps(chain3))
        assert unpickled_cold.digest == unpickled_warm.digest == fresh(chain3)
        longer = replace(chain3, horizon=chain3.horizon + 1)
        assert longer.digest == fresh(longer) != chain3.digest
        nodes = tuple(replace(n, defence=0.5) for n in chain3.topology.nodes)
        harder = replace(chain3, topology=replace(chain3.topology, nodes=nodes))
        assert harder.digest == fresh(harder) != chain3.digest


class TestTopologyFacts:
    def test_cached_facts_equal_a_fresh_computation(self):
        rng = random.Random(17)
        for _ in range(20):
            topo = load_random_scenario(rng).topology
            for _ in range(2):
                assert topo.node_ids == tuple(sorted(n.id for n in topo.nodes))
                assert topo.sorted_edges == tuple(sorted(topo.edges))
                assert topo.target_id == next(n.id for n in topo.nodes if n.is_target)

    def test_target_id_without_a_target_raises_every_time(self):
        topo = NetworkTopology(nodes=(NodeSpec(0), NodeSpec(1)), edges=frozenset({(0, 1)}))
        for _ in range(2):
            with pytest.raises(ValidationError, match="has none"):
                topo.target_id
