"""`_util.indented_json` and every JSON file writer that uses it: the text is
what `json.dumps(obj, sort_keys=True, indent=2)` writes for the same object.
The typed reader of JSON input: `parse_json` decodes as `json.loads` does,
and `typed`, `member` and `json_object` keep the house rules. `left_sum`
adds floats left to right on every Python."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdsim import agents, causal, detect, game, loop, netmodel
from acdsim._util import indented_json, json_object, left_sum, member, parse_json, typed
from acdsim.errors import ParseError
from acdsim.cli import default_scenario_path, main

from .conftest import spec_to_obj


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# non-ASCII and control characters, no lone surrogates
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
FLOATS = st.floats() | st.sampled_from([-0.0, 1e308, 5e-324, math.nan, math.inf, -math.inf])
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
           | FLOATS | TEXT)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


class TestIndentedJson:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert indented_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], {"a": {"b": [[{}]]}},
        -0.0, 1e308, 5e-324, 10**40, -10**40, "é\x00 \U0001F600",
    ])
    def test_pinned_values(self, value):
        assert indented_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        {1: "a"}, {None: 0}, {("a",): 0}, {"a": {2.5: 0}}, [{True: 0}],
    ])
    def test_non_str_key_raises_type_error(self, value):
        with pytest.raises(TypeError):
            indented_json(value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, {"a": b"x"}, [1j]])
    def test_non_json_value_raises_type_error(self, value):
        with pytest.raises(TypeError):
            indented_json(value)


class TestLeftSum:
    def test_no_compensation(self):
        """CPython 3.12's `sum` compensates and gives 1.0 here."""
        assert repr(left_sum([1e16, 1.0, -1e16])) == "0.0"
        assert repr(left_sum(x for x in (-0.0,))) == "0.0"
        assert left_sum([]) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_adds_left_to_right_from_zero(self, values):
        total = 0.0
        for x in values:
            total += x
        assert repr(left_sum(values)) == repr(total)


@pytest.fixture(scope="module")
def enterprise8():
    return netmodel.load_scenario(open(default_scenario_path(), encoding="utf-8").read())


class TestWriters:
    """Each of the writers' text against `json.dumps` of the object it wrote."""

    def test_loop_report(self, enterprise8):
        cfg = loop.LoopConfig(autonomy=loop.AutonomyLevel.AUTO)
        report = loop.run_loop(enterprise8, cfg, 3)
        assert report.to_json() == dumps(report.to_obj())

    def test_qtable(self, enterprise8):
        table, _ = agents.train(enterprise8, agents.LearningParams(episodes=20), 0)
        assert table.save() == dumps(table.to_obj())

    def test_model_and_spec(self):
        spec = causal.DbnSpec(causal.Topology.CONFOUNDED_C, slices=3)
        model = causal.build_topology(spec)
        assert causal.save_model(model) == dumps(causal.model_to_obj(model))
        assert indented_json(spec_to_obj(spec)) == dumps(spec_to_obj(spec))

    def test_scenario(self, enterprise8):
        obj = netmodel.scenario_to_obj(enterprise8)
        assert indented_json(obj) == dumps(obj)

    def test_detection_result(self, enterprise8):
        log = game.run_episode(enterprise8, agents.NopDefender(),
                               agents.LateralAttacker(enterprise8.attacker.spread), 1,
                               horizon_override=6)
        noise = detect.EmissionNoise()
        seq = detect.extract_indicators(log, noise, 0)
        malign = causal.build_topology(causal.DbnSpec(causal.Topology.CHAIN_A,
                                                      slices=len(seq.frames)))
        result = detect.classify(seq, detect.benign_model_like(malign), malign, noise)
        assert result.to_json() == dumps(result.to_obj())

    @pytest.mark.parametrize("argv", [
        ["loop", "--autonomy", "auto", "--seed", "2"],
        ["loop", "--autonomy", "confirm", "--approve", "always", "--episodes", "2"],
        ["evaluate", "--episodes", "3"],
        ["train", "--episodes", "20"],
        ["causal", "build", "--topology", "confounded-c", "--slices", "3"],
    ])
    def test_cli_json_outputs(self, tmp_path, capsys, argv):
        if argv[0] == "evaluate":
            qtable = tmp_path / "q.json"
            assert main(["train", "--episodes", "20", "--out", str(qtable)]) == 0
            argv = argv + ["--qtable", str(qtable)]
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == dumps(json.loads(text)) + "\n"


class TestReader:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(max_size=8), JSON_VALUES.map(json.dumps), st.tuples(
        st.sampled_from(["", " ", "\n", "\t\r\n", "\xa0"]), JSON_VALUES.map(json.dumps),
        st.sampled_from(["", " ", "\n", " x", "\n\t{}", "\xa0", "]"])).map("".join)))
    def test_parse_json_decodes_as_json_loads(self, text):
        try:
            expected = json.loads(text)
        except ValueError as exc:
            with pytest.raises(ParseError) as err:
                parse_json(text, "file")
            assert str(err.value) == f"invalid file JSON: {exc}"
            return
        assert json.dumps(parse_json(text, "file")) == json.dumps(expected)

    @pytest.mark.parametrize("value,kind", [
        (True, int), (1, bool), (1, str), ("1", int), ("1.0", float), (True, float),
        (math.nan, float), (math.inf, float), (10 ** 400, float), (10 ** 400, int),
        ([1, "a"], [int]), ([1, True], [int]), ([[1], [1.5]], [[int]]), ({}, list),
        (2, (bool, int)), (1.0, (bool, int)), (None, str)])
    def test_typed_keeps_the_house_rules(self, value, kind):
        with pytest.raises(ParseError, match=" must be "):
            typed(value, kind, "x", within=(0, 1) if type(kind) is tuple else None)

    def test_typed_reads_numbers_as_floats_and_names_the_path(self):
        assert typed([1, 2.5], [float], "a") == [1.0, 2.5]
        assert type(typed(3, float, "a")) is float
        assert typed([True, 0, 1], [(bool, int)], "a", within=(0, 1)) == [True, 0, 1]
        with pytest.raises(ParseError, match=r"^a\.b\[1\]\[0\] must be an integer$"):
            typed([[1], ["2"]], [[int]], "a", "b")
        with pytest.raises(ParseError, match=r"^the document must be a list of booleans$"):
            typed({}, [bool], "")

    def test_member_defaults_and_null(self):
        obj = {"a": None, "b": 2}
        assert member(obj, "a", int, "p", None) is None  # null where absence means null
        assert member(obj, "c", int, "p", 7) == 7
        with pytest.raises(ParseError, match=r"^p\.a must be an integer$"):
            member(obj, "a", int, "p", 0)
        with pytest.raises(ParseError, match=r"^p\.c is required$"):
            member(obj, "c", int, "p")

    def test_json_object_refuses_unknown_keys_unless_lenient(self):
        assert json_object({"a": 1}, "p", {"a", "b"}) == {"a": 1}
        with pytest.raises(ParseError, match=r"^unknown key\(s\) in p: c, d \(known: a, b\)$"):
            json_object({"a": 1, "d": 2, "c": 3}, "p", {"a", "b"})
        assert json_object({"c": 3}, "p", {"a"}, lenient=True) == {"c": 3}
        with pytest.raises(ParseError, match="^p must be an object$"):
            json_object([], "p", {"a"}, lenient=True)
