"""End-to-end command line behaviour: determinism, exit codes, output formats."""

import concurrent.futures
import contextlib
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acdsim
from acdsim import agents, causal, cli, detect, game, netmodel
from acdsim.causal import VarId, save_model
from acdsim.cli import main
from acdsim.config import EmissionNoise
from acdsim.errors import ParseError
from .conftest import (
    AMBIGUOUS_KEY_QTABLES,
    chain3_doc,
    chain3_full_doc,
    chain3_log_text,
    json_mutated,
    json_path,
    jsonl_mutated,
    mutated,
    qtable_doc,
    spec_to_obj,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


# Q-tables whose greedy index is no meta-action: one past the last, and none
OTHER_ACTIONS_QTABLES = [
    {"actions": list(agents.META_ACTIONS) + ["extra"],
     "entries": [{"key": [0, 0, 0], "values": [0.0] * 6 + [1.0]}]},
    {"actions": [], "entries": [{"key": [0, 0, 0], "values": []}]},
]


@pytest.fixture
def chain3_path(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(chain3_doc()))
    return str(path)


@pytest.fixture
def chain_model_path(tmp_path, chain_example):
    path = tmp_path / "chainA.json"
    path.write_text(save_model(chain_example))
    return str(path)


def run(args):
    return main(args)


@pytest.fixture
def input_calls(monkeypatch):
    """Names every file read and every scenario, Q-table and DBN spec parse, in order."""
    calls = []
    for owner, name in ((cli, "_read"), (netmodel, "load_scenario"),
                        (agents.QTable, "load"), (causal, "load_spec")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    return calls


class TestSimulate:
    def test_identical_invocations_identical_bytes(self, tmp_path, chain3_path, capsys):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["simulate", "--scenario", chain3_path, "--seed", "7",
                    "--defender", "nop", "--attacker", "lateral",
                    "--out", str(out1)]) == 0
        assert run(["simulate", "--scenario", chain3_path, "--seed", "7",
                    "--defender", "nop", "--attacker", "lateral",
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["terminal"] == "target_compromised"

    def test_lenient_accepts_unknown_keys(self, tmp_path):
        doc = chain3_doc()
        doc["annotation"] = "extra"
        path = tmp_path / "annotated.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "log.jsonl")
        assert run(["simulate", "--scenario", str(path), "--out", out]) == 2
        assert run(["simulate", "--scenario", str(path), "--lenient", "--out", out]) == 0

    def test_default_scenario_is_bundled(self, tmp_path):
        assert run(["simulate", "--seed", "1", "--out", str(tmp_path / "d.jsonl")]) == 0

    def test_out_devnull_is_written_in_place(self, capsys):
        # an existing output is opened and written, never replaced by a
        # renamed file, which would turn the device into a regular file
        assert run(["simulate", "--seed", "1", "--out", os.devnull]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert sorted(summary) == ["return", "steps", "terminal", "version"]
        assert not os.path.isfile(os.devnull)

    def test_random_defender_and_qtable(self, tmp_path, chain3_path):
        out = tmp_path / "r.jsonl"
        assert run(["simulate", "--scenario", chain3_path, "--defender", "random",
                    "--out", str(out)]) == 0
        qt = tmp_path / "q.json"
        assert run(["train", "--scenario", chain3_path, "--episodes", "20",
                    "--out", str(qt)]) == 0
        assert run(["simulate", "--scenario", chain3_path,
                    "--defender", f"q:{qt}", "--out", str(out)]) == 0


class TestReplay:
    def test_replay_ok(self, tmp_path, chain3_path):
        out = tmp_path / "log.jsonl"
        run(["simulate", "--scenario", chain3_path, "--seed", "3", "--out", str(out)])
        assert run(["replay", "--log", str(out)]) == 0

    def test_replay_mismatch_exits_4(self, tmp_path, chain3_path, capsys):
        out = tmp_path / "log.jsonl"
        run(["simulate", "--scenario", chain3_path, "--seed", "3", "--out", str(out)])
        lines = out.read_text().splitlines()
        body = json.loads(lines[1])
        body["reward"] += 5.0
        lines[1] = json.dumps(body, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        assert run(["replay", "--log", str(out)]) == 4


def assert_one_parse_error(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ParseError"


@pytest.mark.parametrize("args,text", [
    (["--version"], f"acdsim {acdsim.__version__}\n"), (["--help"], "usage: acdsim "),
    (["causal", "do", "--help"], "usage: acdsim causal do ")])
def test_help_and_version_print_their_text_and_exit_0(capsys, args, text):
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith(text) and err == ""


# (line, key path) of each required field of an episode log: line 0 is the
# header, line 1 the first step
LOG_FIELDS = [(1, ("def",)), (1, ("atk",)), (1, ("atk", "attempts")), (1, ("t",)),
              (1, ("events",)), (1, ("reward",)), (0, ("scenario_sha256",))]


def write_edited_log(tmp_path, line, path, edit) -> str:
    """A seed-5 nop episode log whose `line` (0 the header, 1 the first step,
    -1 the final summary) has `edit(owner, key)` applied at key `path`."""
    log_path = tmp_path / "log.jsonl"
    assert run(["simulate", "--seed", "5", "--out", str(log_path)]) == 0
    lines = log_path.read_text().splitlines()
    obj = json.loads(lines[line])
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    edit(owner, path[-1])
    lines[line] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n")
    return str(log_path)


@pytest.mark.parametrize("command", ["replay", "detect"])
@pytest.mark.parametrize("line,path", LOG_FIELDS, ids=[".".join(p) for _, p in LOG_FIELDS])
def test_log_missing_field_exits_2(tmp_path, capsys, command, line, path):
    log_path = write_edited_log(tmp_path, line, path, lambda owner, key: owner.pop(key))
    capsys.readouterr()
    assert run([command, "--log", log_path]) == 2
    assert_one_parse_error(capsys)


# (line, key path, wrong-typed value) of typed fields of an episode log
LOG_TYPES = [(0, ("seed",), [1]), (0, ("seed",), True), (1, ("t",), "a"),
             (1, ("events", 0, "kind"), 1), (1, ("events", 0, "node"), [1]),
             (1, ("def", "kind"), ["nop"]), (1, ("def", "node"), "0"),
             (1, ("def", "duration"), "x"), (1, ("atk", "attempts"), "12"),
             (1, ("atk", "attempts"), [1.5]), (-1, ("final", "t"), "5"),
             (1, ("def", "kind"), "bogus"), (1, ("reward",), "1.0"),
             (1, ("reward",), 10 ** 400), (1, ("events", 0, "creds"), "ab"),
             (1, ("events", 0, "outcome"), 3), (1, ("events", 0, "result"), "yes"),
             (1, ("events", 1, "alert_kind"), 5), (1, ("events", 0, "duration"), "1"),
             (-1, ("final", "terminal"), 3), (0, ("scenario_sha256",), 5),
             (0, ("version",), 1), (1, ("events",), "x"),
             (1, ("events", 0, "kind"), "bogus"), (1, ("events", 0, "outcome"), "bogus"),
             (1, ("events", 1, "alert_kind"), "bogus")]


@pytest.mark.parametrize("command", ["replay", "detect"])
@pytest.mark.parametrize("line,path,value", LOG_TYPES,
                         ids=[f"{'.'.join(map(str, p))}={v!r:.12}" for _, p, v in LOG_TYPES])
def test_log_wrong_type_exits_2(tmp_path, capsys, command, line, path, value):
    """A mistyped field is malformed input for both commands, and the error
    names its JSON path, rooted at the line."""
    log_path = write_edited_log(tmp_path, line, path,
                                lambda owner, key: owner.__setitem__(key, value))
    capsys.readouterr()
    assert run([command, "--log", log_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    where = json_path(path, f"lines[{line % len(Path(log_path).read_text().splitlines())}]")
    assert error["type"] == "ParseError" and error["message"].startswith(where)


# Tampered logs whose replay diverges until a recorded action is illegal
# ("attempt on node 7 not adjacent to a compromised node"): a mismatch
REPLAY_DIVERGENCES = [(0, ("seed",), lambda owner, key: owner.__setitem__(key, owner[key] + 1)),
                      (1, ("atk", "attempts"), lambda owner, key: owner[key].clear())]


@pytest.mark.parametrize("line,path,edit", REPLAY_DIVERGENCES,
                         ids=["seed+1", "step1-attempts-emptied"])
def test_replay_reaching_an_illegal_action_exits_4(tmp_path, capsys, line, path, edit):
    log_path = write_edited_log(tmp_path, line, path, edit)
    capsys.readouterr()
    assert run(["replay", "--log", log_path]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ReplayMismatchError"


class TestCausal:
    def test_observational_prints_12_significant_digits(self, chain_model_path, capsys):
        assert run(["causal", "observational", "--model", chain_model_path,
                    "--target", "Y=1", "--given", "X=1"]) == 0
        assert capsys.readouterr().out == "0.800000000000\n"

    def test_marginal(self, chain_model_path, capsys):
        assert run(["causal", "marginal", "--model", chain_model_path,
                    "--query", "X=1"]) == 0
        assert capsys.readouterr().out == "0.500000000000\n"

    def test_do_on_crafted_confounder(self, tmp_path, confounded_example, capsys):
        path = tmp_path / "conf.json"
        path.write_text(save_model(confounded_example))
        assert run(["causal", "observational", "--model", str(path),
                    "--target", "Y=1", "--given", "X=1"]) == 0
        assert capsys.readouterr().out == "0.900000000000\n"
        assert run(["causal", "do", "--model", str(path),
                    "--target", "Y=1", "--do", "X=1"]) == 0
        assert capsys.readouterr().out == "0.500000000000\n"

    @pytest.mark.parametrize("query,do,given", [
        (["observational", "--given", "X@0=1"], {}, {VarId("X", 0): 1}),
        (["do", "--do", "X@2=0"], {VarId("X", 2): 0}, {}),
        (["do", "--do", "X@2=0", "--given", "X@0=1"], {VarId("X", 2): 0}, {VarId("X", 0): 1}),
    ], ids=["observational", "do", "do-given"])
    def test_engine_route_query_prints_what_enumeration_gives(self, tmp_path, capsys, query,
                                                              do, given):
        path = tmp_path / "chain5.json"
        assert run(["causal", "build", "--topology", "chain-a", "--slices", "5",
                    "--out", str(path)]) == 0
        assert run(["causal", query[0], "--model", str(path), "--target", "Y@4=1",
                    *query[1:]]) == 0
        m = causal.load_model(path.read_text())
        cut = causal.do_transform(m, do) if do else m
        evidence = {**do, **given}
        joint = {VarId("Y", 4): 1, **evidence}
        want = causal.marginal(cut, joint) / causal.marginal(cut, evidence)
        assert capsys.readouterr().out == format(want, "#.12g") + "\n"

    def test_build_writes_loadable_model(self, tmp_path):
        out = tmp_path / "dbn.json"
        assert run(["causal", "build", "--topology", "chain-a", "--slices", "3",
                    "--out", str(out)]) == 0
        from acdsim.causal import load_model
        model = load_model(out.read_text())
        assert len(model.variables) == 9

    def test_identical_repeat_is_one_assignment(self, chain_model_path, capsys):
        assert run(["causal", "marginal", "--model", chain_model_path,
                    "--query", "X=1,X@0=1"]) == 0
        assert capsys.readouterr().out == "0.500000000000\n"


class TestDetect:
    def test_detect_on_episode_log(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        run(["simulate", "--seed", "5", "--out", str(log_path)])
        result_path = tmp_path / "result.json"
        csv_path = tmp_path / "ind.csv"
        assert run(["detect", "--log", str(log_path), "--noise", "0.2,0.05",
                    "--seed", "1", "--out", str(result_path),
                    "--indicators-out", str(csv_path)]) == 0
        result = json.loads(result_path.read_text())
        assert result["label"] in ("benign", "malign")
        assert csv_path.read_text().splitlines()[1] == "t,Z,X,Y"

    @pytest.mark.parametrize("spec", [
        None, {"topology": "confounded-c", "slices": 4, "schedule": [True, False]},
    ], ids=["chain-a", "confounded-c-alternating"])
    def test_llr_on_a_short_log_equals_enumeration(self, tmp_path, spec):
        log_path, out = tmp_path / "short.jsonl", tmp_path / "llr.json"
        assert run(["simulate", "--seed", "5", "--horizon", "4", "--out", str(log_path)]) == 0
        dbn = []
        if spec:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            dbn = ["--dbn", str(tmp_path / "spec.json")]
        assert run(["detect", "--log", str(log_path), *dbn, "--out", str(out)]) == 0
        frames = detect.extract_indicators(game.parse_episode_jsonl(log_path.read_text()),
                                           EmissionNoise(), 0).frames
        assert len(frames) == 4
        spec = causal.load_spec(json.dumps(spec)) if spec else causal.DbnSpec(
            causal.Topology.CHAIN_A, 4)
        malign = causal.build_topology(spec.with_slices(len(frames)))
        loglik = []
        for m in (malign, detect.benign_model_like(malign)):
            evidence = {causal.emission_var(VarId(name, t)): bit
                        for t, frame in enumerate(frames) for name, bit in frame.items()
                        if m.has(VarId(name, t))}
            loglik.append(math.log(causal.marginal(causal.attach_emissions(m, *EmissionNoise()),
                                                   evidence)))
        llr = json.loads(out.read_text())["llr"]
        assert format(llr, "#.12g") == format(loglik[0] - loglik[1], "#.12g")

    @pytest.mark.parametrize("command", ["detect", "loop"])
    def test_noise_starting_with_minus_parses_spaced_or_joined(self, tmp_path, command):
        log_path = tmp_path / "log.jsonl"
        run(["simulate", "--seed", "5", "--out", str(log_path)])
        args = ["--log", str(log_path)] if command == "detect" else ["--autonomy", "auto"]
        outputs = []
        for i, spelling in enumerate((["--noise", "-0.0,0.05"], ["--noise=-0.0,0.05"],
                                      ["--nois", "-0.0,0.05"])):
            out = tmp_path / f"r{i}.json"
            assert run([command, *args, *spelling, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command,option,value", [("detect", "--threshold", "-inf"),
                                                      ("detect", "--threshold", "-1e3"),
                                                      ("loop", "--tau", "-inf")])
    def test_signed_value_parses_spaced_or_joined(self, tmp_path, command, option, value):
        log_path = tmp_path / "log.jsonl"
        run(["simulate", "--seed", "5", "--horizon", "8", "--out", str(log_path)])
        args = ["--log", str(log_path)] if command == "detect" else ["--autonomy", "auto"]
        outputs = []
        for i, spelling in enumerate(([option, value], [f"{option}={value}"],
                                      [option[:4], value])):
            out = tmp_path / f"r{i}.json"
            assert run([command, *args, *spelling, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestLoop:
    def test_loop_deterministic_and_replayable(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["loop", "--autonomy", "auto", "--tau", "0.8", "--seed", "4"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert run(["replay", "--log", str(out1)]) == 0

    @pytest.mark.parametrize("command", ["replay", "detect"])
    def test_multi_episode_report_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "r.json"
        assert run(["loop", "--autonomy", "auto", "--episodes", "2", "--seed", "4",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run([command, "--log", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError" and "multi-episode" in err["message"]

    @pytest.mark.parametrize("value", [5, ["a"]], ids=["int", "list"])
    @pytest.mark.parametrize("command", ["replay", "detect"])
    def test_a_report_whose_episode_log_is_no_string_exits_2(self, tmp_path, capsys,
                                                             command, value):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"episode_jsonl": value}) + "\n")
        assert run([command, "--log", str(report)]) == 2
        assert_one_parse_error(capsys)

    def test_loop_confirm_with_approval_file(self, tmp_path):
        decisions = tmp_path / "decisions.json"
        decisions.write_text("[true, true, false]")
        out = tmp_path / "r.json"
        assert run(["loop", "--autonomy", "confirm", "--approve", f"file:{decisions}",
                    "--seed", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        applied = [i for i in report["interventions"] if i["applied"]]
        assert len(applied) <= 2

    @pytest.mark.parametrize("text", ['["no", 0]', "[true, 1]", "[null]", '{"0": true}',
                                      "[true,", ""])
    def test_approval_file_of_non_booleans_exits_2(self, tmp_path, capsys, text):
        decisions = tmp_path / "decisions.json"
        decisions.write_text(text)
        out = tmp_path / "r.json"
        assert run(["loop", "--autonomy", "confirm", "--approve", f"file:{decisions}",
                    "--seed", "2", "--out", str(out)]) == 2
        assert_one_parse_error(capsys)
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.text().map(str.encode), st.binary(max_size=16),
        mutated("[true, false, true]").map(str.encode),
        st.lists(st.booleans() | JSON_VALUES).map(lambda v: json.dumps(v).encode())))
    def test_approval_file_parses_or_raises_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "decisions.json"
        path.write_bytes(data)
        try:
            decisions = json.loads(data.decode())
        except ValueError:
            decisions = None
        booleans = isinstance(decisions, list) and all(isinstance(d, bool) for d in decisions)
        try:
            factory = cli._load_approvals(f"file:{path}")
        except ParseError:
            assert not booleans
            return
        assert booleans and list(factory()) == decisions

    @pytest.mark.parametrize("spec, first", [("always", [True] * 3), ("never", []),
                                             ("file:decisions.json", [True, False, True])])
    def test_each_call_of_the_approvals_factory_starts_at_the_first(self, tmp_path,
                                                                    monkeypatch, spec, first):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "decisions.json").write_text("[true, false, true]")
        factory = pickle.loads(pickle.dumps(cli._load_approvals(spec)))
        one, two = iter(factory()), iter(factory())
        assert list(itertools.islice(one, 3)) == first
        assert list(itertools.islice(two, 3)) == first

    def test_loop_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        base = ["loop", "--autonomy", "auto", "--seed", "6", "--episodes", "2"]
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--parallel", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_every_episode_starts_at_the_first_approval(self, tmp_path):
        decisions = [True, False, True]
        approve = tmp_path / "decisions.json"
        approve.write_text(json.dumps(decisions))
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        base = ["loop", "--autonomy", "confirm", "--approve", f"file:{approve}",
                "--seed", "0", "--episodes", "3"]
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--parallel", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        reports = json.loads(serial.read_text())["reports"]
        for report in reports:
            approved = [i["approved"] for i in report["interventions"]]
            assert len(approved) > len(decisions)
            assert approved == decisions + [False] * (len(approved) - len(decisions))

    def test_zero_episodes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["loop", "--episodes", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["reports"] == []
        summary = json.loads(capsys.readouterr().out)
        assert summary["episodes"] == 0 and summary["mean_time_to_target"] == 0.0

    def test_inputs_parsed_once(self, tmp_path, input_calls):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"topology": "chain-a", "slices": 8}))
        approve = tmp_path / "decisions.json"
        approve.write_text("[true]")
        assert run(["loop", "--autonomy", "confirm", "--dbn", str(spec),
                    "--approve", f"file:{approve}", "--episodes", "3",
                    "--out", str(tmp_path / "r.json")]) == 0
        assert input_calls == ["_read", "load_scenario", "_read", "load_spec", "_read"]


class TestTrain:
    def test_zero_episodes_writes_an_empty_table(self, tmp_path, chain3_path):
        out = tmp_path / "q.json"
        assert run(["train", "--scenario", chain3_path, "--episodes", "0",
                    "--out", str(out)]) == 0
        assert agents.QTable.load(out.read_text()).values == {}


class TestEvaluate:
    def test_json_and_csv_outputs(self, tmp_path, chain3_path, capsys):
        qt = tmp_path / "q.json"
        run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
        capsys.readouterr()
        assert run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
                    "--episodes", "3", "--seed", "0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["episodes"] == 3
        csv_out = tmp_path / "metrics.csv"
        assert run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
                    "--episodes", "3", "--seed", "0", "--format", "csv",
                    "--out", str(csv_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[1] == "episode,seed,steps,return,terminal,time_to_target"
        assert len(lines) == 5

    def test_csv_is_the_header_and_the_rows_each_ending_in_one_newline(self, tmp_path,
                                                                      chain3_path):
        qt, json_out, csv_out = tmp_path / "q.json", tmp_path / "e.json", tmp_path / "e.csv"
        run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
        for fmt, out in (("json", json_out), ("csv", csv_out)):
            assert run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
                        "--episodes", "5", "--seed", "3", "--format", fmt,
                        "--out", str(out)]) == 0
        columns = cli.METRIC_COLUMNS.split(",")
        lines = [f"# acdsim {acdsim.__version__}", cli.METRIC_COLUMNS] + [
            ",".join(str(row[k]) for k in columns)
            for row in json.loads(json_out.read_text())["episodes"]]
        data = csv_out.read_bytes()
        assert b"\r" not in data
        assert data == "".join(line + "\n" for line in lines).encode()

    def test_rows_are_built_from_agents_evaluate(self):
        s = netmodel.load_scenario(Path(cli.default_scenario_path()).read_text())
        table, _ = agents.train(s, agents.LearningParams(episodes=30), 0)
        logs = agents.evaluate(s, table, 20, 0)
        assert [cli._evaluate_episode(s, table, seed) for seed in range(20)] == [
            {"seed": seed, "steps": log.final["t"], "return": log.total_reward(),
             "terminal": log.final["terminal"], "time_to_target": log.time_to_target()}
            for seed, log in enumerate(logs)]

    def test_parallel_matches_serial(self, tmp_path, chain3_path):
        qt = tmp_path / "q.json"
        run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
             "--episodes", "4", "--seed", "9", "--out", str(serial)])
        run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
             "--episodes", "4", "--seed", "9", "--parallel", "2",
             "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_inputs_parsed_once(self, tmp_path, chain3_path, input_calls):
        qt = tmp_path / "q.json"
        run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
        input_calls.clear()
        assert run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
                    "--episodes", "3", "--out", str(tmp_path / "e.json")]) == 0
        assert input_calls == ["_read", "load_scenario", "_read", "load"]


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch):
    """`cli` imports `ProcessPoolExecutor` from `concurrent.futures` when it
    starts a pool, so that is where the stand-in goes."""
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)


@pytest.mark.parametrize("episodes,sizes", [(2, [2]), (1, []), (0, [])])
def test_parallel_workers_capped_at_episode_count(tmp_path, chain3_path, monkeypatch,
                                                  recording_pool, episodes, sizes):
    qt = tmp_path / "q.json"
    run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run(["evaluate", "--scenario", chain3_path, "--qtable", str(qt),
                "--episodes", str(episodes), "--parallel", "64",
                "--out", str(tmp_path / "e.json")]) == 0
    assert RecordingExecutor.sizes == sizes


@pytest.mark.parametrize("cpus,sizes", [(3, [3]), (1, []), (None, [])])
def test_parallel_workers_capped_at_cpu_count(tmp_path, chain3_path, monkeypatch,
                                              recording_pool, cpus, sizes):
    qt = tmp_path / "q.json"
    run(["train", "--scenario", chain3_path, "--episodes", "20", "--out", str(qt)])
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    args = ["evaluate", "--scenario", chain3_path, "--qtable", str(qt), "--episodes", "5"]
    assert run([*args, "--out", str(serial)]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run([*args, "--parallel", "5000", "--out", str(parallel)]) == 0
    assert RecordingExecutor.sizes == sizes
    assert parallel.read_bytes() == serial.read_bytes()


# Modules only the engine commands need: numpy and what imports it, and the
# process pool's module, which only `--parallel` above 1 needs.
ENGINE_MODULES = ("numpy", "acdsim.causal", "acdsim.detect", "acdsim.loop")
POOL_MODULE = "concurrent.futures.process"


def run_fresh(args, prelude="", cwd=None) -> subprocess.CompletedProcess:
    """`main(args)` in a fresh interpreter after `prelude`; the last stdout
    line lists which of ENGINE_MODULES and POOL_MODULE it had loaded."""
    script = (f"import json, sys\n{prelude}\nfrom acdsim.cli import main\n"
              "code = main(sys.argv[1:])\n"
              f"loaded = sorted(m for m in {(*ENGINE_MODULES, POOL_MODULE)!r} "
              "if m in sys.modules)\n"
              "print(json.dumps(loaded))\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(acdsim.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def footprint_inputs(tmp_path_factory):
    """A scenario, a Q-table, an episode log and a one-episode loop report."""
    work = tmp_path_factory.mktemp("footprint")
    (work / "chain3.json").write_text(json.dumps(chain3_doc()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["train", "--scenario", str(work / "chain3.json"), "--episodes", "20",
                    "--out", str(work / "q.json")]) == 0
        assert run(["simulate", "--seed", "5", "--horizon", "8",
                    "--out", str(work / "s.jsonl")]) == 0
        assert run(["loop", "--autonomy", "auto", "--seed", "5",
                    "--out", str(work / "report.json")]) == 0
    return work


NO_ENGINE_COMMANDS = {
    "simulate": ["simulate", "--scenario", "chain3.json", "--seed", "1", "--out", "o.jsonl"],
    "train": ["train", "--scenario", "chain3.json", "--episodes", "5", "--out", "o.json"],
    "evaluate": ["evaluate", "--scenario", "chain3.json", "--qtable", "q.json",
                 "--episodes", "3", "--out", "o.json"],
    "evaluate-csv": ["evaluate", "--scenario", "chain3.json", "--qtable", "q.json",
                     "--episodes", "3", "--format", "csv", "--out", "o.csv"],
    "replay": ["replay", "--log", "s.jsonl"],
    "replay-report": ["replay", "--log", "report.json"],
}


@pytest.mark.parametrize("name", NO_ENGINE_COMMANDS)
def test_serial_command_without_an_engine_loads_no_engine_module(footprint_inputs, name):
    proc = run_fresh(NO_ENGINE_COMMANDS[name], cwd=footprint_inputs)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_parallel_evaluate_parent_loads_no_engine_module(footprint_inputs):
    proc = run_fresh([*NO_ENGINE_COMMANDS["evaluate"], "--episodes", "4", "--parallel", "2"],
                     prelude="import os; os.cpu_count = lambda: 2", cwd=footprint_inputs)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [POOL_MODULE]


def test_parallel_loop_parent_loads_the_loop_before_the_pool(footprint_inputs):
    """Forked workers then inherit `acdsim.loop` and numpy, not import them each."""
    prelude = """\
import concurrent.futures, os
os.cpu_count = lambda: 2
init = concurrent.futures.ProcessPoolExecutor.__init__
def recording_init(self, *args, **kwargs):
    print("loop loaded:", "acdsim.loop" in sys.modules, file=sys.stderr)
    init(self, *args, **kwargs)
concurrent.futures.ProcessPoolExecutor.__init__ = recording_init"""
    proc = run_fresh(["loop", "--autonomy", "auto", "--seed", "2", "--episodes", "2",
                      "--parallel", "2", "--out", "r.json"], prelude=prelude, cwd=footprint_inputs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["loop loaded: True"]


@pytest.mark.parametrize("args", [
    ["detect", "--log", "s.jsonl", "--indicators-out", "i.csv", "--out", "d.json"],
    ["loop", "--autonomy", "auto", "--seed", "2", "--out", "r.json"],
    ["causal", "build", "--topology", "chain-a", "--slices", "3", "--out", "m.json"],
], ids=["detect", "loop", "causal"])
def test_engine_commands_still_run(footprint_inputs, args):
    proc = run_fresh(args, cwd=footprint_inputs)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("args", [
    ["evaluate", "--scenario", "chain3.json", "--qtable", "q.json", "--episodes", "6",
     "--seed", "4"],
    ["loop", "--autonomy", "auto", "--episodes", "3", "--seed", "2"],
], ids=["evaluate", "loop"])
def test_forkserver_workers_write_the_serial_bytes(footprint_inputs, monkeypatch, args):
    """Workers that start from a fresh import, not a fork of the parent,
    find every module their task needs and write what a serial run writes."""
    work = footprint_inputs
    monkeypatch.chdir(work)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*args, "--out", f"{args[0]}-serial.json"]) == 0
    proc = run_fresh([*args, "--parallel", "2", "--out", f"{args[0]}-forkserver.json"],
                     prelude=("import multiprocessing, os\n"
                              "multiprocessing.set_start_method('forkserver')\n"
                              "os.cpu_count = lambda: 2"),
                     cwd=work)
    assert proc.returncode == 0, proc.stderr
    assert POOL_MODULE in json.loads(proc.stdout.splitlines()[-1])
    assert ((work / f"{args[0]}-forkserver.json").read_bytes()
            == (work / f"{args[0]}-serial.json").read_bytes())


SCENARIO = chain3_full_doc()
LOG = chain3_log_text()
QTABLE = qtable_doc()
SPEC = spec_to_obj(causal.DbnSpec(causal.Topology.CONFOUNDED_C, 4, schedule=(True, False)))
MODEL = json.loads(save_model(causal.build_topology(causal.DbnSpec(causal.Topology.CHAIN_A, 2))))
# (command, text of the file it reads)
MALFORMED_FILES = st.one_of(
    st.tuples(st.just("simulate"),
              st.one_of(mutated(json.dumps(SCENARIO)), json_mutated(SCENARIO))),
    st.tuples(st.sampled_from(["replay", "detect"]),
              st.one_of(mutated(LOG), jsonl_mutated(LOG))),
    st.tuples(st.just("evaluate"),
              st.one_of(mutated(json.dumps(QTABLE)), json_mutated(QTABLE))),
    st.tuples(st.just("detect --dbn"), st.one_of(mutated(json.dumps(SPEC)), json_mutated(SPEC))),
    st.tuples(st.just("causal marginal"),
              st.one_of(mutated(json.dumps(MODEL)), json_mutated(MODEL))))


@settings(max_examples=120, deadline=None)
@given(MALFORMED_FILES)
@example(("evaluate", json.dumps(OTHER_ACTIONS_QTABLES[0])))
@example(("evaluate", json.dumps(OTHER_ACTIONS_QTABLES[1])))
@example(("replay", '{"episode_jsonl": 5}\n'))
@example(("detect", '{"episode_jsonl": 5}\n'))
@example(("evaluate", json.dumps(AMBIGUOUS_KEY_QTABLES[0])))
@example(("evaluate", json.dumps(AMBIGUOUS_KEY_QTABLES[1])))
@example(("evaluate", json.dumps(AMBIGUOUS_KEY_QTABLES[2])))
def test_a_malformed_file_exits_with_one_json_error(tmp_path_factory, case):
    """`main` on an edited scenario, log, Q-table, DBN spec or model returns
    0, 2, 3 or 4 and never raises; a non-zero return writes exactly one JSON
    error line."""
    command, text = case
    work = tmp_path_factory.getbasetemp()
    path, out, scenario = work / "input", work / "output", work / "chain3.json"
    log = work / "chain3.jsonl"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    scenario.write_text(json.dumps(chain3_doc()))
    log.write_text(LOG)
    argv = {"simulate": ["simulate", "--scenario", str(path), "--out", str(out)],
            "replay": ["replay", "--log", str(path)],
            "detect": ["detect", "--log", str(path), "--out", str(out)],
            "evaluate": ["evaluate", "--scenario", str(scenario), "--qtable", str(path),
                         "--episodes", "2", "--out", str(out)],
            "detect --dbn": ["detect", "--log", str(log), "--dbn", str(path),
                             "--out", str(out)],
            "causal marginal": ["causal", "marginal", "--model", str(path),
                                "--query", "Y@1=1"]}[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    err = stderr.getvalue().splitlines()
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)


@pytest.mark.parametrize("text", [f'[{"1" * 5000}]', "[" * 100_000 + "]" * 100_000],
                         ids=["5000-digit-integer", "deep-nesting"])
@pytest.mark.parametrize("kind", ["scenario", "log", "spec", "model", "qtable", "approvals"])
def test_json_the_decoder_refuses_exits_2(tmp_path, capsys, chain3_path, kind, text):
    """Python's decoder raises ValueError, not JSONDecodeError, on an integer
    of over 4300 digits, and RecursionError on deep nesting: both are
    malformed input."""
    path, log, out = tmp_path / "input.json", tmp_path / "log.jsonl", str(tmp_path / "out")
    path.write_text(text)
    log.write_text(LOG)
    argv = {"scenario": ["simulate", "--scenario", str(path), "--out", out],
            "log": ["detect", "--log", str(path)],
            "spec": ["detect", "--log", str(log), "--dbn", str(path)],
            "model": ["causal", "marginal", "--model", str(path), "--query", "A=1"],
            "qtable": ["evaluate", "--scenario", chain3_path, "--qtable", str(path),
                       "--episodes", "1"],
            "approvals": ["loop", "--autonomy", "confirm", "--approve", f"file:{path}",
                          "--out", out]}[kind]
    assert run(argv) == 2
    assert_one_parse_error(capsys)

