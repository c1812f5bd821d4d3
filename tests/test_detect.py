"""Indicator extraction, exact sequence likelihoods, and classification."""

import hashlib
import json
import itertools
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdsim.agents import LateralAttacker, NopDefender
from acdsim import causal
from acdsim.causal import Cgm, DbnSpec, Topology, VarId, build_topology
from acdsim.config import DbnParams
from acdsim.cli import default_scenario_path
from acdsim.detect import (
    EmissionNoise,
    IndicatorSequence,
    benign_model_like,
    classify,
    extract_indicators,
    ground_truth_bits,
    sequence_to_csv,
)
from acdsim.errors import SpecError, TooLargeError
from acdsim.game import NOP, restore, run_episode
from acdsim.netmodel import load_scenario

from .conftest import PassingAttacker, chain3_doc, sample_indicator_sequence, sequence_loglik

ZERO_NOISE = EmissionNoise(miss=0.0, false_pos=0.0)
NOT_NULL = (r"^the benign model must be benign_model_like\(malign\), and every "
            r"slice of malign must hold a variable that is not latent$")
# a noise probability: the edges, uniform, or log-uniform down to 1e-300
NOISE = (st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
         | st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))


def make_sequence(bit_rows) -> IndicatorSequence:
    return IndicatorSequence(tuple({"Z": z, "X": x, "Y": y} for z, x, y in bit_rows))


class RestoreThenNop:
    """Restores a node on the first step, then does nothing."""

    def __init__(self, node):
        self.node = node
        self.done = False

    def act(self, view, rng):
        if not self.done:
            self.done = True
            return restore(self.node)
        return NOP

    def observe(self, outcome):
        pass


class TestExtractIndicators:
    def test_passing_attacker_beaconing_only(self, chain3):
        log = run_episode(chain3, NopDefender(), PassingAttacker(), seed=0,
                          horizon_override=12)
        seq = extract_indicators(log, ZERO_NOISE, seed=1)
        assert len(seq.frames) == 12
        for t, frame in enumerate(seq.frames):
            assert frame["X"] == 0 and frame["Y"] == 0
            assert frame["Z"] == (1 if t % 5 == 0 else 0)

    def test_attempt_step_sets_movement_bit(self, chain3):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=0,
                          horizon_override=6)
        seq = extract_indicators(log, ZERO_NOISE, seed=1)
        attempt_steps = {rec.t for rec in log.steps
                         if any(e.kind == "attempt" for e in rec.outcome.events)}
        assert attempt_steps  # the chain attacker always has a frontier
        for t, frame in enumerate(seq.frames):
            assert frame["X"] == (1 if t in attempt_steps else 0)

    def test_loot_sets_collection_bit(self):
        doc = chain3_doc()
        doc["nodes"][1]["creds_stored"] = ["gold"]
        s = load_scenario(json.dumps(doc))
        log = run_episode(s, NopDefender(), LateralAttacker(1), seed=0)
        seq = extract_indicators(log, ZERO_NOISE, seed=1)
        loot_steps = {rec.t for rec in log.steps
                      if any(e.kind == "loot" for e in rec.outcome.events)}
        assert loot_steps == {0}  # node 1 falls on the first step, prob 1
        assert seq.frames[0]["Y"] == 1
        assert all(f["Y"] == 0 for f in seq.frames[1:])

    def test_total_miss_suppresses_everything(self, chain3):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=0)
        seq = extract_indicators(log, EmissionNoise(miss=1.0, false_pos=0.0), seed=1)
        assert all(all(b == 0 for b in f.values()) for f in seq.frames)

    def test_beaconing_stops_after_full_restore(self, chain3):
        log = run_episode(chain3, RestoreThenNop(0), PassingAttacker(), seed=0,
                          horizon_override=8)
        truth = ground_truth_bits(log)
        assert truth[0]["Z"] == 1          # entry implant beacons at step 0
        assert truth[5]["Z"] == 0          # nothing left to beacon at t = 5

    def test_deterministic_given_seed(self, chain3):
        log = run_episode(chain3, NopDefender(), LateralAttacker(1), seed=4)
        noise = EmissionNoise()
        a = extract_indicators(log, noise, seed=9)
        b = extract_indicators(log, noise, seed=9)
        assert a.frames == b.frames


class TestSequenceLoglik:
    def test_benign_all_zero_hand_value(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 2))
        benign = benign_model_like(m)
        seq = make_sequence([(0, 0, 0), (0, 0, 0)])
        ll = sequence_loglik(benign, seq, EmissionNoise(miss=0.2, false_pos=0.05))
        assert ll == pytest.approx(6 * math.log(0.95), abs=1e-12)

    def test_deterministic_trajectory_joint(self):
        Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
        m = Cgm(variables=(Z, X, Y), parents={Z: (), X: (Z,), Y: (X,)},
                cpts={Z: (0.7,), X: (0.0, 1.0), Y: (0.0, 1.0)})
        seq = make_sequence([(1, 1, 1)])
        ll = sequence_loglik(m, seq, ZERO_NOISE)
        assert ll == pytest.approx(math.log(0.7), abs=1e-12)

    def test_impossible_sequence_is_neg_inf(self):
        Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
        m = Cgm(variables=(Z, X, Y), parents={Z: (), X: (Z,), Y: (X,)},
                cpts={Z: (1.0,), X: (0.0, 1.0), Y: (0.0, 1.0)})
        seq = make_sequence([(1, 1, 0)])
        assert sequence_loglik(m, seq, ZERO_NOISE) == float("-inf")

    def test_length_mismatch_rejected(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 3))
        seq = make_sequence([(0, 0, 0)])
        with pytest.raises(SpecError, match="slices"):
            sequence_loglik(m, seq, EmissionNoise())

    @settings(max_examples=80, deadline=None)
    @given(topology=st.sampled_from(Topology), slices=st.integers(1, 16),
           rows=st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=16, max_size=16),
           miss=st.floats(0.0, 1.0),
           false_pos=st.floats(1e-100, 1.0, exclude_max=True))
    def test_a_benign_loglik_of_normal_frame_likelihoods_is_finite(
            self, topology, slices, rows, miss, false_pos):
        """Under the benign model a frame's likelihood is a product of at
        most three factors, each false_pos or 1 - false_pos, so at least
        1e-300, a normal float: the forward filter must not underflow to
        "impossible" on the product of two such small numbers."""
        benign = benign_model_like(build_topology(DbnSpec(topology, slices)))
        ll = sequence_loglik(benign, make_sequence(rows[:slices]),
                             EmissionNoise(miss=miss, false_pos=false_pos))
        assert math.isfinite(ll)

    def test_likelihood_is_proper_distribution(self):
        noise = EmissionNoise()
        for T in (1, 2):
            malign = build_topology(DbnSpec(Topology.CHAIN_A, T))
            total = 0.0
            for bits in itertools.product((0, 1), repeat=3 * T):
                rows = [bits[3 * t:3 * t + 3] for t in range(T)]
                ll = sequence_loglik(malign, make_sequence(rows), noise)
                total += math.exp(ll)
                assert math.exp(ll) <= 1.0 + 1e-12
            assert total == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    @pytest.fixture
    def models_t4(self):
        malign = build_topology(DbnSpec(Topology.CHAIN_A, 4))
        return benign_model_like(malign), malign

    def test_all_zero_sequence_is_benign(self, models_t4):
        benign, malign = models_t4
        seq = make_sequence([(0, 0, 0)] * 4)
        result = classify(seq, benign, malign, EmissionNoise())
        assert result.label == "benign"
        assert result.llr < 0

    def test_hot_sequence_is_malign(self, models_t4):
        benign, malign = models_t4
        seq = make_sequence([(1, 1, 1)] * 4)
        result = classify(seq, benign, malign, EmissionNoise())
        assert result.label == "malign"
        assert result.llr > 0

    def test_identical_models_llr_zero_benign(self, models_t4):
        benign, _ = models_t4
        seq = make_sequence([(0, 1, 0)] * 4)
        result = classify(seq, benign, benign, EmissionNoise())
        assert result.llr == pytest.approx(0.0)
        assert result.label == "benign"

    def test_posterior_trace_in_unit_interval(self, models_t4):
        benign, malign = models_t4
        seq = make_sequence([(1, 1, 0), (0, 1, 1), (0, 0, 0), (1, 0, 0)])
        result = classify(seq, benign, malign, EmissionNoise())
        assert len(result.posterior_trace) == 4
        for row in result.posterior_trace:
            assert set(row) == {"Z", "X", "Y"}
            assert all(0.0 <= p <= 1.0 for p in row.values())

    def test_one_malign_engine_for_likelihood_and_smoothing(self, models_t4, monkeypatch):
        benign, malign = models_t4
        built = []
        init = causal.DbnEngine.__init__

        def counting_init(self, m):
            built.append(m)
            init(self, m)

        monkeypatch.setattr(causal.DbnEngine, "__init__", counting_init)
        seq = make_sequence([(1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 0)])
        expected_llr = (sequence_loglik(malign, seq, EmissionNoise())
                        - sequence_loglik(benign, seq, EmissionNoise()))
        built.clear()
        result = classify(seq, benign, malign, EmissionNoise())
        assert built == [malign]  # the null model is scored without one
        assert result.llr == expected_llr

    def test_one_filter_pass_per_model(self, models_t4, monkeypatch):
        """The malign model's one pass gives its likelihood and the trace; the
        null model is scored without a filter pass."""
        benign, malign = models_t4
        calls = []
        forward = causal.DbnEngine._forward
        monkeypatch.setattr(causal.DbnEngine, "_forward", lambda self, *a:
                            calls.append(self.m) or forward(self, *a))
        seq = make_sequence([(1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 0)])
        classify(seq, benign, malign, EmissionNoise())
        assert calls == [malign]

    @pytest.mark.parametrize("call", [
        lambda seq, m: classify(seq, benign_model_like(m), m, EmissionNoise()),
        lambda seq, m: sequence_loglik(m, seq, EmissionNoise()),
    ], ids=["malign", "sequence_loglik"])
    def test_a_model_of_another_length_is_refused(self, call):
        """The slice count is the engine's: a model of 3 slices for 4 frames
        is refused with the same SpecError, and a model without slices with
        the engine's TooLargeError."""
        seq = make_sequence([(0, 1, 0)] * 4)
        with pytest.raises(SpecError,
                           match="^model has 3 slices but the sequence has 4 frames$"):
            call(seq, build_topology(DbnSpec(Topology.CHAIN_A, 3)))
        U = VarId("U")
        with pytest.raises(TooLargeError, match="^model has no time-indexed variables$"):
            call(seq, Cgm(variables=(U,), parents={}, cpts={U: (0.5,)}))

    @pytest.mark.parametrize("benign", [
        build_topology(DbnSpec(Topology.CHAIN_A, 4)),
        build_topology(DbnSpec(Topology.CHAIN_A, 3)),
        Cgm(variables=(VarId("U"),), parents={}, cpts={VarId("U"): (0.5,)}),
    ], ids=["swapped", "3-slices", "global-only"])
    def test_a_benign_model_other_than_the_null_model_is_refused(self, benign, monkeypatch):
        """Only `benign_model_like(malign)` is scored: a swapped pair, a
        benign model of another length and one without slices are refused
        with one SpecError, and only the malign engine is built."""
        malign = benign_model_like(build_topology(DbnSpec(Topology.CHAIN_A, 4)))
        built = []
        init = causal.DbnEngine.__init__
        monkeypatch.setattr(causal.DbnEngine, "__init__",
                            lambda self, m: built.append(m) or init(self, m))
        with pytest.raises(SpecError, match=NOT_NULL):
            classify(make_sequence([(1, 0, 1)] * 4), benign, malign, EmissionNoise())
        assert built == [malign]

    @pytest.mark.parametrize("frames", [4, 16, 17])
    def test_one_posteriors_call_per_classified_log(self, frames, monkeypatch):
        """The malign model is smoothed through the engine's public
        `posteriors`, once per classified log; a log refused at 16 slices
        is never smoothed."""
        malign = build_topology(DbnSpec(Topology.CHAIN_A, frames))
        calls = []
        posteriors = causal.DbnEngine.posteriors
        monkeypatch.setattr(causal.DbnEngine, "posteriors", lambda self, *a:
                            calls.append(self.m) or posteriors(self, *a))
        seq = make_sequence([(0, 1, 0)] * frames)
        if frames > 16:
            with pytest.raises(TooLargeError):
                classify(seq, benign_model_like(malign), malign, EmissionNoise())
            assert calls == []
        else:
            classify(seq, benign_model_like(malign), malign, EmissionNoise())
            assert calls == [malign]

    def test_a_malign_engine_keeps_one_array_per_distinct_frame(self, monkeypatch):
        """Over the 88 enterprise8 nop logs of at most 16 steps (seeds
        0-199), classified with default noise, the malign engines hold 406
        arrays for 1,090 frames: one per distinct frame of a log, shared by
        the slices that repeat it (chain-a's slices have one layout)."""
        with open(default_scenario_path(), encoding="utf-8") as fh:
            scenario = load_scenario(fh.read())
        calls = []
        frame_likelihoods = causal.DbnEngine.frame_likelihoods

        def recording(self, *args):
            calls.append((self, frame_likelihoods(self, *args)))
            return calls[-1][1]

        monkeypatch.setattr(causal.DbnEngine, "frame_likelihoods", recording)
        logs = frames = arrays = 0
        for seed in range(200):
            log = run_episode(scenario, NopDefender(), LateralAttacker(scenario.attacker.spread),
                              seed)
            seq = extract_indicators(log, EmissionNoise(), seed)
            if len(seq.frames) > 16:
                continue
            malign = build_topology(DbnSpec(Topology.CHAIN_A, len(seq.frames)))
            calls.clear()
            classify(seq, benign_model_like(malign), malign, EmissionNoise())
            (engine, likelihoods), = calls  # the malign engine; the null model needs none
            assert engine.m is malign
            assert len({id(a) for a in likelihoods}) == len(engine._frame_table)
            assert len(engine._frame_table) == len({tuple(f.items()) for f in seq.frames})
            logs += 1
            frames += len(seq.frames)
            arrays += len(engine._frame_table)
        assert (logs, frames, arrays) == (88, 1090, 406)

    @settings(max_examples=300, deadline=None)
    @given(topology=st.sampled_from(Topology), slices=st.integers(1, 16),
           confounder=st.booleans(),
           rows=st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=16, max_size=16),
           miss=NOISE, false_pos=NOISE)
    def test_the_null_model_is_scored_without_an_engine_to_the_same_bits(
            self, topology, slices, confounder, rows, miss, false_pos):
        """classify's llr against `benign_model_like(malign)` is the one that
        `sequence_loglik` gives for the pair, -inf and underflowing products
        included, and only the malign engine is built."""
        malign = build_topology(DbnSpec(topology, slices, per_slice_confounder=confounder))
        self.assert_null_scored_bit_for_bit(malign, make_sequence(rows[:slices]),
                                            EmissionNoise(miss=miss, false_pos=false_pos))

    @staticmethod
    def assert_null_scored_bit_for_bit(malign, seq, noise):
        benign = benign_model_like(malign)
        ll_malign, ll_benign = (sequence_loglik(m, seq, noise) for m in (malign, benign))
        expected = 0.0 if ll_malign == ll_benign == float("-inf") else ll_malign - ll_benign
        built = []
        init = causal.DbnEngine.__init__

        def counting_init(self, m):
            built.append(m)
            init(self, m)

        with mock.patch.object(causal.DbnEngine, "__init__", counting_init):
            result = classify(seq, benign, malign, noise)
        assert built == [malign]
        assert repr(result.llr) == repr(expected)

    def test_a_non_latent_global_is_scored_without_an_engine(self):
        """The null model keeps a non-latent global, parentless and off, and
        drops a latent per-slice variable; neither changes the recursion."""
        G = VarId("G")
        variables, parents, cpts = [G], {G: ()}, {G: (0.3,)}
        for t in range(3):
            Z, X, L = VarId("Z", t), VarId("X", t), VarId("L", t)
            variables += [Z, X, L]
            parents.update({Z: (G,), X: (Z,), L: (X,)})
            cpts.update({Z: (0.1, 0.8), X: (0.05, 0.9), L: (0.2, 0.7)})
        malign = Cgm(variables=tuple(variables), parents=parents, cpts=cpts,
                     latent=frozenset(v for v in variables if v.name == "L"))
        for rows in ([(1, 0, 1), (0, 1, 0), (1, 1, 1)],
                     [(1, 0, 2), (0, 1, 0), (1, 1, 1)],   # no Y variable: skipped
                     [(0, 0, 0), (0, 2, 0), (1, 1, 1)]):  # a bit outside 0/1: -inf
            for noise in (EmissionNoise(), EmissionNoise(miss=0.3, false_pos=1e-170)):
                self.assert_null_scored_bit_for_bit(malign, make_sequence(rows), noise)

    @pytest.mark.parametrize("latent_slice", [1, 2], ids=["middle", "last"])
    def test_a_slice_of_only_latent_variables_is_refused(self, latent_slice):
        """The null model of a malign model with a slice of latent variables
        only lacks that slice, so the closed form has no factor for it: the
        log is refused with the SpecError of any other benign model."""
        variables, parents, cpts = [], {}, {}
        for t in range(3):
            names = ("L",) if t == latent_slice else ("Z", "X")
            for name in names:
                v = VarId(name, t)
                variables.append(v)
                parents[v] = ()
                cpts[v] = (0.4,)
        malign = Cgm(variables=tuple(variables), parents=parents, cpts=cpts,
                     latent=frozenset({VarId("L", latent_slice)}))
        seq = make_sequence([(0, 1, 0)] * 3)
        with pytest.raises(SpecError, match=NOT_NULL):
            classify(seq, benign_model_like(malign), malign, EmissionNoise())

    @pytest.mark.parametrize("rows, llr", [
        ([(0, 0, 0)] * 4, float("-inf")),
        ([(1, 1, 1)] + [(0, 0, 0)] * 3, 0.0),
    ], ids=["benign-explains", "neither-explains"])
    def test_a_sequence_the_malign_model_rules_out_is_scored(self, rows, llr):
        """A deterministic chain-a under noiseless frames cannot produce these
        sequences: classify scores them instead of raising ZeroEvidenceError."""
        hard = DbnParams(spontaneous=0.0, persistence=1.0, edge_strength=1.0,
                         root_activation=1.0)
        malign = build_topology(DbnSpec(Topology.CHAIN_A, 4, params=hard))
        result = classify(make_sequence(rows), benign_model_like(malign), malign, ZERO_NOISE)
        assert result.llr == llr
        assert result.label == "benign"
        assert result.to_obj()["posterior"] == [{"t": t} for t in range(4)]

    def test_too_long_refused_before_likelihood_work(self, monkeypatch):
        malign = build_topology(DbnSpec(Topology.CHAIN_A, 17))

        def no_engine(self, m):
            raise AssertionError("no engine may be built for a refused sequence")

        monkeypatch.setattr(causal.DbnEngine, "__init__", no_engine)
        seq = make_sequence([(0, 1, 0)] * 17)
        with pytest.raises(TooLargeError, match="smoothing supports at most 16 slices, got 17"):
            classify(seq, benign_model_like(malign), malign, EmissionNoise())

    def test_result_json_shape(self, models_t4):
        benign, malign = models_t4
        seq = make_sequence([(0, 0, 0)] * 4)
        obj = json.loads(classify(seq, benign, malign, EmissionNoise()).to_json())
        assert obj["label"] == "benign"
        assert len(obj["posterior"]) == 4
        assert obj["posterior"][0]["t"] == 0


class TestSeparation:
    def test_malign_scores_above_benign_on_average(self):
        noise = EmissionNoise()
        malign = build_topology(DbnSpec(Topology.CHAIN_A, 8))
        benign = benign_model_like(malign)
        malign_llrs, benign_llrs = [], []
        for i in range(40):
            seq_m = sample_indicator_sequence(malign, noise, seed=1000 + i)
            seq_b = sample_indicator_sequence(benign, noise, seed=2000 + i)
            malign_llrs.append(sequence_loglik(malign, seq_m, noise)
                               - sequence_loglik(benign, seq_m, noise))
            benign_llrs.append(sequence_loglik(malign, seq_b, noise)
                               - sequence_loglik(benign, seq_b, noise))
        assert sum(malign_llrs) / 40 > sum(benign_llrs) / 40


class TestRecordedDigests:
    """sha256 of the indicator CSVs and the detection results of the bundled
    scenario's nop-defender logs, seeds 0-59, recorded before frames became
    plain dicts; a change to any byte fails here first. Logs over 16 steps
    are refused, and their error message is hashed instead."""

    CSV = "035c517cfbdf48ae3fb82593177a32314fe51dcb669b685a8bde0efd376a91f3"
    DETECT = {
        "chain-a": "52a88e9e6a4362eaa766d16bab701a562ddb5c2b680ca57fc70f5b8264845521",
        "confounded-c": "6dfc300397cad68d8f8e6c2a5a812f19fe0925b49c324f0ff85b9dc70495f5bb",
    }
    SPECS = {
        "chain-a": DbnSpec(Topology.CHAIN_A, 8),
        "confounded-c": DbnSpec(Topology.CONFOUNDED_C, 8, per_slice_confounder=True),
    }

    def test_csv_and_detection_bytes(self):
        s = load_scenario(Path(default_scenario_path()).read_text(encoding="utf-8"))
        noise = EmissionNoise()
        csv = hashlib.sha256()
        results = {name: hashlib.sha256() for name in self.SPECS}
        for seed in range(60):
            log = run_episode(s, NopDefender(), LateralAttacker(s.attacker.spread), seed)
            seq = extract_indicators(log, noise, seed)
            csv.update(sequence_to_csv(seq).encode())
            for name, spec in self.SPECS.items():
                malign = build_topology(spec.with_slices(len(seq.frames)))
                try:
                    text = classify(seq, benign_model_like(malign), malign, noise).to_json()
                except TooLargeError as exc:
                    text = str(exc)
                results[name].update(text.encode())
        assert csv.hexdigest() == self.CSV
        for name, digest in results.items():
            assert digest.hexdigest() == self.DETECT[name], name
