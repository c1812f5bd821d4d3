"""Causal model construction, enumeration queries, interventions, smoothing."""

import collections.abc
import hashlib
import itertools
import json
import math
import pickle
import random
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdsim import causal
from acdsim._util import indented_json
from acdsim.causal import (
    Cgm,
    DbnEngine,
    DbnParams,
    DbnSpec,
    Topology,
    VarId,
    _merged,
    attach_emissions,
    build_topology,
    check_smoothing_slices,
    do_transform,
    emission_var,
    interventional,
    load_model,
    load_spec,
    marginal,
    model_to_obj,
    observational,
    parse_assignment,
    save_model,
)
from acdsim.errors import (
    EvidenceOrderingError,
    LatentEvidenceError,
    LatentInterventionError,
    ParseError,
    SpecError,
    TooLargeError,
    ValidationError,
    ZeroEvidenceError,
)
from acdsim.detect import benign_model_like

from .conftest import (
    json_mutated,
    json_path,
    kahn_checked_order,
    mutated,
    oracle_conditional,
    oracle_joint,
    oracle_marginal,
    posterior_dict,
    random_dag_model,
    sample,
    spec_to_obj,
    with_value,
)


def edge_set(m: Cgm) -> set:
    return {(str(p), str(v)) for v in m.variables for p in m.parents.get(v, ())}


class TestBuildTopology:
    def test_chain_single_slice(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 1))
        assert edge_set(m) == {("Z@0", "X@0"), ("X@0", "Y@0")}
        assert not m.latent

    def test_fork_single_slice(self):
        m = build_topology(DbnSpec(Topology.FORK_B, 1))
        assert edge_set(m) == {("Z@0", "Y@0"), ("X@0", "Y@0")}
        assert m.parents[VarId("Z", 0)] == ()
        assert m.parents[VarId("X", 0)] == ()

    def test_confounded_two_slices_schedule_off(self):
        m = build_topology(DbnSpec(Topology.CONFOUNDED_C, 2, schedule=(False, False)))
        assert edge_set(m) == {
            ("U", "X@0"), ("U", "Y@0"), ("U", "X@1"), ("U", "Y@1"),
            ("X@0", "X@1"), ("Y@0", "Y@1"),
        }
        assert m.latent == frozenset({VarId("U")})

    def test_confounded_schedule_adds_direct_edge(self):
        m = build_topology(DbnSpec(Topology.CONFOUNDED_C, 2, schedule=(True, False)))
        assert ("X@0", "Y@0") in edge_set(m)
        assert ("X@1", "Y@1") not in edge_set(m)

    def test_default_schedule_alternates_starting_true(self):
        spec = DbnSpec(Topology.CONFOUNDED_C, 4)
        assert spec.effective_schedule() == (True, False, True, False)

    def test_with_slices_tiles_explicit_schedule(self):
        spec = DbnSpec(Topology.CONFOUNDED_C, 2, schedule=(False, True))
        assert spec.with_slices(5).schedule == (False, True, False, True, False)
        assert spec.with_slices(5).slices == 5
        assert DbnSpec(Topology.CHAIN_A, 8).with_slices(3).schedule is None

    def test_per_slice_confounder_flag(self):
        m = build_topology(DbnSpec(Topology.CONFOUNDED_C, 2, schedule=(False, False),
                                   per_slice_confounder=True))
        assert VarId("U") not in m.cpts
        assert m.latent == frozenset({VarId("U", 0), VarId("U", 1)})
        edges = edge_set(m)
        assert ("U@0", "X@0") in edges and ("U@1", "Y@1") in edges
        assert ("U@0", "X@1") not in edges
        assert marginal(m, {}) == pytest.approx(1.0)

    @pytest.mark.parametrize("topology,per_slice_confounder",
                             [(t, False) for t in Topology] + [(Topology.CONFOUNDED_C, True)],
                             ids=str)
    def test_parents_are_the_variables_themselves(self, topology, per_slice_confounder):
        m = build_topology(DbnSpec(topology, 6, per_slice_confounder=per_slice_confounder))
        own = {v: v for v in m.variables}
        assert all(p is own[p] for v in m.variables for p in m.parents[v])

    def test_persistence_edges_on_unrolling(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 3))
        edges = edge_set(m)
        for name in ("Z", "X", "Y"):
            for t in (1, 2):
                assert (f"{name}@{t-1}", f"{name}@{t}") in edges

    def test_bad_schedule_length(self):
        with pytest.raises(SpecError, match="schedule length"):
            build_topology(DbnSpec(Topology.CONFOUNDED_C, 3, schedule=(True,)))

    def test_zero_slices_rejected(self):
        with pytest.raises(SpecError, match="slice count"):
            build_topology(DbnSpec(Topology.CHAIN_A, 0))

    def test_calibrated_singleton_conditionals(self):
        p = DbnParams()
        m = build_topology(DbnSpec(Topology.CHAIN_A, 2, params=p))
        x1 = VarId("X", 1)
        # parents ordered (X@0, Z@1): rows 00, 01, 10, 11
        rows = m.cpts[x1]
        assert rows[0] == pytest.approx(p.spontaneous)
        assert rows[1] == pytest.approx(p.edge_strength)
        assert rows[2] == pytest.approx(p.persistence)


PIN_PARAMS = (DbnParams(), DbnParams(spontaneous=0.1, persistence=0.7, edge_strength=0.6,
                                     root_activation=0.3, confounder_prior=0.25,
                                     confounder_strength=0.9))
PIN_PATTERN = (True, False, False, True, True, False)


def pinned_grid(topology: Topology, per_slice_confounder: bool):
    """1-16 slices; default, explicit and alternating schedules; two DbnParams."""
    for slices in range(1, 17):
        for schedule in (None, tuple(PIN_PATTERN[t % 6] for t in range(slices)),
                         tuple(t % 2 == 1 for t in range(slices))):
            for params in PIN_PARAMS:
                yield DbnSpec(topology, slices, schedule, params, per_slice_confounder)


def update_with_factors(digest, engine: DbnEngine):
    """Shape and bytes of `_init`, then of each distinct transition in order."""
    seen = set()
    for factor in [engine._init] + engine._trans:
        if id(factor) not in seen:
            seen.add(id(factor))
            digest.update(repr(factor.shape).encode())
            digest.update(factor.tobytes())


class TestPinnedTopologyBytes:
    """sha256 over the grid of `pinned_grid`, recorded before the topologies
    were read from `TACTIC_CAUSES` and slice 0 was built as a transition: a
    change to a parent's order, a CPT row, the declaration or topological
    order, or any bit of an engine factor fails here."""

    CELLS = [(topology, per) for topology in Topology for per in (False, True)]
    # per topology: (one global U, a U per slice); only confounded-c has a U
    MODELS = {
        "chain-a": ("18d048d1ea912fc6d87428bf6bd767f148875bcb02ffc455b86793910745b7e1",) * 2,
        "fork-b": ("d23029462ff3321d06c713692cc45654405432a1569178787ec2ab5229ec6c2d",) * 2,
        "confounded-c": ("2fdee6ad57ad6c082a1e3bee4164c8796aa7e89856ff791b57eb2aaeed3bde14",
                         "72777d06a7e5742ed0b97b0902d99504e5c93798f67613702304d6155b50c7a7"),
    }
    FACTORS = {
        "chain-a": ("9b0a9dc2845d139c0180a3ac54069cb6dcafbff05b72af2e6595b126708f232e",) * 2,
        "fork-b": ("020d90e81e8a6ad7edc6f0362f1f7a13af80a11f6ddefedc7c55ba9b9ad1ebb5",) * 2,
        "confounded-c": ("81ebf4ececb92a3466c33ad21087c2d45e3e0b8663d041433ba5af6ed85ef10b",
                         "7513567400fe7600070bcd0e82ae48ef930530a1844c66742bbce55ed9a71a28"),
    }

    @pytest.mark.parametrize("topology,per_slice_confounder", CELLS, ids=str)
    def test_saved_models_and_order(self, topology, per_slice_confounder):
        digest = hashlib.sha256()
        for spec in pinned_grid(topology, per_slice_confounder):
            m = build_topology(spec)
            digest.update(save_model(m).encode())
            digest.update(" ".join(map(str, m.order)).encode())
        assert digest.hexdigest() == self.MODELS[topology.value][per_slice_confounder]

    # the same digest of slices 17, 40, 64 and 508 with default DbnParams and
    # the default or PIN_PATTERN schedule: detect-logs builds up to about 70
    # slices and the loop's window w + L
    LONG_MODELS = {
        "chain-a": ("544b118f4523aae6fef44a12193f707e1bdb5c3bdc1151292995ff2647868e9e",) * 2,
        "fork-b": ("ad22fbc3fa4a3e2f40b3191f772a97ee2f87461917314daeab9ed95f8be441ff",) * 2,
        "confounded-c": ("88fd8cafcf21c84091b089e1ce76fcaca8638648b8ad48c2d4b1a596e3f070ad",
                         "9e7afd85d3db2f1d0b69f7df63146ef56f55bae755d63d17734713713be7f2e7"),
    }

    @pytest.mark.parametrize("topology,per_slice_confounder", CELLS, ids=str)
    def test_long_unrollings(self, topology, per_slice_confounder):
        digest = hashlib.sha256()
        for slices in (17, 40, 64, 508):
            for schedule in (None, tuple(PIN_PATTERN[t % 6] for t in range(slices))):
                m = build_topology(DbnSpec(topology, slices, schedule,
                                           per_slice_confounder=per_slice_confounder))
                digest.update(save_model(m).encode())
                digest.update(" ".join(map(str, m.order)).encode())
        assert digest.hexdigest() == self.LONG_MODELS[topology.value][per_slice_confounder]

    @pytest.mark.parametrize("topology,per_slice_confounder", CELLS, ids=str)
    def test_engine_factors(self, topology, per_slice_confounder):
        digest = hashlib.sha256()
        for spec in pinned_grid(topology, per_slice_confounder):
            m = build_topology(spec)
            update_with_factors(digest, DbnEngine(m))
            update_with_factors(digest, DbnEngine(attach_emissions(m, 0.1, 0.05)))
        assert digest.hexdigest() == self.FACTORS[topology.value][per_slice_confounder]


class TestMarginal:
    def test_chain_marginals(self, chain_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        assert marginal(chain_example, {X: 1}) == pytest.approx(0.5 * 0.9 + 0.5 * 0.1)
        assert marginal(chain_example, {Y: 1}) == pytest.approx(0.5)

    def test_empty_query_is_one(self, chain_example):
        assert marginal(chain_example, {}) == pytest.approx(1.0)

    def test_agrees_with_bruteforce_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            m = random_dag_model(rng)
            q = {v: rng.randrange(2) for v in m.variables if rng.random() < 0.5}
            assert marginal(m, q) == pytest.approx(oracle_marginal(m, q), abs=1e-12)

    def test_too_large_guard(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 8))  # 24 variables
        with pytest.raises(TooLargeError):
            marginal(m, {})

    def test_unknown_variable_rejected(self, chain_example):
        with pytest.raises(SpecError, match="unknown variable"):
            marginal(chain_example, {VarId("Q"): 1})


class TestObservational:
    def test_chain_conditional(self, chain_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        assert observational(chain_example, {Y: 1}, {X: 1}) == pytest.approx(0.8)

    def test_empty_given_is_marginal(self, chain_example):
        Y = VarId("Y", 0)
        assert observational(chain_example, {Y: 1}, {}) == marginal(chain_example, {Y: 1})

    def test_zero_evidence_guard(self):
        A, B = VarId("A"), VarId("B")
        m = Cgm(variables=(A, B), parents={A: (), B: (A,)},
                cpts={A: (1.0,), B: (0.5, 0.5)})
        with pytest.raises(ZeroEvidenceError):
            observational(m, {B: 1}, {A: 0})

    def test_conflicting_target_and_given_is_zero(self, chain_example):
        X = VarId("X", 0)
        assert observational(chain_example, {X: 0}, {X: 1}) == 0.0

    def test_d_separation_in_chain(self, chain_example):
        Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
        base = observational(chain_example, {Y: 1}, {X: 1})
        for z in (0, 1):
            assert observational(chain_example, {Y: 1}, {X: 1, Z: z}) == pytest.approx(
                base, abs=1e-15)

    def test_latent_evidence_rejected(self, confounded_example):
        U, Y = VarId("U"), VarId("Y", 0)
        with pytest.raises(LatentEvidenceError):
            observational(confounded_example, {Y: 1}, {U: 1})


class TestDoTransform:
    def test_point_mass_and_untouched_cpts(self, chain_example):
        Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
        mut = do_transform(chain_example, {X: 1})
        assert mut.parents[X] == ()
        assert marginal(mut, {X: 1}) == 1.0
        assert mut.cpts[Z] == chain_example.cpts[Z]
        assert mut.cpts[Y] == chain_example.cpts[Y]

    def test_do_on_parentless_replaces_only_cpt(self, chain_example):
        Z = VarId("Z", 0)
        mut = do_transform(chain_example, {Z: 0})
        assert mut.cpts[Z] == (0.0,)
        assert mut.parents[Z] == ()

    def test_latent_intervention_rejected(self, confounded_example):
        with pytest.raises(LatentInterventionError):
            do_transform(confounded_example, {VarId("U"): 1})


class TestInterventional:
    def test_chain_do_equals_observe(self, chain_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        assert interventional(chain_example, {Y: 1}, {X: 1}) == pytest.approx(0.8, abs=1e-12)

    def test_confounding_gap(self, confounded_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        obs = observational(confounded_example, {Y: 1}, {X: 1})
        act = interventional(confounded_example, {Y: 1}, {X: 1})
        assert obs == pytest.approx(0.9, abs=1e-12)
        assert act == pytest.approx(0.5, abs=1e-12)

    def test_parentless_do_identity_fuzz(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            m = random_dag_model(rng)
            roots = [v for v in m.variables if not m.parents.get(v)]
            if not roots:
                continue
            v = rng.choice(roots)
            value = rng.randrange(2)
            target_var = rng.choice([w for w in m.variables if w != v])
            target = {target_var: rng.randrange(2)}
            try:
                obs = observational(m, target, {v: value})
            except ZeroEvidenceError:
                continue
            act = interventional(m, target, {v: value})
            assert abs(obs - act) <= 1e-12
            checked += 1
        assert checked > 30

    def test_evidence_must_precede_intervention(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 3))
        Y2, X1, Z1, Z0 = VarId("Y", 2), VarId("X", 1), VarId("Z", 1), VarId("Z", 0)
        # evidence strictly before the do slice is fine
        interventional(m, {Y2: 1}, {X1: 0}, {Z0: 1})
        with pytest.raises(EvidenceOrderingError):
            interventional(m, {Y2: 1}, {X1: 0}, {Z1: 1})

    @pytest.mark.parametrize("evidence", [{}, {VarId("X", 0): 1}, {VarId("X", 4): 1}],
                             ids=["none", "before", "after"])
    def test_latent_intervention_named_before_the_evidence_order(self, evidence):
        """A do on the global latent U is refused as latent, with or without
        evidence, before the evidence's slices are compared with the do's."""
        m = build_topology(DbnSpec(Topology.CONFOUNDED_C, 6))
        with pytest.raises(LatentInterventionError, match="^cannot intervene on latent U$"):
            interventional(m, {VarId("Y", 3): 1}, {VarId("U"): 1}, evidence)

    def test_sliceless_do_with_evidence_rejected(self, confounded_example):
        X, Y = VarId("X", 0), VarId("Y", 0)
        m = random_dag_model(random.Random(1))
        v0, v1, v2 = m.variables[0], m.variables[1], m.variables[2]
        with pytest.raises(EvidenceOrderingError):
            interventional(m, {v2: 1}, {v1: 1}, {v0: 1})
        # latent evidence is refused as latent first, as `observational` refuses it
        with pytest.raises(LatentEvidenceError):
            interventional(confounded_example, {Y: 1}, {X: 1}, {VarId("U"): 1})


class TestSample:
    def test_zero_samples(self, chain_example):
        assert sample(chain_example, 0, seed=1) == []

    def test_empirical_marginal_within_3_sigma(self, chain_example):
        X = VarId("X", 0)
        n = 100_000
        draws = sample(chain_example, n, seed=5)
        freq = sum(d[X] for d in draws) / n
        sigma = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) < 3 * sigma

    def test_deterministic_cpts_identical_samples(self):
        A, B = VarId("A"), VarId("B")
        m = Cgm(variables=(A, B), parents={A: (), B: (A,)},
                cpts={A: (1.0,), B: (0.0, 1.0)})
        draws = sample(m, 50, seed=9)
        assert all(d == {A: 1, B: 1} for d in draws)

    def test_same_seed_same_samples(self, chain_example):
        assert sample(chain_example, 20, seed=3) == sample(chain_example, 20, seed=3)

    def test_empirical_marginals_within_4_sigma_fuzz(self):
        rng = random.Random(61)
        n = 50_000
        for case in range(3):
            m = random_dag_model(rng, n_vars=4)
            draws = sample(m, n, seed=case)
            for v in m.variables:
                expected = marginal(m, {v: 1})
                freq = sum(d[v] for d in draws) / n
                sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
                assert abs(freq - expected) <= 4 * sigma + 1e-9

    def test_latent_flagged_but_included(self, confounded_example):
        draws = sample(confounded_example, 5, seed=2)
        assert all(VarId("U") in d for d in draws)
        assert VarId("U") in confounded_example.latent


class TestSmooth:
    """Smoothing is `DbnEngine.posteriors`, against `observational` and the
    enumeration oracle."""

    def test_single_slice_reduces_to_observational(self, chain_example):
        Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
        post = posterior_dict(DbnEngine(chain_example), {X: 1})
        assert post[Y] == pytest.approx(observational(chain_example, {Y: 1}, {X: 1}),
                                        abs=1e-12)
        assert post[Z] == pytest.approx(observational(chain_example, {Z: 1}, {X: 1}),
                                        abs=1e-12)

    def test_deterministic_emission_pins_posterior(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 2))
        ext = attach_emissions(m, miss=0.0, false_pos=0.0)
        evidence = {emission_var(VarId("X", t)): 1 for t in range(2)}
        post = posterior_dict(DbnEngine(ext), evidence)
        for t in range(2):
            assert post[VarId("X", t)] == pytest.approx(1.0, abs=1e-12)

    def test_three_slice_chain_matches_bruteforce(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 3))
        ext = attach_emissions(m, miss=0.2, false_pos=0.05)
        rng = random.Random(77)
        evidence = {emission_var(VarId(name, t)): rng.randrange(2)
                    for name in ("Z", "X", "Y") for t in range(3)}
        post = posterior_dict(DbnEngine(ext), evidence)
        X1 = VarId("X", 1)
        expected = oracle_conditional(ext, {X1: 1}, evidence)
        assert post[X1] == pytest.approx(expected, abs=1e-12)
        # and every variable, not just the example one
        for v in post:
            assert post[v] == pytest.approx(oracle_conditional(ext, {v: 1}, evidence),
                                            abs=1e-12)

    def test_posteriors_in_unit_interval_and_complementary(self):
        m = build_topology(DbnSpec(Topology.FORK_B, 3))
        ext = attach_emissions(m, 0.2, 0.05)
        rng = random.Random(3)
        evidence = {emission_var(VarId(name, t)): rng.randrange(2)
                    for name in ("Z", "X", "Y") for t in range(3)}
        engine = DbnEngine(ext)
        for v, p in posterior_dict(engine, evidence).items():
            assert 0.0 <= p <= 1.0
            p0 = engine.conditional({v: 0}, evidence)
            assert p + p0 == pytest.approx(1.0, abs=1e-12)

    def test_too_many_slices_guard(self):
        check_smoothing_slices(16)
        with pytest.raises(TooLargeError):
            check_smoothing_slices(17)

    def test_model_the_engine_refuses_is_enumerated(self):
        # A@2 depends on A@0, skipping a slice, so the engine cannot run it
        A0, A1, A2 = VarId("A", 0), VarId("A", 1), VarId("A", 2)
        m = Cgm(variables=(A0, A1, A2), parents={A1: (A0,), A2: (A0,)},
                cpts={A0: (0.3,), A1: (0.2, 0.7), A2: (0.4, 0.9)})
        with pytest.raises(TooLargeError):
            DbnEngine(m)
        for evidence in ({}, {A1: 1}, {A2: 0}):
            for v in {A0, A1, A2} - set(evidence):
                assert observational(m, {v: 1}, evidence) == pytest.approx(
                    oracle_conditional(m, {v: 1}, evidence), abs=1e-12)

    def test_zero_evidence(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 2))
        ext = attach_emissions(m, miss=0.0, false_pos=0.0)
        X0 = VarId("X", 0)
        obs0 = emission_var(X0)
        with pytest.raises(ZeroEvidenceError):
            DbnEngine(ext).posteriors({X0: 0, obs0: 1})  # impossible under exact emission


class TestEngineAgreement:
    def test_engine_matches_enumeration_on_all_topologies(self):
        rng = random.Random(99)
        for topology in Topology:
            spec = DbnSpec(topology, 3)
            m = build_topology(spec)
            ext = attach_emissions(m, 0.3, 0.1)
            engine = DbnEngine(ext)
            tactic = [v for v in m.variables if v.slice is not None]
            obs = [emission_var(v) for v in tactic]
            for _ in range(5):
                evidence = {v: rng.randrange(2) for v in obs if rng.random() < 0.7}
                ll = engine.loglik(evidence)
                assert math.exp(ll) == pytest.approx(oracle_marginal(ext, evidence),
                                                     rel=1e-10)
                post = posterior_dict(engine, evidence)
                probe = rng.choice(tactic)
                assert post[probe] == pytest.approx(
                    oracle_conditional(ext, {probe: 1}, evidence), abs=1e-12)

    def test_normalization_fuzz_random_cpts(self):
        rng = random.Random(5)
        for case in range(50):
            topology = list(Topology)[case % 3]
            m = build_topology(DbnSpec(topology, 1 + case % 2))
            cpts = {v: tuple(rng.random() for _ in m.cpts[v]) for v in m.variables}
            randomized = Cgm(variables=m.variables, parents=m.parents,
                             cpts=cpts, latent=m.latent)
            total = 0.0
            for bits in itertools.product((0, 1), repeat=len(randomized.variables)):
                total += oracle_joint(randomized, dict(zip(randomized.variables, bits)))
            assert total == pytest.approx(1.0, abs=1e-9)
            assert marginal(randomized, {}) == pytest.approx(1.0, abs=1e-9)


def with_a_cpt_for_no_variable(make) -> Cgm:
    """The model `make()` builds, with one more CPT, for a variable it lacks."""
    m = make()
    return Cgm(variables=m.variables, parents=m.parents,
               cpts={**m.cpts, VarId("W", 0): (0.5,)}, latent=m.latent)


@st.composite
def library_models(draw):
    """A call that builds a model from the library side, as a `partial`:
    `build_topology` (every topology, with and without a per-slice
    confounder), `do_transform` or `attach_emissions` of such a model (noise
    in or out of [0,1]), or `random_dag_model`; sometimes with one more CPT,
    for a variable the model lacks."""
    spec = DbnSpec(draw(st.sampled_from(Topology)), draw(st.integers(1, 6)),
                   per_slice_confounder=draw(st.booleans()))
    how = draw(st.sampled_from(["build", "do", "emissions", "random"]))
    if how == "build":
        make = partial(build_topology, spec)
    elif how == "do":
        m = build_topology(spec)
        free = [v for v in m.variables if v not in m.latent]
        make = partial(do_transform, m, draw(st.dictionaries(st.sampled_from(free),
                                                             st.integers(0, 1))))
    elif how == "emissions":
        noise = st.floats(0.0, 1.0) | st.sampled_from([-0.0, -0.5, 1.5, math.nan])
        make = partial(attach_emissions, build_topology(spec), draw(noise), draw(noise))
    else:
        make = partial(random_dag_model, random.Random(draw(st.integers(0, 2 ** 32))),
                       draw(st.integers(1, 8)), draw(st.floats(0.0, 1.0)))
    return partial(with_a_cpt_for_no_variable, make) if draw(st.booleans()) else make


class TestModelIO:
    @settings(max_examples=300, deadline=None)
    @given(make=library_models())
    def test_a_saved_model_loads_back_or_cgm_refused_it(self, make):
        """What `save_model` writes, `load_model` reads back to the same
        model: the same `model_to_obj` and the same CPT keys."""
        try:
            m = make()
        except SpecError:
            return
        loaded = load_model(save_model(m))
        assert model_to_obj(loaded) == model_to_obj(m)
        assert loaded.cpts.keys() == m.cpts.keys()

    def test_model_round_trip(self, confounded_example):
        text = save_model(confounded_example)
        loaded = load_model(text)
        assert loaded == confounded_example

    def test_built_model_round_trip(self):
        m = build_topology(DbnSpec(Topology.CONFOUNDED_C, 3))
        assert load_model(save_model(m)) == m

    def test_spec_round_trip(self):
        spec = DbnSpec(Topology.FORK_B, 5, params=DbnParams(edge_strength=0.7))
        assert load_spec(indented_json(spec_to_obj(spec))) == spec

    def test_spec_schedule_takes_booleans_and_0_1(self):
        text = json.dumps({"topology": "confounded-c", "slices": 3, "schedule": [1, False, True],
                           "per_slice_confounder": True})
        spec = load_spec(text)
        assert spec.schedule == (True, False, True) and spec.per_slice_confounder is True
        assert load_spec('{"topology": "chain-a", "slices": 2, "schedule": null}').schedule is None

    def test_model_cpt_entries_take_ints(self):
        text = json.dumps({"variables": [{"name": "A", "latent": False}, {"name": "B"}],
                           "parents": {"B": ["A"]}, "cpts": {"A": [1], "B": [0, 0.5]}})
        m = load_model(text)
        assert m.cpts[VarId("A")] == (1.0,) and not m.latent

    @pytest.mark.parametrize("doc,where", [
        ({"topology": "chain-a", "slices": 10 ** 400}, "slices"),
        ({"topology": "chain-a", "slices": 2, "params": {"persistence": 10 ** 400}},
         "params.persistence"),
        ({"topology": "confounded-c", "slices": 2, "schedule": [1, 10 ** 400]}, "schedule[1]"),
    ], ids=["slices", "param", "schedule"])
    def test_a_spec_integer_too_large_for_a_float_is_a_parse_error(self, doc, where):
        with pytest.raises(ParseError, match=rf"^{re.escape(where)} must be "):
            load_spec(json.dumps(doc))

    @pytest.mark.parametrize("path", [("cpts", "Z@0", 0), ("variables", 0, "slice")])
    def test_a_model_integer_too_large_for_a_float_is_a_parse_error(self, path):
        doc = with_value(model_to_obj(build_topology(DbnSpec(Topology.CHAIN_A, 1))), path,
                         10 ** 400)
        with pytest.raises(ParseError, match=rf"^{re.escape(json_path(path))} must be "):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        json.dumps({"variables": [{"name": "X", "slice": -1}], "parents": {},
                    "cpts": {"X@-1": [0.5]}}),
        json.dumps({"variables": [{"name": "X", "slice": -1}], "parents": {}, "cpts": {}}),
        # what `save_model` wrote for such a model when `Cgm` took it
        json.dumps({"variables": [{"name": "X", "slice": -1, "latent": False}],
                    "parents": {"X@-1": []}, "cpts": {"X@-1": [0.5]}}),
    ], ids=["cpt-key", "no-cpt", "saved"])
    def test_a_negative_slice_is_refused_where_it_is_read(self, text):
        with pytest.raises(ParseError,
                           match=r"^variables\[0\]\.slice must be an integer >= 0 or null$"):
            load_model(text)

    @pytest.mark.parametrize("variable,refusal,read", [
        (VarId("X", -1), "slice of X@-1 must be an int >= 0 or None, got -1",
         "variables[0].slice must be an integer >= 0 or null"),
        (VarId("X", True), "slice of X@True must be an int >= 0 or None, got True",
         "variables[0].slice must be an integer"),
        (VarId(""), "variable 0 must have a non-empty str name, got ''",
         "variables[0].name must not be empty"),
    ], ids=["negative", "bool", "empty"])
    def test_cgm_refuses_a_variable_that_load_model_refuses(self, variable, refusal, read):
        """`Cgm` builds no model that `save_model` would write and
        `load_model` refuse, and `load_model` keeps its own message."""
        model = (variable, VarId("Y", 0))
        with pytest.raises(SpecError, match=f"^{re.escape(refusal)}$"):
            Cgm(variables=model, parents={}, cpts=dict.fromkeys(model, (0.5,)))
        doc = {"variables": [{"name": v.name, "slice": v.slice, "latent": False} for v in model],
               "parents": {}, "cpts": {}}
        with pytest.raises(ParseError, match=f"^{re.escape(read)}$"):
            load_model(json.dumps(doc))

    def test_a_cpt_key_that_names_no_variable_is_refused(self):
        """`Cgm` refuses a CPT for a variable it does not declare, which a
        query could otherwise name and `save_model` would drop; an extra
        `parents` key is read by nothing and stays allowed. `load_model`
        refuses such a file first, with its own message."""
        X, Y = VarId("X"), VarId("Y")
        with pytest.raises(SpecError, match="^CPT key Y is not a model variable$"):
            Cgm(variables=(X,), parents={}, cpts={X: (0.5,), Y: (0.3,)})
        assert Cgm(variables=(X,), parents={Y: (X,)}, cpts={X: (0.5,)}).order == (X,)
        doc = {"variables": [{"name": "X"}], "parents": {}, "cpts": {"X": [0.5], "Y": [0.3]}}
        with pytest.raises(ParseError, match="^model 'cpts' names undeclared variable 'Y'$"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("path,where", [
        (("sloces",), "the document"), (("params", "bogus"), "params")])
    def test_an_unknown_spec_key_is_refused(self, path, where):
        doc = with_value(spec_to_obj(DbnSpec(Topology.CHAIN_A, 2)), path, 5)
        with pytest.raises(ParseError, match=rf"^unknown key\(s\) in {where}: {path[-1]} "):
            load_spec(json.dumps(doc))

    @pytest.mark.parametrize("path,where", [(("note",), "the document"),
                                            (("variables", 0, "note"), "variables[0]")])
    def test_an_unknown_model_key_is_refused(self, path, where):
        doc = with_value(model_to_obj(build_topology(DbnSpec(Topology.CHAIN_A, 1))), path, 1)
        with pytest.raises(ParseError, match=rf"^unknown key\(s\) in {re.escape(where)}: note "):
            load_model(json.dumps(doc))

    def test_parse_assignment_bare_and_qualified(self, chain_example):
        a = parse_assignment(chain_example, "Y=1,X@0=0")
        assert a == {VarId("Y", 0): 1, VarId("X", 0): 0}

    def test_parse_assignment_ambiguous(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 2))
        with pytest.raises(ParseError, match="ambiguous"):
            parse_assignment(m, "Y=1")

    SPEC = spec_to_obj(DbnSpec(Topology.CONFOUNDED_C, 4, schedule=(True, False),
                               per_slice_confounder=True))
    MODEL = model_to_obj(build_topology(DbnSpec(Topology.CONFOUNDED_C, 2)))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), mutated(json.dumps(SPEC)), json_mutated(SPEC)))
    def test_spec_text_loads_and_builds_or_raises_parse_error(self, text):
        try:
            spec = load_spec(text)
        except (ParseError, ValidationError):
            return
        assert spec.slices >= 1
        build_topology(spec.with_slices(2))  # a spec that loads unrolls

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), mutated(json.dumps(MODEL)), json_mutated(MODEL)))
    def test_model_text_loads_or_raises_parse_error(self, text):
        try:
            load_model(text)
        except (ParseError, ValidationError):
            pass


def wave_order(variables, parents) -> tuple:
    """The wave-by-wave order `Cgm` computed before its O(V + E) sort, kept
    as the oracle: each wave takes, in declaration order, every pending
    variable whose parents were all placed in earlier waves."""
    out: list = []
    pending = list(variables)
    while pending:
        placed = set(out)
        wave = [v for v in pending if set(parents.get(v, ())) <= placed]
        if not wave:
            raise SpecError("parent relation contains a cycle")
        out += wave
        pending = [v for v in pending if v not in set(wave)]
    return tuple(out)


@st.composite
def parent_relations(draw, cyclic: bool):
    """(variables, parents) of a random DAG in shuffled declaration order;
    with `cyclic`, one back edge closes a cycle (possibly a self-loop)."""
    n = draw(st.integers(1, 12))
    variables = [VarId(f"V{i}", draw(st.none() | st.integers(0, 3))) for i in range(n)]
    rank = draw(st.permutations(range(n)))  # a hidden topological order
    parents = {}
    for i, v in enumerate(variables):
        earlier = [variables[j] for j in range(n) if rank[j] < rank[i]]
        chosen = draw(st.lists(st.sampled_from(earlier), unique=True)) if earlier else []
        if chosen or draw(st.booleans()):
            parents[v] = tuple(chosen)
    if cyclic:
        k = draw(st.integers(0, n - 1))
        i = draw(st.sampled_from([j for j in range(n) if rank[j] <= rank[k]]))
        if i != k and variables[i] not in parents.get(variables[k], ()):
            parents[variables[k]] = (*parents.get(variables[k], ()), variables[i])
        parents[variables[i]] = (*parents.get(variables[i], ()), variables[k])
    return variables, parents


def cpts_for(variables, parents) -> dict:
    return {v: (0.5,) * 2 ** len(parents.get(v, ())) for v in variables}


class TestTopologicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(parent_relations(cyclic=False))
    def test_equals_wave_order_on_random_dags(self, relation):
        variables, parents = relation
        m = Cgm(variables=tuple(variables), parents=parents,
                cpts=cpts_for(variables, parents))
        assert m.order == wave_order(variables, parents)

    @settings(max_examples=200, deadline=None)
    @given(parent_relations(cyclic=True))
    def test_cycle_raises_spec_error(self, relation):
        variables, parents = relation
        with pytest.raises(SpecError, match="cycle"):
            wave_order(variables, parents)
        with pytest.raises(SpecError, match="cycle"):
            Cgm(variables=tuple(variables), parents=parents,
                cpts=cpts_for(variables, parents))

    def test_built_topologies_keep_wave_order(self):
        for topology in Topology:
            for per_slice in (False, True):
                m = attach_emissions(build_topology(
                    DbnSpec(topology, 6, per_slice_confounder=per_slice)), 0.2, 0.05)
                assert m.order == wave_order(m.variables, m.parents)


class CountingParents(collections.abc.Mapping):
    """A parent map that counts each variable's `.get`."""

    def __init__(self, parents: dict):
        self.parents = parents
        self.gets = collections.Counter()

    def __getitem__(self, v):
        return self.parents[v]

    def __iter__(self):
        return iter(self.parents)

    def __len__(self):
        return len(self.parents)

    def get(self, v, default=None):
        self.gets[v] += 1
        return self.parents.get(v, default)


def slice_chain(sizes: list[int], back: dict | None = None) -> Cgm:
    """Slices of `sizes[t]` variables `V{i}@t`, each with its previous-slice
    copy as parent; `back` maps a variable to a parent two slices back."""
    parents = {}
    for t, n in enumerate(sizes):
        for i in range(n):
            v = VarId(f"V{i}", t)
            parents[v] = (VarId(f"V{i}", t - 1),) if t and i < sizes[t - 1] else ()
    for v, p in (back or {}).items():
        parents[v] = (p,)
    variables = tuple(parents)
    return Cgm(variables=variables, parents=parents, cpts=cpts_for(variables, parents))


MODEL_FAULTS = ("cycle", "duplicate", "unknown parent", "short CPT", "entry", "unknown CPT",
                "unknown latent")


@st.composite
def faulty_models(draw):
    """(variables, parents, cpts, latent) of a random model in shuffled
    declaration order, so that parents come late, maybe with a parent listed
    twice, and either sound or with any combination of `MODEL_FAULTS`; a
    cycle may be a self-loop."""
    faults = draw(st.just(frozenset()) | st.frozensets(st.sampled_from(MODEL_FAULTS), min_size=1))
    variables, parents = draw(parent_relations(cyclic="cycle" in faults))
    parents = {v: list(ps) for v, ps in parents.items()}
    listed = [v for v, ps in parents.items() if ps]
    if listed and draw(st.booleans()):
        ps = parents[draw(st.sampled_from(listed))]
        ps.insert(draw(st.integers(0, len(ps))), draw(st.sampled_from(ps)))
    if "unknown parent" in faults:
        ps = parents.setdefault(draw(st.sampled_from(variables)), [])
        ps.insert(draw(st.integers(0, len(ps))), VarId("Q"))
    cpts = {v: [0.5] * 2 ** len(parents.get(v, ())) for v in variables}
    if "entry" in faults:
        rows = cpts[draw(st.sampled_from(variables))]
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from([-0.5, 1.5, math.nan]))
    if "short CPT" in faults:
        rows = cpts[draw(st.sampled_from(variables))]
        del rows[draw(st.integers(0, len(rows) - 1)):]
    if "unknown CPT" in faults:
        cpts[VarId("C")] = [0.5]
    latent = set(draw(st.lists(st.sampled_from(variables))))
    if "unknown latent" in faults:
        latent.add(VarId("L"))
    if "duplicate" in faults:
        variables.insert(draw(st.integers(0, len(variables))), draw(st.sampled_from(variables)))
    return (tuple(variables), {v: tuple(ps) for v, ps in parents.items()},
            {v: tuple(rows) for v, rows in cpts.items()}, frozenset(latent))


class TestOneWalk:
    """A model is checked in the walk that orders it, and an engine's slices
    in the walk that keys their transitions: each reads a variable's parents
    once, and the first fault found is the one reported, in the order the
    separate walks found them."""

    A, B, L, Q = (VarId(n) for n in "ABLQ")

    @pytest.mark.parametrize("variables, parents, cpts, latent, message", [
        ((A, B, B), {A: (Q,)}, {A: (0.5, 0.5), B: (0.5,)}, (),
         "duplicate variable B"),
        ((A,), {A: (Q,)}, {A: (0.5,)}, (), "parent Q of A is not a model variable"),
        ((A, B), {B: (Q,)}, {A: (0.5, 0.5), B: (0.5, 0.5)}, (), "CPT for A must have 1 rows"),
        ((A, B), {B: (A, Q)}, {A: (0.5,), B: (0.5,) * 4}, (),
         "parent Q of B is not a model variable"),
        ((A,), {}, {A: (1.5,)}, (L,), r"CPT entry out of \[0,1\] for A: 1.5"),
        ((A, B), {A: (B,), B: (A,)}, {A: (0.5, 0.5), B: (0.5, 0.5)}, (L,),
         "latent L is not a model variable"),
        ((A,), {}, {Q: (0.5,), A: (1.5,)}, (), r"CPT entry out of \[0,1\] for A: 1.5"),
        ((A,), {}, {A: (0.5,), Q: (0.5,)}, (L,), "CPT key Q is not a model variable"),
    ], ids=["duplicate+parent", "parent+short-cpt", "short-cpt+later-parent",
            "unknown-after-known-parent", "entry+latent", "latent+cycle", "entry+cpt-key",
            "cpt-key+latent"])
    def test_first_fault_of_a_model(self, variables, parents, cpts, latent, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            Cgm(variables=variables, parents=parents, cpts=cpts, latent=frozenset(latent))

    @settings(max_examples=400, deadline=None)
    @given(faulty_models())
    def test_first_fault_and_order_match_kahns_walk(self, model):
        try:
            order = kahn_checked_order(*model)
        except SpecError as fault:
            with pytest.raises(SpecError) as raised:
                Cgm(*model)
            assert str(raised.value) == str(fault)
        else:
            assert Cgm(*model).order == order

    def test_a_parent_listed_twice(self):
        """B: (A, A) reads rows 0 and 3 of its 4-row CPT; its one parent
        counts as two edges in the order and in the engine."""
        A, B, C = (VarId(n, 0) for n in "ABC")
        parents = {B: (A, A), C: (B,)}
        m = Cgm(variables=(C, B, A), parents=parents,
                cpts={A: (0.3,), B: (0.1, 0.5, 0.5, 0.9), C: (0.2, 0.6)})
        assert m.order == wave_order(m.variables, parents) == (A, B, C)
        expected = marginal(m, {A: 1, C: 1}) / marginal(m, {C: 1})
        assert DbnEngine(m).conditional({A: 1}, {C: 1}) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sizes, back, message", [
        ([1, 1, 1, 9], {VarId("V0", 2): VarId("V0", 0)},
         "model is not slice-structured: V0@2 depends on V0@0"),
        ([1, 1, 9, 1], {VarId("V0", 3): VarId("V0", 1)},
         "slice 2 has 9 variables; engine limit is 8"),
    ], ids=["offset-then-size", "size-then-offset"])
    def test_first_fault_of_a_slice(self, sizes, back, message):
        with pytest.raises(TooLargeError, match=f"^{message}$"):
            DbnEngine(slice_chain(sizes, back))

    @pytest.mark.parametrize("spec", [
        DbnSpec(Topology.CHAIN_A, 6),
        DbnSpec(Topology.CONFOUNDED_C, 6),
        DbnSpec(Topology.CONFOUNDED_C, 6, per_slice_confounder=True),
    ], ids=["chain-a", "confounded-c", "confounded-c-per-slice"])
    def test_parents_read_once_per_walk(self, spec, monkeypatch):
        m = build_topology(spec)
        parents = CountingParents(m.parents)
        counted = Cgm(variables=m.variables, parents=parents, cpts=m.cpts, latent=m.latent)
        assert parents.gets == collections.Counter(m.variables)

        built = []
        slice_factor = DbnEngine._slice_factor
        monkeypatch.setattr(DbnEngine, "_slice_factor",
                            lambda self, t: built.append(t) or slice_factor(self, t))
        parents.gets.clear()
        engine = DbnEngine(counted)
        expected = collections.Counter(m.variables)
        for t in built:
            expected.update(engine.slice_vars[t] + (engine.globals if t == 0 else []))
        assert built[0] == 0 and len(built) == len(set(built)) < spec.slices
        assert parents.gets == expected


# CPT entries of exactly 0 and 1: no spontaneous activation, certain
# persistence and confounding, exact detection of active tactics
HARD = DbnParams(spontaneous=0.0, persistence=1.0, edge_strength=0.8,
                 root_activation=0.5, confounder_prior=0.5, confounder_strength=1.0)


class TestSinglePassConditional:
    def test_impossible_evidence_raises(self):
        m = attach_emissions(build_topology(DbnSpec(Topology.CHAIN_A, 3)), 0.0, 0.0)
        X0 = VarId("X", 0)
        with pytest.raises(ZeroEvidenceError):
            DbnEngine(m).conditional({VarId("Y", 2): 1}, {X0: 0, emission_var(X0): 1})

    def test_contradictory_target_is_zero(self):
        m = attach_emissions(build_topology(DbnSpec(Topology.CHAIN_A, 3)), 0.0, 0.0)
        engine = DbnEngine(m)
        Y2 = VarId("Y", 2)
        assert engine.conditional({Y2: 1}, {Y2: 0}) == 0.0
        # impossible evidence comes first: p(target | evidence) is undefined
        X0 = VarId("X", 0)
        with pytest.raises(ZeroEvidenceError):
            engine.conditional({Y2: 1}, {Y2: 0, X0: 0, emission_var(X0): 1})
        # a target the evidence rules out, without contradicting it
        assert engine.conditional({emission_var(Y2): 1}, {Y2: 0}) == 0.0


class TestObservationalRoutes:
    """`observational` sends a slice-structured model with more than 12 free
    variables to `DbnEngine.conditional` and enumerates the rest; each route
    must give the enumeration ratio, and raise ZeroEvidenceError for an
    impossible `given` before it looks at the target."""

    X0, Y2 = VarId("X", 0), VarId("Y", 2)

    @pytest.mark.parametrize("model, target, evidence", [
        ("chain5", {VarId("Y", 4): 1}, {X0: 1, VarId("Z", 3): 0}),
        ("chain5", {VarId("X", 4): 0, VarId("Y", 4): 1}, {VarId("Z", 1): 1, Y2: 0}),
        ("chain5", {VarId("Z", 1): 1}, {VarId("Y", 3): 1, X0: 0}),
        ("chain5", {VarId("X", 2): 1, VarId("Y", 4): 1}, {X0: 0, VarId("Y", 1): 1}),
        ("chain5", {Y2: 1}, {Y2: 0, X0: 1}),
        ("chain5", {}, {X0: 1, Y2: 1}),
        ("exact3", {X0: 1}, {X0: 0, emission_var(X0): 1}),
        ("example-do", {VarId("X", 0): 0}, {VarId("X", 0): 1}),
    ], ids=["last-slice", "last-slice-pair", "earlier", "across-slices", "contradictory",
            "empty", "engine-impossible", "enumeration-impossible"])
    def test_route_equals_enumeration_ratio(self, monkeypatch, chain_example, model, target,
                                            evidence):
        m = {"chain5": build_topology(DbnSpec(Topology.CHAIN_A, 5)),
             "exact3": attach_emissions(build_topology(DbnSpec(Topology.CHAIN_A, 3)), 0.0, 0.0),
             "example-do": do_transform(chain_example, {VarId("X", 0): 0})}[model]
        engine_route = len(m.variables) - len(evidence) > 12
        assert engine_route == (model != "example-do")
        pe = marginal(m, evidence)
        joint = _merged(target, evidence)
        expected = (ZeroEvidenceError if pe == 0.0
                    else marginal(m, joint) / pe if joint is not None else 0.0)

        def other_route(*args):
            raise AssertionError("the query took the other route")

        if engine_route:
            monkeypatch.setattr(causal, "marginal", other_route)
        else:
            monkeypatch.setattr(DbnEngine, "conditional", other_route)
        if expected is ZeroEvidenceError:
            assert joint is None  # the target contradicts `given` too
            with pytest.raises(ZeroEvidenceError):
                observational(m, target, evidence)
        else:
            assert observational(m, target, evidence) == pytest.approx(expected, abs=1e-12)


def oracle_posteriors(m: Cgm, evidence: dict) -> tuple[float, dict]:
    """p(evidence) and p(v = 1 | evidence) for every variable, summed over
    every full assignment that agrees with the evidence."""
    pe = 0.0
    on = {v: 0.0 for v in m.variables}
    for bits in itertools.product((0, 1), repeat=len(m.variables)):
        assignment = dict(zip(m.variables, bits))
        if any(assignment[v] != value for v, value in evidence.items()):
            continue
        p = oracle_joint(m, assignment)
        pe += p
        for v, value in assignment.items():
            if value:
                on[v] += p
    return pe, {v: p / pe for v, p in on.items()} if pe > 0 else {}


def confounded3(params: DbnParams, miss: float, false_pos: float) -> Cgm:
    return attach_emissions(build_topology(DbnSpec(Topology.CONFOUNDED_C, 3, params=params)),
                            miss, false_pos)


def three_globals() -> Cgm:
    """Slices of 2, 3 and 1 variables over three parentless globals (A
    latent), each slice variable reading a different pair of them."""
    A, B, C = VarId("A"), VarId("B"), VarId("C")
    P = [VarId("P", t) for t in range(3)]
    Q0, Q1, R1 = VarId("Q", 0), VarId("Q", 1), VarId("R", 1)
    parents = {A: (), B: (), C: (),
               P[0]: (A,), Q0: (P[0], B),
               P[1]: (P[0], A, C), Q1: (Q0, B), R1: (P[1], C),
               P[2]: (P[1], B)}
    cpts = {v: tuple(0.05 + 0.9 * ((7 * i + 3 * k) % 11) / 10 for k in range(2 ** len(ps)))
            for i, (v, ps) in enumerate(parents.items())}
    m = Cgm(variables=tuple(parents), parents=parents, cpts=cpts, latent=frozenset({A}))
    return attach_emissions(m, 0.1, 0.2)


class TestEngineEdges:
    """Parentless globals at the edges, against enumeration."""

    def check(self, m: Cgm, evidence: dict, target: VarId = VarId("Y", 2)):
        engine = DbnEngine(m)
        pe, expected = oracle_posteriors(m, evidence)
        Y2 = target
        if pe == 0.0:
            assert engine.loglik(evidence) == float("-inf")
            with pytest.raises(ZeroEvidenceError):
                engine.posteriors(evidence)
            with pytest.raises(ZeroEvidenceError):
                engine.conditional({Y2: 1}, evidence)
            return
        assert math.exp(engine.loglik(evidence)) == pytest.approx(pe, rel=1e-10)
        post = posterior_dict(engine, evidence)
        by_slice = sorted((v for v in m.order if v.slice is not None), key=lambda v: v.slice)
        globals_ = [v for v in m.variables if v.slice is None]
        assert list(post) == globals_ + by_slice  # globals first
        for v, p in post.items():
            assert p == pytest.approx(expected[v], abs=1e-12), v
        assert engine.conditional({Y2: 1}, evidence) == pytest.approx(expected[Y2], abs=1e-12)

    def random_evidence(self, m: Cgm, seed: int, observed=None) -> list[dict]:
        rng = random.Random(seed)
        obs = [v for v in m.variables if v.name.endswith("_obs")] + list(observed or ())
        return [{v: rng.randrange(2) for v in obs if rng.random() < 0.6} for _ in range(4)]

    def test_evidence_impossible_under_one_value_of_u(self):
        m = confounded3(HARD, 0.0, 0.1)
        U = VarId("U")
        X1_obs, Y0_obs = emission_var(VarId("X", 1)), emission_var(VarId("Y", 0))
        # U = 1 forces every X and Y on, and with no misses X_obs@1 = 0 rules it out
        self.check(m, {X1_obs: 0, Y0_obs: 1})
        assert posterior_dict(DbnEngine(m), {X1_obs: 0, Y0_obs: 1})[U] == 0.0
        for evidence in self.random_evidence(m, 1):
            self.check(m, evidence)

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_confounder_prior_at_the_edges(self, prior):
        m = confounded3(replace(DbnParams(), confounder_prior=prior), 0.2, 0.05)
        for evidence in self.random_evidence(m, 2):
            self.check(m, evidence)
        assert posterior_dict(DbnEngine(m), {})[VarId("U")] == prior

    def test_observed_global(self):
        hidden = confounded3(DbnParams(), 0.2, 0.05)
        m = Cgm(variables=hidden.variables, parents=hidden.parents, cpts=hidden.cpts)
        U = VarId("U")
        for evidence in self.random_evidence(m, 3, observed=[U]):
            self.check(m, evidence)
        for value in (0, 1):
            self.check(m, {U: value, emission_var(VarId("Y", 1)): 1})

    def test_sixteen_slices_far_below_the_smallest_double(self):
        benign = benign_model_like(build_topology(DbnSpec(Topology.CHAIN_A, 16)))
        m = attach_emissions(benign, 0.2, 1e-30)
        evidence = {emission_var(v): 1 for v in benign.variables}
        assert len(evidence) == 48
        engine = DbnEngine(m)
        assert engine.loglik(evidence) == pytest.approx(48 * math.log(1e-30), rel=1e-12)
        assert all(p == 0.0 for v, p in posterior_dict(engine, evidence).items()
                   if v in benign.variables)

    def test_evidence_far_below_the_smallest_double_on_a_forced_chain(self):
        """X is on at slice 0 and stays on, but all 16 frames read it off with
        a miss rate of 1e-30, so p(e) is about 1e-480. The backward pass must
        neither overflow on the X = 0 states the filter rules out nor
        underflow on the X = 1 states."""
        xs = [VarId("X", t) for t in range(16)]
        m = Cgm(variables=tuple(xs), parents={x: (xs[t - 1],) for t, x in enumerate(xs) if t},
                cpts={x: (0.0, 1.0) if t else (1.0,) for t, x in enumerate(xs)})
        engine = DbnEngine(m)
        likelihoods = engine.frame_likelihoods([{"X": 0}] * 16, 1e-30, 0.05)
        assert engine.loglik({}, likelihoods) == pytest.approx(16 * math.log(1e-30), rel=1e-12)
        assert list(posterior_dict(engine, {}, likelihoods).values()) == [1.0] * 16

    def test_three_globals_on_different_slice_sizes(self):
        m = three_globals()
        A, B, C, P2 = VarId("A"), VarId("B"), VarId("C"), VarId("P", 2)
        assert [v for v in m.variables if v.slice is None] == [A, B, C]
        self.check(m, {}, P2)
        for evidence in self.random_evidence(m, 4):
            self.check(m, evidence, P2)
        for evidence in self.random_evidence(m, 5, observed=[B, C]):
            self.check(m, evidence, P2)
        self.check(m, {B: 1, emission_var(VarId("R", 1)): 0}, P2)
        self.check(m, {A: 0, C: 1, emission_var(P2): 1}, P2)

    def test_many_globals_cost_what_their_blocks_cost(self):
        """Twelve globals over slices of four variables: stored factors hold
        at most one (prev, cur) block per global assignment, and globals no
        variable reads leave every answer as it is without them."""
        small = three_globals()
        extra = [VarId(f"G{j}") for j in range(9)]
        m = Cgm(variables=tuple(extra) + small.variables,
                parents={**small.parents, **{g: () for g in extra}},
                cpts={**small.cpts, **{g: (0.1 * (j + 1),) for j, g in enumerate(extra)}},
                latent=small.latent)
        engine = DbnEngine(m)
        blocks = 2 ** len(engine.globals)
        assert blocks == 2 ** 12
        sizes = [2 ** len(svars) for svars in engine.slice_vars]
        assert engine._init.shape == (blocks, sizes[0])
        for t, factor in enumerate(engine._trans, start=1):
            assert factor.shape[1:] == (sizes[t - 1], sizes[t])
            assert factor.shape[0] in (1, blocks)
        evidence = {emission_var(VarId("Q", 1)): 1, VarId("B"): 0}
        pe, expected = oracle_posteriors(small, evidence)
        assert math.exp(engine.loglik(evidence)) == pytest.approx(pe, rel=1e-10)
        post = posterior_dict(engine, evidence)
        for v, p in post.items():
            want = expected[v] if v in expected else m.cpts[v][0]
            assert p == pytest.approx(want, abs=1e-12), v
        P2 = VarId("P", 2)
        assert engine.conditional({P2: 1}, evidence) == pytest.approx(expected[P2], abs=1e-12)


# ---------------------------------------------------------------------------
# Indicator frames as per-slice likelihoods (virtual evidence)
# ---------------------------------------------------------------------------

PROBS = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)


@st.composite
def framed_queries(draw):
    """(model, hard evidence, frames, miss, false_pos, last-slice target) over
    a random slice-structured model: 1-3 slices of at most five variables in
    all, 0-2 parentless globals, parents within a slice, from the previous
    slice or global, CPT entries that include 0 and 1. Frames name Z/X/Y,
    the slices also hold W, which no frame observes. Half the models give
    every slice the same size, so the engine smooths them on stacked arrays."""
    n_slices = draw(st.integers(1, 3))
    globals_ = [VarId(f"G{j}") for j in range(draw(st.integers(0, 2)))]
    variables, parents, slices = list(globals_), {g: () for g in globals_}, []
    budget = 5
    shared = draw(st.integers(1, min(3, budget // n_slices))) if draw(st.booleans()) else None
    for t in range(n_slices):
        size = shared or draw(st.integers(1, min(3, budget - (n_slices - 1 - t))))
        budget -= size
        names = draw(st.permutations(["Z", "X", "Y", "W"]))[:size]
        current = []
        for name in names:
            v = VarId(name, t)
            pool = globals_ + (slices[-1] if slices else []) + current
            chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
            parents[v] = tuple(chosen)
            current.append(v)
        slices.append(current)
        variables += current
    cpts = {v: tuple(draw(PROBS) for _ in range(2 ** len(parents[v]))) for v in variables}
    latent = frozenset(v for v in variables if draw(st.integers(0, 11)) == 0)
    m = Cgm(variables=tuple(variables), parents=parents, cpts=cpts, latent=latent)
    observable = [v for v in variables if v not in latent]
    hard = {v: draw(st.integers(0, 1))
            for v in draw(st.lists(st.sampled_from(observable), unique=True, max_size=2))
            } if observable else {}
    frames = [{name: draw(st.integers(0, 1))
               for name in draw(st.lists(st.sampled_from("ZXY"), unique=True, min_size=1))}
              for _ in range(draw(st.integers(0, n_slices)))]
    miss, false_pos = draw(PROBS), draw(PROBS)
    target = draw(st.sampled_from(slices[-1]))
    return m, hard, frames, miss, false_pos, target


class TestPredictionVectors:
    """Filter, then predict, on a model whose slices differ in size."""

    @pytest.mark.parametrize("s,do,target", [
        (1, {VarId("Q", 1): 1}, {VarId("P", 2): 1}),
        (1, {VarId("R", 1): 0}, {VarId("P_obs", 2): 1}),
        (2, {VarId("P", 2): 1}, {VarId("P_obs", 2): 0}),
    ])
    def test_filtered_state_times_the_vectors_is_the_interventional(self, s, do, target):
        """`three_globals` has slices of 4, 6 and 2 variables, emissions
        included, so its last slice's state is not its first's. `alpha` is
        the filtered state at slice s-1, from the model's slices 0..s-1."""
        m = three_globals()
        evidence = {v: x for v, x in ((VarId("P_obs", 0), 1), (VarId("Q_obs", 0), 0),
                                      (VarId("R_obs", 1), 1), (VarId("Q_obs", 1), 0))
                    if v.slice < s}
        head = tuple(v for v in m.variables if v.slice is None or v.slice < s)
        alpha = DbnEngine(Cgm(variables=head, parents=m.parents,
                              cpts={v: m.cpts[v] for v in head},
                              latent=m.latent)).posteriors(evidence)[1].reshape(-1)
        num, den = DbnEngine(do_transform(m, do)).prediction_vectors(target, do, s)
        assert (alpha @ num) / (alpha @ den) == pytest.approx(
            interventional(m, target, do, evidence), rel=1e-12)


class TestFrameLikelihoods:
    """Frames as likelihood arrays on the tactic model against the same
    queries on the `attach_emissions` model with `_obs` evidence, and both
    against enumeration of that model."""

    @settings(max_examples=80, deadline=None)
    @given(framed_queries())
    def test_equal_to_observed_emission_children(self, query):
        m, hard, frames, miss, false_pos, target = query
        engine = DbnEngine(m)
        assert engine._uniform == (len({len(svars) for svars in engine.slice_vars}) == 1)
        likelihoods = engine.frame_likelihoods(frames, miss, false_pos)
        ext = attach_emissions(m, miss, false_pos)
        observed = {emission_var(VarId(name, t)): bit
                    for t, frame in enumerate(frames) for name, bit in frame.items()
                    if ext.has(emission_var(VarId(name, t)))}
        ext_engine, ext_evidence = DbnEngine(ext), {**hard, **observed}
        pe, expected = oracle_posteriors(ext, ext_evidence)
        query_target = {target: 1}
        contradicts = hard.get(target, 1) != 1

        ll, ext_ll = engine.loglik(hard, likelihoods), ext_engine.loglik(ext_evidence)
        if pe == 0.0:
            assert ll == ext_ll == float("-inf")
            for e, evidence, lik in ((engine, hard, likelihoods), (ext_engine, ext_evidence, ())):
                with pytest.raises(ZeroEvidenceError):
                    e.posteriors(evidence, lik)
                with pytest.raises(ZeroEvidenceError):  # contradictory or not
                    e.conditional(query_target, evidence, lik)
            return
        assert math.exp(ll) == pytest.approx(pe, rel=1e-9)
        assert ll == pytest.approx(ext_ll, rel=1e-12, abs=1e-12)
        post = posterior_dict(engine, hard, likelihoods)
        ext_post = posterior_dict(ext_engine, ext_evidence)
        assert list(post) == [v for v in ext_post if v in post]
        for v, p in post.items():
            assert p == pytest.approx(ext_post[v], abs=1e-12), v
            assert p == pytest.approx(expected[v], abs=1e-12), v
        got = engine.conditional(query_target, hard, likelihoods)
        assert got == pytest.approx(ext_engine.conditional(query_target, ext_evidence), abs=1e-12)
        assert got == pytest.approx(0.0 if contradicts else expected[target], abs=1e-12)

    # chain-a, and a model whose second slice lacks Z, so its layout differs
    UNEVEN = Cgm(variables=(VarId("Z", 0), VarId("X", 0), VarId("Y", 0), VarId("X", 1),
                            VarId("Y", 1)),
                 parents={VarId("X", 1): (VarId("X", 0),)},
                 cpts={VarId("Z", 0): (0.3,), VarId("X", 0): (0.4,), VarId("Y", 0): (0.5,),
                       VarId("X", 1): (0.2, 0.9), VarId("Y", 1): (0.6,)})

    # two slices of one size whose X and Y sit at swapped positions
    SWAPPED = Cgm(variables=tuple(map(VarId, "XYYX", (0, 0, 1, 1))), parents={},
                  cpts=dict.fromkeys(map(VarId, "XYYX", (0, 0, 1, 1)), (0.3,)))

    @pytest.mark.parametrize("model", [
        build_topology(DbnSpec(Topology.CHAIN_A, 3)), build_topology(DbnSpec(Topology.FORK_B, 3)),
        build_topology(DbnSpec(Topology.CONFOUNDED_C, 3, schedule=(True, False, True))),
        build_topology(DbnSpec(Topology.CONFOUNDED_C, 3, per_slice_confounder=True)),
        UNEVEN, SWAPPED], ids=["chain", "fork", "global-U", "per-slice-U", "uneven", "swapped"])
    def test_cached_arrays_equal_a_fresh_engines_first_call(self, model):
        # an engine that has answered every frame before answers each again
        # as a fresh engine does: no call leaves state behind, and a noise
        # of -0.0 weighs as 0.0, whichever came first
        T = DbnEngine(model).T
        frames = [dict(zip("ZXY", code)) for code in itertools.product((0, 1), repeat=3)]
        frames += [{"X": 2, "Y": 1}, {"W": 1, "Y": 0, "Z": 1}]  # a bit outside 0/1, a name absent
        frames += [{"Y": 1, "X": 0, "U": 1}]  # another order, and a latent name
        noises = [(0.2, 0.05), (0.05, 0.2), (-0.0, 0.05), (0.0, 0.05), (0.2, 0.0), (0.2, -0.0)]
        cached = DbnEngine(model)
        for frame, noise in itertools.product(frames, noises):
            cached.frame_likelihoods([frame] * T, *noise)
        for frame, noise in itertools.product(frames, noises):
            got = cached.frame_likelihoods([frame] * T, *noise)
            # the frame alone on slice t of a fresh engine
            fresh = [DbnEngine(model).frame_likelihoods([{}] * t + [frame], *noise)[t]
                     for t in range(T)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh], (frame, noise)
            unsigned = DbnEngine(model).frame_likelihoods([frame] * T, *(p + 0.0 for p in noise))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in unsigned], (frame, noise)
            for lik in got + fresh:
                with pytest.raises(ValueError):
                    lik[0, 0] = 0.5

    def test_slices_of_one_layout_share_each_array(self):
        """The engine keeps one array per (slice layout, frame, noise):
        slices of one layout that see one frame get the same object, in one
        call or another, and a slice of another layout gets its own."""
        engine = DbnEngine(build_topology(DbnSpec(Topology.CHAIN_A, 4)))
        hot, cold = {"Z": 1, "X": 1, "Y": 0}, {"Z": 0, "X": 0, "Y": 0}
        first = engine.frame_likelihoods([hot, cold, hot, hot], 0.2, 0.05)
        assert first[0] is first[2] is first[3] and first[1] is not first[0]
        assert len(engine._frame_table) == 2
        again = engine.frame_likelihoods([cold, hot], 0.2, 0.05)
        assert again[0] is first[1] and again[1] is first[0]
        assert len(engine._frame_table) == 2
        other = engine.frame_likelihoods([hot], 0.05, 0.2)  # another noise
        assert other[0] is not first[0] and len(engine._frame_table) == 3
        unsigned, signed = (engine.frame_likelihoods([hot], miss, 0.05)[0]
                            for miss in (0.0, -0.0))
        assert signed is unsigned and len(engine._frame_table) == 4
        reordered = engine.frame_likelihoods([{"Y": 0, "X": 1, "Z": 1}], 0.2, 0.05)
        assert reordered[0] is not first[0] and len(engine._frame_table) == 5
        uneven = DbnEngine(self.UNEVEN)
        both = uneven.frame_likelihoods([hot, hot], 0.2, 0.05)
        assert both[0] is not both[1] and len(uneven._frame_table) == 2
        swapped = DbnEngine(self.SWAPPED)
        assert [len(svars) for svars in swapped.slice_vars] == [2, 2]
        both = swapped.frame_likelihoods([hot, hot], 0.2, 0.05)
        assert both[0] is not both[1] and both[0].tobytes() != both[1].tobytes()

    @pytest.mark.parametrize("spec", [
        DbnSpec(Topology.CHAIN_A, 5), DbnSpec(Topology.FORK_B, 5),
        DbnSpec(Topology.CONFOUNDED_C, 5)], ids=["chain", "fork", "confounded"])
    def test_the_smoothing_pass_returns_loglik(self, spec):
        """`posteriors`' third value is `loglik`, to the bit."""
        engine = DbnEngine(build_topology(spec))
        rng = random.Random(str(spec))
        for _ in range(10):
            frames = [{name: rng.randint(0, 1) for name in "ZXY"} for _ in range(5)]
            likelihoods = engine.frame_likelihoods(frames, 0.2, 0.05)
            assert engine.posteriors({}, likelihoods)[2] == engine.loglik({}, likelihoods)

    def test_out_of_range_bit_is_impossible(self):
        engine = DbnEngine(build_topology(DbnSpec(Topology.CHAIN_A, 2)))
        likelihoods = engine.frame_likelihoods([{"X": 2}], 0.2, 0.05)
        assert engine.loglik({}, likelihoods) == float("-inf")

    @pytest.mark.parametrize("frames,miss,false_pos,message", [
        ([], 1.5, 0.05, "emission noise"), ([], 0.2, float("nan"), "emission noise"),
        ([{}] * 3, 0.2, 0.05, "3 frames for a model of 2 slices")])
    def test_bad_noise_or_too_many_frames_refused(self, frames, miss, false_pos, message):
        engine = DbnEngine(build_topology(DbnSpec(Topology.CHAIN_A, 2)))
        with pytest.raises(SpecError, match=message):
            engine.frame_likelihoods(frames, miss, false_pos)


# ---------------------------------------------------------------------------
# One factor per distinct slice, shared read-only
# ---------------------------------------------------------------------------

def assert_shared_factors_equal_per_slice_builds(engine: DbnEngine):
    """Every stored transition is, bit for bit, what `_slice_factor` builds
    for its slice alone."""
    for t in range(1, engine.T):
        shared, alone = engine._trans[t - 1], engine._slice_factor(t)
        assert shared.shape == alone.shape and shared.dtype == alone.dtype, t
        assert np.array_equal(shared, alone) and shared.tobytes() == alone.tobytes(), t


def distinct_factors(engine: DbnEngine) -> int:
    return len({id(factor) for factor in engine._trans})


TOPOLOGY_SPECS = [
    DbnSpec(Topology.CHAIN_A, 1),
    DbnSpec(Topology.FORK_B, 1),
    DbnSpec(Topology.CONFOUNDED_C, 1),
    DbnSpec(Topology.CONFOUNDED_C, 1, per_slice_confounder=True),
    DbnSpec(Topology.CONFOUNDED_C, 1, schedule=(True,)),
    DbnSpec(Topology.CONFOUNDED_C, 1, schedule=(True, False)),
    DbnSpec(Topology.CONFOUNDED_C, 1, schedule=(True, False), per_slice_confounder=True),
    DbnSpec(Topology.CONFOUNDED_C, 1, schedule=(False, True, True)),
]


class TestSharedSliceFactors:
    """`DbnEngine` builds one transition per distinct slice structure, and
    the shared arrays are the per-slice builds, read-only."""

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS, ids=str)
    def test_equal_to_per_slice_builds(self, spec):
        for slices in range(1, 17):
            m = build_topology(spec.with_slices(slices))
            for engine in (DbnEngine(m), DbnEngine(benign_model_like(m))):
                assert len(engine._trans) == slices - 1
                assert_shared_factors_equal_per_slice_builds(engine)

    @settings(max_examples=80, deadline=None)
    @given(framed_queries())
    def test_equal_to_per_slice_builds_on_drawn_models(self, query):
        assert_shared_factors_equal_per_slice_builds(DbnEngine(query[0]))

    @pytest.mark.parametrize("spec,count", [
        (DbnSpec(Topology.CHAIN_A, 16), 1),
        (DbnSpec(Topology.FORK_B, 16), 1),
        (DbnSpec(Topology.CONFOUNDED_C, 16), 2),
        (DbnSpec(Topology.CONFOUNDED_C, 16, per_slice_confounder=True), 2),
        (DbnSpec(Topology.CONFOUNDED_C, 16, schedule=(True,) * 16), 1),
        (DbnSpec(Topology.CONFOUNDED_C, 16, schedule=(True, False) * 8), 2),
        (DbnSpec(Topology.CONFOUNDED_C, 2), 1),  # one transition only
    ], ids=str)
    def test_distinct_transitions(self, spec, count):
        m = build_topology(spec)
        assert distinct_factors(DbnEngine(m)) == count
        assert distinct_factors(DbnEngine(benign_model_like(m))) == 1

    def test_one_cpt_per_cause_set(self):
        m = build_topology(DbnSpec(Topology.CHAIN_A, 16))
        later = [m.cpts[VarId(name, t)] for t in range(1, 16) for name in "ZXY"]
        assert len({id(cpt) for cpt in later}) == 2  # persistence; persistence + edge

    A0, A1, A2, B0, B1, B2, G = (VarId("A", 0), VarId("A", 1), VarId("A", 2), VarId("B", 0),
                                 VarId("B", 1), VarId("B", 2), VarId("G"))

    @pytest.mark.parametrize("tables", [
        # B's parent is in the previous slice, then in its own
        {A0: ((), (0.5,)), B0: ((), (0.5,)), A1: ((), (0.5,)), B1: ((A0,), (0.3, 0.6)),
         A2: ((), (0.5,)), B2: ((A2,), (0.3, 0.6))},
        # B's parent is at position 0, then at position 1, of the previous slice
        {A0: ((), (0.5,)), B0: ((), (0.5,)), A1: ((), (0.5,)), B1: ((A0,), (0.3, 0.6)),
         A2: ((), (0.5,)), B2: ((B1,), (0.3, 0.6))},
        # B's parent is a global, then a variable of the previous slice
        {G: ((), (0.4,)), A0: ((), (0.5,)), B0: ((), (0.5,)), A1: ((), (0.5,)),
         B1: ((G,), (0.3, 0.6)), A2: ((), (0.5,)), B2: ((A1,), (0.3, 0.6))},
        # the previous slice has one variable, then two
        {A0: ((), (0.5,)), A1: ((), (0.5,)), B1: ((), (0.5,)),
         A2: ((), (0.5,)), B2: ((), (0.5,))},
        # equal parents, other CPT rows
        {A0: ((), (0.5,)), A1: ((A0,), (0.3, 0.6)), A2: ((A1,), (0.3, 0.7))},
    ], ids=["offset", "position", "global", "previous-size", "rows"])
    def test_each_part_of_the_structure_keeps_slices_apart(self, tables):
        """Slices 1 and 2 differ in one part of the key only, so each gets
        its own array, equal to its per-slice build."""
        variables = tuple(tables)
        m = Cgm(variables=variables, parents={v: tables[v][0] for v in variables},
                cpts={v: tables[v][1] for v in variables})
        engine = DbnEngine(m)
        assert distinct_factors(engine) == 2
        assert_shared_factors_equal_per_slice_builds(engine)

    def test_sign_of_a_zero_keeps_slices_apart(self):
        """-0.0 == 0.0, but their factors differ in sign, so slices whose CPT
        rows differ only there get their own arrays."""
        variables = tuple(VarId("X", t) for t in range(3))
        parents = {v: () for v in variables}
        m = Cgm(variables=variables, parents=parents,
                cpts=dict(zip(variables, [(0.5,), (0.0,), (-0.0,)])))
        engine = DbnEngine(m)
        assert distinct_factors(engine) == 2
        assert_shared_factors_equal_per_slice_builds(engine)
        same = DbnEngine(replace(m, cpts=dict(zip(variables, [(0.5,), (0.0,), (0.0,)]))))
        assert distinct_factors(same) == 1

    def test_factors_are_read_only(self):
        engine = DbnEngine(build_topology(DbnSpec(Topology.CONFOUNDED_C, 6)))
        for factor in [engine._init] + engine._trans:
            before = factor.copy()
            with pytest.raises(ValueError):
                factor[0, 0] = 0.5
            with pytest.raises(ValueError):
                factor *= 2.0
            assert np.array_equal(factor, before)


class TestVarId:
    """A `VarId` hashes, compares, prints and pickles as it always has; as a
    tuple it also equals the plain tuple of its fields."""

    def test_equality_and_hash(self):
        assert VarId("X", 1) == VarId("X", 1) and hash(VarId("X", 1)) == hash(VarId("X", 1))
        assert VarId("U") == VarId("U", None) and VarId("U").slice is None
        assert len({VarId("X", 1), VarId("X", 2), VarId("X"), VarId("Y", 1)}) == 4
        assert VarId("X", 1) != VarId("X", 2) and VarId("X", 1) != VarId("Y", 1)
        assert VarId("X", 1) != VarId("X") and VarId("X", 0) != VarId("X")
        assert VarId("X", 1) != "X@1"
        assert hash(VarId("X", 1)) == hash(("X", 1))  # the frozen dataclass's hash

    def test_str_and_repr(self):
        assert str(VarId("X", 1)) == "X@1" and str(VarId("U")) == "U"
        assert repr(VarId("X", 1)) == "VarId(name='X', slice=1)"
        assert repr(VarId("U")) == "VarId(name='U', slice=None)"
        assert f"{VarId('Y', 12)}" == "Y@12"

    def test_pickle_round_trip(self):
        values = [VarId("X", 1), VarId("U"), {VarId("Y", 3): 1}]
        assert pickle.loads(pickle.dumps(values)) == values
        assert type(pickle.loads(pickle.dumps(VarId("X", 1)))) is VarId

    def test_sorted_by_str(self):
        vs = [VarId("Y", 10), VarId("X", 2), VarId("U"), VarId("X", 10), VarId("Z", 0),
              VarId("X_obs", 2), VarId("U", 1)]
        assert [str(v) for v in sorted(vs, key=str)] == [
            "U", "U@1", "X@10", "X@2", "X_obs@2", "Y@10", "Z@0"]

    def test_is_a_tuple_of_its_fields(self):
        """The one new behaviour: a VarId equals its fields' plain tuple and
        is written to JSON as a list, as `json.dumps` writes it."""
        assert VarId("X", 1) == ("X", 1) and VarId("U") == ("U", None)
        assert indented_json([VarId("X", 1)]) == json.dumps([VarId("X", 1)], sort_keys=True,
                                                            indent=2)
        assert json.loads(indented_json({"v": VarId("U")})) == {"v": ["U", None]}
