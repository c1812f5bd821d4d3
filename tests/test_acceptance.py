"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import math
import random
import time

import pytest

from acdsim.agents import LateralAttacker, NopDefender, RandomDefender
from acdsim.causal import (
    Cgm,
    DbnSpec,
    Topology,
    VarId,
    build_topology,
    do_transform,
    interventional,
    observational,
)
from acdsim.cli import default_scenario_path, main
from acdsim.detect import (
    EmissionNoise,
    benign_model_like,
)
from acdsim.game import (
    TARGET_COMPROMISED,
    attacker_view,
    defender_view,
    episode_to_jsonl,
    init,
    run_episode,
    step,
)
from acdsim.loop import AutonomyLevel, LoopConfig, run_loop
from acdsim.netmodel import load_scenario

from .conftest import (
    MDP_STATES,
    load_random_scenario,
    mdp_q_learn,
    mdp_value_iteration,
    oracle_joint,
    random_dag_model,
    sample,
    sample_indicator_sequence,
    sequence_loglik,
    shortest_hops,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def mean_ci(xs):
    n = len(xs)
    m = sum(xs) / n
    sd = math.sqrt(sum((x - m) ** 2 for x in xs) / (n - 1))
    half = 1.96 * sd / math.sqrt(n)
    return m, m - half, m + half


@pytest.fixture(scope="module")
def enterprise():
    with open(default_scenario_path(), "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def test_criterion_01_determinism(tmp_path, enterprise):
    started = time.perf_counter()
    rng = random.Random(2024)
    replay_path = tmp_path / "episode.jsonl"
    for case in range(100):
        scenario = load_random_scenario(rng)
        seed = rng.randrange(1_000_000)
        first = episode_to_jsonl(run_episode(
            scenario, NopDefender(), LateralAttacker(scenario.attacker.spread), seed))
        second = episode_to_jsonl(run_episode(
            scenario, NopDefender(), LateralAttacker(scenario.attacker.spread), seed))
        assert first == second
        replay_path.write_text(first)
        assert main(["replay", "--log", str(replay_path)]) == 0

    # flag-level determinism through the CLI, for simulate and loop
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    flags = ["simulate", "--seed", "42", "--defender", "random"]
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    l1, l2 = tmp_path / "l1.json", tmp_path / "l2.json"
    loop_flags = ["loop", "--autonomy", "auto", "--seed", "42"]
    assert main(loop_flags + ["--out", str(l1)]) == 0
    assert main(loop_flags + ["--out", str(l2)]) == 0
    assert l1.read_bytes() == l2.read_bytes()
    assert main(["replay", "--log", str(l1)]) == 0

    elapsed = time.perf_counter() - started
    report(1, elapsed < 30.0,
           f"100 fuzzed episodes byte-identical and replayable, "
           f"simulate/loop CLI runs byte-identical ({elapsed:.1f}s < 30s)")


def test_criterion_02_q_learning_oracle():
    started = time.perf_counter()
    table = mdp_q_learn(episodes=20_000, seed=12345)
    _, q_star, policy = mdp_value_iteration()
    policy_match = all(table.greedy(s) == policy[s] for s in MDP_STATES)
    max_error = max(abs(table.row(s)[a] - q_star[(s, a)])
                    for s in MDP_STATES for a in (0, 1))
    elapsed = time.perf_counter() - started
    report(2, policy_match and max_error <= 0.05 and elapsed < 10.0,
           f"greedy policy == value-iteration optimum, max |Q - Q*| = "
           f"{max_error:.4f} <= 0.05 ({elapsed:.1f}s < 10s)")


def test_criterion_03_interventional_correctness(chain_example):
    X, Y = VarId("X", 0), VarId("Y", 0)
    exact = interventional(chain_example, {Y: 1}, {X: 1})
    mutilated = do_transform(chain_example, {X: 1})
    draws = sample(mutilated, 100_000, seed=77)
    empirical = sum(d[Y] for d in draws) / 100_000
    ok = abs(exact - 0.8) <= 1e-12 and abs(empirical - exact) <= 0.01
    report(3, ok,
           f"p(Y=1|do(X=1)) = {exact!r} (exact to 1e-12), Monte-Carlo "
           f"{empirical:.4f} within 0.01")


def test_criterion_04_confounding_gap(confounded_example):
    X, Y = VarId("X", 0), VarId("Y", 0)
    obs = observational(confounded_example, {Y: 1}, {X: 1})
    act = interventional(confounded_example, {Y: 1}, {X: 1})
    ok = abs(obs - 0.9) <= 1e-12 and abs(act - 0.5) <= 1e-12
    report(4, ok, f"p(Y=1|X=1) = {obs!r} vs p(Y=1|do(X=1)) = {act!r}, both exact")


def test_criterion_05_parentless_do_identity():
    rng = random.Random(555)
    worst = 0.0
    checked = 0
    while checked < 200:
        m = random_dag_model(rng, n_vars=5, edge_p=0.5)
        roots = [v for v in m.variables if not m.parents.get(v)]
        if not roots:
            continue
        v = rng.choice(roots)
        value = rng.randrange(2)
        target_var = rng.choice([w for w in m.variables if w != v])
        target = {target_var: rng.randrange(2)}
        try:
            obs = observational(m, target, {v: value})
        except Exception:
            continue
        act = interventional(m, target, {v: value})
        worst = max(worst, abs(obs - act))
        checked += 1
    report(5, worst <= 1e-12,
           f"200 random models: max |p(y|do(v)) - p(y|v)| = {worst:.2e} <= 1e-12")


def test_criterion_06_normalization():
    import itertools
    rng = random.Random(66)
    worst = 0.0
    for case in range(200):
        topology = list(Topology)[case % 3]
        base = build_topology(DbnSpec(topology, 1 + case % 2))
        randomized = Cgm(
            variables=base.variables,
            parents=base.parents,
            cpts={v: tuple(rng.random() for _ in base.cpts[v]) for v in base.variables},
            latent=base.latent,
        )
        total = sum(
            oracle_joint(randomized, dict(zip(randomized.variables, bits)))
            for bits in itertools.product((0, 1), repeat=len(randomized.variables))
        )
        worst = max(worst, abs(total - 1.0))
    report(6, worst <= 1e-9,
           f"200 random-CPT models over all three topologies: max |sum - 1| = {worst:.2e}")


def test_criterion_07_game_invariants():
    started = time.perf_counter()
    rng = random.Random(777)
    episodes = 0

    # 750 stochastic episodes: knowledge growth, compromise monotonicity, hygiene
    for case in range(750):
        scenario = load_random_scenario(rng)
        state = init(scenario, seed=rng.randrange(1_000_000))
        defender = RandomDefender()
        attacker = LateralAttacker(scenario.attacker.spread)
        drng = random.Random(case)
        arng = random.Random(case + 1)
        while state.terminal is None:
            known_before = set(state.attacker_known)
            comp_before = set(state.compromised)
            if case % 10 == 0:
                assert "compromised" not in type(defender_view(state))._fields
                aview = attacker_view(state)
                known = set(aview.known_nodes)
                assert all(n in known
                           for ns in aview.known_nodes.values() for n in ns)
            d = defender.act(defender_view(state), drng)
            a = attacker.act(attacker_view(state), arng)
            state, _ = step(state, d, a)
            assert known_before <= state.attacker_known
            assert state.compromised <= state.attacker_known
            if d.kind != "restore":
                assert comp_before <= state.compromised
        episodes += 1

    # 250 deterministic-success episodes: capture time == BFS distance oracle
    for _ in range(250):
        scenario = load_random_scenario(rng, deterministic=True)
        log = run_episode(scenario, NopDefender(),
                          LateralAttacker(scenario.attacker.spread),
                          seed=rng.randrange(1_000_000))
        target = scenario.topology.target_id
        expected = min(shortest_hops(scenario.topology, e, target)
                       for e in scenario.attacker.entry)
        assert log.final["terminal"] == TARGET_COMPROMISED
        assert log.final["t"] == expected
        episodes += 1

    elapsed = time.perf_counter() - started
    report(7, episodes == 1000 and elapsed < 60.0,
           f"1000 fuzzed episodes: monotone knowledge, compromise monotonicity, "
           f"view hygiene, capture time == BFS distance ({elapsed:.1f}s < 60s)")


def test_criterion_08_detection_separation():
    started = time.perf_counter()
    noise = EmissionNoise()
    malign = build_topology(DbnSpec(Topology.CHAIN_A, 8))
    benign = benign_model_like(malign)

    def llr_of(seq):
        return (sequence_loglik(malign, seq, noise)
                - sequence_loglik(benign, seq, noise))

    malign_llrs = [llr_of(sample_indicator_sequence(malign, noise, seed=10_000 + i))
                   for i in range(200)]
    benign_llrs = [llr_of(sample_indicator_sequence(benign, noise, seed=20_000 + i))
                   for i in range(200)]

    m_mean, m_lo, _ = mean_ci(malign_llrs)
    b_mean, _, b_hi = mean_ci(benign_llrs)

    ranked = sorted((v, "m" if i < 200 else "b")
                    for i, v in enumerate(malign_llrs + benign_llrs))
    rank_sum = sum(rank + 1 for rank, (_, kind) in enumerate(ranked) if kind == "m")
    auc = (rank_sum - 200 * 201 / 2) / (200 * 200)

    elapsed = time.perf_counter() - started
    ok = m_mean > b_mean and m_lo > b_hi and auc >= 0.9 and elapsed < 60.0
    report(8, ok,
           f"mean llr malign {m_mean:.2f} vs benign {b_mean:.2f}, CIs disjoint "
           f"({m_lo:.2f} > {b_hi:.2f}), AUC = {auc:.3f} >= 0.9 ({elapsed:.1f}s < 60s)")


def test_criterion_09_loop_efficacy(enterprise):
    started = time.perf_counter()
    cfg = LoopConfig(autonomy=AutonomyLevel.AUTO)
    nop_times, loop_times = [], []
    for seed in range(200):
        plain = run_episode(enterprise, NopDefender(),
                            LateralAttacker(enterprise.attacker.spread), seed)
        nop_times.append(plain.time_to_target())
        loop_times.append(run_loop(enterprise, cfg, seed).summary["time_to_target"])

    n_mean, _, n_hi = mean_ci(nop_times)
    l_mean, l_lo, _ = mean_ci(loop_times)
    elapsed = time.perf_counter() - started
    ok = l_mean > n_mean and l_lo > n_hi and elapsed < 120.0
    report(9, ok,
           f"200 paired seeds: time-to-compromise nop {n_mean:.1f} vs auto loop "
           f"{l_mean:.1f}, CIs disjoint ({l_lo:.1f} > {n_hi:.1f}) ({elapsed:.1f}s < 120s)")


def test_criterion_10_advise_non_interference(enterprise):
    cfg = LoopConfig(autonomy=AutonomyLevel.ADVISE)
    for seed in range(50):
        loop_bytes = episode_to_jsonl(run_loop(enterprise, cfg, seed).log)
        plain_bytes = episode_to_jsonl(run_episode(
            enterprise, NopDefender(), LateralAttacker(enterprise.attacker.spread), seed))
        assert loop_bytes == plain_bytes
    report(10, True, "50 seeds: advise-level loop log byte-identical to plain episode")
