"""Shared fixtures and independent oracles for the test suite.

The oracle helpers here deliberately re-implement the math they check by the
dumbest route available (full itertools enumeration, literal BFS) so model
code and test expectations never share a code path. The samplers and the
passing attacker serve the tests alone; no command runs them.
`sequence_loglik` scores any model through its `DbnEngine`: the reference
for the null model's log-likelihood, which `detect.classify` computes
without an engine. `kahn_checked_order` checks a model and orders it as
`Cgm` did before it placed each variable in its own turn: the reference for
the first fault and for `order`.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import asdict

import pytest
from hypothesis import strategies as st

from acdsim.agents import (
    META_ACTIONS,
    LateralAttacker,
    LearningParams,
    NopDefender,
    QDefender,
    RandomDefender,
    train,
)
from acdsim.causal import (
    Cgm,
    DbnEngine,
    DbnSpec,
    VarId,
    attach_emissions,
    emission_var,
    interventional,
)
from acdsim.cli import default_scenario_path
from acdsim.detect import TACTICS, EmissionNoise, IndicatorSequence
from acdsim.errors import SpecError, ValidationError
from acdsim.game import PASS, episode_to_jsonl, run_episode
from acdsim.loop import InterventionPlan
from acdsim.netmodel import NetworkTopology, Scenario, load_scenario, scenario_to_obj


# ---------------------------------------------------------------------------
# Brute-force probability oracles
# ---------------------------------------------------------------------------

def oracle_joint(m: Cgm, assignment: dict) -> float:
    """Probability of one full assignment, straight off the CPT product."""
    p = 1.0
    for v in m.variables:
        idx = 0
        for parent in m.parents.get(v, ()):
            idx = idx * 2 + assignment[parent]
        p1 = m.cpts[v][idx]
        p *= p1 if assignment[v] == 1 else 1.0 - p1
    return p


def oracle_marginal(m: Cgm, q: dict) -> float:
    """Marginal by summing the joint over every completion of q."""
    free = [v for v in m.variables if v not in q]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(free)):
        assignment = dict(q)
        assignment.update(zip(free, bits))
        total += oracle_joint(m, assignment)
    return total


def oracle_conditional(m: Cgm, target: dict, given: dict) -> float:
    merged = dict(given)
    merged.update(target)
    for v in target:
        if v in given and given[v] != target[v]:
            return 0.0
    return oracle_marginal(m, merged) / oracle_marginal(m, given)


def select_intervention(m: Cgm, evidence: dict, candidates, horizon_slice: int):
    """The reference planner for `loop._plan`: each candidate's p(Y at
    `horizon_slice` = 1 | evidence, do) through `causal.interventional`,
    one query per candidate, and the least of them; first declared wins
    ties."""
    target = {VarId("Y", horizon_slice): 1}
    candidates = [dict(cand or {}) for cand in candidates]
    risks = [interventional(m, target, cand, evidence) for cand in candidates]
    best = min(range(len(risks)), key=risks.__getitem__)
    return InterventionPlan(do=candidates[best], predicted_risk=risks[best],
                            rationale=tuple(zip(candidates, risks)))


def posterior_dict(engine: DbnEngine, evidence: dict, likelihoods=()) -> dict:
    """`engine.posteriors` as {variable: p(variable = 1 | evidence)}, in
    `engine.outputs` order."""
    return dict(zip(engine.outputs, engine.posteriors(evidence, likelihoods)[0].tolist()))


def sequence_loglik(m: Cgm, seq: IndicatorSequence, emission: EmissionNoise) -> float:
    """Exact log p(sequence | model), summing over hidden tactic trajectories
    with the model's engine; -inf for sequences the model cannot produce.
    SpecError unless the model has one slice per frame."""
    engine = DbnEngine(m)
    if engine.T != len(seq.frames):
        raise SpecError(f"model has {engine.T} slices but the sequence has "
                        f"{len(seq.frames)} frames")
    return engine.loglik({}, engine.frame_likelihoods(seq.frames, *emission))


def kahn_checked_order(variables, parents: dict, cpts: dict, latent=frozenset()) -> tuple:
    """`Cgm`'s order of a model, or the `SpecError` of its first fault: a
    walk that checks every variable and lists each parent's children, then
    Kahn's algorithm over every edge from the parentless variables."""
    index: dict = {}
    for i, v in enumerate(variables):
        if v in index:
            raise SpecError(f"duplicate variable {v}")
        index[v] = i
    children: list[list[int]] = [[] for _ in variables]
    waiting = []
    for i, v in enumerate(variables):
        ps = parents.get(v, ())
        for p in ps:
            j = index.get(p)
            if j is None:
                raise SpecError(f"parent {p} of {v} is not a model variable")
            children[j].append(i)
        waiting.append(len(ps))
        cpt = cpts.get(v)
        if cpt is None or len(cpt) != 2 ** len(ps):
            raise SpecError(f"CPT for {v} must have {2 ** len(ps)} rows")
        for entry in cpt:
            if not 0.0 <= entry <= 1.0:
                raise SpecError(f"CPT entry out of [0,1] for {v}: {entry}")
    for v in latent:
        if v not in index:
            raise SpecError(f"latent {v} is not a model variable")
    depth = [0] * len(variables)
    ready = [i for i, n in enumerate(waiting) if n == 0]
    for i in ready:  # `ready` grows while it is walked
        d = depth[i] + 1
        for c in children[i]:
            if depth[c] < d:
                depth[c] = d
            waiting[c] -= 1
            if waiting[c] == 0:
                ready.append(c)
    if len(ready) < len(variables):
        raise SpecError("parent relation contains a cycle")
    waves: list[list] = [[] for _ in range(max(depth, default=-1) + 1)]
    for v, d in zip(variables, depth):
        waves[d].append(v)
    return tuple(v for wave in waves for v in wave)


def sample(m: Cgm, n: int, seed: int) -> list[dict]:
    """Ancestral sampling in topological order; deterministic given seed.

    Latent variables are included in the raw samples; `m.latent` flags them.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        assignment: dict = {}
        for v in m.order:
            p1 = m.prob_one(v, assignment)
            assignment[v] = 1 if rng.random() < p1 else 0
        out.append(assignment)
    return out


def sample_indicator_sequence(m: Cgm, emission: EmissionNoise, seed: int) -> IndicatorSequence:
    """Draw one observation sequence from a tactic model plus emission noise;
    a tactic the model lacks at a slice reads 0."""
    draw = sample(attach_emissions(m, emission.miss, emission.false_pos), 1, seed)[0]
    T = max(v.slice for v in m.variables if v.slice is not None) + 1
    return IndicatorSequence(tuple(
        {tactic: draw[emission_var(VarId(tactic, t))] if m.has(VarId(tactic, t)) else 0
         for tactic in TACTICS}
        for t in range(T)))


def spec_to_obj(spec: DbnSpec) -> dict:
    """The DBN spec file's object for `spec`; `causal.load_spec` reads it back."""
    return {
        "topology": spec.topology.value,
        "slices": spec.slices,
        "schedule": list(spec.schedule) if spec.schedule is not None else None,
        "per_slice_confounder": spec.per_slice_confounder,
        "params": asdict(spec.params),
    }


def random_dag_model(rng: random.Random, n_vars: int = 5, edge_p: float = 0.4) -> Cgm:
    """Random DAG over sliceless binary variables with uniform CPT entries."""
    variables = tuple(VarId(f"V{i}") for i in range(n_vars))
    parents = {}
    cpts = {}
    for i, v in enumerate(variables):
        ps = tuple(variables[j] for j in range(i) if rng.random() < edge_p)
        parents[v] = ps
        cpts[v] = tuple(rng.random() for _ in range(2 ** len(ps)))
    return Cgm(variables=variables, parents=parents, cpts=cpts)


# ---------------------------------------------------------------------------
# Example causal models from the module contracts
# ---------------------------------------------------------------------------

@pytest.fixture
def chain_example() -> Cgm:
    """Single-slice chain Z -> X -> Y with the worked-example CPTs."""
    Z, X, Y = VarId("Z", 0), VarId("X", 0), VarId("Y", 0)
    return Cgm(
        variables=(Z, X, Y),
        parents={Z: (), X: (Z,), Y: (X,)},
        cpts={Z: (0.5,), X: (0.1, 0.9), Y: (0.2, 0.8)},
    )


@pytest.fixture
def confounded_example() -> Cgm:
    """Latent U drives X deterministically and Y at 0.9/0.1; no X -> Y edge."""
    U, X, Y = VarId("U"), VarId("X", 0), VarId("Y", 0)
    return Cgm(
        variables=(U, X, Y),
        parents={U: (), X: (U,), Y: (U,)},
        cpts={U: (0.5,), X: (0.0, 1.0), Y: (0.1, 0.9)},
        latent=frozenset({U}),
    )


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------

MINIMAL_SCENARIO = ('{"nodes":[{"id":0},{"id":1,"target":true}],'
                    '"edges":[[0,1]],"attacker":{"entry":[0]}}')


def chain3_doc(strength: float = 1.0, severity: float = 1.0, defence: float = 0.0,
               horizon: int = 50) -> dict:
    """0 - 1 - 2 chain, entry 0, target 2."""
    return {
        "nodes": [
            {"id": 0, "defence": defence,
             "vulns": [{"id": "v", "severity": severity}]},
            {"id": 1, "defence": defence,
             "vulns": [{"id": "v", "severity": severity}]},
            {"id": 2, "defence": defence,
             "vulns": [{"id": "v", "severity": severity}], "target": True},
        ],
        "edges": [[0, 1], [1, 2]],
        "attacker": {"strength": strength, "spread": 1, "entry": [0]},
        "horizon": horizon,
    }


def shortest_hops(t: NetworkTopology, a: int, b: int) -> int:
    """Breadth-first hop distance between two nodes; 0 iff a == b."""
    t.node(a)
    t.node(b)
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for nxt in t.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                if nxt == b:
                    return dist[nxt]
                queue.append(nxt)
    raise ValidationError(f"no path between {a} and {b}")


class PassingAttacker:
    """An attacker that never attacks."""

    def act(self, view, rng):
        return PASS

    def observe(self, outcome) -> None:
        pass


@pytest.fixture
def chain3() -> Scenario:
    return load_scenario(json.dumps(chain3_doc()))


@pytest.fixture(scope="session")
def enterprise8_logs() -> dict:
    """{defender name: the logs of the bundled enterprise8 scenario at seeds
    0-19} for the nop, the random and a Q defender trained for 50 episodes."""
    with open(default_scenario_path(), encoding="utf-8") as fh:
        s = load_scenario(fh.read())
    table = train(s, LearningParams(episodes=50), 0)[0]
    defenders = {"nop": NopDefender, "random": RandomDefender, "q": lambda: QDefender(table)}
    return {name: [run_episode(s, make(), LateralAttacker(s.attacker.spread), seed)
                   for seed in range(20)]
            for name, make in defenders.items()}


def random_scenario_doc(rng: random.Random, deterministic: bool = False) -> dict:
    """Random connected scenario; deterministic=True forces success prob 1."""
    n = rng.randrange(4, 9)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    for _ in range(rng.randrange(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    target = n - 1
    n_entry = 1 if deterministic else rng.randrange(1, 3)
    entry = sorted(rng.sample(range(n - 1), n_entry))
    nodes = []
    for i in range(n):
        if deterministic:
            node = {"id": i, "defence": 0.0,
                    "vulns": [{"id": "v", "severity": 1.0}]}
        else:
            vulns = [{"id": f"v{k}", "severity": rng.random()}
                     for k in range(rng.randrange(0, 3))]
            node = {"id": i, "defence": rng.random(), "vulns": vulns}
            if rng.random() < 0.3:
                node["creds_stored"] = [f"c{rng.randrange(3)}"]
            if rng.random() < 0.3:
                node["unlocks"] = [f"c{rng.randrange(3)}"]
        if i == target:
            node["target"] = True
            node.pop("creds_stored", None)
        nodes.append(node)
    return {
        "nodes": nodes,
        "edges": [list(e) for e in sorted(edges)],
        "attacker": {
            "strength": 1.0 if deterministic else round(rng.uniform(0.2, 1.0), 3),
            "spread": n if deterministic else rng.randrange(1, 4),
            "entry": entry,
        },
        "horizon": 3 * n if deterministic else rng.randrange(10, 40),
    }


def load_random_scenario(rng: random.Random, deterministic: bool = False) -> Scenario:
    return load_scenario(json.dumps(random_scenario_doc(rng, deterministic)))


def one_object_each(values) -> bool:
    """Whether `values` holds one object per distinct value."""
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


# ---------------------------------------------------------------------------
# Embedded 4-state / 2-action MDP with a value-iteration oracle
# ---------------------------------------------------------------------------

MDP_TRANSITIONS = {
    (0, 0): ((1.0, 1, 0.0),),
    (0, 1): ((0.9, 2, 0.0), (0.1, 1, 0.0)),
    (1, 0): ((1.0, 3, 1.0),),
    (1, 1): ((1.0, 3, 0.5),),
    (2, 0): ((1.0, 3, 0.2),),
    (2, 1): ((1.0, 3, 1.5),),
}
MDP_TERMINAL = 3
MDP_GAMMA = 0.95
MDP_STATES = (0, 1, 2)


def mdp_value_iteration(reward_scale: float = 1.0, tol: float = 1e-12):
    """Bellman fixed point by plain iteration; the slow, obviously-right way."""
    values = {s: 0.0 for s in MDP_STATES + (MDP_TERMINAL,)}
    while True:
        delta = 0.0
        for s in MDP_STATES:
            best = max(
                sum(p * (r * reward_scale + MDP_GAMMA * values[s2])
                    for p, s2, r in MDP_TRANSITIONS[(s, a)])
                for a in (0, 1)
            )
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < tol:
            break
    q_star = {
        (s, a): sum(p * (r * reward_scale + MDP_GAMMA * values[s2])
                    for p, s2, r in MDP_TRANSITIONS[(s, a)])
        for s in MDP_STATES for a in (0, 1)
    }
    policy = {s: max((0, 1), key=lambda a: q_star[(s, a)]) for s in MDP_STATES}
    return values, q_star, policy


def mdp_q_learn(episodes: int, seed: int, reward_scale: float = 1.0):
    """Epsilon-greedy tabular learning on the embedded MDP.

    Alpha anneals 0.1 -> 0.01 at the halfway mark so late stochastic updates
    stop jittering the table.
    """
    from acdsim.agents import LearningParams, QTable, q_update

    rng = random.Random(seed)
    table = QTable(actions=("a0", "a1"))
    for ep in range(episodes):
        epsilon = max(0.05, 0.995 ** ep)
        alpha = 0.1 if ep < episodes // 2 else 0.01
        params = LearningParams(alpha=alpha, gamma=MDP_GAMMA)
        s = rng.choice(MDP_STATES)
        while s != MDP_TERMINAL:
            if rng.random() < epsilon:
                a = rng.randrange(2)
            else:
                a = table.greedy(s)
            u = rng.random()
            acc = 0.0
            for prob, s2, r in MDP_TRANSITIONS[(s, a)]:
                acc += prob
                if u < acc:
                    break
            q_update(table, s, a, r * reward_scale,
                     None if s2 == MDP_TERMINAL else s2, params)
            s = s2
    return table


# ---------------------------------------------------------------------------
# Malformed input
# ---------------------------------------------------------------------------

def with_value(doc, path: tuple, value):
    """A copy of the JSON document `doc` with the value at `path` (member
    names and list indices) set to `value`."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


def json_path(path: tuple, root: str = "") -> str:
    """`path` written as the readers name it in errors: `nodes[0].defence`."""
    for key in path:
        root += f"[{key}]" if isinstance(key, int) else f".{key}" if root else key
    return root


@st.composite
def mutated(draw, text: str) -> str:
    """`text` after one to three edits, each deleting, replacing with random
    text or duplicating a span of up to 8 characters."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        middle = {"delete": "", "replace": draw(st.text(max_size=6)),
                  "duplicate": text[i:j] * 2}[edit]
        text = text[:i] + middle + text[j:]
    return text


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 20),
                        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
                        st.just([]), st.just({}), st.just(10 ** 400))


@st.composite
def json_mutated(draw, doc) -> str:
    """The JSON text of `doc` after one to three edits of its parsed form,
    each deleting a key or item, replacing a value with another of any type
    or range, or duplicating an item (or a value under a new key)."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        slots = []  # every (container, key or index) in the document

        def walk(node):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, value in items:
                slots.append((node, key))
                walk(value)
        walk(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        if edit == "delete":
            del node[key]
        elif edit == "replace":
            node[key] = draw(JSON_VALUES)
        elif isinstance(node, list):
            node.insert(key, json.loads(json.dumps(node[key])))
        else:
            node[draw(st.text(max_size=3))] = json.loads(json.dumps(node[key]))
    return json.dumps(doc)


@st.composite
def jsonl_mutated(draw, text: str) -> str:
    """The JSON-lines `text` with one line after `json_mutated` edits."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(json_mutated(json.loads(lines[i])))
    return "\n".join(lines) + "\n"


def chain3_full_doc() -> dict:
    """The chain3 scenario with every optional key written out."""
    return scenario_to_obj(load_scenario(json.dumps(chain3_doc())))


def chain3_log_text() -> str:
    """The log of a two-step random-defender episode on the chain3 scenario:
    an isolate with its duration, then a restore."""
    s = load_scenario(json.dumps(chain3_doc()))
    return episode_to_jsonl(run_episode(s, RandomDefender(), LateralAttacker(1), 3))


# Q-table documents that `featurize`'s keys cannot make unambiguous: a
# target-adjacent bit of 2, which `bool` would fold onto the entry before it,
# buckets out of range, and a repeated key
AMBIGUOUS_KEY_QTABLES = [
    {"actions": ["nop"], "entries": [{"key": [0, 1, 0], "values": [1.0]},
                                     {"key": [0, 2, 0], "values": [0.0]}]},
    {"actions": ["nop"], "entries": [{"key": [-7, 0, 99], "values": [0.0]}]},
    {"actions": ["nop"], "entries": [{"key": [0, 0, 0], "values": [1.0]},
                                     {"key": [0, 0, 0], "values": [0.0]}]},
]


def qtable_doc() -> dict:
    """A Q-table document over the meta-actions whose first row prefers the
    last one, so that one duplicated earlier value moves the maximum past it."""
    return {"version": "0.1.0", "actions": list(META_ACTIONS),
            "entries": [{"key": [0, 0, 0], "values": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]},
                        {"key": [1, 1, 0], "values": [0.5, -1.0, 0.0, 2.0, 0.0, 0.0]}]}
