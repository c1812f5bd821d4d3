"""Policies for both sides: the scripted frontier attacker, baseline defenders,
and a tabular Q-learning defender with its training harness.

The Q machinery is generic over hashable state keys; the game defender uses
the small discretized `FeatureKey`, while tests drive the same updates on
hand-rolled MDPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from ._util import at, indented_json, json_object, member, parse_json, versioned_csv
from .errors import ParseError, SpecError
from .game import (
    DEFENDER_KINDS,
    NOP,
    PASS,
    AttackerAction,
    AttackerView,
    DefenderAction,
    DefenderView,
    EpisodeLog,
    StepOutcome,
    isolate,
    patch,
    restore,
    run_episode,
    scan,
)
from .netmodel import Scenario


# ---------------------------------------------------------------------------
# Scripted attacker
# ---------------------------------------------------------------------------

class LateralAttacker:
    """The scripted frontier attacker: deterministic, one object per distinct attack."""

    def __init__(self, spread: int):
        self.spread = spread
        self._actions: dict[tuple[int, ...], AttackerAction] = {}  # by chosen nodes, ascending

    def act(self, view: AttackerView, rng) -> AttackerAction:
        """Pick up to `spread` frontier nodes to attack.

        Priority: the target if its location is known, then nodes a held
        credential unlocks, then the rest of the frontier; ties broken by
        ascending node id. Passes when the frontier is empty.
        """
        compromised, known_nodes = view.compromised, view.known_nodes
        frontier = set()
        for c in compromised:
            for n in known_nodes.get(c, ()):
                if n not in compromised:
                    frontier.add(n)
        if not frontier:
            return PASS

        def priority(n: int) -> tuple[int, int]:
            if view.target_seen is not None and n == view.target_seen:
                group = 0
            elif view.known_unlocks.get(n, frozenset()) & view.creds:
                group = 1
            else:
                group = 2
            return (group, n)

        chosen = sorted(frontier, key=priority)[:self.spread]
        key = tuple(sorted(chosen))  # the same nodes picked in another order: one attack
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = AttackerAction(frozenset(chosen))
        return action

    def observe(self, outcome: StepOutcome) -> None:
        pass


# ---------------------------------------------------------------------------
# Baseline defenders
# ---------------------------------------------------------------------------

class NopDefender:
    def act(self, view: DefenderView, rng) -> DefenderAction:
        return NOP

    def observe(self, outcome: StepOutcome) -> None:
        pass


class RandomDefender:
    """Uniform over action kinds, then uniform over nodes; always legal."""

    def act(self, view: DefenderView, rng) -> DefenderAction:
        kind = rng.choice(DEFENDER_KINDS)
        if kind == "nop":
            return NOP
        node = rng.choice(list(view.topology_nodes))
        return DefenderAction(kind, node)

    def observe(self, outcome: StepOutcome) -> None:
        pass


# ---------------------------------------------------------------------------
# Feature discretization
# ---------------------------------------------------------------------------

class FeatureKey(NamedTuple):
    alert_bucket: int          # 0, 1, 2, 3 (= 3 or more)
    target_adjacent_alert: bool
    isolated_bucket: int       # 0, 1, 2 (= 2 or more)


def featurize(v: DefenderView) -> FeatureKey:
    alerts = v.alerts_last_step
    return FeatureKey(
        alert_bucket=min(len(alerts), 3),
        target_adjacent_alert=any(n in v.target_neighbors for n in alerts),
        isolated_bucket=min(sum(1 for k in v.isolation.values() if k > 0), 2),
    )


META_ACTIONS = (
    "nop",
    "scan_hottest",
    "patch_hottest",
    "isolate_hottest",
    "restore_hottest",
    "patch_target_neighbor",
)


def hottest_node(view: DefenderView) -> int | None:
    """Node with the most last-step alerts, lowest id on ties; None if quiet."""
    if not view.alerts_last_step:
        return None
    counts: dict[int, int] = {}
    for n in view.alerts_last_step:
        counts[n] = counts.get(n, 0) + 1
    return min(counts, key=lambda n: (-counts[n], n))


def meta_action_to_defender_action(index: int, view: DefenderView) -> DefenderAction:
    name = META_ACTIONS[index]
    if name == "nop":
        return NOP
    if name == "patch_target_neighbor":
        return patch(min(view.target_neighbors))
    # with no alerts every node ties at zero, so the tie-break picks the
    # lowest id; the action stays concrete and keeps its cost
    hot = hottest_node(view)
    if hot is None:
        hot = min(view.topology_nodes)
    if name == "scan_hottest":
        return scan(hot)
    if name == "patch_hottest":
        return patch(hot)
    if name == "isolate_hottest":
        return isolate(hot)
    return restore(hot)


# ---------------------------------------------------------------------------
# Tabular Q-learning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LearningParams:
    alpha: float = 0.1
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995
    episodes: int = 10_000

    def __post_init__(self):
        # NaN fails every comparison and an infinity lies outside every
        # range, so these refuse non-finite values too
        for name, ok, want in (
                ("alpha", 0.0 < self.alpha <= 1.0, "in (0, 1]"),
                ("gamma", 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
                ("epsilon_start", 0.0 <= self.epsilon_start <= 1.0, "in [0, 1]"),
                ("epsilon_end", 0.0 <= self.epsilon_end <= 1.0, "in [0, 1]"),
                ("epsilon_decay", 0.0 < self.epsilon_decay <= 1.0, "in (0, 1]"),
                ("episodes", isinstance(self.episodes, int) and self.episodes >= 0,
                 "an integer >= 0")):
            if not ok:
                raise SpecError(f"{name} must be {want}, got {getattr(self, name)}")


_QTABLE_KEYS = {"version", "actions", "entries"}
_ENTRY_KEYS = {"key", "values"}


class QTable:
    """Sparse (state key, action index) -> value table, zero by default."""

    def __init__(self, actions: tuple[str, ...] = META_ACTIONS):
        self.actions = tuple(actions)
        self.values: dict[tuple, list[float]] = {}

    def row(self, key) -> list[float]:
        if key not in self.values:
            self.values[key] = [0.0] * len(self.actions)
        return self.values[key]

    def max_value(self, key) -> float:
        row = self.values.get(key)
        return max(row) if row is not None else 0.0

    def greedy(self, key) -> int:
        """Argmax action index; lowest index wins ties."""
        row = self.values.get(key)
        if row is None:
            return 0
        best = max(row)
        return row.index(best)

    def to_obj(self) -> dict:
        entries = []
        for key in sorted(self.values, key=lambda k: tuple(int(x) for x in k)):
            entries.append({
                "key": [int(x) for x in key],
                "values": list(self.values[key]),
            })
        return {"version": __version__, "actions": list(self.actions), "entries": entries}

    def save(self) -> str:
        return indented_json(self.to_obj())

    @classmethod
    def load(cls, text: str) -> "QTable":
        obj = json_object(parse_json(text, "Q-table"), "", _QTABLE_KEYS)
        member(obj, "version", str, "", "")  # written by `save`; only its type is checked
        actions = tuple(member(obj, "actions", [str]))
        # `QDefender` plays the i-th value as META_ACTIONS[i]
        if not actions or actions != META_ACTIONS[:len(actions)]:
            raise ParseError(f"actions must be a non-empty prefix of {list(META_ACTIONS)}")
        table = cls(actions)
        for i, entry in enumerate(member(obj, "entries", list)):
            where = at("entries", i)
            entry = json_object(entry, where, _ENTRY_KEYS)
            key = member(entry, "key", [int], where)
            values = member(entry, "values", [float], where)
            if len(key) != len(FeatureKey._fields):
                raise ParseError(f"{where}.key must hold {len(FeatureKey._fields)} integers")
            if len(values) != len(actions):
                raise ParseError(f"{where}.values must hold {len(actions)} "
                                 f"{'number' if len(actions) == 1 else 'numbers'}")
            if not (0 <= key[0] <= 3 and key[1] in (0, 1) and 0 <= key[2] <= 2):
                raise ParseError(f"{where}.key {key} is outside [0..3, 0..1, 0..2]")
            feature = FeatureKey(key[0], bool(key[1]), key[2])
            if feature in table.values:
                raise ParseError(f"{where}.key {key} appears twice")
            table.values[feature] = values
        return table


def q_update(q: QTable, key, action: int, reward: float, next_key,
             p: LearningParams) -> None:
    """One-step backup: Q(k,a) += alpha * (r + gamma * max_a' Q(k',a') - Q(k,a)).

    `next_key` of None marks a terminal transition (zero bootstrap).
    """
    bootstrap = 0.0 if next_key is None else q.max_value(next_key)
    row = q.row(key)
    row[action] += p.alpha * (reward + p.gamma * bootstrap - row[action])


class QDefender:
    """Defender policy backed by a QTable; learns when `training` is set.

    During training step t waits in `_pending` as (key, action, reward), the
    reward None until observed; the next `act` applies its update with the
    successor key, and `observe` applies a terminal one at once.
    """

    def __init__(self, table: QTable, params: LearningParams | None = None,
                 training: bool = False):
        self.table = table
        self.params = params or LearningParams()
        self.training = training
        self.epsilon = self.params.epsilon_start
        self._pending: tuple[FeatureKey, int, float | None] | None = None

    def act(self, view: DefenderView, rng) -> DefenderAction:
        key = featurize(view)
        if self.training and self._pending is not None and self._pending[2] is not None:
            q_update(self.table, *self._pending, key, self.params)
        if self.training and rng.random() < self.epsilon:
            action = rng.randrange(len(self.table.actions))
        else:
            action = self.table.greedy(key)
        self._pending = (key, action, None)
        return meta_action_to_defender_action(action, view)

    def observe(self, outcome: StepOutcome) -> None:
        if not self.training or self._pending is None:
            return
        key, action, _ = self._pending
        if outcome.terminal_cause is not None:
            q_update(self.table, key, action, outcome.reward, None, self.params)
            self._pending = None
        else:
            self._pending = (key, action, outcome.reward)


def train(s: Scenario, p: LearningParams, seed: int) -> tuple[QTable, list[float]]:
    """Train a Q defender against the scripted attacker.

    Episode i runs with seed `seed + i` (the same scheme the CLI uses for
    parallel evaluation), with epsilon decaying multiplicatively per episode
    down to its floor. Returns the table and per-episode returns.
    """
    table = QTable(META_ACTIONS)
    agent = QDefender(table, p, training=True)
    curve: list[float] = []
    for i in range(p.episodes):
        agent.epsilon = max(p.epsilon_end, p.epsilon_start * p.epsilon_decay ** i)
        log = run_episode(s, agent, LateralAttacker(s.attacker.spread), seed=seed + i)
        curve.append(log.total_reward())
    return table, curve


def evaluate(s: Scenario, table: QTable, episodes: int, seed: int) -> list[EpisodeLog]:
    """Run frozen-greedy episodes; episode i uses seed + i."""
    logs = []
    for i in range(episodes):
        agent = QDefender(table, training=False)
        logs.append(run_episode(s, agent, LateralAttacker(s.attacker.spread), seed=seed + i))
    return logs


def curve_to_csv(curve: list[float]) -> str:
    return versioned_csv("episode,return", enumerate(curve))
