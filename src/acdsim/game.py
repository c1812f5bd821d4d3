"""Stochastic lateral-movement game engine.

Ground-truth state, simultaneous attacker/defender moves with defender-first
resolution, stochastic compromise, noisy alerts, rewards, and replayable
episode logs.

Per-step draw order on the single episode generator (fixed for replay):

1. one draw for the defender's scan, if the action is a scan;
2. per attacker attempt in ascending target-node id: one draw for the
   compromise outcome, then one draw for the attempt alert (attempts that are
   skipped because the node is isolated or already compromised draw nothing);
3. one false-alert draw per node in ascending node id.

Policies never touch this generator; they get labelled side streams from
`run_episode`, so replaying a log from (scenario, seed, recorded actions)
reproduces it byte for byte.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from . import __version__
from ._util import canonical_json, child_seed, json_object, left_sum, member, parse_json
from .errors import (
    IllegalActionError,
    ParseError,
    ReplayMismatchError,
    TerminalStateError,
    ValidationError,
)
from .netmodel import (
    NodeSpec,
    Scenario,
    scenario_from_obj,
    scenario_to_obj,
)

TARGET_COMPROMISED = "target_compromised"
HORIZON_REACHED = "horizon_reached"

ALERT_ATTEMPT_FAIL = "attempt_fail"
ALERT_ATTEMPT_SUCCESS = "attempt_success"
ALERT_FALSE_POSITIVE = "false_positive"
ALERT_KINDS = (ALERT_ATTEMPT_FAIL, ALERT_ATTEMPT_SUCCESS, ALERT_FALSE_POSITIVE)

ATTEMPT_SUCCESS = "success"
ATTEMPT_FAIL = "fail"
ATTEMPT_SKIPPED = "skipped"
ATTEMPT_OUTCOMES = (ATTEMPT_SUCCESS, ATTEMPT_FAIL, ATTEMPT_SKIPPED)

DEFENDER_KINDS = ("nop", "patch", "restore", "isolate", "scan")
# an event is an attacker's attempt or loot, a defender action other than
# nop, or an alert
EVENT_KINDS = ("attempt", "loot", *DEFENDER_KINDS[1:], "alert")

CRED_COMPROMISE_PROB = 0.9


# ---------------------------------------------------------------------------
# Actions and events
# ---------------------------------------------------------------------------

class DefenderAction(NamedTuple):
    kind: str  # one of DEFENDER_KINDS
    node: int | None = None
    duration: int = 1


NOP = DefenderAction("nop")


def patch(node: int) -> DefenderAction:
    return DefenderAction("patch", node)


def restore(node: int) -> DefenderAction:
    return DefenderAction("restore", node)


def isolate(node: int, duration: int = 1) -> DefenderAction:
    return DefenderAction("isolate", node, duration)


def scan(node: int) -> DefenderAction:
    return DefenderAction("scan", node)


class AttackerAction(NamedTuple):
    attempts: frozenset[int] = frozenset()  # empty set = pass


PASS = AttackerAction()


class Event(NamedTuple):
    kind: str  # one of EVENT_KINDS
    node: int
    outcome: str | None = None      # attempt: one of ATTEMPT_OUTCOMES
    creds: tuple[str, ...] = ()     # loot
    result: bool | None = None      # scan
    alert_kind: str | None = None   # alert: one of ALERT_KINDS (ground truth only)
    duration: int | None = None     # isolate

    def to_obj(self) -> dict:
        obj = {"kind": self.kind, "node": self.node}
        if self.outcome is not None:
            obj["outcome"] = self.outcome
        if self.creds:
            obj["creds"] = list(self.creds)
        if self.result is not None:
            obj["result"] = self.result
        if self.alert_kind is not None:
            obj["alert_kind"] = self.alert_kind
        if self.duration is not None:
            obj["duration"] = self.duration
        return obj


class StepOutcome(NamedTuple):
    reward: float
    events: tuple[Event, ...]
    terminal_cause: str | None = None


# ---------------------------------------------------------------------------
# State and views
# ---------------------------------------------------------------------------

@dataclass
class GameState:
    scenario: Scenario
    t: int
    compromised: set[int]
    attacker_known: set[int]
    attacker_creds: set[str]
    isolation: dict[int, int]  # node -> steps left, always positive: `step` drops a 0
    defence_now: dict[int, float]
    horizon: int
    rng: random.Random
    terminal: str | None = None
    last_alerts: tuple[int, ...] = ()  # node ids of last step's alerts (kind hidden)
    scan_results: dict[int, tuple[int, bool]] = field(default_factory=dict)
    cumulative_reward: float = 0.0
    # (frozenset(attacker_known), known_nodes, known_unlocks) of the last
    # attacker view; knowledge changes on few steps, so most views reuse it
    _attacker_maps: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the scenario's tables (`_SHARED`): an event's fields -> the one `Event`
    # built for them (`_event`), and a checked action -> the one played for it
    _events: dict = field(default_factory=dict, repr=False, compare=False)
    _actions: dict = field(default_factory=dict, repr=False, compare=False)
    # (reward, cause, ids of the events) -> the one `StepOutcome` this episode built
    _outcomes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def target_seen(self) -> int | None:
        target = self.scenario.topology.target_id
        return target if target in self.attacker_known else None


class AttackerView(NamedTuple):
    """What the attacker knows: the discovered subgraph, never the full map."""

    known_nodes: dict[int, tuple[int, ...]]  # neighbor lists restricted to known
    known_unlocks: dict[int, frozenset[str]]
    compromised: frozenset[int]
    creds: frozenset[str]
    target_seen: int | None


class DefenderView(NamedTuple):
    """What the defender knows: full topology, never the true compromise set."""

    topology_nodes: tuple[int, ...]
    topology_edges: tuple[tuple[int, int], ...]
    target: int
    target_neighbors: tuple[int, ...]  # sorted
    t: int
    alerts_last_step: tuple[int, ...]  # node ids, kind withheld
    scan_results: dict[int, tuple[int, bool]]
    isolation: dict[int, int]
    defence_now: dict[int, float]
    cumulative_reward: float


def attacker_view(st: GameState) -> AttackerView:
    known = frozenset(st.attacker_known)
    if st._attacker_maps is None or st._attacker_maps[0] != known:
        topo = st.scenario.topology
        ordered = sorted(known)
        st._attacker_maps = (
            known,
            {n: tuple(x for x in topo.neighbors(n) if x in known) for n in ordered},
            {n: topo.node(n).unlocks for n in ordered},
        )
    _, known_nodes, known_unlocks = st._attacker_maps
    return AttackerView(
        known_nodes=dict(known_nodes),
        known_unlocks=dict(known_unlocks),
        compromised=frozenset(st.compromised),
        creds=frozenset(st.attacker_creds),
        target_seen=st.target_seen(),
    )


def defender_view(st: GameState) -> DefenderView:
    topo = st.scenario.topology
    target = topo.target_id
    return DefenderView(
        topology_nodes=topo.node_ids,
        topology_edges=topo.sorted_edges,
        target=target,
        target_neighbors=topo.neighbors(target),
        t=st.t,
        alerts_last_step=st.last_alerts,
        scan_results=dict(st.scan_results),
        isolation=dict(st.isolation),
        defence_now=dict(st.defence_now),
        cumulative_reward=st.cumulative_reward,
    )


# ---------------------------------------------------------------------------
# Mechanics
# ---------------------------------------------------------------------------

def compromise_probability(strength: float, node: NodeSpec, defence_now: float,
                           cred_held: bool) -> float:
    """Chance one attempt takes the node.

    A held credential that unlocks the node bypasses the vulnerability route
    entirely at a flat 0.9; otherwise strength scales the worst vulnerability,
    damped by current defence.
    """
    if cred_held:
        return CRED_COMPROMISE_PROB
    p = strength * node.max_severity() * (1.0 - defence_now)
    return min(1.0, max(0.0, p))


# scenario -> its (events, actions) tables, shared by its episodes and freed
# with it; `init` looks them up once per episode, as the lookup hashes it
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def init(s: Scenario, seed: int, horizon_override: int | None = None) -> GameState:
    """Fresh episode state: entry nodes compromised and looted, frontier known."""
    s.validated  # runs validate_scenario once per Scenario object
    if horizon_override is not None and horizon_override < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon_override}")
    topo = s.topology
    compromised = set(s.attacker.entry)
    known = set(compromised)
    for n in compromised:
        known.update(topo.neighbors(n))
    creds: set[str] = set()
    for n in compromised:
        creds.update(topo.node(n).creds_stored)
    events, actions = _SHARED.setdefault(s, ({}, {}))
    return GameState(
        scenario=s,
        t=0,
        compromised=compromised,
        attacker_known=known,
        attacker_creds=creds,
        isolation={},
        defence_now={n.id: n.defence for n in topo.nodes},
        horizon=horizon_override if horizon_override is not None else s.horizon,
        rng=random.Random(seed),
        _events=events, _actions=actions,
    )


def _check_defender_action(st: GameState, d: DefenderAction):
    # `True` and `1.0` equal 1, but a log would write them as `true` and
    # `1.0`, which its reader refuses: a node and a duration are `int`s. A log
    # writes only an isolation's duration, and reads any other action's as 1
    if d.kind not in DEFENDER_KINDS:
        raise IllegalActionError(f"unknown defender action kind '{d.kind}'")
    if d.kind == "nop":
        if d.node is not None and type(d.node) is not int:
            raise IllegalActionError(f"nop on node {d.node!r}, which is not an int")
    elif type(d.node) is not int or not st.scenario.topology.has_node(d.node):
        raise IllegalActionError(f"defender action on unknown node {d.node}")
    if d.kind == "isolate" and (type(d.duration) is not int or d.duration < 1):
        raise IllegalActionError(f"isolation duration must be an int >= 1, got {d.duration!r}")
    if d.kind != "isolate" and (type(d.duration) is not int or d.duration != 1):
        raise IllegalActionError(f"{d.kind} duration must be the int 1, got {d.duration!r}")


def _check_attacker_action(st: GameState, a: AttackerAction) -> list[int]:
    """The attempts of `a` in ascending node id, each checked legal."""
    if len(a.attempts) > st.scenario.attacker.spread:
        raise IllegalActionError(
            f"{len(a.attempts)} attempts exceed spread {st.scenario.attacker.spread}")
    topo = st.scenario.topology
    attempts = sorted(a.attempts)
    for n in attempts:
        if type(n) is not int or not topo.has_node(n):
            raise IllegalActionError(f"attempt on unknown node {n}")
        if st.compromised.isdisjoint(topo.neighbors(n)):
            raise IllegalActionError(f"attempt on node {n} not adjacent to a compromised node")
    return attempts


def _event(table: dict, *fields) -> Event:
    """The `Event` of `fields`, in `Event` order, built once per `table`."""
    event = table.get(fields)
    if event is None:
        event = table[fields] = Event(*fields)
    return event


def step(st: GameState, d: DefenderAction, a: AttackerAction) -> tuple[GameState, StepOutcome]:
    """Advance one step; mutates `st` in place and returns it with the outcome.

    Resolution order: defender action, attacker attempts, credential loot,
    knowledge growth, alerts, isolation tick, reward, clock/termination.
    """
    if st.terminal is not None:
        raise TerminalStateError(f"episode ended: {st.terminal}")
    _check_defender_action(st, d)
    attempts = _check_attacker_action(st, a)

    s = st.scenario
    topo = s.topology
    costs = s.costs
    draw = st.rng.random
    table = st._events
    events: list[Event] = []
    action_cost = 0.0

    # (1) defender action
    if d.kind == "patch":
        st.defence_now[d.node] = min(1.0, st.defence_now[d.node] + costs.patch_delta)
        action_cost += costs.patch_cost + costs.patch_usability
        events.append(_event(table, "patch", d.node))
    elif d.kind == "restore":
        st.compromised.discard(d.node)
        action_cost += costs.restore_cost + costs.restore_usability
        events.append(_event(table, "restore", d.node))
    elif d.kind == "isolate":
        st.isolation[d.node] = max(st.isolation.get(d.node, 0), d.duration)
        events.append(_event(table, "isolate", d.node, None, (), None, None, d.duration))
    elif d.kind == "scan":
        u = draw()
        truly = d.node in st.compromised
        result = (u < s.alerts.scan_tpr) if truly else (u < s.alerts.scan_fpr)
        st.scan_results[d.node] = (st.t, result)
        action_cost += costs.scan_cost
        events.append(_event(table, "scan", d.node, None, (), result))

    # isolation keeps nodes offline; charge every node-step it is in effect
    action_cost += costs.isolate_cost_per_step * len(st.isolation)

    # (2) attempts, ascending node id; isolated or already-taken nodes are
    # skipped silently and draw nothing
    newly: list[int] = []
    for n in attempts:
        if n in st.isolation or n in st.compromised:
            events.append(_event(table, "attempt", n, ATTEMPT_SKIPPED))
            continue
        node = topo.node(n)
        cred_held = bool(st.attacker_creds & node.unlocks)
        p = compromise_probability(s.attacker.strength, node, st.defence_now[n], cred_held)
        success = draw() < p
        alert_u = draw()
        events.append(_event(table, "attempt", n, ATTEMPT_SUCCESS if success else ATTEMPT_FAIL))
        if success:
            newly.append(n)
        threshold = s.alerts.p_alert_success if success else s.alerts.p_alert_fail
        if alert_u < threshold:
            kind = ALERT_ATTEMPT_SUCCESS if success else ALERT_ATTEMPT_FAIL
            events.append(_event(table, "alert", n, None, (), None, kind))

    # (3) loot newly compromised nodes
    st.compromised.update(newly)
    for n in newly:
        creds = topo.node(n).creds_stored
        if creds:
            st.attacker_creds.update(creds)
            events.append(_event(table, "loot", n, None, tuple(sorted(creds))))

    # (4) knowledge growth
    for n in newly:
        st.attacker_known.update(topo.neighbors(n))

    # (5) false alerts, ascending node id
    for n in topo.node_ids:
        if draw() < s.alerts.p_false_alert:
            events.append(_event(table, "alert", n, None, (), None, ALERT_FALSE_POSITIVE))
    st.last_alerts = tuple(sorted(e.node for e in events if e.kind == "alert"))

    # (6) isolation timers
    if st.isolation:
        st.isolation = {n: k - 1 for n, k in st.isolation.items() if k - 1 > 0}

    # (7) reward
    target = topo.target_id
    if target in st.compromised:
        reward = costs.target_loss_penalty
    else:
        reward = costs.survival_bonus - action_cost
    st.cumulative_reward += reward

    # (8) clock and termination
    st.t += 1
    cause = None
    if target in st.compromised:
        cause = TARGET_COMPROMISED
    elif st.t >= st.horizon:
        cause = HORIZON_REACHED
    st.terminal = cause

    # the events are the scenario's own objects, so their ids stand for them.
    # 0.0 == -0.0, but a zero reward has one sign per cause in an episode:
    # the target's loss pays `target_loss_penalty`, and `action_cost` is +0.0
    # or more, so a zero `survival_bonus - action_cost` has the bonus's sign
    key = (reward, cause, *map(id, events))
    outcome = st._outcomes.get(key)
    if outcome is None:
        outcome = st._outcomes[key] = StepOutcome(reward, tuple(events), cause)
    return st, outcome


# ---------------------------------------------------------------------------
# Episodes and logs
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    t: int
    defender: DefenderAction
    attacker: AttackerAction
    outcome: StepOutcome


@dataclass(frozen=True)
class EpisodeLog:
    scenario: Scenario
    scenario_sha256: str
    seed: int
    version: str
    steps: tuple[StepRecord, ...]
    final: dict

    def total_reward(self) -> float:
        return left_sum(r.outcome.reward for r in self.steps)

    def time_to_target(self) -> int:
        """Step count until target compromise; episode length when it never fell."""
        return self.final["t"]


def run_episode(s: Scenario, defender, attacker, seed: int,
                horizon_override: int | None = None) -> EpisodeLog:
    """Drive init/step with the two policies until the episode terminates.

    Policies receive labelled side RNG streams; the engine stream is derived
    from `seed` alone, so logs replay from the recorded actions.
    """
    st = init(s, seed, horizon_override)
    def_rng = random.Random(child_seed(seed, "defender"))
    atk_rng = random.Random(child_seed(seed, "attacker"))
    records: list[StepRecord] = []
    # one object per distinct checked action of either side, per scenario: a
    # defender action, a 3-tuple, never equals an attacker action, a 1-tuple
    actions = st._actions
    while st.terminal is None:
        d = defender.act(defender_view(st), def_rng)
        a = attacker.act(attacker_view(st), atk_rng)
        t_before = st.t
        st, outcome = step(st, d, a)
        d = actions.setdefault(d, d)
        a = actions.setdefault(a, a)
        defender.observe(outcome)
        attacker.observe(outcome)
        records.append(StepRecord(t_before, d, a, outcome))
    return EpisodeLog(
        scenario=s,
        scenario_sha256=s.digest,
        seed=seed,
        version=__version__,
        steps=tuple(records),
        final={
            "t": st.t,
            "terminal": st.terminal,
            "total_reward": st.cumulative_reward,
            "compromised": sorted(st.compromised),
            "creds": sorted(st.attacker_creds),
        },
    )


def _defender_action_obj(d: DefenderAction) -> dict:
    obj = {"kind": d.kind}
    if d.node is not None:
        obj["node"] = d.node
    if d.kind == "isolate":
        obj["duration"] = d.duration
    return obj


def _attacker_action_obj(a: AttackerAction) -> dict:
    return {"attempts": sorted(a.attempts)}


def episode_to_jsonl(log: EpisodeLog) -> str:
    """Serialize to the JSON-lines log format (header, steps, final summary)."""
    lines = [canonical_json({
        "scenario": scenario_to_obj(log.scenario),
        "scenario_sha256": log.scenario_sha256,
        "seed": log.seed,
        "version": log.version,
    })]
    for rec in log.steps:
        lines.append(canonical_json({
            "t": rec.t,
            "def": _defender_action_obj(rec.defender),
            "atk": _attacker_action_obj(rec.attacker),
            "events": [e.to_obj() for e in rec.outcome.events],
            "reward": rec.outcome.reward,
        }))
    lines.append(canonical_json({"final": log.final}))
    return "\n".join(lines) + "\n"


def extract_episode_jsonl(text: str) -> str:
    """Pull the embedded episode log out of a one-episode loop report, or
    pass through a plain JSON-lines log unchanged."""
    stripped = text.lstrip()
    if stripped.startswith("{") and "\n" in stripped:
        try:
            report = parse_json(text, "loop report")  # a text starting with "{" is an object
        except ParseError:
            return text
        if "episode_jsonl" in report:
            return member(report, "episode_jsonl", str)
        if "reports" in report:
            raise ParseError("a multi-episode loop report holds no single episode log")
    return text


_HEADER_KEYS = {"scenario", "scenario_sha256", "seed", "version"}
_STEP_KEYS = {"t", "def", "atk", "events", "reward"}
_DEF_KEYS = {"kind", "node", "duration"}
_ATK_KEYS = {"attempts"}
_EVENT_KEYS = {"kind", "node", "outcome", "creds", "result", "alert_kind", "duration"}
_FINAL_KEYS = {"t", "terminal", "total_reward", "compromised", "creds"}
# the value sets as sets, None in those of optional fields: one lookup a value
_DEFENDER_KIND_SET = frozenset(DEFENDER_KINDS)
_EVENT_KIND_SET = frozenset(EVENT_KINDS)
_OUTCOME_SET = frozenset((*ATTEMPT_OUTCOMES, None))
_ALERT_KIND_SET = frozenset((*ALERT_KINDS, None))


def _not_one_of(where: str, allowed: tuple, value) -> ParseError:
    return ParseError(f"{where} must be one of {', '.join(allowed)}, got {value!r}")


def parse_episode_jsonl(text: str) -> EpisodeLog:
    """The log of the JSON-lines `text`. An error names the JSON path of what
    it refuses, rooted at `lines[i]`, the i-th non-blank line."""
    lines = [parse_json(ln, "episode log") for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("episode log needs a header and a final summary")
    if len(lines) == 2:  # the game writes none: `run_episode` steps until an episode ends
        raise ParseError("episode log holds no step")
    header = json_object(lines[0], "lines[0]", _HEADER_KEYS)
    last = f"lines[{len(lines) - 1}]"
    final_at = last + ".final"
    final = json_object(json_object(lines[-1], last, {"final"}).get("final"), final_at,
                        _FINAL_KEYS)
    member(final, "t", int, final_at)
    terminal = member(final, "terminal", str, final_at)
    for key, kind in (("total_reward", float), ("compromised", [int]), ("creds", [str])):
        member(final, key, kind, final_at, ())
    records = []
    for i in range(1, len(lines) - 1):
        where = f"lines[{i}]"
        step = json_object(lines[i], where, _STEP_KEYS)
        def_at, atk_at = where + ".def", where + ".atk"
        d = json_object(step.get("def"), def_at, _DEF_KEYS)
        kind = member(d, "kind", str, def_at)
        if kind not in _DEFENDER_KIND_SET:
            raise _not_one_of(def_at + ".kind", DEFENDER_KINDS, kind)
        atk = json_object(step.get("atk"), atk_at, _ATK_KEYS)
        events, events_at = [], where + ".events"
        for j, event in enumerate(member(step, "events", list, where)):
            event_at = f"{events_at}[{j}]"
            event = json_object(event, event_at, _EVENT_KEYS)
            event_kind = member(event, "kind", str, event_at)
            if event_kind not in _EVENT_KIND_SET:
                raise _not_one_of(event_at + ".kind", EVENT_KINDS, event_kind)
            outcome = member(event, "outcome", str, event_at, None)
            if outcome not in _OUTCOME_SET:
                raise _not_one_of(event_at + ".outcome", ATTEMPT_OUTCOMES, outcome)
            alert_kind = member(event, "alert_kind", str, event_at, None)
            if alert_kind not in _ALERT_KIND_SET:
                raise _not_one_of(event_at + ".alert_kind", ALERT_KINDS, alert_kind)
            # positional: each read names its field, and keywords cost a third more here
            events.append(Event(event_kind,
                                member(event, "node", int, event_at),
                                outcome,
                                tuple(member(event, "creds", [str], event_at, ())),
                                member(event, "result", bool, event_at, None),
                                alert_kind,
                                member(event, "duration", int, event_at, None)))
        records.append(StepRecord(
            member(step, "t", int, where),
            DefenderAction(kind, member(d, "node", int, def_at, None),
                           member(d, "duration", int, def_at, 1)),
            AttackerAction(frozenset(member(atk, "attempts", [int], atk_at))),
            StepOutcome(member(step, "reward", float, where), tuple(events),
                        terminal if i == len(lines) - 2 else None),
        ))
    return EpisodeLog(
        scenario=scenario_from_obj(header.get("scenario"), path="lines[0].scenario"),
        scenario_sha256=member(header, "scenario_sha256", str, "lines[0]"),
        seed=member(header, "seed", int, "lines[0]"),
        version=member(header, "version", str, "lines[0]", __version__),
        steps=tuple(records),
        final=final,
    )


class _Recorded:
    """A policy that plays back one side's recorded actions, in order."""

    def __init__(self, actions):
        self._actions = iter(actions)

    def act(self, view, rng):
        action = next(self._actions, None)
        if action is None:
            raise ReplayMismatchError("replay ran past the last recorded step")
        return action

    def observe(self, outcome) -> None:
        pass


def replay_episode(log: EpisodeLog) -> EpisodeLog:
    """Re-run the engine with the recorded action streams."""
    if log.final["terminal"] == HORIZON_REACHED:
        horizon = log.final["t"]
    else:
        horizon = max(log.scenario.horizon, len(log.steps))
    return run_episode(log.scenario,
                       _Recorded(rec.defender for rec in log.steps),
                       _Recorded(rec.attacker for rec in log.steps),
                       log.seed, horizon)


def verify_replay(text: str) -> bool:
    """True iff re-running the log's actions reproduces its exact bytes; a
    recorded action illegal in the replayed state is a mismatch too."""
    log = parse_episode_jsonl(text)
    try:
        replayed = replay_episode(log)
    except (ReplayMismatchError, IllegalActionError):
        return False
    return episode_to_jsonl(replayed) == text
