"""Static scenario model: network topology, attacker profile, episode economics.

A Scenario is immutable after load and safe to share read-only across any
number of concurrently running episodes. Dataclasses here do not self-check;
`validate_scenario` is the single gate that enumerates every violated rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

from ._util import at, canonical_json, json_object, member, parse_json, sha256_hex
from .errors import ParseError, UnknownNodeError, ValidationError

DEFAULT_HORIZON = 100
DEFAULT_STRENGTH = 0.5
DEFAULT_SPREAD = 1


@dataclass(frozen=True)
class VulnSpec:
    """One exploitable weakness on a device; severity scales compromise odds."""

    id: str
    severity: float


@dataclass(frozen=True)
class NodeSpec:
    id: int
    defence: float = 0.0
    vulns: tuple[VulnSpec, ...] = ()
    creds_stored: frozenset[str] = frozenset()
    unlocks: frozenset[str] = frozenset()
    is_target: bool = False

    def max_severity(self) -> float:
        """Worst vulnerability on the device; 0 when it has none."""
        return max((v.severity for v in self.vulns), default=0.0)


@dataclass(frozen=True)
class NetworkTopology:
    """Nodes and undirected edges. The sorted ids, the target and the sorted
    edge tuple are computed on first use and kept, so building a topology
    costs no more than indexing it."""

    nodes: tuple[NodeSpec, ...]
    edges: frozenset[tuple[int, int]]  # normalized (lo, hi) pairs
    _by_id: dict = field(init=False, repr=False, compare=False)
    _adj: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {n.id: n for n in self.nodes}
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for a, b in self.edges:
            if a in adj and b in adj and a != b:
                adj[a].add(b)
                adj[b].add(a)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_adj", {k: tuple(sorted(v)) for k, v in adj.items()})

    def node(self, node_id: int) -> NodeSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        if node_id not in self._adj:
            raise UnknownNodeError(f"no node with id {node_id}")
        return self._adj[node_id]

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    @cached_property
    def target_id(self) -> int:
        # raising leaves nothing cached, so every read on a topology
        # without a target raises
        for n in self.nodes:
            if n.is_target:
                return n.id
        raise ValidationError("exactly one target: scenario has none")


@dataclass(frozen=True)
class AttackerParams:
    strength: float = DEFAULT_STRENGTH
    spread: int = DEFAULT_SPREAD
    entry: frozenset[int] = frozenset()


@dataclass(frozen=True)
class CostParams:
    patch_cost: float = 1.0
    patch_usability: float = 0.5
    restore_cost: float = 3.0
    restore_usability: float = 2.0
    isolate_cost_per_step: float = 2.0
    scan_cost: float = 0.5
    survival_bonus: float = 1.0
    target_loss_penalty: float = -100.0
    patch_delta: float = 0.2


@dataclass(frozen=True)
class AlertParams:
    p_alert_fail: float = 0.6
    p_alert_success: float = 0.3
    p_false_alert: float = 0.05
    scan_tpr: float = 0.9
    scan_fpr: float = 0.05


@dataclass(frozen=True)
class Scenario:
    topology: NetworkTopology
    attacker: AttackerParams
    costs: CostParams = CostParams()
    alerts: AlertParams = AlertParams()
    horizon: int = DEFAULT_HORIZON

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical compact serialization, computed once per
        scenario object."""
        return sha256_hex(canonical_json(scenario_to_obj(self)))

    @cached_property
    def validated(self) -> bool:
        """True once `validate_scenario` has passed on this object. Raising
        caches nothing, so an invalid scenario raises at every read."""
        validate_scenario(self)
        return True


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NODE_KEYS = {"id", "defence", "vulns", "creds_stored", "unlocks", "target"}
_VULN_KEYS = {"id", "severity"}
_ATTACKER_KEYS = {"strength", "spread", "entry"}
_TOP_KEYS = {"nodes", "edges", "attacker", "costs", "alerts", "horizon"}
# the all-number groups: key, class and the default of each of its fields
_GROUPS = [(key, cls, {f.name: f.default for f in fields(cls)})
           for key, cls in (("costs", CostParams), ("alerts", AlertParams))]


def scenario_from_obj(obj, lenient: bool = False, path: str = "") -> Scenario:
    """Build a Scenario from a decoded JSON object at JSON path `path` (no
    validation yet); unknown keys are refused unless `lenient`."""
    obj = json_object(obj, path, _TOP_KEYS, lenient)
    nodes = []
    for i, node in enumerate(member(obj, "nodes", list, path)):
        where = at(at(path, "nodes"), i)
        node = json_object(node, where, _NODE_KEYS, lenient)
        vulns = []
        for j, vuln in enumerate(member(node, "vulns", list, where, ())):
            vuln_at = at(at(where, "vulns"), j)
            vuln = json_object(vuln, vuln_at, _VULN_KEYS, lenient)
            vulns.append(VulnSpec(member(vuln, "id", str, vuln_at),
                                  member(vuln, "severity", float, vuln_at)))
        nodes.append(NodeSpec(
            id=member(node, "id", int, where),
            defence=member(node, "defence", float, where, 0.0),
            vulns=tuple(sorted(vulns, key=lambda v: v.id)),
            creds_stored=frozenset(member(node, "creds_stored", [str], where, ())),
            unlocks=frozenset(member(node, "unlocks", [str], where, ())),
            is_target=member(node, "target", bool, where, False),
        ))

    edges = set()
    for i, pair in enumerate(member(obj, "edges", [[int]], path)):
        if len(pair) != 2:
            raise ParseError(f"{at(at(path, 'edges'), i)} must be a pair of node ids")
        edges.add((min(pair), max(pair)))

    where = at(path, "attacker")
    atk = json_object(obj.get("attacker"), where, _ATTACKER_KEYS, lenient)
    attacker = AttackerParams(
        strength=member(atk, "strength", float, where, DEFAULT_STRENGTH),
        spread=member(atk, "spread", int, where, DEFAULT_SPREAD),
        entry=frozenset(member(atk, "entry", [int], where)),
    )

    groups = {}
    for key, cls, defaults in _GROUPS:
        where = at(path, key)
        group = json_object(obj.get(key, {}), where, set(defaults), lenient)
        groups[key] = cls(**{name: member(group, name, float, where, default)
                             for name, default in defaults.items()})

    return Scenario(
        topology=NetworkTopology(nodes=tuple(sorted(nodes, key=lambda n: n.id)),
                                 edges=frozenset(edges)),
        attacker=attacker,
        horizon=member(obj, "horizon", int, path, DEFAULT_HORIZON),
        **groups,
    )


def load_scenario(text: str, lenient: bool = False) -> Scenario:
    """Parse and validate a scenario document.

    Raises ParseError for malformed documents (including unknown keys unless
    `lenient`), ValidationError when any invariant is violated.
    """
    scenario = scenario_from_obj(parse_json(text, "scenario"), lenient=lenient)
    scenario.validated
    return scenario


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_scenario(s: Scenario) -> None:
    """Check every invariant; raise ValidationError listing all violations."""
    problems: list[str] = []
    nodes = s.topology.nodes
    ids = [n.id for n in nodes]
    id_set = set(ids)

    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        problems.append(f"node ids not unique: {dupes}")
    for n in nodes:
        if n.id < 0:
            problems.append(f"node id {n.id} must be non-negative")
        if not 0.0 <= n.defence <= 1.0:
            problems.append(f"defence out of range on node {n.id}: {n.defence}")
        vuln_ids = [v.id for v in n.vulns]
        if len(vuln_ids) != len(set(vuln_ids)):
            problems.append(f"duplicate vulnerability ids on node {n.id}")
        for v in n.vulns:
            if not v.id:
                problems.append(f"empty vulnerability id on node {n.id}")
            if not 0.0 <= v.severity <= 1.0:
                problems.append(f"severity out of range on node {n.id}: {v.id}={v.severity}")

    targets = [n.id for n in nodes if n.is_target]
    if len(targets) != 1:
        problems.append(f"exactly one target required, found {len(targets)}")

    for a, b in s.topology.sorted_edges:
        if a == b:
            problems.append(f"self-loop on node {a}")
        if a not in id_set:
            problems.append(f"edge endpoint {a} does not exist")
        if b not in id_set:
            problems.append(f"edge endpoint {b} does not exist")

    if nodes and not _connected(s.topology):
        problems.append("graph not connected")

    atk = s.attacker
    if not 0.0 <= atk.strength <= 1.0:
        problems.append(f"attacker strength out of range: {atk.strength}")
    if atk.spread < 1:
        problems.append(f"attacker spread must be >= 1, got {atk.spread}")
    if not atk.entry:
        problems.append("attacker entry set is empty")
    for e in sorted(atk.entry):
        if e not in id_set:
            problems.append(f"entry node {e} does not exist")
        elif len(targets) == 1 and e == targets[0]:
            problems.append(f"entry node {e} is the target")

    c = s.costs
    non_negative = ("patch_cost", "patch_usability", "restore_cost", "restore_usability",
                    "isolate_cost_per_step", "scan_cost")
    for name in non_negative + ("survival_bonus", "target_loss_penalty"):
        value = getattr(c, name)
        if not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value}")
        elif name in non_negative and value < 0:
            problems.append(f"{name} must be non-negative")
        elif name == "target_loss_penalty" and value >= 0:
            problems.append("target_loss_penalty must be negative")
    if not 0.0 < c.patch_delta <= 1.0:
        problems.append(f"patch_delta must be in (0,1], got {c.patch_delta}")

    for name in ("p_alert_fail", "p_alert_success", "p_false_alert", "scan_tpr", "scan_fpr"):
        value = getattr(s.alerts, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} out of range: {value}")

    if s.horizon < 1:
        problems.append(f"horizon must be >= 1, got {s.horizon}")

    if problems:
        raise ValidationError(problems)


def _connected(t: NetworkTopology) -> bool:
    start = t.nodes[0].id
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in t._adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(t.nodes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def scenario_to_obj(s: Scenario) -> dict:
    """Canonical plain-object form; inverse of scenario_from_obj."""
    return {
        "nodes": [
            {
                "id": n.id,
                "defence": n.defence,
                "vulns": [{"id": v.id, "severity": v.severity} for v in n.vulns],
                "creds_stored": sorted(n.creds_stored),
                "unlocks": sorted(n.unlocks),
                "target": n.is_target,
            }
            for n in s.topology.nodes
        ],
        "edges": [list(e) for e in s.topology.sorted_edges],
        "attacker": {
            "strength": s.attacker.strength,
            "spread": s.attacker.spread,
            "entry": sorted(s.attacker.entry),
        },
        "costs": asdict(s.costs),
        "alerts": asdict(s.alerts),
        "horizon": s.horizon,
    }
