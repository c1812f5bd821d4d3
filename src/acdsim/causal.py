"""Discrete causal graphical models over binary variables.

Covers exact joint/marginal/conditional queries by enumeration, interventions
by graph mutilation, ancestral sampling, the three tactic sub-graph topologies
unrolled over time, and exact smoothing.

Enumeration answers any query with at most 20 free variables. Slice-structured
models (every non-global variable carries a time index, parents restricted to
the same slice, the previous slice, or parentless globals) additionally get an
exact forward-backward engine, so conditioning and smoothing stay cheap on
long unrollings; both routes compute the same sums.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .errors import (
    EvidenceOrderingError,
    LatentEvidenceError,
    LatentInterventionError,
    ParseError,
    SpecError,
    TooLargeError,
    ZeroEvidenceError,
)

ENUMERATION_LIMIT = 20
SLICE_STATE_LIMIT = 8   # max state variables per slice for the engine
ENGINE_PREFERENCE = 12  # conditionals route to the engine above this many free vars
SMOOTH_SLICE_LIMIT = 16


# ---------------------------------------------------------------------------
# Variables and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarId:
    name: str
    slice: int | None = None

    def __str__(self) -> str:
        return self.name if self.slice is None else f"{self.name}@{self.slice}"


def parse_var(text: str) -> VarId:
    if "@" in text:
        name, _, idx = text.rpartition("@")
        if not name or not idx.isdigit():
            raise ParseError(f"bad variable reference '{text}'")
        return VarId(name, int(idx))
    if not text:
        raise ParseError("empty variable reference")
    return VarId(text)


Assignment = dict  # VarId -> 0/1


@dataclass(frozen=True)
class Cgm:
    """DAG over binary variables with p(var = 1 | parents) tables.

    CPT rows follow binary counting order over the parent tuple with the
    first parent as the most significant bit. Latent variables are excluded
    from evidence and observation. Immutable after construction.
    """

    variables: tuple[VarId, ...]
    parents: dict
    cpts: dict
    latent: frozenset = frozenset()
    order: tuple[VarId, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for v in self.variables:
            if v in seen:
                raise SpecError(f"duplicate variable {v}")
            seen.add(v)
        for v in self.variables:
            ps = self.parents.get(v, ())
            for p in ps:
                if p not in seen:
                    raise SpecError(f"parent {p} of {v} is not a model variable")
            cpt = self.cpts.get(v)
            if cpt is None or len(cpt) != 2 ** len(ps):
                raise SpecError(f"CPT for {v} must have {2 ** len(self.parents.get(v, ()))} rows")
            for entry in cpt:
                if not 0.0 <= entry <= 1.0:
                    raise SpecError(f"CPT entry out of [0,1] for {v}: {entry}")
        for v in self.latent:
            if v not in seen:
                raise SpecError(f"latent {v} is not a model variable")
        object.__setattr__(self, "order", self._topological())

    def _topological(self) -> tuple[VarId, ...]:
        """Variables by (longest-path depth, declaration index), in O(V + E).

        Depth 0 holds the parentless variables and depth d those whose
        deepest parent sits at depth d - 1. `DbnEngine` lays out its state
        bits in this order, so it must not change.
        """
        index = {v: i for i, v in enumerate(self.variables)}
        children: list[list[int]] = [[] for _ in self.variables]
        waiting = []
        for i, v in enumerate(self.variables):
            ps = self.parents.get(v, ())
            waiting.append(len(ps))
            for p in ps:
                children[index[p]].append(i)
        depth = [0] * len(self.variables)
        ready = [i for i, n in enumerate(waiting) if n == 0]
        for i in ready:  # Kahn's algorithm; `ready` grows while it is walked
            for c in children[i]:
                depth[c] = max(depth[c], depth[i] + 1)
                waiting[c] -= 1
                if waiting[c] == 0:
                    ready.append(c)
        if len(ready) < len(self.variables):
            raise SpecError("parent relation contains a cycle")
        waves: list[list[VarId]] = [[] for _ in range(max(depth, default=-1) + 1)]
        for v, d in zip(self.variables, depth):
            waves[d].append(v)
        return tuple(v for wave in waves for v in wave)

    def has(self, v: VarId) -> bool:
        return v in self.cpts

    def prob_one(self, v: VarId, assignment: Assignment) -> float:
        """p(v = 1 | parent values from `assignment`)."""
        ps = self.parents.get(v, ())
        idx = 0
        for p in ps:
            idx = (idx << 1) | assignment[p]
        return self.cpts[v][idx]


def _check_assignment(m: Cgm, q: Assignment, what: str):
    for v, value in q.items():
        if not m.has(v):
            raise SpecError(f"{what} refers to unknown variable {v}")
        if value not in (0, 1):
            raise SpecError(f"{what} value for {v} must be 0 or 1")


def _merged(target: Assignment, given: Assignment) -> Assignment | None:
    """Union of two assignments; None when they contradict each other."""
    out = dict(given)
    for v, value in target.items():
        if v in out and out[v] != value:
            return None
        out[v] = value
    return out


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def marginal(m: Cgm, q: Assignment) -> float:
    """Probability of the partial assignment `q` by exact enumeration.

    Sums the CPT product over all completions; the empty query has
    probability 1. Guarded at 20 free variables.
    """
    _check_assignment(m, q, "query")
    free = len(m.variables) - len(q)
    if free > ENUMERATION_LIMIT:
        raise TooLargeError(f"{free} free variables exceed the enumeration limit "
                            f"of {ENUMERATION_LIMIT}")
    order = m.order

    def recurse(i: int, assignment: dict) -> float:
        if i == len(order):
            return 1.0
        v = order[i]
        p1 = m.prob_one(v, assignment)
        if v in q:
            assignment[v] = q[v]
            p = p1 if q[v] == 1 else 1.0 - p1
            total = p * recurse(i + 1, assignment) if p else 0.0
            del assignment[v]
            return total
        total = 0.0
        for value, p in ((1, p1), (0, 1.0 - p1)):
            if p == 0.0:
                continue
            assignment[v] = value
            total += p * recurse(i + 1, assignment)
            del assignment[v]
        return total

    return recurse(0, {})


def observational(m: Cgm, target: Assignment, given: Assignment) -> float:
    """p(target | given): the ratio of the two marginals.

    Uses enumeration when bounds allow, otherwise the exact slice engine.
    """
    _check_assignment(m, target, "target")
    _check_assignment(m, given, "given")
    for v in given:
        if v in m.latent:
            raise LatentEvidenceError(f"cannot condition on latent {v}")
    joint = _merged(target, given)
    free = len(m.variables) - len(given)
    if free > ENGINE_PREFERENCE:
        try:
            engine = DbnEngine(m)
        except TooLargeError:
            engine = None  # not slice-structured; fall back to enumeration
        if engine is not None:
            ll_e = engine.loglik(given)
            if ll_e == float("-inf"):
                raise ZeroEvidenceError("conditioning event has probability zero")
            if joint is None:
                return 0.0
            ll_j = engine.loglik(joint)
            return math.exp(ll_j - ll_e) if ll_j != float("-inf") else 0.0
    pe = marginal(m, given)
    if pe == 0.0:
        raise ZeroEvidenceError("conditioning event has probability zero")
    return marginal(m, joint) / pe if joint is not None else 0.0


def do_transform(m: Cgm, do: Assignment) -> Cgm:
    """Graph mutilation: intervened variables lose their parents and become
    point masses on the forced value; everything else is untouched."""
    _check_assignment(m, do, "intervention")
    for v in do:
        if v in m.latent:
            raise LatentInterventionError(f"cannot intervene on latent {v}")
    parents = dict(m.parents)
    cpts = dict(m.cpts)
    for v, value in do.items():
        parents[v] = ()
        cpts[v] = (float(value),)
    return Cgm(variables=m.variables, parents=parents, cpts=cpts, latent=m.latent)


def interventional(m: Cgm, target: Assignment, do: Assignment,
                   evidence: Assignment | None = None) -> float:
    """p(target | do, evidence) via mutilation plus conditioning.

    Evidence is only admitted on slices strictly before the earliest
    intervened slice (condition on the past, intervene on the future).
    """
    evidence = dict(evidence or {})
    _check_assignment(m, do, "intervention")
    _check_assignment(m, evidence, "evidence")
    if not do:
        return observational(m, target, evidence)
    if evidence:
        do_slices = [v.slice for v in do]
        if any(s is None for s in do_slices) or any(v.slice is None for v in evidence):
            raise EvidenceOrderingError(
                "evidence with interventions requires time-indexed variables")
        cutoff = min(do_slices)
        late = [v for v in evidence if v.slice >= cutoff]
        if late:
            raise EvidenceOrderingError(
                f"evidence at or after the intervention slice {cutoff}: "
                f"{', '.join(str(v) for v in sorted(late, key=str))}")
    mutilated = do_transform(m, do)
    conditioning = _merged(do, evidence)
    return observational(mutilated, target, conditioning)


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


# ---------------------------------------------------------------------------
# Tactic topologies unrolled over time
# ---------------------------------------------------------------------------

class Topology(Enum):
    CHAIN_A = "chain-a"            # command-and-control -> movement -> collection
    FORK_B = "fork-b"              # two independent drivers of collection
    CONFOUNDED_C = "confounded-c"  # hidden operator drives movement and collection


@dataclass(frozen=True)
class DbnParams:
    """Noisy-OR parameters, each expressed as a singleton conditional.

    `spontaneous` is p(active | nothing active); `persistence`, `edge_strength`
    and `confounder_strength` are p(active | only that cause active). Roots at
    slice 0 use `root_activation` directly.
    """

    spontaneous: float = 0.02
    persistence: float = 0.95
    edge_strength: float = 0.8
    root_activation: float = 0.8  # the malign hypothesis assumes a live campaign
    confounder_prior: float = 0.5
    confounder_strength: float = 0.8


@dataclass(frozen=True)
class DbnSpec:
    topology: Topology
    slices: int
    schedule: tuple[bool, ...] | None = None  # confounded-c: X_t -> Y_t switch per slice
    params: DbnParams = DbnParams()
    per_slice_confounder: bool = False  # confounded-c: fresh U_t each slice instead of one global U

    def effective_schedule(self) -> tuple[bool, ...]:
        if self.schedule is not None:
            return self.schedule
        return tuple(t % 2 == 0 for t in range(self.slices))

    def with_slices(self, slices: int) -> "DbnSpec":
        """The same spec unrolled over `slices` slices, an explicit schedule
        tiled to the new length."""
        schedule = (tuple(self.schedule[i % len(self.schedule)] for i in range(slices))
                    if self.schedule else None)
        return replace(self, slices=slices, schedule=schedule)


def _noisy_or_weight(singleton: float, spontaneous: float) -> float:
    if singleton < spontaneous:
        raise SpecError(f"cause strength {singleton} below spontaneous rate {spontaneous}")
    return 1.0 - (1.0 - singleton) / (1.0 - spontaneous)


def _noisy_or_cpt(weights: tuple[float, ...], spontaneous: float) -> tuple[float, ...]:
    rows = []
    k = len(weights)
    for combo in range(2 ** k):
        stay = 1.0 - spontaneous
        for i in range(k):
            if (combo >> (k - 1 - i)) & 1:
                stay *= 1.0 - weights[i]
        rows.append(1.0 - stay)
    return tuple(rows)


def build_topology(spec: DbnSpec) -> Cgm:
    """Unroll one of the three tactic sub-graphs into a Cgm.

    Chain: Z_t -> X_t -> Y_t. Fork: Z_t -> Y_t and X_t -> Y_t with Z, X
    independent within a slice. Confounded: a single global latent U drives
    X_t and Y_t on every slice (or a fresh U_t per slice when
    `per_slice_confounder` is set), with the direct X_t -> Y_t edge switched
    per slice by the schedule. Every non-latent variable persists to the
    next slice.
    """
    if spec.slices < 1:
        raise SpecError("slice count must be >= 1")
    p = spec.params
    if not 0.0 <= p.spontaneous < 1.0:
        raise SpecError("spontaneous rate must be in [0,1)")
    for name in ("root_activation", "confounder_prior"):
        value = getattr(p, name)
        if not 0.0 <= value <= 1.0:
            raise SpecError(f"{name} must be in [0,1]")
    schedule = spec.effective_schedule()
    if len(schedule) != spec.slices:
        raise SpecError(f"schedule length {len(schedule)} != slice count {spec.slices}")

    w_persist = _noisy_or_weight(p.persistence, p.spontaneous)
    w_edge = _noisy_or_weight(p.edge_strength, p.spontaneous)
    w_conf = _noisy_or_weight(p.confounder_strength, p.spontaneous)

    variables: list[VarId] = []
    parents: dict = {}
    cpts: dict = {}
    latent: set = set()

    def add(v: VarId, ps: list[tuple[VarId, float]], root: bool = False):
        variables.append(v)
        parents[v] = tuple(pv for pv, _ in ps)
        if root and not ps:
            cpts[v] = (p.root_activation,)
        else:
            cpts[v] = _noisy_or_cpt(tuple(w for _, w in ps), p.spontaneous)

    if spec.topology is Topology.CONFOUNDED_C and not spec.per_slice_confounder:
        u = VarId("U")
        variables.append(u)
        parents[u] = ()
        cpts[u] = (p.confounder_prior,)
        latent.add(u)

    tactic_names = {"Z", "X", "Y"} if spec.topology is not Topology.CONFOUNDED_C else {"X", "Y"}
    for t in range(spec.slices):
        if spec.topology is Topology.CONFOUNDED_C and spec.per_slice_confounder:
            u_t = VarId("U", t)
            variables.append(u_t)
            parents[u_t] = ()
            cpts[u_t] = (p.confounder_prior,)
            latent.add(u_t)
        for name in ("Z", "X", "Y"):
            if name not in tactic_names:
                continue
            v = VarId(name, t)
            causes: list[tuple[VarId, float]] = []
            if t > 0:
                causes.append((VarId(name, t - 1), w_persist))
            if spec.topology is Topology.CONFOUNDED_C and name in ("X", "Y"):
                u_ref = VarId("U", t) if spec.per_slice_confounder else VarId("U")
                causes.append((u_ref, w_conf))
            if spec.topology is Topology.CHAIN_A:
                if name == "X":
                    causes.append((VarId("Z", t), w_edge))
                elif name == "Y":
                    causes.append((VarId("X", t), w_edge))
            elif spec.topology is Topology.FORK_B:
                if name == "Y":
                    causes.append((VarId("Z", t), w_edge))
                    causes.append((VarId("X", t), w_edge))
            elif spec.topology is Topology.CONFOUNDED_C:
                if name == "Y" and schedule[t]:
                    causes.append((VarId("X", t), w_edge))
            add(v, causes, root=(t == 0 and not causes))

    return Cgm(variables=tuple(variables), parents=parents, cpts=cpts,
               latent=frozenset(latent))


def emission_var(v: VarId) -> VarId:
    return VarId(f"{v.name}_obs", v.slice)


def attach_emissions(m: Cgm, miss: float, false_pos: float) -> Cgm:
    """Extend the model with one noisy observed child per time-indexed
    non-latent variable: flips 1 -> 0 with `miss`, 0 -> 1 with `false_pos`."""
    variables = list(m.variables)
    parents = dict(m.parents)
    cpts = dict(m.cpts)
    for v in m.variables:
        if v in m.latent or v.slice is None:
            continue
        obs = emission_var(v)
        variables.append(obs)
        parents[obs] = (v,)
        cpts[obs] = (false_pos, 1.0 - miss)
    return Cgm(variables=tuple(variables), parents=parents, cpts=cpts, latent=m.latent)


# ---------------------------------------------------------------------------
# Exact slice engine (forward-backward over joint slice states)
# ---------------------------------------------------------------------------

class DbnEngine:
    """Exact inference on slice-structured models.

    Enumerates joint assignments of each slice as its state space, enumerates
    parentless global variables outright, and runs scaled forward-backward.
    Computes the identical sums to full enumeration, without the exponential
    blow-up in the number of slices.
    """

    def __init__(self, m: Cgm):
        self.m = m
        self.globals: list[VarId] = []
        by_slice: dict[int, list[VarId]] = {}
        for v in m.order:  # topological, so within-slice parents precede
            if v.slice is None:
                if m.parents.get(v, ()):
                    raise TooLargeError(
                        f"model is not slice-structured: global {v} has parents")
                self.globals.append(v)
            else:
                by_slice.setdefault(v.slice, []).append(v)
        if not by_slice:
            raise TooLargeError("model has no time-indexed variables")
        self.T = max(by_slice) + 1
        if sorted(by_slice) != list(range(self.T)):
            raise TooLargeError("model slices are not contiguous from 0")
        self.slice_vars: list[list[VarId]] = [by_slice[t] for t in range(self.T)]
        for t, svars in enumerate(self.slice_vars):
            if len(svars) > SLICE_STATE_LIMIT:
                raise TooLargeError(
                    f"slice {t} has {len(svars)} variables; engine limit is "
                    f"{SLICE_STATE_LIMIT}")
            for v in svars:
                for parent in m.parents.get(v, ()):
                    if parent.slice is None:
                        continue
                    if parent.slice not in (t, t - 1):
                        raise TooLargeError(
                            f"model is not slice-structured: {v} depends on {parent}")
        self.pos: dict[VarId, int] = {}
        for svars in self.slice_vars:
            for i, v in enumerate(svars):
                self.pos[v] = i
        # Equal arrays are stored once: slices share their layouts, and the
        # transition matrices of most slices are equal.
        interned: dict = {}

        def intern(a: np.ndarray) -> np.ndarray:
            return interned.setdefault((a.dtype.str, a.shape, a.tobytes()), a)

        # bit value of each variable per state index, LSB = first variable
        self.bits: list[np.ndarray] = []
        for svars in self.slice_vars:
            states = np.arange(2 ** len(svars))
            self.bits.append(intern(np.stack([(states >> i) & 1 for i in range(len(svars))])))
        # per slice variable: the 0/1 evidence mask of each value over its
        # slice's states, and the states where it is 1
        self._value_masks: dict[VarId, dict[int, np.ndarray]] = {}
        self._on_states: dict[VarId, np.ndarray] = {}
        for t, svars in enumerate(self.slice_vars):
            for i, v in enumerate(svars):
                bit = self.bits[t][i]
                self._value_masks[v] = {value: intern((bit == value).astype(float))
                                        for value in (0, 1)}
                self._on_states[v] = intern(np.flatnonzero(bit))
        self._global_assignments = self._enumerate_globals()
        self._log_priors = [math.log(p) if p > 0.0 else None
                            for p in map(self._global_prior, self._global_assignments)]
        # per global assignment: initial weights and transition matrices
        self._init: list[np.ndarray] = []
        self._trans: list[list[np.ndarray]] = []
        for g in self._global_assignments:
            self._init.append(intern(self._slice_factor(0, g)))
            self._trans.append([intern(self._slice_factor(t, g)) for t in range(1, self.T)])

    def _enumerate_globals(self) -> list[dict]:
        out = [{}]
        for v in self.globals:
            nxt = []
            for g in out:
                for value in (0, 1):
                    g2 = dict(g)
                    g2[v] = value
                    nxt.append(g2)
            out = nxt
        return out

    def _global_prior(self, g: dict) -> float:
        prior = 1.0
        for v in self.globals:
            p1 = self.m.cpts[v][0]
            prior *= p1 if g[v] == 1 else 1.0 - p1
        return prior

    def _slice_factor(self, t: int, g: dict) -> np.ndarray:
        """Joint factor for slice t: vector at t = 0, else (prev, cur) matrix."""
        svars = self.slice_vars[t]
        cur_bits = self.bits[t]
        if t == 0:
            shape: tuple = (cur_bits.shape[1],)
            prev_bits = None
        else:
            prev_bits = self.bits[t - 1]
            shape = (prev_bits.shape[1], cur_bits.shape[1])
        factor = np.ones(shape)
        for i, v in enumerate(svars):
            ps = self.m.parents.get(v, ())
            row = np.zeros(shape, dtype=np.int64)
            for parent in ps:
                if parent.slice is None:
                    bit = np.full(shape, g[parent], dtype=np.int64)
                elif parent.slice == t:
                    bit = cur_bits[self.pos[parent]]
                    if t > 0:
                        bit = np.broadcast_to(bit[None, :], shape)
                else:
                    bit = prev_bits[self.pos[parent]]
                    bit = np.broadcast_to(bit[:, None], shape)
                row = (row << 1) | bit
            p1 = np.asarray(self.m.cpts[v])[row]
            cur = cur_bits[i]
            if t > 0:
                cur = np.broadcast_to(cur[None, :], shape)
            factor = factor * np.where(cur == 1, p1, 1.0 - p1)
        return factor

    def _masks(self, assignment: Assignment) -> dict[int, np.ndarray] | None:
        """Per-slice 0/1 masks of the assignment's slice variables; None when
        it gives a variable a value outside 0/1. Masks are shared arrays."""
        masks: dict[int, np.ndarray] = {}
        for v, value in assignment.items():
            if v.slice is None:
                continue
            mask = self._value_masks[v].get(value)
            if mask is None:
                return None
            masks[v.slice] = masks[v.slice] * mask if v.slice in masks else mask
        return masks

    def _consistent(self, evidence: Assignment) -> list[int]:
        """Global assignments of nonzero prior that agree with the evidence."""
        global_ev = [(v, value) for v, value in evidence.items() if v.slice is None]
        return [gi for gi, g in enumerate(self._global_assignments)
                if self._log_priors[gi] is not None
                and all(g[v] == value for v, value in global_ev)]

    def _forward(self, gi: int, masks: dict):
        """Scaled forward filter under global assignment `gi`: (alphas,
        log p(e, g)), the last alpha normalized; None when the evidence is
        impossible under `gi`."""
        trans = self._trans[gi]
        alphas = [self._init[gi] * masks[0] if 0 in masks else self._init[gi]]
        scales = []
        for t in range(1, self.T):
            c = alphas[-1].sum()
            if c == 0.0:
                return None
            nxt = alphas[-1] @ trans[t - 1]
            alphas.append((nxt * masks[t] if t in masks else nxt) / c)
            scales.append(c)
        c = alphas[-1].sum()
        if c == 0.0:
            return None
        scales.append(c)
        alphas[-1] = alphas[-1] / c
        return alphas, self._log_priors[gi] + sum(math.log(c) for c in scales)

    def _filtered(self, evidence: Assignment) -> list[tuple[int, np.ndarray, float]]:
        """(gi, final filtered alpha, log p(e, g)) per global assignment the
        evidence is possible under."""
        masks = self._masks(evidence)
        if masks is None:
            return []
        out = []
        for gi in self._consistent(evidence):
            fwd = self._forward(gi, masks)
            if fwd is not None:
                out.append((gi, fwd[0][-1], fwd[1]))
        return out

    def loglik(self, evidence: Assignment) -> float:
        """log p(evidence); -inf when the evidence is impossible. Forward only."""
        logs = [lw for _, _, lw in self._filtered(evidence)]
        if not logs:
            return float("-inf")
        top = max(logs)
        return top + math.log(sum(math.exp(lw - top) for lw in logs))

    def posteriors(self, evidence: Assignment) -> dict:
        """p(var = 1 | evidence) for every variable in the model."""
        masks = self._masks(evidence)
        results = []
        for gi in self._consistent(evidence) if masks is not None else ():
            fwd = self._forward(gi, masks)
            if fwd is None:
                continue
            alphas, lw = fwd
            trans = self._trans[gi]
            beta = [None] * self.T
            beta[-1] = np.ones(alphas[-1].shape)
            for t in range(self.T - 2, -1, -1):
                nxt = beta[t + 1] * masks[t + 1] if t + 1 in masks else beta[t + 1]
                beta[t] = trans[t] @ nxt
                s = beta[t].max()
                if s > 0:
                    beta[t] = beta[t] / s
            gammas = []
            for alpha, b in zip(alphas, beta):
                gamma = alpha * b
                total = gamma.sum()
                gammas.append(gamma / total if total > 0 else gamma)
            results.append((self._global_assignments[gi], lw, gammas))
        if not results:
            raise ZeroEvidenceError("conditioning event has probability zero")
        weights = _normalized_weights([lw for _, lw, _ in results])
        out: dict = {}
        for v in self.globals:
            out[v] = sum(w for w, (g, _, _) in zip(weights, results) if g[v] == 1)
        for t, svars in enumerate(self.slice_vars):
            for v in svars:
                on = self._on_states[v]
                out[v] = sum(w * g3[t][on].sum()
                             for w, (_, _, g3) in zip(weights, results))
        return out

    def conditional(self, target: Assignment, evidence: Assignment) -> float:
        """p(target | evidence).

        A target wholly in the last slice is read off one forward filter: the
        final filtered alphas, weighted over the global assignments. Any other
        target takes the ratio of two likelihoods.
        """
        joint = _merged(target, evidence)
        if joint is None:
            return 0.0
        if target and all(v.slice == self.T - 1 for v in target):
            filtered = self._filtered(evidence)
            if not filtered:
                raise ZeroEvidenceError("conditioning event has probability zero")
            on = self._masks(target)
            if on is None:
                return 0.0
            weights = _normalized_weights([lw for _, _, lw in filtered])
            return sum(w * (alpha * on[self.T - 1]).sum()
                       for w, (_, alpha, _) in zip(weights, filtered))
        ll_e = self.loglik(evidence)
        if ll_e == float("-inf"):
            raise ZeroEvidenceError("conditioning event has probability zero")
        ll_j = self.loglik(joint)
        return math.exp(ll_j - ll_e) if ll_j != float("-inf") else 0.0


def _normalized_weights(logs: list[float]) -> list[float]:
    top = max(logs)
    weights = [math.exp(lw - top) for lw in logs]
    total = sum(weights)
    return [w / total for w in weights]


def smoothing_engine(m: Cgm, evidence: Assignment) -> DbnEngine | None:
    """The engine `smooth` runs on, built after the evidence checks and the
    16-slice limit; None for a model without time-indexed variables."""
    _check_assignment(m, evidence, "evidence")
    for v in evidence:
        if v in m.latent:
            raise LatentEvidenceError(f"cannot observe latent {v}")
    slices = [v.slice for v in m.variables if v.slice is not None]
    if not slices:
        return None
    T = max(slices) + 1
    if T > SMOOTH_SLICE_LIMIT:
        raise TooLargeError(f"smoothing supports at most {SMOOTH_SLICE_LIMIT} slices, got {T}")
    return DbnEngine(m)


def smooth(m: Cgm, evidence: Assignment) -> dict:
    """Exact posterior p(var = 1 | all evidence) for every hidden variable.

    Slice-structured models (up to 16 slices) run through the engine; tiny
    unstructured models fall back to enumeration.
    """
    engine = smoothing_engine(m, evidence)
    if engine is not None:
        post = engine.posteriors(evidence)
        return {v: p for v, p in post.items() if v not in evidence}
    hidden = [v for v in m.variables if v not in evidence]
    if len(hidden) > ENUMERATION_LIMIT:
        raise TooLargeError(f"{len(hidden)} hidden variables exceed the "
                            f"enumeration limit of {ENUMERATION_LIMIT}")
    pe = marginal(m, evidence)
    if pe == 0.0:
        raise ZeroEvidenceError("conditioning event has probability zero")
    return {v: marginal(m, {**evidence, v: 1}) / pe for v in hidden}


# ---------------------------------------------------------------------------
# Model and spec files
# ---------------------------------------------------------------------------

def model_to_obj(m: Cgm) -> dict:
    return {
        "variables": [
            {"name": v.name, "slice": v.slice, "latent": v in m.latent}
            for v in m.variables
        ],
        "parents": {str(v): [str(p) for p in m.parents.get(v, ())]
                    for v in m.variables},
        "cpts": {str(v): list(m.cpts[v]) for v in m.variables},
    }


def save_model(m: Cgm) -> str:
    return json.dumps(model_to_obj(m), sort_keys=True, indent=2)


def load_model(text: str) -> Cgm:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("model JSON must be an object")
    for key in ("variables", "parents", "cpts"):
        if key not in obj:
            raise ParseError(f"model JSON missing '{key}'")
    if not isinstance(obj["variables"], list) or not all(
            isinstance(entry, dict) for entry in obj["variables"]):
        raise ParseError("model 'variables' must be a list of objects")
    for key in ("parents", "cpts"):
        if not isinstance(obj[key], dict):
            raise ParseError(f"model '{key}' must be an object")
    variables = []
    latent = set()
    for entry in obj["variables"]:
        name, slice_ = entry.get("name"), entry.get("slice")
        if not isinstance(name, str) or not name:
            raise ParseError(f"model variable needs a non-empty string 'name': {entry}")
        if slice_ is not None and (isinstance(slice_, bool) or not isinstance(slice_, int)):
            raise ParseError(f"model variable '{name}' has a non-integer 'slice'")
        v = VarId(name, slice_)
        variables.append(v)
        if entry.get("latent"):
            latent.add(v)
    try:
        parents = {parse_var(k): tuple(parse_var(p) for p in ps)
                   for k, ps in obj["parents"].items()}
        cpts = {parse_var(k): tuple(float(x) for x in rows)
                for k, rows in obj["cpts"].items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad model tables: {exc}") from None
    return Cgm(variables=tuple(variables), parents=parents, cpts=cpts,
               latent=frozenset(latent))


def spec_to_obj(spec: DbnSpec) -> dict:
    return {
        "topology": spec.topology.value,
        "slices": spec.slices,
        "schedule": list(spec.schedule) if spec.schedule is not None else None,
        "per_slice_confounder": spec.per_slice_confounder,
        "params": {
            "spontaneous": spec.params.spontaneous,
            "persistence": spec.params.persistence,
            "edge_strength": spec.params.edge_strength,
            "root_activation": spec.params.root_activation,
            "confounder_prior": spec.params.confounder_prior,
            "confounder_strength": spec.params.confounder_strength,
        },
    }


def save_spec(spec: DbnSpec) -> str:
    return json.dumps(spec_to_obj(spec), sort_keys=True, indent=2)


def load_spec(text: str) -> DbnSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid DBN spec JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("DBN spec must be a JSON object")
    try:
        topology = Topology(obj["topology"])
    except (KeyError, ValueError):
        raise ParseError("DBN spec needs a topology of chain-a, fork-b or "
                         "confounded-c") from None
    if "slices" not in obj or not isinstance(obj["slices"], int):
        raise ParseError("DBN spec needs an integer 'slices'")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("DBN spec 'params' must be an object")
    known = {f.name for f in fields(DbnParams)}
    for key, value in params.items():
        if key not in known:
            raise ParseError(f"unknown DBN param '{key}' (want one of "
                             f"{', '.join(sorted(known))})")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"DBN param '{key}' must be a number")
    schedule = obj.get("schedule")
    if schedule is not None and not isinstance(schedule, list):
        raise ParseError("DBN spec 'schedule' must be a list or null")
    return DbnSpec(
        topology=topology,
        slices=obj["slices"],
        schedule=tuple(bool(x) for x in schedule) if schedule is not None else None,
        params=DbnParams(**params),
        per_slice_confounder=bool(obj.get("per_slice_confounder", False)),
    )


def parse_assignment(m: Cgm, text: str) -> Assignment:
    """Parse 'X=1,Y@2=0' against a model; bare names must be unambiguous."""
    out: Assignment = {}
    if not text.strip():
        return out
    for token in text.split(","):
        token = token.strip()
        if "=" not in token:
            raise ParseError(f"expected name=value, got '{token}'")
        ref, _, value = token.partition("=")
        if value not in ("0", "1"):
            raise ParseError(f"value for '{ref}' must be 0 or 1")
        ref = ref.strip()
        if "@" in ref:
            v = parse_var(ref)
            if not m.has(v):
                raise ParseError(f"unknown variable '{ref}'")
        else:
            matches = [w for w in m.variables if w.name == ref]
            if not matches:
                raise ParseError(f"unknown variable '{ref}'")
            if len(matches) > 1:
                raise ParseError(f"ambiguous variable '{ref}'; qualify as name@slice")
            v = matches[0]
        out[v] = int(value)
    return out
