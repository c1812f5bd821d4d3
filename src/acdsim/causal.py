"""Discrete causal graphical models over binary variables.

Covers exact joint/marginal/conditional queries by enumeration, interventions
by graph mutilation, the three tactic sub-graph topologies unrolled over time,
and exact smoothing.

Enumeration answers any query with at most 20 free variables. Slice-structured
models (every non-global variable carries a time index, parents restricted to
the same slice, the previous slice, or parentless globals) additionally get an
exact forward-backward engine, so conditioning and smoothing stay cheap on
long unrollings; both routes compute the same sums. The engine folds the
globals into every slice's state, so the unrolled model is a single chain,
and takes noisy observations of slice variables as per-slice likelihoods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from ._util import at, indented_json, json_object, left_sum, member, parse_json, typed
from .config import SMOOTH_SLICE_LIMIT, DbnParams, DbnSpec, Topology
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
SLICE_STATE_LIMIT = 8   # max own (non-global) variables per slice; globals add to it
ENGINE_PREFERENCE = 12  # conditionals route to the engine above this many free vars


# ---------------------------------------------------------------------------
# Variables and models
# ---------------------------------------------------------------------------

class VarId(NamedTuple):
    """A name, and a slice if time-indexed: a tuple, so it hashes in C."""

    name: str
    slice: int | None = None

    def __str__(self) -> str:
        return self.name if self.slice is None else f"{self.name}@{self.slice}"


def parse_var(text: str) -> VarId:
    if "@" in text:
        name, _, idx = text.rpartition("@")
        if not name or not idx.isdecimal():  # isdigit takes '²', which int() refuses
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
        """Check the model and find each variable's depth in one walk of the
        parents, in O(V + E), then set `order` by a stable sort on depth. The
        first fault raises: per variable in declaration order, a name that
        is not a non-empty `str`, a slice that is not an `int` >= 0 or None
        (which `load_model` refuses too), a duplicate; per variable, an
        unknown parent, a CPT of the wrong row count, an entry outside [0,1];
        a CPT key that is no variable; an unknown latent; a cycle. `order` is
        by (longest-path depth, declaration index); `DbnEngine` lays out its
        state bits in it, so it must not change.

        A variable whose parents are all placed is placed at its own turn,
        at depth 1 + their deepest. One with a parent not yet placed
        (declared later, or itself waiting) waits on it, and placing that
        parent places the children it releases: Kahn's algorithm on those
        late edges alone. A variable never placed lies on or below a cycle."""
        variables, parents, cpts = self.variables, self.parents, self.cpts
        index: dict[VarId, int] = {}
        for i, v in enumerate(variables):
            name, at = v
            if type(name) is not str or not name:
                raise SpecError(f"variable {i} must have a non-empty str name, got {name!r}")
            # `True == 1`, but a model file holds a slice as an integer >= 0
            if at is not None and (type(at) is not int or at < 0):
                raise SpecError(f"slice of {v} must be an int >= 0 or None, got {at!r}")
            if v in index:
                raise SpecError(f"duplicate variable {v}")
            index[v] = i
        depth = [0] * len(variables)
        waiting = [1] * len(variables)  # its own turn, then each late parent edge
        late: dict[int, list[int]] = {}  # a variable not yet placed -> children waiting on it
        for i, v in enumerate(variables):
            ps = parents.get(v, ())
            d = 0
            for p in ps:
                j = index.get(p)
                if j is None:
                    raise SpecError(f"parent {p} of {v} is not a model variable")
                if waiting[j]:
                    late.setdefault(j, []).append(i)
                    waiting[i] += 1
                elif d <= depth[j]:
                    d = depth[j] + 1
            cpt = cpts.get(v)
            if cpt is None or len(cpt) != 2 ** len(ps):
                raise SpecError(f"CPT for {v} must have {2 ** len(ps)} rows")
            for entry in cpt:
                if not 0.0 <= entry <= 1.0:
                    raise SpecError(f"CPT entry out of [0,1] for {v}: {entry}")
            depth[i] = d
            waiting[i] -= 1
            if late and not waiting[i]:
                placed = [i]
                for j in placed:  # `placed` grows while it is walked
                    d = depth[j] + 1
                    for c in late.pop(j, ()):
                        if depth[c] < d:
                            depth[c] = d
                        waiting[c] -= 1
                        if not waiting[c]:
                            placed.append(c)
        if len(cpts) != len(variables):  # each variable has one, so a key names none
            extra = next(v for v in cpts if v not in index)
            raise SpecError(f"CPT key {extra} is not a model variable")
        for v in self.latent:
            if v not in index:
                raise SpecError(f"latent {v} is not a model variable")
        if late:
            raise SpecError("parent relation contains a cycle")
        by_depth = sorted(range(len(variables)), key=depth.__getitem__)  # stable: ties by index
        object.__setattr__(self, "order", tuple([variables[i] for i in by_depth]))

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


def _check_evidence(m: Cgm, evidence: Assignment, what: str):
    """`_check_assignment` for an assignment conditioned on, which may name
    no latent variable; `observational` and `interventional` both ask it."""
    _check_assignment(m, evidence, what)
    for v in evidence:
        if v in m.latent:
            raise LatentEvidenceError(f"cannot condition on latent {v}")


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

    Above 12 free variables a slice-structured model goes to the exact slice
    engine's `conditional`; anything else is enumerated. Both routes raise
    ZeroEvidenceError when p(given) = 0, whatever the target, and only then
    return 0.0 for a target that contradicts `given`.
    """
    _check_assignment(m, target, "target")
    _check_evidence(m, given, "given")
    free = len(m.variables) - len(given)
    if free > ENGINE_PREFERENCE:
        try:
            engine = DbnEngine(m)
        except TooLargeError:
            engine = None  # not slice-structured; fall back to enumeration
        if engine is not None:
            return engine.conditional(target, given)
    pe = marginal(m, given)
    if pe == 0.0:
        raise ZeroEvidenceError("conditioning event has probability zero")
    joint = _merged(target, given)
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
    intervened slice (condition on the past, intervene on the future), and
    never on a latent variable.
    """
    evidence = dict(evidence or {})
    _check_assignment(m, do, "intervention")
    _check_evidence(m, evidence, "evidence")
    if not do:
        return observational(m, target, evidence)
    mutilated = do_transform(m, do)  # refuses a latent intervention before the order checks
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
    return observational(mutilated, target, _merged(do, evidence))


# ---------------------------------------------------------------------------
# Tactic topologies unrolled over time
# ---------------------------------------------------------------------------

def _check_spec(spec: DbnSpec) -> None:
    """Raise SpecError unless the slice count and parameters give valid
    CPTs: at least one slice, every parameter in [0,1], the spontaneous rate
    below 1 and no cause strength below it."""
    if spec.slices < 1:
        raise SpecError("slice count must be >= 1")
    p = spec.params
    if not 0.0 <= p.spontaneous < 1.0:
        raise SpecError("spontaneous rate must be in [0,1)")
    for f in fields(DbnParams):
        value = getattr(p, f.name)
        if not 0.0 <= value <= 1.0:
            raise SpecError(f"{f.name} must be in [0,1]")
    for name in ("persistence", "edge_strength", "confounder_strength"):
        if getattr(p, name) < p.spontaneous:
            raise SpecError(f"cause strength {getattr(p, name)} below spontaneous rate "
                            f"{p.spontaneous}")


def _noisy_or_weight(singleton: float, spontaneous: float) -> float:
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


# The three tactic sub-graphs: per topology, its tactic variables in
# declaration order, each with its causes within a slice.
TACTIC_CAUSES = {
    Topology.CHAIN_A: {"Z": (), "X": ("Z",), "Y": ("X",)},
    Topology.FORK_B: {"Z": (), "X": (), "Y": ("Z", "X")},
    Topology.CONFOUNDED_C: {"X": (), "Y": ("X",)},  # X -> Y only where the schedule is on
}


def build_topology(spec: DbnSpec) -> Cgm:
    """Unroll one of the three tactic sub-graphs of `TACTIC_CAUSES` into a Cgm.

    A variable's parents are, in this order, its own previous slice, the
    confounder, then its causes in the table. In confounded-c a single
    global latent U drives X_t and Y_t on every slice (or a fresh U_t per
    slice when `per_slice_confounder` is set), and the table's X_t -> Y_t
    edge is switched per slice by the schedule. A variable without parents
    is a root at slice 0, active with `root_activation`. Each VarId is made
    once: a slice's and the previous slice's serve as the parents.
    """
    _check_spec(spec)
    p = spec.params
    schedule = spec.effective_schedule()
    if len(schedule) != spec.slices:
        raise SpecError(f"schedule length {len(schedule)} != slice count {spec.slices}")

    w_persist = _noisy_or_weight(p.persistence, p.spontaneous)
    w_edge = _noisy_or_weight(p.edge_strength, p.spontaneous)
    w_conf = _noisy_or_weight(p.confounder_strength, p.spontaneous)
    confounded = spec.topology is Topology.CONFOUNDED_C
    # one CPT per tuple of cause weights, shared by every variable with them
    noisy_or = functools.cache(lambda weights: _noisy_or_cpt(weights, p.spontaneous))
    parents: dict = {}  # in declaration order
    cpts: dict = {}
    latent: set = set()
    before: dict = {}  # name -> the previous slice's VarId
    for t in range(spec.slices):
        if confounded and (t == 0 or spec.per_slice_confounder):
            u = VarId("U", t if spec.per_slice_confounder else None)
            parents[u] = ()
            cpts[u] = (p.confounder_prior,)
            latent.add(u)
        now: dict = {}  # name -> this slice's VarId, the parent of its later tactics
        for name, within in TACTIC_CAUSES[spec.topology].items():
            ps, ws = ([before[name]], [w_persist]) if t else ([], [])
            if confounded:
                ps.append(u)
                ws.append(w_conf)
            if not confounded or schedule[t]:
                for c in within:
                    ps.append(now[c])
                    ws.append(w_edge)
            v = now[name] = VarId(name, t)
            parents[v] = tuple(ps)
            cpts[v] = noisy_or(tuple(ws)) if ps else (p.root_activation,)
        before = now
    return Cgm(variables=tuple(parents), parents=parents, cpts=cpts,
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
    """Exact inference on slice-structured models, as one chain.

    Each slice's state is the joint assignment of the parentless global
    variables and of the slice's own variables, held as an array indexed
    [globals, own]. The globals' prior enters slice 0's initial array,
    every transition is a stack of one (previous, current) block per global
    assignment, so their values carry over unchanged from slice to slice,
    and evidence on a global masks slice 0 (static nodes as part of every
    slice's hidden state, Murphy 2002, ch. 3). Queries take optional
    per-slice `likelihoods` (from `frame_likelihoods`, one shared array per
    slice layout, frame and noise), multiplied into each slice with its
    evidence masks. One scaled forward filter answers `loglik`, and
    `conditional` is two of them. `posteriors` is the one smoothing call:
    the filter and a backward pass scaled by its divisors give every
    posterior, the last slice's filtered state and `loglik` at once. The
    same backward recursion gives `prediction_vectors`, which predict from a
    filtered state by a dot product. Computes the identical sums to full
    enumeration, without the exponential blow-up in the number of slices.
    Its build checks and keys each slice in one walk.
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
        self.pos: dict[VarId, int] = {g: j for j, g in enumerate(self.globals)}
        # One walk per slice checks its size and parents' slices and keys its
        # transition: the previous slice's size and, per variable, its parents
        # as (None for a global or the slice offset, position) and its CPT
        # rows, spelled out if they hold a zero (-0.0 == 0.0, but the
        # products keep the sign). Equal keys share one transition.
        keys, self._frame_layout, self._frame_table = [], [], {}  # see `frame_likelihoods`
        for t, svars in enumerate(self.slice_vars):
            if len(svars) > SLICE_STATE_LIMIT:
                raise TooLargeError(
                    f"slice {t} has {len(svars)} variables; engine limit is "
                    f"{SLICE_STATE_LIMIT}")
            key = [len(self.slice_vars[t - 1]) if t else 0]
            for i, v in enumerate(svars):
                self.pos[v] = i
                parents = []
                for q in m.parents.get(v, ()):
                    if q.slice is not None and q.slice not in (t, t - 1):
                        raise TooLargeError(
                            f"model is not slice-structured: {v} depends on {q}")
                    parents.append((None if q.slice is None else t - q.slice, self.pos[q]))
                cpt = m.cpts[v]
                key.append((tuple(parents), cpt if 0.0 not in cpt else tuple(map(repr, cpt))))
            keys.append(tuple(key))
            # what a frame's array depends on: the size and the observed positions
            self._frame_layout.append(
                (len(svars), tuple((v.name, i) for i, v in enumerate(svars) if v not in m.latent)))
        # bit value of each of n variables per state index, LSB = first: one
        # array per count, shared by the globals and the slices that have it
        layouts = {n: (np.arange(2 ** n)[None, :] >> np.arange(n)[:, None]) & 1
                   for n in {len(self.globals)} | {len(svars) for svars in self.slice_vars}}
        self.global_bits = layouts[len(self.globals)]
        self.bits: list[np.ndarray] = [layouts[len(svars)] for svars in self.slice_vars]
        # the order of `posteriors`' vector
        self.outputs: tuple[VarId, ...] = tuple(
            self.globals + [v for svars in self.slice_vars for v in svars])

        def readout(bits: np.ndarray) -> np.ndarray:
            """Per flattened [globals, own] state: 1, then each global's bit,
            then each own variable's bit."""
            g, s = self.global_bits.shape[1], bits.shape[1]
            columns = np.concatenate([np.ones((1, g, s)),
                                      np.broadcast_to(self.global_bits[:, :, None],
                                                      (len(self.globals), g, s)),
                                      np.broadcast_to(bits[:, None, :], (len(bits), g, s))])
            return columns.reshape(len(columns), g * s).T.copy()

        # one per layout, that is per own-variable count
        readouts = {n: readout(layouts[n]) for n in {len(svars) for svars in self.slice_vars}}
        self._readout = [readouts[len(svars)] for svars in self.slice_vars]
        self._uniform = len(readouts) == 1
        self._init = self._slice_factor(0)[:, 0, :]
        factors: dict[tuple, np.ndarray] = {}
        self._trans = []
        for t in range(1, self.T):
            if keys[t] not in factors:
                factors[keys[t]] = self._slice_factor(t)
            self._trans.append(factors[keys[t]])

    def _slice_factor(self, t: int) -> np.ndarray:
        """The transition into slice t, indexed [globals, prev, cur]; the
        globals axis has length 1 when it does not depend on them. Slice 0
        comes from a one-state previous slice, with the globals' prior
        multiplied in after its CPTs. Read-only."""
        factor = np.ones((1, self.bits[t - 1].shape[1] if t else 1, self.bits[t].shape[1]))

        def bit(v: VarId) -> np.ndarray:
            """`v`'s value, on the factor's axis for its slice."""
            if v.slice is None:
                return self.global_bits[self.pos[v]][:, None, None]
            b = self.bits[v.slice][self.pos[v]]
            return b[None, None, :] if v.slice == t else b[None, :, None]

        for v in self.slice_vars[t] + (self.globals if t == 0 else []):
            row = 0
            for parent in self.m.parents.get(v, ()):
                row = (row << 1) | bit(parent)
            p1 = np.asarray(self.m.cpts[v])[row]
            factor = factor * np.where(bit(v) == 1, p1, 1.0 - p1)
        factor.flags.writeable = False  # slices with equal keys share it
        return factor

    def frame_likelihoods(self, frames, miss: float, false_pos: float) -> list[np.ndarray]:
        """Frame i, {name: observed bit}, as slice i's likelihood array: each
        bit is the variable's copy flipped as in `attach_emissions`, summed
        out into p(bit | variable) (virtual evidence, Pearl 1988, 2.2.2), in
        frame order. Names the slice lacks, and latent variables, are skipped;
        a bit outside 0/1 zeroes the array. Each array is read-only and kept
        per slice layout, frame and noise (-0.0 as 0.0): equal keys share one."""
        if not (0.0 <= miss <= 1.0 and 0.0 <= false_pos <= 1.0):
            raise SpecError(f"emission noise must be in [0,1], got {miss}, {false_pos}")
        if len(frames) > self.T:
            raise SpecError(f"{len(frames)} frames for a model of {self.T} slices")
        miss, false_pos = miss + 0.0, false_pos + 0.0
        out, emit = [], None
        for bits, layout, frame in zip(self.bits, self._frame_layout, frames):
            key = (layout, tuple(frame.items()), miss, false_pos)
            if (lik := self._frame_table.get(key)) is None:
                if emit is None:  # built on the call's first miss
                    # observed bit -> [p(bit | variable = 0), p(bit | variable = 1)]
                    emit = {0: np.array([1.0 - false_pos, miss]),
                            1: np.array([false_pos, 1.0 - miss])}
                    other = np.zeros(2)
                observed = dict(layout[1])
                lik = np.ones((1, bits.shape[1]))
                for name, bit in frame.items():
                    if name in observed:
                        lik = lik * emit.get(bit, other)[bits[observed[name]]]
                lik.flags.writeable = False
                self._frame_table[key] = lik
            out.append(lik)
        return out

    def _weights(self, assignment: Assignment, likelihoods) -> dict[int, np.ndarray] | None:
        """Per-slice products of the assignment's 0/1 masks, a global's on
        slice 0, and of the likelihoods; None for a value outside 0/1."""
        weights: dict[int, np.ndarray] = {}
        for v, value in assignment.items():
            i = self.pos[v]
            if value not in (0, 1):
                return None
            if v.slice is None:
                t, mask = 0, (self.global_bits[i] == value).astype(float).reshape(-1, 1)
            else:
                t, mask = v.slice, (self.bits[v.slice][i] == value).astype(float).reshape(1, -1)
            weights[t] = weights[t] * mask if t in weights else mask
        for t, lik in enumerate(likelihoods):
            weights[t] = weights[t] * lik if t in weights else lik
        return weights

    def _forward(self, evidence: Assignment, likelihoods):
        """The scaled forward filter from the prior: (weights, alphas, divisors)
        or None if the evidence is impossible. alphas[t] is p(state_t, e_t |
        e_<t) and sums to divisors[t] = p(e_t | e_<t), except the last, which
        is normalized."""
        weights = self._weights(evidence, likelihoods)
        if weights is None:
            return None
        alpha = self._init * weights[0] if 0 in weights else self._init
        c = alpha.sum()
        if c == 0.0:
            return None
        alphas, scales = [alpha], [c]
        for t in range(1, self.T):
            nxt = np.matmul(alpha[:, None, :], self._trans[t - 1])[:, 0, :]
            alpha = (nxt * weights[t] if t in weights else nxt) / c
            c = alpha.sum()
            if c == 0.0 and t in weights:
                # the product can underflow where the divided one does not
                alpha = nxt / scales[-1] * weights[t]
                c = alpha.sum()
            if c == 0.0:
                return None
            alphas.append(alpha)
            scales.append(c)
        alphas[-1] = alpha / c
        return weights, alphas, scales

    def _backward(self, beta: np.ndarray, weights: dict, s: int, scales=None,
                  keep=None) -> list:
        """Carry `beta`, a function of the last slice's state, back to slice
        s: [beta_s, ..., beta_{T-1}] with beta_t = trans_t @ (weights_{t+1} *
        beta_{t+1}), divided by scales[t+1] when given (the forward
        divisors: Rabiner 1989, sec. V.A) and zeroed outside keep[t] when
        that is given."""
        betas = [beta]
        for t in range(self.T - 2, s - 1, -1):
            nxt = betas[-1] * weights[t + 1] if t + 1 in weights else betas[-1]
            beta = np.matmul(self._trans[t], nxt[:, :, None])[:, :, 0]
            if scales is not None:
                beta = beta / scales[t + 1]
            betas.append(beta if keep is None else np.where(keep[t], beta, 0.0))
        return betas[::-1]

    def loglik(self, evidence: Assignment, likelihoods=()) -> float:
        """log p(evidence); -inf when the evidence is impossible. Forward only."""
        fwd = self._forward(evidence, likelihoods)
        return left_sum(math.log(c) for c in fwd[2]) if fwd is not None else float("-inf")

    def posteriors(self, evidence: Assignment,
                   likelihoods=()) -> tuple[np.ndarray, np.ndarray, float]:
        """The library's smoothing, for any slice-structured model, in one
        forward-backward pass: p(var = 1 | evidence) for every variable as a
        vector in `outputs` order, the normalized filtered state of the last
        slice, and `loglik`."""
        fwd = self._forward(evidence, likelihoods)
        if fwd is None:
            raise ZeroEvidenceError("conditioning event has probability zero")
        weights, alphas, scales = fwd
        # The scaled beta_t is at most 1 / p(e_>t | e_<=t) <= 1 / p(e). Below
        # p(e) ~ 1e-290 it can overflow on states alpha_t rules out, and 0 *
        # inf would poison the sums; zeroing it there changes no gamma.
        keep = [a > 0 for a in alphas] if math.prod(scales) < 1e-290 else None
        betas = self._backward(np.ones(alphas[-1].shape), weights, 0, scales, keep)
        # gamma_t = alpha_t * beta_t; its read-out row is [total, the globals'
        # p(var = 1), the slice's own], unnormalized; one stacked product when
        # every slice has one layout (the tactic models), else one per slice
        n = len(self.globals) + 1
        if self._uniform:
            rows = (np.array(alphas) * np.array(betas)).reshape(self.T, -1) @ self._readout[0]
            own = (rows[:, n:] / rows[:, :1]).reshape(-1)
        else:
            rows = [(a * b).reshape(-1) @ r for a, b, r in zip(alphas, betas, self._readout)]
            own = np.concatenate([row[n:] / row[0] for row in rows])
        return (np.concatenate([rows[0][1:n] / rows[0][0], own]), alphas[-1],
                left_sum(math.log(c) for c in scales))

    def prediction_vectors(self, target: Assignment, evidence: Assignment,
                           s: int) -> tuple[np.ndarray, np.ndarray]:
        """p(target, evidence | state at slice s-1) and p(evidence | state),
        flattened like that slice's [globals, own] state, for a target in the
        last slice and evidence after slice s-1. A filtered state `alpha` of a
        model whose slices 0..s-1 are this one's then predicts p(target |
        earlier evidence, evidence) as (alpha . first) / (alpha . second)
        (filter, then predict: Murphy 2002, ch. 3)."""
        weights, on = self._weights(evidence, ()), self._weights(target, ())
        shape = (self.global_bits.shape[1], self.bits[s - 1].shape[1])
        num, den = (np.broadcast_to(self._backward(last, weights, s - 1)[0], shape).reshape(-1)
                    for last in (on[self.T - 1], np.ones((1, self.bits[-1].shape[1]))))
        return num, den

    def conditional(self, target: Assignment, evidence: Assignment, likelihoods=()) -> float:
        """p(target | evidence), in `observational`'s error order: impossible
        evidence raises ZeroEvidenceError, and only then is a target that
        contradicts it, or an impossible joint, 0.0. Otherwise it is the
        joint's likelihood over the evidence's."""
        ll_e = self.loglik(evidence, likelihoods)
        if ll_e == float("-inf"):
            raise ZeroEvidenceError("conditioning event has probability zero")
        joint = _merged(target, evidence)
        return math.exp(self.loglik(joint, likelihoods) - ll_e) if joint is not None else 0.0


def check_smoothing_slices(T: int) -> None:
    """Refuse to smooth over more than 16 slices."""
    if T > SMOOTH_SLICE_LIMIT:
        raise TooLargeError(f"smoothing supports at most {SMOOTH_SLICE_LIMIT} slices, got {T}")


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
    return indented_json(model_to_obj(m))


_MODEL_KEYS = {"variables", "parents", "cpts"}
_VARIABLE_KEYS = {"name", "slice", "latent"}
_SPEC_KEYS = {"topology", "slices", "schedule", "params", "per_slice_confounder"}
_PARAM_DEFAULTS = {f.name: f.default for f in fields(DbnParams)}


def load_model(text: str) -> Cgm:
    obj = json_object(parse_json(text, "model"), "", _MODEL_KEYS)
    variables = []
    latent = set()
    for i, entry in enumerate(member(obj, "variables", list)):
        where = at("variables", i)
        entry = json_object(entry, where, _VARIABLE_KEYS)
        v = VarId(member(entry, "name", str, where), member(entry, "slice", int, where, None))
        if not v.name:
            raise ParseError(f"{where}.name must not be empty")
        if v.slice is not None and v.slice < 0:  # `parse_var` reads no X@-1
            raise ParseError(f"{where}.slice must be an integer >= 0 or null")
        variables.append(v)
        if member(entry, "latent", bool, where, False):
            latent.add(v)
    parents = {parse_var(k): tuple(map(parse_var, typed(ps, [str], "parents", k)))
               for k, ps in member(obj, "parents", dict).items()}
    cpts = {parse_var(k): tuple(typed(rows, [float], "cpts", k))
            for k, rows in member(obj, "cpts", dict).items()}
    declared = set(variables)
    for key, table in (("parents", parents), ("cpts", cpts)):
        for v in table:
            if v not in declared:
                raise ParseError(f"model '{key}' names undeclared variable '{v}'")
    try:
        return Cgm(variables=tuple(variables), parents=parents, cpts=cpts,
                   latent=frozenset(latent))
    except SpecError as exc:
        raise ParseError(f"bad model: {exc}") from None


def load_spec(text: str) -> DbnSpec:
    obj = json_object(parse_json(text, "DBN spec"), "", _SPEC_KEYS)
    try:
        topology = Topology(member(obj, "topology", str))
    except ValueError:
        raise ParseError("topology must be one of chain-a, fork-b or confounded-c") from None
    schedule = member(obj, "schedule", [(bool, int)], "", None, within=(0, 1))
    if schedule == []:
        raise ParseError("schedule must be null or a non-empty list")
    params = json_object(obj.get("params", {}), "params", set(_PARAM_DEFAULTS))
    spec = DbnSpec(
        topology=topology,
        slices=member(obj, "slices", int),
        schedule=None if schedule is None else tuple(map(bool, schedule)),
        params=DbnParams(**{name: member(params, name, float, "params", default)
                            for name, default in _PARAM_DEFAULTS.items()}),
        per_slice_confounder=member(obj, "per_slice_confounder", bool, "", False),
    )
    try:
        _check_spec(spec)
    except SpecError as exc:
        raise ParseError(f"bad DBN spec: {exc}") from None
    return spec


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
        if out.setdefault(v, int(value)) != int(value):
            raise ParseError(f"variable '{v}' is given both 0 and 1")
    return out
