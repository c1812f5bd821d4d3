"""Tactic-level threat detection over episode logs.

Maps ground-truth episode events to noisy per-step indicator bits for the
three modelled tactics (Z command-and-control, X lateral movement,
Y collection), scores sequences with exact model likelihoods, and classifies
malign vs. benign by log-likelihood ratio.

Indicator mapping: Z fires on the beaconing schedule (step 0 and every fifth
step while anything is compromised at the start of the step), X fires on any
compromise attempt, Y fires on any credential loot. Noise flips each bit
independently: 1 -> 0 with probability `miss`, 0 -> 1 with `false_pos`, one
draw per bit in frame order, tactics ordered Z, X, Y. The malign model's
slice count is its `DbnEngine`'s: a model the engine refuses raises its
TooLargeError, and one whose slice count is not the frame count SpecError.
`classify` scores only the null model `benign_model_like(malign)`, without
an engine, from the malign engine's `frame_likelihoods` arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import __version__
from ._util import indented_json, left_sum, versioned_csv
from .causal import Cgm, DbnEngine, check_smoothing_slices
from .config import EmissionNoise
from .errors import SpecError, ZeroEvidenceError
from .game import EpisodeLog

TACTICS = ("Z", "X", "Y")
BEACON_PERIOD = 5


@dataclass(frozen=True)
class IndicatorSequence:
    frames: tuple[dict, ...]  # in step order: tactic name -> 0/1, all of TACTICS present


@dataclass(frozen=True)
class DetectionResult:
    label: str  # "benign" | "malign"
    llr: float
    posterior_trace: tuple[dict, ...]  # per slice: tactic -> posterior

    def to_obj(self) -> dict:
        return {
            "version": __version__,
            "label": self.label,
            "llr": self.llr,
            "posterior": [
                {"t": t, **row}
                for t, row in enumerate(self.posterior_trace)
            ],
        }

    def to_json(self) -> str:
        return indented_json(self.to_obj())


# ---------------------------------------------------------------------------
# Indicator extraction
# ---------------------------------------------------------------------------

class TruthTracker:
    """Noise-free tactic bits step by step, from the entry set and the events.

    Tracks the compromised set the beaconing bit needs without reading game
    state: entry nodes start compromised, successful attempts add a node and
    restores remove one.
    """

    def __init__(self, entry):
        self.compromised = set(entry)

    def step(self, t: int, events) -> dict:
        """Bits for the step that started at `t` and produced `events`."""
        # Z reads the set as it was at the start of the step
        bits = {"Z": int(t % BEACON_PERIOD == 0 and bool(self.compromised)), "X": 0, "Y": 0}
        for e in events:
            kind = e.kind
            if kind == "attempt":
                bits["X"] = 1
                if e.outcome == "success":
                    self.compromised.add(e.node)
            elif kind == "loot":
                bits["Y"] = 1
            elif kind == "restore":
                self.compromised.discard(e.node)
        return bits


def ground_truth_bits(log: EpisodeLog) -> list[dict]:
    """Noise-free tactic bits per step, reconstructed from the event stream."""
    tracker = TruthTracker(log.scenario.attacker.entry)
    return [tracker.step(rec.t, rec.outcome.events) for rec in log.steps]


def apply_noise(bits: dict, noise: EmissionNoise, rng: random.Random) -> dict:
    noisy = {}
    for tactic in TACTICS:
        u = rng.random()
        if bits[tactic] == 1:
            noisy[tactic] = 0 if u < noise.miss else 1
        else:
            noisy[tactic] = 1 if u < noise.false_pos else 0
    return noisy


def extract_indicators(log: EpisodeLog, noise: EmissionNoise, seed: int) -> IndicatorSequence:
    """Noisy indicator frames for a whole episode; deterministic given seed."""
    rng = random.Random(seed)
    return IndicatorSequence(tuple(apply_noise(bits, noise, rng)
                                   for bits in ground_truth_bits(log)))


def sequence_to_csv(seq: IndicatorSequence) -> str:
    return versioned_csv("t,Z,X,Y", ((t, f["Z"], f["X"], f["Y"])
                                     for t, f in enumerate(seq.frames)))


# ---------------------------------------------------------------------------
# Likelihoods and classification
# ---------------------------------------------------------------------------

def benign_model_like(m: Cgm) -> Cgm:
    """Null reference: the same tactic variables clamped inactive, so any
    observed activity is pure false-positive noise."""
    variables = tuple(v for v in m.variables if v not in m.latent)
    return Cgm(
        variables=variables,
        parents={v: () for v in variables},
        cpts={v: (0.0,) for v in variables},
        latent=frozenset(),
    )


def _null_loglik(benign: Cgm, malign: Cgm, likelihoods) -> float:
    """log p(seq | benign) without an engine, to the bit its engine's filter
    would give, from `likelihoods`, the malign engine's `frame_likelihoods`
    arrays; SpecError unless `benign` is `benign_model_like(malign)` and
    keeps a variable in every slice. Its transitions send every state to the
    all-off one with factor 1.0, so the filter adds only exact zeros to the
    scalar c_t = (c_{t-1} * p_t) / c_{t-1}, p_t the frame's likelihood when
    all is off: entry [0, 0] of its array, state 0 having every bit 0."""
    null = tuple(v for v in malign.variables if v not in malign.latent)
    if (benign.variables != null or benign.latent
            or not {v.slice for v in null}.issuperset(range(len(likelihoods)))
            or any(benign.parents.get(v) or benign.cpts[v] != (0.0,) for v in null)):
        raise SpecError("the benign model must be benign_model_like(malign), and every "
                        "slice of malign must hold a variable that is not latent")
    c, logs = 1.0, []
    for lik in likelihoods:
        p = float(lik[0, 0])
        # c_0 = p_0; divided first where the product underflows, as `_forward`
        c = c * p / c or c / c * p
        if c == 0.0:
            return float("-inf")
        logs.append(math.log(c))
    return left_sum(logs)


def classify(seq: IndicatorSequence, benign: Cgm, malign: Cgm,
             emission: EmissionNoise, threshold: float = 0.0) -> DetectionResult:
    """Label a sequence by log-likelihood ratio, with the smoothed posterior
    of every tactic under the malign model as supporting trace, from one
    filter pass; it and the null model read one `frame_likelihoods` call's
    arrays. A sequence the malign model cannot produce has llr -inf (0.0
    if the benign model cannot either) and an empty trace row per frame.
    More than 16 frames raise TooLargeError before any engine is built.
    `benign` must be the null model `benign_model_like(malign)`, which needs
    no engine; any other raises SpecError."""
    check_smoothing_slices(len(seq.frames))
    engine = DbnEngine(malign)
    if engine.T != len(seq.frames):
        raise SpecError(f"model has {engine.T} slices but the sequence has "
                        f"{len(seq.frames)} frames")
    likelihoods = engine.frame_likelihoods(seq.frames, *emission)
    trace = [{} for _ in seq.frames]
    try:
        smoothed, _, ll_malign = engine.posteriors({}, likelihoods)
    except ZeroEvidenceError:
        ll_malign = float("-inf")
    else:
        for v, p in zip(engine.outputs, smoothed.tolist()):
            if v.name in TACTICS and v.slice is not None:
                trace[v.slice][v.name] = p
    ll_benign = _null_loglik(benign, malign, likelihoods)
    if ll_malign == float("-inf") and ll_benign == float("-inf"):
        llr = 0.0
    else:
        llr = ll_malign - ll_benign

    return DetectionResult(
        label="malign" if llr > threshold else "benign",
        llr=llr,
        posterior_trace=tuple(trace),
    )

