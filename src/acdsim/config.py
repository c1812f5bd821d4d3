"""The option types the command line reads, free of numpy, so that a command
that builds no engine loads neither numpy nor `causal`, `detect` or `loop`,
which re-export each type under its usual name."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .errors import SpecError

SMOOTH_SLICE_LIMIT = 16


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


class EmissionNoise(NamedTuple):
    miss: float = 0.2
    false_pos: float = 0.05


class AutonomyLevel(Enum):
    ADVISE = "advise"
    CONFIRM = "confirm"
    AUTO = "auto"


@dataclass(frozen=True)
class LoopConfig:
    autonomy: AutonomyLevel = AutonomyLevel.ADVISE
    tau: float = 0.8                      # posterior threshold; > 1 never fires
    dbn: DbnSpec = DbnSpec(Topology.CHAIN_A, slices=8)
    emission: EmissionNoise = EmissionNoise()
    candidates: tuple = (("X", 0), ("Y", 0))  # (tactic, forced value) or None for do-nothing
    window: int = 8
    lookahead: int = 2

    def __post_init__(self):
        if not 1 <= self.window <= SMOOTH_SLICE_LIMIT:
            raise SpecError(f"window must be in 1..{SMOOTH_SLICE_LIMIT}, got {self.window}")
        if self.lookahead < 1:
            raise SpecError("lookahead must be >= 1")
        if math.isnan(self.tau):
            raise SpecError("tau must be a number, got nan")
        if not all(0.0 <= p <= 1.0 for p in self.emission):  # also refuses NaN
            raise SpecError(f"emission noise must be in [0,1], got {tuple(self.emission)}")
        if not self.candidates:
            raise SpecError("candidate intervention list is empty")
