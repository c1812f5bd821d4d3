"""Deterministic arena for active cyber defence experiments.

Modules cover the static scenario model (`netmodel`), the option types the
command line reads (`config`), the stochastic lateral-movement game
(`game`), scripted and learning policies (`agents`), discrete causal
graphical models (`causal`), tactic-level threat detection (`detect`), the
closed detection/mitigation loop (`loop`), and the command line front end
(`cli`).
"""

__version__ = "0.1.0"
